#include "nn/graph_ir.h"

#include <algorithm>
#include <cmath>

#include "nn/matrix.h"
#include "nn/ops.h"
#include "util/logging.h"

// The int8 serving kernels get an AVX2 inner product via the per-function
// target attribute, so it is available even in the default (baseline
// x86-64) build — unlike the fp32 AVX2 GEMMs in matrix.cc, which need
// HISRECT_NATIVE_ARCH because float vectorization must preserve the scalar
// summation order. Integer dot products are exact under any association,
// so the vector and scalar paths here return identical int32 values and
// runtime dispatch cannot affect results.
#if defined(__x86_64__) && defined(__GNUC__)
#define HISRECT_QUANT_AVX2 1
#include <immintrin.h>
#endif

namespace hisrect::nn {

// Each kind is one shape function plus one kernel. Shape functions validate
// the operand count too, and compare in 64 bits, so no attribute can wrap a
// bound. Kernels overwrite `out` in full. Loop order and accumulator widths
// are part of each kernel's contract (float/double as written; matmuls go
// through the blocked kernels in matrix.h): training, the goldens and every
// plan replay read these exact bits.
namespace {

using Shape = std::optional<Dims>;

bool Unary(const KernelArgs& k) { return k.num_in == 1; }
bool Binary(const KernelArgs& k) { return k.num_in == 2; }

// ---------------------------------------------------------------------------
// kMatMul

Shape MatMulShape(const KernelArgs& k) {
  if (!Binary(k) || k.in[0].cols != k.in[1].rows) return std::nullopt;
  return Dims{k.in[0].rows, k.in[1].cols};
}

void MatMulForward(const KernelArgs& k) {
  MatMulInto(k.in[0].data, k.in[0].rows, k.in[0].cols, k.in[1].data,
             k.in[1].cols, k.out);
}

// ---------------------------------------------------------------------------
// Elementwise binary: kAdd, kSub, kMul

Shape SameShape2(const KernelArgs& k) {
  if (!Binary(k) || k.in[0].rows != k.in[1].rows ||
      k.in[0].cols != k.in[1].cols) {
    return std::nullopt;
  }
  return Dims{k.in[0].rows, k.in[0].cols};
}

// out[i] = f(a[i], b[i]).
template <typename F>
void Zip(const KernelArgs& k, F f) {
  const float* a = k.in[0].data;
  const float* b = k.in[1].data;
  const size_t n = k.out_dims.size();
  for (size_t i = 0; i < n; ++i) k.out[i] = f(a[i], b[i]);
}

void AddForward(const KernelArgs& k) {
  Zip(k, [](float a, float b) { return a + b; });
}
void SubForward(const KernelArgs& k) {
  Zip(k, [](float a, float b) { return a - b; });
}
void MulForward(const KernelArgs& k) {
  Zip(k, [](float a, float b) { return a * b; });
}

// ---------------------------------------------------------------------------
// kAddBroadcastRow, kMulBroadcastRow

Shape BroadcastRowShape(const KernelArgs& k) {
  if (!Binary(k) || k.in[1].rows != 1 || k.in[0].cols != k.in[1].cols) {
    return std::nullopt;
  }
  return Dims{k.in[0].rows, k.in[0].cols};
}

// out[i][j] = f(x[i][j], row[j]).
template <typename F>
void BroadcastRow(const KernelArgs& k, F f) {
  const Operand& x = k.in[0];
  const float* r = k.in[1].data;
  for (size_t i = 0; i < x.rows; ++i) {
    const float* x_row = x.data + i * x.cols;
    float* out_row = k.out + i * x.cols;
    for (size_t j = 0; j < x.cols; ++j) out_row[j] = f(x_row[j], r[j]);
  }
}

void AddBroadcastRowForward(const KernelArgs& k) {
  BroadcastRow(k, [](float x, float r) { return x + r; });
}
void MulBroadcastRowForward(const KernelArgs& k) {
  BroadcastRow(k, [](float x, float r) { return x * r; });
}

// ---------------------------------------------------------------------------
// Elementwise unary: kScale, kRelu, kTanh, kSigmoid, kAbs

Shape SameShape1(const KernelArgs& k) {
  if (!Unary(k)) return std::nullopt;
  return Dims{k.in[0].rows, k.in[0].cols};
}

// out[i] = f(x[i]).
template <typename F>
void Map(const KernelArgs& k, F f) {
  const float* x = k.in[0].data;
  const size_t n = k.out_dims.size();
  for (size_t i = 0; i < n; ++i) k.out[i] = f(x[i]);
}

void ScaleForward(const KernelArgs& k) {
  const float s = k.fattr;
  Map(k, [s](float x) { return x * s; });
}
void ReluForward(const KernelArgs& k) {
  Map(k, [](float x) { return std::max(0.0f, x); });
}
void TanhForward(const KernelArgs& k) {
  Map(k, [](float x) { return std::tanh(x); });
}
void SigmoidForward(const KernelArgs& k) { Map(k, SigmoidValue); }
void AbsForward(const KernelArgs& k) {
  Map(k, [](float x) { return std::fabs(x); });
}

// ---------------------------------------------------------------------------
// kConcatCols, kSliceCols, kSliceRows, kRowStack

Shape ConcatColsShape(const KernelArgs& k) {
  if (!Binary(k) || k.in[0].rows != k.in[1].rows) return std::nullopt;
  return Dims{k.in[0].rows, k.in[0].cols + k.in[1].cols};
}

void ConcatColsForward(const KernelArgs& k) {
  const Operand& a = k.in[0];
  const Operand& b = k.in[1];
  for (size_t i = 0; i < a.rows; ++i) {
    const float* a_row = a.data + i * a.cols;
    const float* b_row = b.data + i * b.cols;
    float* out_row = k.out + i * (a.cols + b.cols);
    std::copy(a_row, a_row + a.cols, out_row);
    std::copy(b_row, b_row + b.cols, out_row + a.cols);
  }
}

// [start, start + count) within [0, extent), with start = iattr0 and
// count = iattr1; written so that no value of either attribute can wrap.
bool SliceInRange(const KernelArgs& k, size_t extent) {
  return k.iattr0 >= 0 && k.iattr1 >= 0 &&
         static_cast<uint64_t>(k.iattr0) <= extent &&
         static_cast<uint64_t>(k.iattr1) <=
             extent - static_cast<uint64_t>(k.iattr0);
}

Shape SliceColsShape(const KernelArgs& k) {
  if (!Unary(k) || !SliceInRange(k, k.in[0].cols)) return std::nullopt;
  return Dims{k.in[0].rows, static_cast<size_t>(k.iattr1)};
}

void SliceColsForward(const KernelArgs& k) {
  const Operand& x = k.in[0];
  const size_t start = static_cast<size_t>(k.iattr0);
  const size_t count = static_cast<size_t>(k.iattr1);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* src = x.data + i * x.cols + start;
    std::copy(src, src + count, k.out + i * count);
  }
}

Shape SliceRowsShape(const KernelArgs& k) {
  if (!Unary(k) || !SliceInRange(k, k.in[0].rows)) return std::nullopt;
  return Dims{static_cast<size_t>(k.iattr1), k.in[0].cols};
}

void SliceRowsForward(const KernelArgs& k) {
  const Operand& x = k.in[0];
  const size_t start = static_cast<size_t>(k.iattr0);
  const size_t count = static_cast<size_t>(k.iattr1);
  std::copy(x.data + start * x.cols, x.data + (start + count) * x.cols,
            k.out);
}

Shape RowStackShape(const KernelArgs& k) {
  if (k.num_in == 0) return std::nullopt;
  for (size_t i = 0; i < k.num_in; ++i) {
    if (k.in[i].rows != 1 || k.in[i].cols != k.in[0].cols) {
      return std::nullopt;
    }
  }
  return Dims{k.num_in, k.in[0].cols};
}

void RowStackForward(const KernelArgs& k) {
  const size_t cols = k.out_dims.cols;
  for (size_t i = 0; i < k.num_in; ++i) {
    const float* row = k.in[i].data;
    std::copy(row, row + cols, k.out + i * cols);
  }
}

// ---------------------------------------------------------------------------
// Reductions: kMeanRows, kSumAll, kL2NormalizeRow, kDot

Shape MeanRowsShape(const KernelArgs& k) {
  if (!Unary(k)) return std::nullopt;
  return Dims{1, k.in[0].cols};
}

void MeanRowsForward(const KernelArgs& k) {
  const Operand& x = k.in[0];
  // One column at a time, terms in ascending-row order, double accumulator;
  // no temp vector, so replays stay allocation-free.
  double inv_d = 1.0 / static_cast<double>(x.rows);
  for (size_t j = 0; j < x.cols; ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < x.rows; ++i) sum += x.data[i * x.cols + j];
    k.out[j] = static_cast<float>(sum * inv_d);
  }
}

Shape SumAllShape(const KernelArgs& k) {
  if (!Unary(k)) return std::nullopt;
  return Dims{1, 1};
}

void SumAllForward(const KernelArgs& k) {
  const float* xv = k.in[0].data;
  const size_t n = k.in[0].size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += xv[i];
  k.out[0] = static_cast<float>(total);
}

Shape L2NormalizeRowShape(const KernelArgs& k) {
  if (!Unary(k) || k.in[0].rows != 1) return std::nullopt;
  return Dims{1, k.in[0].cols};
}

void L2NormalizeRowForward(const KernelArgs& k) {
  const float* v = k.in[0].data;
  const size_t n = k.in[0].size();
  const float inv = InverseSmoothedNorm(v, n);
  for (size_t i = 0; i < n; ++i) k.out[i] = v[i] * inv;
}

Shape DotShape(const KernelArgs& k) {
  if (!Binary(k) || k.in[0].rows != 1 || k.in[1].rows != 1 ||
      k.in[0].cols != k.in[1].cols) {
    return std::nullopt;
  }
  return Dims{1, 1};
}

void DotForward(const KernelArgs& k) {
  const float* a = k.in[0].data;
  const float* b = k.in[1].data;
  const size_t n = k.in[0].size();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  k.out[0] = static_cast<float>(acc);
}

// ---------------------------------------------------------------------------
// kConv1dSame

Shape Conv1dSameShape(const KernelArgs& k) {
  if (!Binary(k) || k.in[0].rows != 1 || k.in[1].rows != 1 ||
      k.in[1].cols % 2 != 1) {
    return std::nullopt;
  }
  return Dims{1, k.in[0].cols};
}

void Conv1dSameForward(const KernelArgs& k) {
  const float* xv = k.in[0].data;
  const float* kv = k.in[1].data;
  const size_t n = k.in[0].cols;
  const size_t width = k.in[1].cols;
  const size_t half = width / 2;
  for (size_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (size_t d = 0; d < width; ++d) {
      int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                    static_cast<int64_t>(half);
      if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
      acc += kv[d] * xv[idx];
    }
    k.out[j] = acc;
  }
}

// ---------------------------------------------------------------------------
// kFusedLinear / kFusedLinearRelu / kFusedLinearTanh
//
// Single-kernel replacements for the MatMul → AddBroadcastRow → activation
// chains GraphOptimizer detects (in = [x, W, bias]). The fused kernel runs
// the exact same per-element expressions in the exact same order as the
// three unfused kernels it replaces, in place in the output buffer; the two
// intermediate value buffers of the unfused chain disappear.

enum class FusedAct : uint8_t { kNone, kRelu, kTanh };

Shape FusedLinearShape(const KernelArgs& k) {
  if (k.num_in != 3) return std::nullopt;
  const Operand& x = k.in[0];
  const Operand& w = k.in[1];
  const Operand& b = k.in[2];
  if (x.cols != w.rows || b.rows != 1 || b.cols != w.cols) {
    return std::nullopt;
  }
  return Dims{x.rows, w.cols};
}

void ApplyActivation(float* o, size_t n, FusedAct act) {
  switch (act) {
    case FusedAct::kNone:
      break;
    case FusedAct::kRelu:
      for (size_t i = 0; i < n; ++i) o[i] = std::max(0.0f, o[i]);
      break;
    case FusedAct::kTanh:
      for (size_t i = 0; i < n; ++i) o[i] = std::tanh(o[i]);
      break;
  }
}

void FusedLinearForwardImpl(const KernelArgs& k, FusedAct act) {
  const Operand& x = k.in[0];
  const Dims& out = k.out_dims;
  float* o = k.out;
  MatMulInto(x.data, x.rows, x.cols, k.in[1].data, k.in[1].cols, o);
  const float* bias = k.in[2].data;
  for (size_t i = 0; i < out.rows; ++i) {
    float* row = o + i * out.cols;
    for (size_t j = 0; j < out.cols; ++j) row[j] = row[j] + bias[j];
  }
  ApplyActivation(o, out.size(), act);
}

void FusedLinearForward(const KernelArgs& k) {
  FusedLinearForwardImpl(k, FusedAct::kNone);
}
void FusedLinearReluForward(const KernelArgs& k) {
  FusedLinearForwardImpl(k, FusedAct::kRelu);
}
void FusedLinearTanhForward(const KernelArgs& k) {
  FusedLinearForwardImpl(k, FusedAct::kTanh);
}

// ---------------------------------------------------------------------------
// kFusedDualLinear
//
// LSTM-gate preactivation AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), b)
// collapsed to one instr (in = [x, h, W, U, bias]). Both matmuls go through
// the same MatMulInto kernel kMatMul uses — x@W lands in the output buffer,
// h@U in aux — and the epilogue reassociates nothing: (t1 + t2) + b_j is
// exactly kAdd followed by kAddBroadcastRow, so the fused op is bitwise.

Shape FusedDualLinearShape(const KernelArgs& k) {
  if (k.num_in != 5) return std::nullopt;
  const Operand& x = k.in[0];
  const Operand& h = k.in[1];
  const Operand& w = k.in[2];
  const Operand& u = k.in[3];
  const Operand& b = k.in[4];
  if (x.rows != h.rows || x.cols != w.rows || h.cols != u.rows ||
      w.cols != u.cols || b.rows != 1 || b.cols != w.cols) {
    return std::nullopt;
  }
  return Dims{x.rows, w.cols};
}

void FusedDualLinearForward(const KernelArgs& k) {
  const Operand& x = k.in[0];
  const Operand& h = k.in[1];
  const Dims& out = k.out_dims;
  float* t1 = k.out;
  float* t2 = k.aux;
  MatMulInto(x.data, x.rows, x.cols, k.in[2].data, k.in[2].cols, t1);
  MatMulInto(h.data, h.rows, h.cols, k.in[3].data, k.in[3].cols, t2);
  const float* bias = k.in[4].data;
  for (size_t i = 0; i < out.rows; ++i) {
    float* row = t1 + i * out.cols;
    const float* t2_row = t2 + i * out.cols;
    for (size_t j = 0; j < out.cols; ++j) {
      row[j] = (row[j] + t2_row[j]) + bias[j];
    }
  }
}

// ---------------------------------------------------------------------------
// kQuantLinear / kQuantLinearRelu / kQuantLinearTanh
//
// Int8 serving kernels: weights pre-quantized per output column into
// Graph::qweights (transposed, so the dot product walks both operands
// contiguously); activations quantized at run time with the static
// calibration scale; int32 accumulation; fp32 epilogue with bias +
// activation. NOT bitwise vs fp32 — gated by AUC deltas instead.

#if defined(HISRECT_QUANT_AVX2)
bool QuantCpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

__attribute__((target("avx2"))) inline __m256i WidenI8(const int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) inline int32_t HsumI32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Signed int8 dot product: widen both operands to int16 and use madd_epi16
// (every |a*b| <= 127*127 so the pairwise int16->int32 sums cannot
// overflow). 16 lanes per step, 8-lane step for short feature dims, scalar
// tail. Exact — integer adds associate freely.
__attribute__((target("avx2"))) int32_t DotInt8Avx2(const int8_t* a,
                                                    const int8_t* b,
                                                    size_t k) {
  size_t t = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; t + 16 <= k; t += 16) {
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(WidenI8(a + t), WidenI8(b + t)));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  if (t + 8 <= k) {
    const __m128i a16 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + t)));
    const __m128i b16 = _mm_cvtepi8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + t)));
    s = _mm_add_epi32(s, _mm_madd_epi16(a16, b16));
    t += 8;
  }
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t sum = _mm_cvtsi128_si32(s);
  for (; t < k; ++t) {
    sum += static_cast<int32_t>(a[t]) * static_cast<int32_t>(b[t]);
  }
  return sum;
}
// Activation quantization: scale, round, clamp to [-127, 127], narrow to
// int8. cvtps_epi32 rounds under the default MXCSR mode (nearest-even),
// which is exactly what std::lrintf does in the scalar path, and the packs
// saturations are no-ops after the explicit clamp — so both paths emit
// byte-identical qx.
__attribute__((target("avx2"))) void QuantizeActAvx2(const float* xv,
                                                     int8_t* qx, size_t n,
                                                     float inv_sx) {
  const __m256 scale = _mm256_set1_ps(inv_sx);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i r = _mm256_cvtps_epi32(
        _mm256_mul_ps(_mm256_loadu_ps(xv + i), scale));
    r = _mm256_min_epi32(hi, _mm256_max_epi32(lo, r));
    const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(r),
                                        _mm256_extracti128_si256(r, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(qx + i),
                     _mm_packs_epi16(w16, _mm_setzero_si128()));
  }
  for (; i < n; ++i) {
    long r = std::lrintf(xv[i] * inv_sx);
    if (r > 127) r = 127;
    if (r < -127) r = -127;
    qx[i] = static_cast<int8_t>(r);
  }
}
// Four output columns per pass: one load of the activation vector feeds
// four madd chains, quartering the x-load traffic of the single-column
// dot. Weights are stored transposed so each column's k-span is
// contiguous. Still exact int32 arithmetic.
__attribute__((target("avx2"))) void DotInt8Cols4Avx2(const int8_t* x,
                                                      const int8_t* w,
                                                      size_t k,
                                                      int32_t sums[4]) {
  const int8_t* w0 = w;
  const int8_t* w1 = w + k;
  const int8_t* w2 = w + 2 * k;
  const int8_t* w3 = w + 3 * k;
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  size_t t = 0;
  for (; t + 16 <= k; t += 16) {
    const __m256i xx = WidenI8(x + t);
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(xx, WidenI8(w0 + t)));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(xx, WidenI8(w1 + t)));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(xx, WidenI8(w2 + t)));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(xx, WidenI8(w3 + t)));
  }
  sums[0] = HsumI32(acc0);
  sums[1] = HsumI32(acc1);
  sums[2] = HsumI32(acc2);
  sums[3] = HsumI32(acc3);
  for (; t < k; ++t) {
    const int32_t xt = x[t];
    sums[0] += xt * w0[t];
    sums[1] += xt * w1[t];
    sums[2] += xt * w2[t];
    sums[3] += xt * w3[t];
  }
}
#endif  // defined(HISRECT_QUANT_AVX2)

inline void QuantizeAct(const float* xv, int8_t* qx, size_t n,
                        float inv_sx) {
#if defined(HISRECT_QUANT_AVX2)
  if (QuantCpuHasAvx2()) {
    QuantizeActAvx2(xv, qx, n, inv_sx);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    long r = std::lrintf(xv[i] * inv_sx);
    if (r > 127) r = 127;
    if (r < -127) r = -127;
    qx[i] = static_cast<int8_t>(r);
  }
}

inline int32_t DotInt8(const int8_t* a, const int8_t* b, size_t k) {
#if defined(HISRECT_QUANT_AVX2)
  if (QuantCpuHasAvx2()) return DotInt8Avx2(a, b, k);
#endif
  int32_t acc = 0;
  for (size_t t = 0; t < k; ++t) {
    acc += static_cast<int32_t>(a[t]) * static_cast<int32_t>(b[t]);
  }
  return acc;
}

void QuantLinearForwardImpl(const KernelArgs& k, FusedAct act) {
  const Operand& x = k.in[0];
  const QuantLinearInfo& q =
      k.graph->quant_linears[static_cast<size_t>(k.iattr0)];
  const int8_t* qw = k.graph->qweights.data() + q.qweight_offset;
  const float* sw = k.graph->qscales.data() + q.scale_offset;
  const float* bias = k.in[2].data;
  float* out = k.out;
  const size_t rows = x.rows;
  const size_t depth = x.cols;
  const size_t cols = k.in[1].cols;
  // Quantize the activations into the aux span (float storage reused as
  // bytes; char-typed access is aliasing-legal).
  int8_t* qx = reinterpret_cast<int8_t*>(k.aux);
  QuantizeAct(x.data, qx, rows * depth, 1.0f / q.in_scale);
  for (size_t i = 0; i < rows; ++i) {
    const int8_t* x_row = qx + i * depth;
    float* out_row = out + i * cols;
    size_t j = 0;
#if defined(HISRECT_QUANT_AVX2)
    if (QuantCpuHasAvx2()) {
      for (; j + 4 <= cols; j += 4) {
        int32_t sums[4];
        DotInt8Cols4Avx2(x_row, qw + j * depth, depth, sums);
        for (size_t d = 0; d < 4; ++d) {
          out_row[j + d] = static_cast<float>(sums[d]) *
                               (q.in_scale * sw[j + d]) +
                           bias[j + d];
        }
      }
    }
#endif
    for (; j < cols; ++j) {
      const int32_t acc = DotInt8(x_row, qw + j * depth, depth);
      out_row[j] = static_cast<float>(acc) * (q.in_scale * sw[j]) + bias[j];
    }
  }
  ApplyActivation(out, rows * cols, act);
}

void QuantLinearForward(const KernelArgs& k) {
  QuantLinearForwardImpl(k, FusedAct::kNone);
}
void QuantLinearReluForward(const KernelArgs& k) {
  QuantLinearForwardImpl(k, FusedAct::kRelu);
}
void QuantLinearTanhForward(const KernelArgs& k) {
  QuantLinearForwardImpl(k, FusedAct::kTanh);
}

// ---------------------------------------------------------------------------
// kQuantDualLinear
//
// Int8 kFusedDualLinear: two weight matrices (iattr0 → W with x's scale,
// iattr1 → U with h's scale), both baked transposed; the aux span carries
// both quantized activation vectors back to back. Accumulation stays int32
// per operand, the fp32 epilogue dequantizes each product with its own
// scale pair before adding the bias.

void QuantDualLinearForward(const KernelArgs& k) {
  const Graph& g = *k.graph;
  const QuantLinearInfo& qa = g.quant_linears[static_cast<size_t>(k.iattr0)];
  const QuantLinearInfo& qb = g.quant_linears[static_cast<size_t>(k.iattr1)];
  const int8_t* qw = g.qweights.data() + qa.qweight_offset;
  const int8_t* qu = g.qweights.data() + qb.qweight_offset;
  const float* sw = g.qscales.data() + qa.scale_offset;
  const float* su = g.qscales.data() + qb.scale_offset;
  const float* bias = k.in[4].data;
  float* out = k.out;
  const size_t rows = k.in[0].rows;
  const size_t k1 = k.in[0].cols;
  const size_t k2 = k.in[1].cols;
  const size_t cols = k.in[2].cols;
  int8_t* qx = reinterpret_cast<int8_t*>(k.aux);
  int8_t* qh = qx + rows * k1;
  QuantizeAct(k.in[0].data, qx, rows * k1, 1.0f / qa.in_scale);
  QuantizeAct(k.in[1].data, qh, rows * k2, 1.0f / qb.in_scale);
  for (size_t i = 0; i < rows; ++i) {
    const int8_t* x_row = qx + i * k1;
    const int8_t* h_row = qh + i * k2;
    float* out_row = out + i * cols;
    size_t j = 0;
#if defined(HISRECT_QUANT_AVX2)
    if (QuantCpuHasAvx2()) {
      for (; j + 4 <= cols; j += 4) {
        int32_t sums1[4];
        int32_t sums2[4];
        DotInt8Cols4Avx2(x_row, qw + j * k1, k1, sums1);
        DotInt8Cols4Avx2(h_row, qu + j * k2, k2, sums2);
        for (size_t d = 0; d < 4; ++d) {
          out_row[j + d] =
              (static_cast<float>(sums1[d]) * (qa.in_scale * sw[j + d]) +
               static_cast<float>(sums2[d]) * (qb.in_scale * su[j + d])) +
              bias[j + d];
        }
      }
    }
#endif
    for (; j < cols; ++j) {
      const int32_t acc1 = DotInt8(x_row, qw + j * k1, k1);
      const int32_t acc2 = DotInt8(h_row, qu + j * k2, k2);
      out_row[j] =
          (static_cast<float>(acc1) * (qa.in_scale * sw[j]) +
           static_cast<float>(acc2) * (qb.in_scale * su[j])) +
          bias[j];
    }
  }
}

// ---------------------------------------------------------------------------

constexpr size_t kNumKinds = static_cast<size_t>(OpKind::kNumOpKinds);

const OpSchema* BuildRegistry() {
  static OpSchema schemas[kNumKinds];
  auto at = [&](OpKind k) -> OpSchema& {
    return schemas[static_cast<size_t>(k)];
  };
  at(OpKind::kMatMul) = {"MatMul", MatMulShape, MatMulForward};
  at(OpKind::kAdd) = {"Add", SameShape2, AddForward};
  at(OpKind::kSub) = {"Sub", SameShape2, SubForward};
  at(OpKind::kMul) = {"Mul", SameShape2, MulForward};
  at(OpKind::kAddBroadcastRow) = {"AddBroadcastRow", BroadcastRowShape,
                                  AddBroadcastRowForward};
  at(OpKind::kMulBroadcastRow) = {"MulBroadcastRow", BroadcastRowShape,
                                  MulBroadcastRowForward};
  at(OpKind::kScale) = {"Scale", SameShape1, ScaleForward};
  at(OpKind::kRelu) = {"Relu", SameShape1, ReluForward};
  at(OpKind::kTanh) = {"Tanh", SameShape1, TanhForward};
  at(OpKind::kSigmoid) = {"Sigmoid", SameShape1, SigmoidForward};
  at(OpKind::kAbs) = {"Abs", SameShape1, AbsForward};
  at(OpKind::kConcatCols) = {"ConcatCols", ConcatColsShape, ConcatColsForward};
  at(OpKind::kSliceCols) = {"SliceCols", SliceColsShape, SliceColsForward};
  at(OpKind::kSliceRows) = {"SliceRows", SliceRowsShape, SliceRowsForward};
  at(OpKind::kRowStack) = {"RowStack", RowStackShape, RowStackForward};
  at(OpKind::kMeanRows) = {"MeanRows", MeanRowsShape, MeanRowsForward};
  at(OpKind::kSumAll) = {"SumAll", SumAllShape, SumAllForward};
  at(OpKind::kL2NormalizeRow) = {"L2NormalizeRow", L2NormalizeRowShape,
                                 L2NormalizeRowForward};
  at(OpKind::kDot) = {"Dot", DotShape, DotForward};
  at(OpKind::kConv1dSame) = {"Conv1dSame", Conv1dSameShape, Conv1dSameForward};
  at(OpKind::kFusedLinear) = {"FusedLinear", FusedLinearShape,
                              FusedLinearForward};
  at(OpKind::kFusedLinearRelu) = {"FusedLinearRelu", FusedLinearShape,
                                  FusedLinearReluForward};
  at(OpKind::kFusedLinearTanh) = {"FusedLinearTanh", FusedLinearShape,
                                  FusedLinearTanhForward};
  at(OpKind::kQuantLinear) = {"QuantLinear", FusedLinearShape,
                              QuantLinearForward};
  at(OpKind::kQuantLinearRelu) = {"QuantLinearRelu", FusedLinearShape,
                                  QuantLinearReluForward};
  at(OpKind::kQuantLinearTanh) = {"QuantLinearTanh", FusedLinearShape,
                                  QuantLinearTanhForward};
  at(OpKind::kFusedDualLinear) = {"FusedDualLinear", FusedDualLinearShape,
                                  FusedDualLinearForward};
  at(OpKind::kQuantDualLinear) = {"QuantDualLinear", FusedDualLinearShape,
                                  QuantDualLinearForward};
  for (size_t k = 0; k < kNumKinds; ++k) {
    CHECK(schemas[k].infer_shape != nullptr && schemas[k].forward != nullptr)
        << "op kind " << k << " not registered";
  }
  return schemas;
}

}  // namespace

const OpSchema& GetOpSchema(OpKind kind) {
  static const OpSchema* registry = BuildRegistry();
  CHECK_LT(static_cast<size_t>(kind), kNumKinds);
  return registry[static_cast<size_t>(kind)];
}

}  // namespace hisrect::nn

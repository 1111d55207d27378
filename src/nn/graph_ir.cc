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

float* ExecState::Ptr(int32_t buffer_id) const {
  const BufferDesc& b = graph->buffers[buffer_id];
  switch (b.kind) {
    case BufferDesc::Kind::kArena:
    case BufferDesc::Kind::kAux:
      return arena + b.offset;
    case BufferDesc::Kind::kParamValue:
      return graph->params[b.ref]->value.data();
    case BufferDesc::Kind::kInput:
      return const_cast<float*>((*inputs)[b.ref]);
    case BufferDesc::Kind::kConstant:
      return const_cast<float*>(graph->constants.data() + b.ref);
  }
  CHECK(false) << "unreachable buffer kind";
  return nullptr;
}

// Every kernel below mirrors the corresponding tape op in ops.cc: identical
// per-element expressions, identical loop order, identical float/double
// accumulator widths. A copy-then-update in the eager op (e.g. `out = a;
// out.AddScaled(b, -1)`) becomes the algebraically-literal single pass here;
// with one add/mul sequence per element either way (and -ffp-contract=off
// tree-wide) the results are bitwise equal. Do not "simplify" expressions —
// `a + (-1.0f) * b` is spelled that way because AddScaled spells it that
// way.
namespace {

inline const BufferDesc& Buf(const Graph& g, int32_t id) {
  return g.buffers[id];
}

inline std::pair<uint32_t, uint32_t> Shape(const Instr& ins,
                                           const std::vector<BufferDesc>& bufs,
                                           size_t operand) {
  const BufferDesc& b = bufs[ins.in[operand]];
  return {b.rows, b.cols};
}

constexpr std::pair<uint32_t, uint32_t> kBadShape{0, 0};

// ---------------------------------------------------------------------------
// kMatMul

std::pair<uint32_t, uint32_t> MatMulShape(const Instr& ins,
                                          const std::vector<BufferDesc>& bufs) {
  auto [ar, ac] = Shape(ins, bufs, 0);
  auto [br, bc] = Shape(ins, bufs, 1);
  if (ac != br) return kBadShape;
  return {ar, bc};
}

void MatMulForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& a = Buf(g, ins.in[0]);
  const BufferDesc& b = Buf(g, ins.in[1]);
  MatMulInto(st.Ptr(ins.in[0]), a.rows, a.cols, st.Ptr(ins.in[1]), b.cols,
             st.Ptr(ins.out));
}

// ---------------------------------------------------------------------------
// Elementwise binary: kAdd, kSub, kMul

std::pair<uint32_t, uint32_t> SameShape2(const Instr& ins,
                                         const std::vector<BufferDesc>& bufs) {
  auto a = Shape(ins, bufs, 0);
  if (a != Shape(ins, bufs, 1)) return kBadShape;
  return a;
}

void AddForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void SubForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) {
    float acc = a[i];
    acc += -1.0f * b[i];
    out[i] = acc;
  }
}

void MulForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

// ---------------------------------------------------------------------------
// kAddBroadcastRow, kMulBroadcastRow

std::pair<uint32_t, uint32_t> BroadcastRowShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [rr, rc] = Shape(ins, bufs, 1);
  if (rr != 1 || xc != rc) return kBadShape;
  return {xr, xc};
}

void AddBroadcastRowForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  const float* r = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* x_row = xv + i * x.cols;
    float* out_row = out + i * x.cols;
    for (size_t j = 0; j < x.cols; ++j) out_row[j] = x_row[j] + r[j];
  }
}

void MulBroadcastRowForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  const float* r = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* x_row = xv + i * x.cols;
    float* out_row = out + i * x.cols;
    for (size_t j = 0; j < x.cols; ++j) out_row[j] = x_row[j] * r[j];
  }
}

// ---------------------------------------------------------------------------
// Elementwise unary: kScale, kRelu, kTanh, kSigmoid, kAbs

std::pair<uint32_t, uint32_t> SameShape1(const Instr& ins,
                                         const std::vector<BufferDesc>& bufs) {
  return Shape(ins, bufs, 0);
}

void ScaleForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const float s = ins.fattr;
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

void ReluForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = std::max(0.0f, x[i]);
}

void TanhForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void SigmoidForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = SigmoidValue(x[i]);
}

void AbsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* x = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.out).size();
  for (size_t i = 0; i < n; ++i) out[i] = std::fabs(x[i]);
}

// ---------------------------------------------------------------------------
// kConcatCols, kSliceCols, kSliceRows, kRowStack

std::pair<uint32_t, uint32_t> ConcatColsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [ar, ac] = Shape(ins, bufs, 0);
  auto [br, bc] = Shape(ins, bufs, 1);
  if (ar != br) return kBadShape;
  return {ar, ac + bc};
}

void ConcatColsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& a = Buf(g, ins.in[0]);
  const BufferDesc& b = Buf(g, ins.in[1]);
  const float* av = st.Ptr(ins.in[0]);
  const float* bv = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t na = a.cols;
  const size_t nb = b.cols;
  for (size_t i = 0; i < a.rows; ++i) {
    const float* a_row = av + i * na;
    const float* b_row = bv + i * nb;
    float* out_row = out + i * (na + nb);
    std::copy(a_row, a_row + na, out_row);
    std::copy(b_row, b_row + nb, out_row + na);
  }
}

std::pair<uint32_t, uint32_t> SliceColsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  if (static_cast<uint32_t>(ins.iattr0 + ins.iattr1) > xc) return kBadShape;
  return {xr, static_cast<uint32_t>(ins.iattr1)};
}

void SliceColsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t start = static_cast<size_t>(ins.iattr0);
  const size_t count = static_cast<size_t>(ins.iattr1);
  for (size_t i = 0; i < x.rows; ++i) {
    const float* src = xv + i * x.cols + start;
    std::copy(src, src + count, out + i * count);
  }
}

std::pair<uint32_t, uint32_t> SliceRowsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  if (static_cast<uint32_t>(ins.iattr0 + ins.iattr1) > xr) return kBadShape;
  return {static_cast<uint32_t>(ins.iattr1), xc};
}

void SliceRowsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t start = static_cast<size_t>(ins.iattr0);
  const size_t count = static_cast<size_t>(ins.iattr1);
  std::copy(xv + start * x.cols, xv + (start + count) * x.cols, out);
}

std::pair<uint32_t, uint32_t> RowStackShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [r0, c0] = Shape(ins, bufs, 0);
  if (r0 != 1) return kBadShape;
  for (size_t i = 1; i < ins.in.size(); ++i) {
    auto [ri, ci] = Shape(ins, bufs, i);
    if (ri != 1 || ci != c0) return kBadShape;
  }
  return {static_cast<uint32_t>(ins.in.size()), c0};
}

void RowStackForward(const Graph& g, const Instr& ins, const ExecState& st) {
  float* out = st.Ptr(ins.out);
  const size_t cols = Buf(g, ins.out).cols;
  for (size_t i = 0; i < ins.in.size(); ++i) {
    const float* row = st.Ptr(ins.in[i]);
    std::copy(row, row + cols, out + i * cols);
  }
}

// ---------------------------------------------------------------------------
// Reductions: kMeanRows, kSumAll, kL2NormalizeRow, kDot

std::pair<uint32_t, uint32_t> MeanRowsShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  (void)xr;
  return {1, xc};
}

void MeanRowsForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const float* xv = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t rows = x.rows;
  const size_t cols = x.cols;
  // The eager op accumulates a double sums[cols] vector row by row; each
  // column's sum still sees its terms in ascending-row order, so summing one
  // column at a time here is bitwise identical — and needs no temp vector
  // (which would be a steady-state allocation).
  double inv_d = 1.0 / static_cast<double>(rows);
  for (size_t j = 0; j < cols; ++j) {
    double sum = 0.0;
    for (size_t i = 0; i < rows; ++i) sum += xv[i * cols + j];
    out[j] = static_cast<float>(sum * inv_d);
  }
}

std::pair<uint32_t, uint32_t> ScalarShape(const Instr& ins,
                                          const std::vector<BufferDesc>& bufs) {
  (void)ins;
  (void)bufs;
  return {1, 1};
}

void SumAllForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* xv = st.Ptr(ins.in[0]);
  const size_t n = Buf(g, ins.in[0]).size();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += xv[i];
  st.Ptr(ins.out)[0] = static_cast<float>(total);
}

std::pair<uint32_t, uint32_t> L2NormalizeRowShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  if (xr != 1) return kBadShape;
  return {1, xc};
}

void L2NormalizeRowForward(const Graph& g, const Instr& ins,
                           const ExecState& st) {
  const float* v = st.Ptr(ins.in[0]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.in[0]).size();
  constexpr float kEps = 1e-6f;
  double norm_sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    norm_sq += static_cast<double>(v[i]) * v[i];
  }
  float norm = static_cast<float>(std::sqrt(norm_sq + kEps));
  float inv = 1.0f / norm;
  for (size_t i = 0; i < n; ++i) out[i] = v[i] * inv;
}

void DotForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* a = st.Ptr(ins.in[0]);
  const float* b = st.Ptr(ins.in[1]);
  const size_t n = Buf(g, ins.in[0]).size();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  st.Ptr(ins.out)[0] = static_cast<float>(acc);
}

// ---------------------------------------------------------------------------
// kConv1dSame

std::pair<uint32_t, uint32_t> Conv1dSameShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [kr, kc] = Shape(ins, bufs, 1);
  if (xr != 1 || kr != 1 || kc % 2 != 1) return kBadShape;
  return {1, xc};
}

void Conv1dSameForward(const Graph& g, const Instr& ins, const ExecState& st) {
  const float* xv = st.Ptr(ins.in[0]);
  const float* kv = st.Ptr(ins.in[1]);
  float* out = st.Ptr(ins.out);
  const size_t n = Buf(g, ins.in[0]).cols;
  const size_t k = Buf(g, ins.in[1]).cols;
  const size_t half = k / 2;
  for (size_t j = 0; j < n; ++j) {
    float acc = 0.0f;
    for (size_t d = 0; d < k; ++d) {
      int64_t idx = static_cast<int64_t>(j) + static_cast<int64_t>(d) -
                    static_cast<int64_t>(half);
      if (idx < 0 || idx >= static_cast<int64_t>(n)) continue;
      acc += kv[d] * xv[idx];
    }
    out[j] = acc;
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

std::pair<uint32_t, uint32_t> FusedLinearShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [wr, wc] = Shape(ins, bufs, 1);
  auto [br, bc] = Shape(ins, bufs, 2);
  if (xc != wr || br != 1 || bc != wc) return kBadShape;
  return {xr, wc};
}

void FusedLinearForwardImpl(const Graph& g, const Instr& ins,
                            const ExecState& st, FusedAct act) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& w = Buf(g, ins.in[1]);
  const BufferDesc& out = Buf(g, ins.out);
  float* o = st.Ptr(ins.out);
  MatMulInto(st.Ptr(ins.in[0]), x.rows, x.cols, st.Ptr(ins.in[1]), w.cols,
             o);
  const float* bias = st.Ptr(ins.in[2]);
  for (size_t i = 0; i < out.rows; ++i) {
    float* row = o + i * out.cols;
    for (size_t j = 0; j < out.cols; ++j) row[j] = row[j] + bias[j];
  }
  const size_t n = out.size();
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

void FusedLinearForward(const Graph& g, const Instr& ins, const ExecState& st) {
  FusedLinearForwardImpl(g, ins, st, FusedAct::kNone);
}
void FusedLinearReluForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  FusedLinearForwardImpl(g, ins, st, FusedAct::kRelu);
}
void FusedLinearTanhForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  FusedLinearForwardImpl(g, ins, st, FusedAct::kTanh);
}

// ---------------------------------------------------------------------------
// kFusedDualLinear
//
// LSTM-gate preactivation AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), b)
// collapsed to one instr (in = [x, h, W, U, bias]). Both matmuls go through
// the same MatMulInto kernel the eager chain uses — x@W lands in the output
// buffer, h@U in aux — and the epilogue reassociates nothing: (t1 + t2) + b_j
// is exactly the eager Add followed by AddBroadcastRow, so the fused op is
// bitwise.

std::pair<uint32_t, uint32_t> FusedDualLinearShape(
    const Instr& ins, const std::vector<BufferDesc>& bufs) {
  auto [xr, xc] = Shape(ins, bufs, 0);
  auto [hr, hc] = Shape(ins, bufs, 1);
  auto [wr, wc] = Shape(ins, bufs, 2);
  auto [ur, uc] = Shape(ins, bufs, 3);
  auto [br, bc] = Shape(ins, bufs, 4);
  if (xr != hr || xc != wr || hc != ur || wc != uc) return kBadShape;
  if (br != 1 || bc != wc) return kBadShape;
  return {xr, wc};
}

void FusedDualLinearForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& h = Buf(g, ins.in[1]);
  const BufferDesc& w = Buf(g, ins.in[2]);
  const BufferDesc& u = Buf(g, ins.in[3]);
  const BufferDesc& out = Buf(g, ins.out);
  float* t1 = st.Ptr(ins.out);
  float* t2 = st.Ptr(ins.aux);
  MatMulInto(st.Ptr(ins.in[0]), x.rows, x.cols, st.Ptr(ins.in[2]), w.cols,
             t1);
  MatMulInto(st.Ptr(ins.in[1]), h.rows, h.cols, st.Ptr(ins.in[3]), u.cols,
             t2);
  const float* bias = st.Ptr(ins.in[4]);
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

void QuantLinearForwardImpl(const Graph& g, const Instr& ins,
                            const ExecState& st, FusedAct act) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& w = Buf(g, ins.in[1]);
  const QuantLinearInfo& q = g.quant_linears[static_cast<size_t>(ins.iattr0)];
  const int8_t* qw = g.qweights.data() + q.qweight_offset;
  const float* sw = g.qscales.data() + q.scale_offset;
  const float* xv = st.Ptr(ins.in[0]);
  const float* bias = st.Ptr(ins.in[2]);
  float* out = st.Ptr(ins.out);
  const size_t rows = x.rows;
  const size_t k = x.cols;
  const size_t cols = w.cols;
  // Quantize the activations into the aux span (float storage reused as
  // bytes; char-typed access is aliasing-legal).
  int8_t* qx = reinterpret_cast<int8_t*>(st.Ptr(ins.aux));
  QuantizeAct(xv, qx, rows * k, 1.0f / q.in_scale);
  for (size_t i = 0; i < rows; ++i) {
    const int8_t* x_row = qx + i * k;
    float* out_row = out + i * cols;
    size_t j = 0;
#if defined(HISRECT_QUANT_AVX2)
    if (QuantCpuHasAvx2()) {
      for (; j + 4 <= cols; j += 4) {
        int32_t sums[4];
        DotInt8Cols4Avx2(x_row, qw + j * k, k, sums);
        for (size_t d = 0; d < 4; ++d) {
          out_row[j + d] = static_cast<float>(sums[d]) *
                               (q.in_scale * sw[j + d]) +
                           bias[j + d];
        }
      }
    }
#endif
    for (; j < cols; ++j) {
      const int32_t acc = DotInt8(x_row, qw + j * k, k);
      out_row[j] = static_cast<float>(acc) * (q.in_scale * sw[j]) + bias[j];
    }
  }
  const size_t n = rows * cols;
  switch (act) {
    case FusedAct::kNone:
      break;
    case FusedAct::kRelu:
      for (size_t i = 0; i < n; ++i) out[i] = std::max(0.0f, out[i]);
      break;
    case FusedAct::kTanh:
      for (size_t i = 0; i < n; ++i) out[i] = std::tanh(out[i]);
      break;
  }
}

void QuantLinearForward(const Graph& g, const Instr& ins, const ExecState& st) {
  QuantLinearForwardImpl(g, ins, st, FusedAct::kNone);
}
void QuantLinearReluForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  QuantLinearForwardImpl(g, ins, st, FusedAct::kRelu);
}
void QuantLinearTanhForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  QuantLinearForwardImpl(g, ins, st, FusedAct::kTanh);
}

// ---------------------------------------------------------------------------
// kQuantDualLinear
//
// Int8 kFusedDualLinear: two weight matrices (iattr0 → W with x's scale,
// iattr1 → U with h's scale), both baked transposed; the aux span carries
// both quantized activation vectors back to back. Accumulation stays int32
// per operand, the fp32 epilogue dequantizes each product with its own
// scale pair before adding the bias.

void QuantDualLinearForward(const Graph& g, const Instr& ins,
                            const ExecState& st) {
  const BufferDesc& x = Buf(g, ins.in[0]);
  const BufferDesc& h = Buf(g, ins.in[1]);
  const BufferDesc& w = Buf(g, ins.in[2]);
  const QuantLinearInfo& qa = g.quant_linears[static_cast<size_t>(ins.iattr0)];
  const QuantLinearInfo& qb = g.quant_linears[static_cast<size_t>(ins.iattr1)];
  const int8_t* qw = g.qweights.data() + qa.qweight_offset;
  const int8_t* qu = g.qweights.data() + qb.qweight_offset;
  const float* sw = g.qscales.data() + qa.scale_offset;
  const float* su = g.qscales.data() + qb.scale_offset;
  const float* bias = st.Ptr(ins.in[4]);
  float* out = st.Ptr(ins.out);
  const size_t rows = x.rows;
  const size_t k1 = x.cols;
  const size_t k2 = h.cols;
  const size_t cols = w.cols;
  int8_t* qx = reinterpret_cast<int8_t*>(st.Ptr(ins.aux));
  int8_t* qh = qx + rows * k1;
  QuantizeAct(st.Ptr(ins.in[0]), qx, rows * k1, 1.0f / qa.in_scale);
  QuantizeAct(st.Ptr(ins.in[1]), qh, rows * k2, 1.0f / qb.in_scale);
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
  at(OpKind::kMatMul) = {"MatMul", 2, 2, MatMulShape, MatMulForward};
  at(OpKind::kAdd) = {"Add", 2, 2, SameShape2, AddForward};
  at(OpKind::kSub) = {"Sub", 2, 2, SameShape2, SubForward};
  at(OpKind::kMul) = {"Mul", 2, 2, SameShape2, MulForward};
  at(OpKind::kAddBroadcastRow) = {"AddBroadcastRow", 2, 2, BroadcastRowShape,
                                  AddBroadcastRowForward};
  at(OpKind::kMulBroadcastRow) = {"MulBroadcastRow", 2, 2, BroadcastRowShape,
                                  MulBroadcastRowForward};
  at(OpKind::kScale) = {"Scale", 1, 1, SameShape1, ScaleForward};
  at(OpKind::kRelu) = {"Relu", 1, 1, SameShape1, ReluForward};
  at(OpKind::kTanh) = {"Tanh", 1, 1, SameShape1, TanhForward};
  at(OpKind::kSigmoid) = {"Sigmoid", 1, 1, SameShape1, SigmoidForward};
  at(OpKind::kAbs) = {"Abs", 1, 1, SameShape1, AbsForward};
  at(OpKind::kConcatCols) = {"ConcatCols", 2, 2, ConcatColsShape,
                             ConcatColsForward};
  at(OpKind::kSliceCols) = {"SliceCols", 1, 1, SliceColsShape,
                            SliceColsForward};
  at(OpKind::kSliceRows) = {"SliceRows", 1, 1, SliceRowsShape,
                            SliceRowsForward};
  at(OpKind::kRowStack) = {"RowStack", 1, 255, RowStackShape, RowStackForward};
  at(OpKind::kMeanRows) = {"MeanRows", 1, 1, MeanRowsShape, MeanRowsForward};
  at(OpKind::kSumAll) = {"SumAll", 1, 1, ScalarShape, SumAllForward};
  at(OpKind::kL2NormalizeRow) = {"L2NormalizeRow", 1, 1, L2NormalizeRowShape,
                                 L2NormalizeRowForward};
  at(OpKind::kDot) = {"Dot", 2, 2, ScalarShape, DotForward};
  at(OpKind::kConv1dSame) = {"Conv1dSame", 2, 2, Conv1dSameShape,
                             Conv1dSameForward};
  at(OpKind::kFusedLinear) = {"FusedLinear", 3, 3, FusedLinearShape,
                              FusedLinearForward};
  at(OpKind::kFusedLinearRelu) = {"FusedLinearRelu", 3, 3, FusedLinearShape,
                                  FusedLinearReluForward};
  at(OpKind::kFusedLinearTanh) = {"FusedLinearTanh", 3, 3, FusedLinearShape,
                                  FusedLinearTanhForward};
  at(OpKind::kQuantLinear) = {"QuantLinear", 3, 3, FusedLinearShape,
                              QuantLinearForward};
  at(OpKind::kQuantLinearRelu) = {"QuantLinearRelu", 3, 3, FusedLinearShape,
                                  QuantLinearReluForward};
  at(OpKind::kQuantLinearTanh) = {"QuantLinearTanh", 3, 3, FusedLinearShape,
                                  QuantLinearTanhForward};
  at(OpKind::kFusedDualLinear) = {"FusedDualLinear", 5, 5, FusedDualLinearShape,
                                  FusedDualLinearForward};
  at(OpKind::kQuantDualLinear) = {"QuantDualLinear", 5, 5, FusedDualLinearShape,
                                  QuantDualLinearForward};
  return schemas;
}

}  // namespace

const OpSchema& GetOpSchema(OpKind kind) {
  static const OpSchema* registry = BuildRegistry();
  CHECK_LT(static_cast<size_t>(kind), kNumKinds);
  const OpSchema& schema = registry[static_cast<size_t>(kind)];
  CHECK(schema.forward != nullptr)
      << "op kind " << static_cast<int>(kind) << " not registered";
  return schema;
}

}  // namespace hisrect::nn

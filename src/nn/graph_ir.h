#ifndef HISRECT_NN_GRAPH_IR_H_
#define HISRECT_NN_GRAPH_IR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "nn/tensor.h"

namespace hisrect::nn {

/// Recorded graph IR: one eval-mode eager tape execution captured as a
/// static list of forward op instructions over symbolic buffer ids,
/// replayable by PlanExecutor with zero allocations (graph_recorder.h
/// records, memory_planner.h assigns arena offsets, plan_executor.h
/// replays). The IR is inference-only: it has no backward program, and the
/// training-only tape ops (dropout, the losses) have no op kind — they
/// CHECK-fail under an active recorder. Training runs the eager tape.
///
/// Every op kind mirrors exactly one tape op in ops.cc: the plan kernels in
/// graph_ir.cc reproduce the eager per-element arithmetic (same expressions,
/// same loop order, same float/double accumulators), and matmuls go through
/// the shared raw-pointer kernels in matrix.h — so a plan replay is bitwise
/// identical to the tape it was recorded from. tests/plan_test.cc and
/// tests/determinism_test.cc pin that contract.
enum class OpKind : uint8_t {
  kMatMul = 0,
  kAdd,
  kSub,
  kMul,
  kAddBroadcastRow,
  kMulBroadcastRow,
  kScale,           // fattr = scale
  kRelu,
  kTanh,
  kSigmoid,
  kAbs,
  kConcatCols,
  kSliceCols,       // iattr0 = start, iattr1 = count
  kSliceRows,       // iattr0 = start, iattr1 = count
  kRowStack,        // variadic
  kMeanRows,
  kSumAll,
  kL2NormalizeRow,
  kDot,
  kConv1dSame,
  // Fused kernels, emitted only by GraphOptimizer (graph_optimizer.h) — the
  // recorder never produces them. in = [x, W, bias]; bitwise-identical to
  // the unfused MatMul/AddBroadcastRow/activation composition they replace.
  kFusedLinear,      // MatMul + AddBroadcastRow
  kFusedLinearRelu,  // MatMul + AddBroadcastRow + Relu
  kFusedLinearTanh,  // MatMul + AddBroadcastRow + Tanh
  // LSTM-gate preactivation: in = [x, h, W, U, bias],
  // out = AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), bias) bitwise.
  kFusedDualLinear,
  // Int8 kernels (QuantizeGraph): per-output-column symmetric weight
  // quantization, fp32 accumulation epilogue. iattr0 indexes
  // Graph::quant_linears; weights are baked into Graph::qweights at
  // quantize time.
  kQuantLinear,
  kQuantLinearRelu,
  kQuantLinearTanh,
  // Quantized kFusedDualLinear: iattr0/iattr1 index the two
  // Graph::quant_linears entries (W with x's scale, U with h's scale).
  kQuantDualLinear,
  kNumOpKinds,
};

/// Symbolic buffer. `kind` says where the executor resolves the pointer:
/// arena kinds resolve to `arena + offset`; param kinds chase the live
/// parameter Node each execution (safe across checkpoint restore, which
/// reassigns parameter matrices); inputs come from the per-run input list;
/// constants from the graph's constant pool.
struct BufferDesc {
  enum class Kind : uint8_t {
    kArena = 0,   // op output value, arena-planned
    kAux,         // op side-band workspace (fused kernels), arena-planned
    kParamValue,  // ref = index into Graph::params
    kInput,       // ref = index into the per-run input pointer list
    kConstant,    // ref = float offset into Graph::constants
  };
  Kind kind = Kind::kArena;
  uint32_t rows = 0;
  uint32_t cols = 0;
  uint32_t ref = 0;
  // Arena-planned kinds only, assigned by MemoryPlanner (float offset).
  size_t offset = 0;
  size_t size() const { return static_cast<size_t>(rows) * cols; }
};

/// One recorded op: reads the `in` buffers, writes `out`. `aux` is -1
/// unless the op kind uses a forward-time workspace.
struct Instr {
  OpKind kind = OpKind::kNumOpKinds;
  int32_t out = -1;
  int32_t aux = -1;
  std::vector<int32_t> in;
  float fattr = 0.0f;
  int64_t iattr0 = 0;
  int64_t iattr1 = 0;
};

/// Per-site metadata for one kQuantLinear* instr (Instr::iattr0 indexes the
/// Graph::quant_linears table). Weights are quantized per output column
/// (symmetric, zero-point 0) and stored transposed — cols rows of k int8
/// each — so the inner dot product walks both operands contiguously.
struct QuantLinearInfo {
  size_t qweight_offset = 0;  // into Graph::qweights (cols * k int8 values)
  size_t scale_offset = 0;    // into Graph::qscales (cols per-column scales)
  float in_scale = 1.0f;      // static activation scale from calibration
};

/// A recorded, memory-planned computation. Immutable after
/// GraphRecorder::Finish; shared by value across threads (execution state
/// lives in PlanRun, not here — replaying a Graph is const and re-entrant).
struct Graph {
  std::vector<BufferDesc> buffers;
  /// The program, in recorded (execution) order.
  std::vector<Instr> instrs;
  /// Trainable leaves bound at record time. Values are read through the
  /// Node on every execution, so optimizer steps and checkpoint restores
  /// are picked up automatically.
  std::vector<std::shared_ptr<Tensor::Node>> params;
  /// Pool for non-trainable non-input leaves (values baked at record time).
  std::vector<float> constants;
  /// Number of per-run input pointers the executor expects.
  size_t num_inputs = 0;
  /// The value buffer holding the recorded output (pinned live to the end).
  int32_t output_buffer = -1;
  /// Int8 side tables (QuantizeGraph only; empty on fp32 graphs). Weights
  /// are BAKED at quantize time — a quantized plan must be discarded if the
  /// parameters it was built from change (re-fit / checkpoint restore).
  std::vector<int8_t> qweights;
  std::vector<float> qscales;
  std::vector<QuantLinearInfo> quant_linears;
  /// Arena size in floats, from MemoryPlanner.
  size_t arena_floats = 0;
  /// Planner debug info for tests: per-buffer [birth, death] instr
  /// positions; {-1, -1} for buffers that are not arena-planned (or never
  /// used).
  std::vector<std::pair<int32_t, int32_t>> live;
};

class PlanInputs;

/// Resolved per-execution state handed to kernels.
struct ExecState {
  const Graph* graph = nullptr;
  float* arena = nullptr;
  const std::vector<const float*>* inputs = nullptr;

  float* Ptr(int32_t buffer_id) const;
};

/// Per-op schema: registry entry carrying the op's name, arity bounds,
/// shape inference (used to validate recorded graphs) and kernel.
struct OpSchema {
  const char* name = "?";
  uint8_t min_arity = 1;
  uint8_t max_arity = 1;
  /// Returns the output shape for the given input shapes + attrs, or
  /// {0, 0} when the combination is invalid.
  std::pair<uint32_t, uint32_t> (*infer_shape)(
      const Instr& instr, const std::vector<BufferDesc>& buffers) = nullptr;
  void (*forward)(const Graph& g, const Instr& instr,
                  const ExecState& st) = nullptr;
};

/// Registry lookup; CHECK-fails on an out-of-range kind.
const OpSchema& GetOpSchema(OpKind kind);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_GRAPH_IR_H_

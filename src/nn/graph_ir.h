#ifndef HISRECT_NN_GRAPH_IR_H_
#define HISRECT_NN_GRAPH_IR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
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
/// The OpSchema registry below is the one kernel set. Every recordable tape
/// op in ops.cc (kMatMul through kConv1dSame) computes its forward value by
/// calling its kind's registry kernel on Matrix storage, and PlanExecutor
/// calls the same kernel on arena slices — so a plan replay is bitwise
/// identical to the tape it was recorded from by construction. The fused
/// kinds exist only in optimized plans (graph_optimizer.h).
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
  /// Arena size in floats, from MemoryPlanner.
  size_t arena_floats = 0;
  /// Planner debug info for tests: per-buffer [birth, death] instr
  /// positions; {-1, -1} for buffers that are not arena-planned (or never
  /// used).
  std::vector<std::pair<int32_t, int32_t>> live;
};

/// Operand shape.
struct Dims {
  size_t rows = 0;
  size_t cols = 0;
  size_t size() const { return rows * cols; }
};

/// One resolved kernel input: storage plus shape.
struct Operand {
  const float* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t size() const { return rows * cols; }
};

/// The kernel ABI: resolved operands and attributes of one op invocation.
/// PlanExecutor resolves them from arena, parameter, input and constant
/// buffers; the eager ops in ops.cc point them at Matrix storage.
struct KernelArgs {
  const Operand* in = nullptr;
  size_t num_in = 0;
  float* out = nullptr;
  Dims out_dims;
  /// Forward-time workspace of kFusedDualLinear; null otherwise.
  float* aux = nullptr;
  float fattr = 0.0f;
  int64_t iattr0 = 0;
  int64_t iattr1 = 0;
};

/// Per-op schema: registry entry carrying the op's name, shape inference and
/// kernel.
struct OpSchema {
  const char* name = "?";
  /// Output shape for the operand count and shapes in `args.in` and the
  /// attributes, or nullopt when the combination is invalid. Reads nothing
  /// else. The eager ops CHECK it before allocating their output, so it is
  /// the one shape check of both paths.
  std::optional<Dims> (*infer_shape)(const KernelArgs& args) = nullptr;
  /// Writes `args.out` (shape `args.out_dims`, which infer_shape returned).
  void (*forward)(const KernelArgs& args) = nullptr;
};

/// Registry lookup; CHECK-fails on an out-of-range kind.
const OpSchema& GetOpSchema(OpKind kind);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_GRAPH_IR_H_

#ifndef HISRECT_NN_PLAN_EXECUTOR_H_
#define HISRECT_NN_PLAN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/graph_ir.h"

namespace hisrect::nn {

/// Opt-in switch for plan-based scoring (HisRectModelConfig::plan). Off by
/// default: the eager tape stays the reference path, and training always
/// runs it.
struct PlanOptions {
  bool enabled = false;
  /// Run GraphOptimizer fusion (Linear+ReLU / Linear+Tanh / MatMul+bias /
  /// LSTM-gate dual linear) over recorded plans. Fused fp32 plans stay
  /// bitwise-identical to the eager tape. Implies nothing else.
  bool fuse = false;
  /// After `calibration_samples` fp32 executions per plan shape, rebuild
  /// the plan with int8 fused-linear kernels (per-channel symmetric
  /// weights, fp32 accumulation epilogue). NOT bitwise — judgement quality
  /// is gated by AUC deltas instead. Implies `fuse`.
  bool quantize = false;
  /// Executions observed per plan shape before quantizing.
  int calibration_samples = 16;
};

/// Per-run input binder. Inputs must be added in the exact order the leaves
/// were declared with RecordPlanInput during recording. Pointers can be
/// direct (caller-owned storage that outlives the execution) or staged
/// (copied into an internal grow-only buffer — required for values that are
/// materialized on the fly, e.g. embedding rows). Steady state performs no
/// allocation: all vectors grow to their high-water capacity during warmup
/// and are reused.
class PlanInputs {
 public:
  void Reset() {
    entries_.clear();
    staging_.clear();
  }

  /// Caller-owned pointer, stable for the duration of the execution.
  void AddDirect(const float* data) { entries_.push_back({data, 0, 0}); }

  /// Reserves n staged floats and returns a pointer to fill immediately —
  /// the pointer is invalidated by the next AllocStaged call.
  float* AllocStaged(size_t n) {
    size_t offset = staging_.size();
    staging_.resize(offset + n);
    entries_.push_back({nullptr, offset, n});
    return staging_.data() + offset;
  }

  /// Resolves every entry to a pointer. Call after ALL adds (staging may
  /// reallocate while filling).
  const std::vector<const float*>& Pointers() const {
    pointers_.clear();
    pointers_.reserve(entries_.size());
    for (const Entry& e : entries_) {
      pointers_.push_back(e.direct != nullptr ? e.direct
                                              : staging_.data() + e.offset);
    }
    return pointers_;
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    const float* direct;  // null for staged entries
    size_t offset;
    size_t len;
  };
  std::vector<Entry> entries_;
  std::vector<float> staging_;
  mutable std::vector<const float*> pointers_;
};

/// Reusable per-execution workspace: the arena plus the input binder. One
/// PlanRun must not be shared across threads concurrently; pool or stripe
/// them instead (the Graph itself is immutable and freely shared).
struct PlanRun {
  std::vector<float> arena;
  PlanInputs inputs;
  /// Per-instr resolved operands (grow-only scratch of PlanExecutor).
  std::vector<Operand> operands;
};

/// Called before each instr's kernel with its resolved operands.
using InstrObserver =
    std::function<void(const Instr& instr, const KernelArgs& args)>;

/// Replays a recorded, memory-planned Graph. All methods are static and
/// re-entrant; all mutable state lives in PlanRun.
class PlanExecutor {
 public:
  /// Executes the program: resolves each instr's operands and runs its
  /// registry kernel. Grows run.arena and run.operands on first use (the
  /// only allocations; steady-state replays allocate nothing). `observe`,
  /// when set, sees every instr's inputs right before its kernel overwrites
  /// any arena slot (Calibrator).
  static void Forward(const Graph& graph, PlanRun& run,
                      const InstrObserver& observe = nullptr);

  /// The recorded output value (must be 1x1).
  static float OutputScalar(const Graph& graph, const PlanRun& run);

  /// Pointer to the recorded output buffer in the run's arena.
  static const float* OutputData(const Graph& graph, const PlanRun& run);
};

/// Keyed plan store with hit/miss counters
/// (`hisrect.nn.plan_cache_{hits,misses}`).
/// Not thread-safe; guard externally or keep one per worker.
class PlanCache {
 public:
  std::shared_ptr<const Graph> Get(uint64_t key);
  void Put(uint64_t key, std::shared_ptr<const Graph> graph);
  size_t size() const { return plans_.size(); }

 private:
  std::unordered_map<uint64_t, std::shared_ptr<const Graph>> plans_;
};

}  // namespace hisrect::nn

#endif  // HISRECT_NN_PLAN_EXECUTOR_H_

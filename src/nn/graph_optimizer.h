#ifndef HISRECT_NN_GRAPH_OPTIMIZER_H_
#define HISRECT_NN_GRAPH_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "nn/graph_ir.h"
#include "nn/plan_executor.h"

namespace hisrect::nn {

/// Graph rewrite passes over recorded plans (DESIGN.md §12).
///
/// FuseGraph pattern-matches adjacent MatMul → AddBroadcastRow
/// [→ Relu|Tanh] chains — the shape every nn::Linear/Mlp layer records —
/// and collapses each into a single kFusedLinear* instr. Fusion is legal
/// only when the intermediates are single-consumer and are not the graph
/// output; near-miss chains are left untouched. It also fuses the LSTM-gate
/// preactivation shape AddBroadcastRow(Add(MatMul(x, W), MatMul(h, U)), b)
/// — four instrs — into one kFusedDualLinear (gates dominate the unrolled
/// recurrent featurizer at serving time). Fused plans are re-memory-planned
/// (the collapsed intermediates free their arena intervals) and stay
/// bitwise-identical to the eager tape.
///
/// QuantizeGraph then rewrites the fused linears of a plan to int8
/// (kQuantLinear*): per-output-column symmetric weight quantization baked
/// into the graph, static activation scales from a Calibrator that watched
/// real fp32 executions, fp32 accumulation epilogue. Quantized plans are NOT
/// bitwise.

struct FusionStats {
  int fused_linear = 0;
  int fused_linear_relu = 0;
  int fused_linear_tanh = 0;
  int fused_dual_linear = 0;
  int total() const {
    return fused_linear + fused_linear_relu + fused_linear_tanh +
           fused_dual_linear;
  }
};

/// Returns a fused, re-planned copy of `graph` (the input is not modified).
/// Increments `hisrect.nn.fused_ops` by the number of fused instrs emitted.
std::shared_ptr<const Graph> FuseGraph(const Graph& graph,
                                       FusionStats* stats = nullptr);

/// Observes fp32 executions of a fused inference plan to pick static
/// activation scales, then builds the int8 plan. Not thread-safe; guard
/// with the plan cache's lock.
class Calibrator {
 public:
  /// `graph` should already be fused (only fused linears are quantized).
  /// `samples_needed` executions are observed before Ready() turns true.
  Calibrator(std::shared_ptr<const Graph> graph, int samples_needed);

  /// Executes the forward program with `run`'s bound inputs (equivalent to
  /// PlanExecutor::Forward — the output is valid afterwards), recording the
  /// running max |activation| at each fused-linear site in stride.
  void Observe(PlanRun& run);

  bool Ready() const { return seen_ >= needed_; }

  const Graph& graph() const { return *graph_; }

  /// Builds the int8 plan from the observed activation ranges. Requires
  /// Ready(). Increments `hisrect.nn.quantized_plans`.
  std::shared_ptr<const Graph> Quantize() const;

 private:
  std::shared_ptr<const Graph> graph_;
  std::vector<float> max_abs_;   // running max |activation| per quantized
                                 // input: one slot per fused-linear site,
                                 // two (x then h) per dual-linear site
  int seen_ = 0;
  int needed_ = 0;
};

/// Direct int8 rewrite: `max_abs_per_site` holds the observed activation
/// ranges of the fused-linear instrs in forward order — one entry per
/// kFusedLinear*, two consecutive entries (x then h) per kFusedDualLinear.
/// Exposed for tests; production goes through Calibrator.
std::shared_ptr<const Graph> QuantizeGraph(
    const Graph& graph, const std::vector<float>& max_abs_per_site);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_GRAPH_OPTIMIZER_H_

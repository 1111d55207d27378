#include "nn/plan_executor.h"

// Header-only metrics core: no link dependency needed for the counter.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

void PlanExecutor::Forward(const Graph& graph, PlanRun& run) {
  if (run.arena.size() < graph.arena_floats) {
    run.arena.resize(graph.arena_floats);  // grow-only; warmup cost
  }
  const std::vector<const float*>& inputs = run.inputs.Pointers();
  CHECK_EQ(inputs.size(), graph.num_inputs);
  ExecState st{&graph, run.arena.data(), &inputs};
  for (const Instr& ins : graph.instrs) {
    GetOpSchema(ins.kind).forward(graph, ins, st);
  }
}

float PlanExecutor::OutputScalar(const Graph& graph, const PlanRun& run) {
  const BufferDesc& out = graph.buffers[graph.output_buffer];
  CHECK_EQ(out.size(), 1u);
  return *OutputData(graph, run);
}

const float* PlanExecutor::OutputData(const Graph& graph, const PlanRun& run) {
  CHECK_GE(graph.output_buffer, 0);
  const BufferDesc& out = graph.buffers[graph.output_buffer];
  CHECK(out.kind == BufferDesc::Kind::kArena);
  return run.arena.data() + out.offset;
}

namespace {

inline void CountPlanCacheHit() {
  static obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.plan_cache_hits");
  hits->Increment();
}

inline void CountPlanCacheMiss() {
  static obs::Counter* misses = obs::MetricsRegistry::Global().GetCounter(
      "hisrect.nn.plan_cache_misses");
  misses->Increment();
}

}  // namespace

std::shared_ptr<const Graph> PlanCache::Get(uint64_t key) {
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    CountPlanCacheMiss();
    return nullptr;
  }
  CountPlanCacheHit();
  return it->second;
}

void PlanCache::Put(uint64_t key, std::shared_ptr<const Graph> graph) {
  plans_.emplace(key, std::move(graph));
}

}  // namespace hisrect::nn

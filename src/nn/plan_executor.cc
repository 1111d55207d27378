#include "nn/plan_executor.h"

// Header-only metrics core: no link dependency needed for the counter.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

const float* BufferData(const Graph& graph, int32_t id, float* arena,
                        const std::vector<const float*>& inputs) {
  const BufferDesc& b = graph.buffers[id];
  switch (b.kind) {
    case BufferDesc::Kind::kArena:
    case BufferDesc::Kind::kAux:
      return arena + b.offset;
    case BufferDesc::Kind::kParamValue:
      return graph.params[b.ref]->value.data();
    case BufferDesc::Kind::kInput:
      return inputs[b.ref];
    case BufferDesc::Kind::kConstant:
      return graph.constants.data() + b.ref;
  }
  CHECK(false) << "unreachable buffer kind";
  return nullptr;
}

}  // namespace

void PlanExecutor::Forward(const Graph& graph, PlanRun& run,
                           const InstrObserver& observe) {
  if (run.arena.size() < graph.arena_floats) {
    run.arena.resize(graph.arena_floats);  // grow-only; warmup cost
  }
  const std::vector<const float*>& inputs = run.inputs.Pointers();
  CHECK_EQ(inputs.size(), graph.num_inputs);
  float* arena = run.arena.data();
  for (const Instr& ins : graph.instrs) {
    run.operands.resize(ins.in.size());  // never shrinks capacity
    for (size_t i = 0; i < ins.in.size(); ++i) {
      const BufferDesc& b = graph.buffers[ins.in[i]];
      run.operands[i] = {BufferData(graph, ins.in[i], arena, inputs), b.rows,
                         b.cols};
    }
    const BufferDesc& out = graph.buffers[ins.out];
    KernelArgs args;
    args.in = run.operands.data();
    args.num_in = ins.in.size();
    args.out = arena + out.offset;
    args.out_dims = {out.rows, out.cols};
    if (ins.aux >= 0) args.aux = arena + graph.buffers[ins.aux].offset;
    args.fattr = ins.fattr;
    args.iattr0 = ins.iattr0;
    args.iattr1 = ins.iattr1;
    args.graph = &graph;
    if (observe) observe(ins, args);
    GetOpSchema(ins.kind).forward(args);
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

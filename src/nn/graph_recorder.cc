#include "nn/graph_recorder.h"

#include <utility>

#include "nn/memory_planner.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

thread_local GraphRecorder* g_active = nullptr;

}  // namespace

GraphRecorder* GraphRecorder::Active() { return g_active; }

GraphRecorder::GraphRecorder() {
  CHECK(g_active == nullptr) << "GraphRecorder is not re-entrant";
  graph_ = std::make_unique<Graph>();
  g_active = this;
}

GraphRecorder::~GraphRecorder() {
  if (g_active == this) g_active = nullptr;
}

void GraphRecorder::OnInput(const Tensor& leaf) {
  CHECK(!finished_);
  CHECK(leaf.defined());
  CHECK(!leaf.requires_grad())
      << "plan inputs must not require grad (trainable leaves are bound as "
         "parameters automatically)";
  const Tensor::Node* key = leaf.node().get();
  auto it = value_buffer_.find(key);
  if (it != value_buffer_.end()) {
    // Re-declaring an already-seen input is a no-op; a leaf that was already
    // consumed as a constant cannot retroactively become an input.
    CHECK(graph_->buffers[it->second].kind == BufferDesc::Kind::kInput)
        << "RecordPlanInput must run before the leaf is consumed by an op";
    return;
  }
  BufferDesc desc;
  desc.kind = BufferDesc::Kind::kInput;
  desc.rows = static_cast<uint32_t>(leaf.rows());
  desc.cols = static_cast<uint32_t>(leaf.cols());
  desc.ref = static_cast<uint32_t>(graph_->num_inputs++);
  int32_t id = static_cast<int32_t>(graph_->buffers.size());
  graph_->buffers.push_back(desc);
  value_buffer_.emplace(key, id);
  keepalive_.push_back(leaf.node());
}

int32_t GraphRecorder::ValueBufferFor(
    const std::shared_ptr<Tensor::Node>& node) {
  auto it = value_buffer_.find(node.get());
  if (it != value_buffer_.end()) return it->second;
  // First sighting of a leaf (no recorded producer): classify it.
  BufferDesc desc;
  desc.rows = static_cast<uint32_t>(node->value.rows());
  desc.cols = static_cast<uint32_t>(node->value.cols());
  if (node->requires_grad) {
    desc.kind = BufferDesc::Kind::kParamValue;
    desc.ref = static_cast<uint32_t>(graph_->params.size());
    graph_->params.push_back(node);
  } else {
    // Non-trainable, not declared as input: bake the value.
    desc.kind = BufferDesc::Kind::kConstant;
    desc.ref = static_cast<uint32_t>(graph_->constants.size());
    const float* v = node->value.data();
    graph_->constants.insert(graph_->constants.end(), v, v + node->value.size());
  }
  int32_t id = static_cast<int32_t>(graph_->buffers.size());
  graph_->buffers.push_back(desc);
  value_buffer_.emplace(node.get(), id);
  keepalive_.push_back(node);
  return id;
}

void GraphRecorder::OnOp(OpKind kind, const Tensor& out, float fattr,
                         int64_t iattr0, int64_t iattr1) {
  CHECK(!finished_);
  Instr ins;
  ins.kind = kind;
  ins.fattr = fattr;
  ins.iattr0 = iattr0;
  ins.iattr1 = iattr1;
  const auto& parents = out.node()->parents;
  ins.in.reserve(parents.size());
  for (const auto& parent : parents) ins.in.push_back(ValueBufferFor(parent));

  // Output buffer (always arena-planned).
  BufferDesc out_desc;
  out_desc.kind = BufferDesc::Kind::kArena;
  out_desc.rows = static_cast<uint32_t>(out.rows());
  out_desc.cols = static_cast<uint32_t>(out.cols());
  ins.out = static_cast<int32_t>(graph_->buffers.size());
  graph_->buffers.push_back(out_desc);
  value_buffer_.emplace(out.node().get(), ins.out);
  keepalive_.push_back(out.node());
  graph_->instrs.push_back(std::move(ins));
}

std::shared_ptr<const Graph> GraphRecorder::Finish(const Tensor& output) {
  CHECK(!finished_);
  CHECK(output.defined());
  // Record-time only: plans are recorded once per shape and replayed
  // thousands of times, so per-execution spans would flood the trace ring.
  HISRECT_TRACE_SPAN("nn.plan.record");
  auto it = value_buffer_.find(output.node().get());
  // Op outputs are the only kArena buffers.
  CHECK(it != value_buffer_.end() &&
        graph_->buffers[it->second].kind == BufferDesc::Kind::kArena)
      << "plan output must be produced by a recorded op";
  graph_->output_buffer = it->second;
  PlanMemory(graph_.get());
  finished_ = true;
  if (g_active == this) g_active = nullptr;
  return std::shared_ptr<const Graph>(std::move(graph_));
}

void RecordPlanInput(const Tensor& leaf) {
  GraphRecorder* rec = g_active;
  if (rec == nullptr) return;
  rec->OnInput(leaf);
}

}  // namespace hisrect::nn

#ifndef HISRECT_NN_GRAPH_RECORDER_H_
#define HISRECT_NN_GRAPH_RECORDER_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/graph_ir.h"
#include "nn/tensor.h"

namespace hisrect::nn {

/// Captures one eval-mode eager tape execution into a static inference
/// Graph. Usage:
///
///   GraphRecorder rec;
///   Tensor logit = ... ordinary eval-mode eager forward ...;  // ops record
///   std::shared_ptr<const Graph> plan = rec.Finish(logit);
///
/// While a recorder is active on the current thread, every op in ops.cc
/// appends an Instr via the RecordOp hooks below, and RecordPlanInput marks
/// per-execution leaves (feature rows, embedding rows, labels). Leaves are
/// classified at first use: declared inputs stay symbolic; requires_grad
/// leaves become bound parameters (read through their live Node on every
/// replay, so optimizer steps and checkpoint restores are picked up);
/// everything else is baked into the constant pool.
///
/// Training-only tape ops (training-mode Dropout, SoftmaxCrossEntropy,
/// SigmoidBinaryCrossEntropy) have no op kind and CHECK-fail while a
/// recorder is active, rather than being silently baked in as constants.
///
/// Finish() runs MemoryPlanner to assign arena offsets.
///
/// The recorder is strictly thread-local and not re-entrant; nesting two
/// recorders on one thread is a CHECK failure.
class GraphRecorder {
 public:
  GraphRecorder();
  ~GraphRecorder();
  GraphRecorder(const GraphRecorder&) = delete;
  GraphRecorder& operator=(const GraphRecorder&) = delete;

  /// The active recorder on this thread, or nullptr.
  static GraphRecorder* Active();

  /// Seals the recording rooted at `output`, plans arena memory, and
  /// deactivates the recorder.
  std::shared_ptr<const Graph> Finish(const Tensor& output);

  // Hook bodies (called via the free functions below).
  void OnOp(OpKind kind, const Tensor& out,
            const std::vector<const Tensor*>& parents, float fattr,
            int64_t iattr0, int64_t iattr1);
  void OnInput(const Tensor& leaf);

 private:
  int32_t ValueBufferFor(const std::shared_ptr<Tensor::Node>& node);

  bool finished_ = false;
  std::unique_ptr<Graph> graph_;
  // Node address -> buffer id. keepalive_ pins every node seen so addresses
  // cannot be recycled mid-recording.
  std::unordered_map<const Tensor::Node*, int32_t> value_buffer_;
  std::vector<std::shared_ptr<Tensor::Node>> keepalive_;
};

/// Op hooks, called from ops.cc after each node is built. No-ops when no
/// recorder is active on the current thread (one TLS load + branch).
void RecordOp(OpKind kind, const Tensor& out,
              std::initializer_list<const Tensor*> parents, float fattr = 0.0f,
              int64_t iattr0 = 0, int64_t iattr1 = 0);
void RecordOpMany(OpKind kind, const Tensor& out,
                  const std::vector<Tensor>& parents);

/// Declares `leaf` as a per-execution input of the plan being recorded (its
/// value is NOT baked in; the executor binds a fresh pointer every run).
/// Inputs must be declared in a deterministic order — the binder must feed
/// pointers in the same order at replay. No-op when no recorder is active.
void RecordPlanInput(const Tensor& leaf);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_GRAPH_RECORDER_H_

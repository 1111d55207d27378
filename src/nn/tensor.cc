#include "nn/tensor.h"

#include <unordered_set>

// Header-only metrics core: no link dependency on hisrect_obs.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

// Every Node creation is one (or more) heap allocations: the node itself,
// its value matrix, and for ops the parents vector + backward closure. The
// counter is the steady-state-allocation gate for the planned execution
// path: after plan warmup a planned training/serving loop must not create a
// single node (bench_training_throughput / bench_serving scrape the delta
// and tools/run_benches.sh asserts zero).
inline void CountTensorAlloc() {
  static obs::Counter* allocs =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.tensor_allocs");
  allocs->Increment();
}

}  // namespace

void Tensor::Node::EnsureGrad() {
  // Grow-only: an already-sized grad keeps both its storage and its
  // accumulated contents. Re-zeroing or re-allocating here would break
  // gradient accumulation across a step and churn the allocator on every
  // AccumulateInto call of the eager tape.
  if (grad.rows() == value.rows() && grad.cols() == value.cols()) return;
  grad = Matrix(value.rows(), value.cols());
}

Tensor Tensor::FromMatrix(Matrix value, bool requires_grad) {
  CountTensorAlloc();
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

Tensor Tensor::Zeros(size_t rows, size_t cols, bool requires_grad) {
  return FromMatrix(Matrix(rows, cols), requires_grad);
}

Tensor Tensor::RowVector(std::vector<float> values, bool requires_grad) {
  return FromMatrix(Matrix::RowVector(std::move(values)), requires_grad);
}

Tensor Tensor::MakeOp(Matrix value, std::vector<Tensor> parents,
                      std::function<void(Node&)> backward) {
  CountTensorAlloc();
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->parents.reserve(parents.size());
  for (Tensor& parent : parents) {
    CHECK(parent.defined()) << "op parent is a null tensor";
    node->requires_grad = node->requires_grad || parent.requires_grad();
    // `parents` is ours: moving the handles skips a refcount round trip.
    node->parents.push_back(std::move(parent.node_));
  }
  if (node->requires_grad) node->backward = std::move(backward);
  return Tensor(std::move(node));
}

const Matrix& Tensor::value() const& {
  CHECK(defined());
  return node_->value;
}

Matrix Tensor::value() && {
  CHECK(defined());
  return node_->value;
}

Matrix& Tensor::mutable_value() {
  CHECK(defined());
  return node_->value;
}

const Matrix& Tensor::grad() const {
  CHECK(defined());
  node_->EnsureGrad();
  return node_->grad;
}

Matrix& Tensor::mutable_grad() {
  CHECK(defined());
  node_->EnsureGrad();
  return node_->grad;
}

bool Tensor::requires_grad() const {
  CHECK(defined());
  return node_->requires_grad;
}

void Tensor::ZeroGrad() {
  CHECK(defined());
  if (!node_->grad.empty()) node_->grad.Fill(0.0f);
}

void Tensor::Backward() {
  CHECK(defined());
  CHECK_EQ(node_->value.rows(), 1u) << "Backward requires a scalar";
  CHECK_EQ(node_->value.cols(), 1u) << "Backward requires a scalar";

  // Iterative post-order DFS to build a reverse topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  order.reserve(256);
  visited.reserve(256);
  stack.reserve(64);
  if (node_->requires_grad) {
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
  }
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      Node* parent = top.node->parents[top.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }

  node_->EnsureGrad();
  node_->grad.At(0, 0) += 1.0f;

  // `order` is post-order (children after parents... actually parents first);
  // iterate from the output node backwards.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward) {
      node->EnsureGrad();
      node->backward(*node);
    }
  }
}

}  // namespace hisrect::nn

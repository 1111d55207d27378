#include "core/shard_step.h"

#include "nn/ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hisrect::core {

double RunShardStep(std::vector<nn::NamedParameter>& shared,
                    std::vector<std::vector<nn::NamedParameter>>& replicas,
                    size_t batch_size, float loss_scale,
                    const ShardSampleLoss& sample_loss) {
  const size_t num_shards = replicas.size();
  CHECK_GT(num_shards, 0u);
  std::vector<float> shard_losses(num_shards, 0.0f);
  util::ParallelFor(
      util::ThreadPool::Global(), batch_size, num_shards,
      [&](size_t shard, size_t begin, size_t end) {
        nn::Tensor loss;
        for (size_t b = begin; b < end; ++b) {
          nn::Tensor loss_b = sample_loss(shard, b);
          loss = loss.defined() ? nn::Add(loss, loss_b) : loss_b;
        }
        loss = nn::Scale(loss, loss_scale);
        loss.Backward();
        shard_losses[shard] = loss.value().At(0, 0);
      });

  // Fixed-order reduction: shard 0 first, then 1, ... — the float sums are
  // associated identically no matter which threads ran the shards.
  double loss_value = 0.0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    loss_value += shard_losses[shard];
    std::vector<nn::NamedParameter>& replica = replicas[shard];
    CHECK_EQ(replica.size(), shared.size());
    for (size_t p = 0; p < shared.size(); ++p) {
      shared[p].tensor.mutable_grad().AddScaled(replica[p].tensor.grad(),
                                                1.0f);
      replica[p].tensor.ZeroGrad();
    }
  }
  return loss_value;
}

}  // namespace hisrect::core

#ifndef HISRECT_CORE_SHARD_STEP_H_
#define HISRECT_CORE_SHARD_STEP_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"

namespace hisrect::core {

/// Builds the loss of batch entry `sample` on the tape of replica `shard`.
using ShardSampleLoss = std::function<nn::Tensor(size_t shard, size_t sample)>;

/// The one data-parallel gradient step both trainers run. Splits
/// [0, batch_size) into `replicas.size()` fixed shards on the global pool;
/// each shard sums its samples' losses on its replica's private tape,
/// multiplies by `loss_scale` and backpropagates into the replica
/// parameters. The replica gradients are then added into `shared` in
/// ascending shard order and cleared — the fixed association that makes the
/// step bitwise independent of how many threads ran the shards. One replica
/// runs inline. Each `replicas[s]` mirrors `shared` (same names, same
/// order); the caller syncs replica values and leaves the optimizer step to
/// the trainer. Returns the sum of the scaled shard losses.
double RunShardStep(std::vector<nn::NamedParameter>& shared,
                    std::vector<std::vector<nn::NamedParameter>>& replicas,
                    size_t batch_size, float loss_scale,
                    const ShardSampleLoss& sample_loss);

}  // namespace hisrect::core

#endif  // HISRECT_CORE_SHARD_STEP_H_

#include "nn/memory_planner.h"

#include <algorithm>
#include <atomic>
#include <vector>

// Header-only metrics core: no link dependency needed for the gauge.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

constexpr size_t kAlignFloats = 16;  // 64-byte lines

inline bool ArenaPlanned(BufferDesc::Kind kind) {
  return kind == BufferDesc::Kind::kArena || kind == BufferDesc::Kind::kAux;
}

inline size_t AlignedSize(size_t floats) {
  return (floats + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

/// Deterministic first-fit arena: blocks sorted by offset, coalesced on
/// free; allocation order is fully determined by the caller's call order.
class Arena {
 public:
  size_t Allocate(size_t floats) {
    floats = AlignedSize(floats);
    for (size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size >= floats) {
        size_t offset = free_[i].offset;
        free_[i].offset += floats;
        free_[i].size -= floats;
        if (free_[i].size == 0) free_.erase(free_.begin() + i);
        return offset;
      }
    }
    size_t offset = tail_;
    tail_ += floats;
    high_water_ = std::max(high_water_, tail_);
    return offset;
  }

  void Free(size_t offset, size_t floats) {
    floats = AlignedSize(floats);
    Block block{offset, floats};
    auto it = std::lower_bound(
        free_.begin(), free_.end(), block,
        [](const Block& a, const Block& b) { return a.offset < b.offset; });
    it = free_.insert(it, block);
    // Coalesce with the successor, then the predecessor.
    size_t i = static_cast<size_t>(it - free_.begin());
    if (i + 1 < free_.size() &&
        free_[i].offset + free_[i].size == free_[i + 1].offset) {
      free_[i].size += free_[i + 1].size;
      free_.erase(free_.begin() + i + 1);
    }
    if (i > 0 && free_[i - 1].offset + free_[i - 1].size == free_[i].offset) {
      free_[i - 1].size += free_[i].size;
      free_.erase(free_.begin() + i);
      i -= 1;
    }
    // Return a block touching the tail to the tail.
    if (free_[i].offset + free_[i].size == tail_) {
      tail_ = free_[i].offset;
      free_.erase(free_.begin() + i);
    }
  }

  size_t high_water() const { return high_water_; }

 private:
  struct Block {
    size_t offset;
    size_t size;
  };
  std::vector<Block> free_;
  size_t tail_ = 0;
  size_t high_water_ = 0;
};

void PublishArenaHighWater(size_t bytes) {
  // Process-wide high-water across every plan built so far.
  static std::atomic<int64_t> max_bytes{0};
  int64_t value = static_cast<int64_t>(bytes);
  int64_t seen = max_bytes.load(std::memory_order_relaxed);
  while (seen < value &&
         !max_bytes.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
  }
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("hisrect.nn.arena_bytes");
  gauge->Set(std::max(seen, value));
}

}  // namespace

void PlanMemory(Graph* graph) {
  const size_t num_buffers = graph->buffers.size();
  const int32_t num_instrs = static_cast<int32_t>(graph->instrs.size());

  std::vector<int32_t> birth(num_buffers, -1);
  std::vector<int32_t> death(num_buffers, -1);
  // Outputs and aux are born at their instr; operands are read there.
  for (int32_t i = 0; i < num_instrs; ++i) {
    const Instr& ins = graph->instrs[i];
    birth[ins.out] = i;
    death[ins.out] = i;
    if (ins.aux >= 0) {
      birth[ins.aux] = i;
      death[ins.aux] = i;
    }
    for (int32_t in : ins.in) {
      if (ArenaPlanned(graph->buffers[in].kind)) {
        death[in] = std::max(death[in], i);
      }
    }
  }

  // The declared output is read after execution: pin it past the end so its
  // storage is never reused.
  if (graph->output_buffer >= 0 &&
      ArenaPlanned(graph->buffers[graph->output_buffer].kind)) {
    death[graph->output_buffer] = num_instrs;
  }

  // Bucket births and deaths by position. Buffer ids ascend within each
  // bucket (we iterate ids in order), making the layout deterministic.
  std::vector<std::vector<int32_t>> births_at(num_instrs + 1);
  std::vector<std::vector<int32_t>> deaths_at(num_instrs + 1);
  for (size_t b = 0; b < num_buffers; ++b) {
    if (!ArenaPlanned(graph->buffers[b].kind)) continue;
    if (birth[b] < 0) continue;  // unreferenced (fused-away intermediate)
    CHECK_GE(death[b], birth[b]);
    births_at[birth[b]].push_back(static_cast<int32_t>(b));
    if (death[b] < num_instrs) {
      deaths_at[death[b]].push_back(static_cast<int32_t>(b));
    }
  }

  // Single sweep: at each position allocate births BEFORE freeing deaths, so
  // an op's output never aliases an operand whose last use is that op.
  Arena arena;
  for (int32_t pos = 0; pos <= num_instrs; ++pos) {
    for (int32_t b : births_at[pos]) {
      graph->buffers[b].offset = arena.Allocate(graph->buffers[b].size());
    }
    for (int32_t b : deaths_at[pos]) {
      arena.Free(graph->buffers[b].offset, graph->buffers[b].size());
    }
  }

  graph->arena_floats = arena.high_water();
  graph->live.resize(num_buffers);
  for (size_t b = 0; b < num_buffers; ++b) {
    graph->live[b] = {birth[b], death[b]};
  }
  PublishArenaHighWater(graph->arena_floats * sizeof(float));
}

}  // namespace hisrect::nn

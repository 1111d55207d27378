#ifndef HISRECT_NN_MEMORY_PLANNER_H_
#define HISRECT_NN_MEMORY_PLANNER_H_

#include "nn/graph_ir.h"

namespace hisrect::nn {

/// Last-use liveness analysis + deterministic arena assignment for a
/// recorded Graph (called by GraphRecorder::Finish).
///
/// Timeline: instr i executes at position i. Each arena-planned buffer gets
/// one [birth, death] interval:
///   - op outputs: producer position .. last read; the graph output is
///     pinned past the end of the timeline,
///   - aux: the owning instr's position only.
///
/// Offsets come from a single sweep over positions with a deterministic
/// first-fit free list (sorted by offset, coalescing); at each position
/// births allocate BEFORE deaths free, so an op's output can never share
/// storage with an operand dying at that op — the aliasing-safety property
/// the Slice/Concat kernels rely on. Sizes round up to 16 floats (64-byte
/// lines). The resulting offsets depend only on the recorded graph, never on
/// thread count or timing — plan layouts are bitwise-reproducible.
///
/// Fills BufferDesc::offset, Graph::arena_floats, and Graph::live, and
/// drives the `hisrect.nn.arena_bytes` high-water gauge.
void PlanMemory(Graph* graph);

}  // namespace hisrect::nn

#endif  // HISRECT_NN_MEMORY_PLANNER_H_

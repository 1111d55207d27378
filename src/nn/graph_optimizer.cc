#include "nn/graph_optimizer.h"

#include <algorithm>
#include <cmath>

#include "nn/memory_planner.h"
// Header-only metrics core: no link dependency needed for the counters.
#include "obs/metrics.h"
#include "util/logging.h"

namespace hisrect::nn {

namespace {

void CountFusedOps(int n) {
  static obs::Counter* fused =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.fused_ops");
  fused->Add(n);
}

void CountQuantizedPlan() {
  static obs::Counter* plans =
      obs::MetricsRegistry::Global().GetCounter("hisrect.nn.quantized_plans");
  plans->Increment();
}

/// One fusable chain, by forward instr index. Linear chains are
/// MatMul → AddBroadcastRow [→ activation] (act < 0 when only the bias add
/// is folded; mm2/add unused). Dual chains (kFusedDualLinear) are
/// MatMul → MatMul → Add → AddBroadcastRow, with `lin` the AddBroadcastRow.
struct Chain {
  int32_t mm = -1;
  int32_t mm2 = -1;
  int32_t add = -1;
  int32_t lin = -1;
  int32_t act = -1;
  // Dual chains: add.in[0] comes from mm2, not mm (argument evaluation
  // order makes the recorder emit the two MatMuls in either order).
  bool swapped = false;
  OpKind fused_kind = OpKind::kFusedLinear;
};

/// Value buffers the weight quantizer can resolve at rewrite time.
const float* ResolveStaticValues(const Graph& g, int32_t buffer) {
  const BufferDesc& b = g.buffers[buffer];
  switch (b.kind) {
    case BufferDesc::Kind::kParamValue:
      return g.params[b.ref]->value.data();
    case BufferDesc::Kind::kConstant:
      return g.constants.data() + b.ref;
    default:
      CHECK(false) << "quantizable weights must be parameters or constants";
      return nullptr;
  }
}

/// The fp32 fused kinds QuantizeGraph rewrites to int8.
bool IsQuantizableKind(OpKind k) {
  return k == OpKind::kFusedLinear || k == OpKind::kFusedLinearRelu ||
         k == OpKind::kFusedLinearTanh || k == OpKind::kFusedDualLinear;
}

/// True when the buffer's value is fixed at rewrite time — the weight kinds
/// ResolveStaticValues can bake.
bool IsStaticBuffer(const Graph& g, int32_t buffer) {
  const BufferDesc::Kind k = g.buffers[buffer].kind;
  return k == BufferDesc::Kind::kParamValue ||
         k == BufferDesc::Kind::kConstant;
}

/// Quantizes one weight matrix into the graph's int8 side tables —
/// per-output-column symmetric scales, values stored transposed so the
/// kernel's dot product walks both operands contiguously — and returns the
/// new Graph::quant_linears index. `max_abs` is the observed activation
/// range feeding this weight.
int64_t BakeQuantLinear(Graph& g, int32_t w_buffer, float max_abs) {
  const BufferDesc& w = g.buffers[w_buffer];
  const float* wv = ResolveStaticValues(g, w_buffer);
  const size_t k = w.rows;
  const size_t cols = w.cols;

  QuantLinearInfo info;
  info.qweight_offset = g.qweights.size();
  info.scale_offset = g.qscales.size();
  const float sx = max_abs / 127.0f;
  info.in_scale = sx > 0.0f ? sx : 1.0f;
  g.qweights.resize(g.qweights.size() + cols * k);
  int8_t* qw = g.qweights.data() + info.qweight_offset;
  for (size_t j = 0; j < cols; ++j) {
    float max_w = 0.0f;
    for (size_t t = 0; t < k; ++t) {
      max_w = std::max(max_w, std::fabs(wv[t * cols + j]));
    }
    const float sw = max_w > 0.0f ? max_w / 127.0f : 1.0f;
    g.qscales.push_back(sw);
    const float inv_sw = 1.0f / sw;
    for (size_t t = 0; t < k; ++t) {
      long r = std::lrintf(wv[t * cols + j] * inv_sw);
      if (r > 127) r = 127;
      if (r < -127) r = -127;
      qw[j * k + t] = static_cast<int8_t>(r);
    }
  }
  const int64_t index = static_cast<int64_t>(g.quant_linears.size());
  g.quant_linears.push_back(info);
  return index;
}

}  // namespace

std::shared_ptr<const Graph> FuseGraph(const Graph& graph,
                                       FusionStats* stats) {
  auto out = std::make_shared<Graph>(graph);
  Graph& g = *out;
  const int32_t n = static_cast<int32_t>(g.instrs.size());

  // How many forward instrs read each buffer. The graph output is also read
  // externally; chains never fold it (explicit check below).
  std::vector<int32_t> consumers(g.buffers.size(), 0);
  for (const Instr& ins : g.instrs) {
    for (int32_t in : ins.in) consumers[in]++;
  }

  // Pattern scan. Eager code records nested calls sequentially, so a Linear
  // layer's MatMul / AddBroadcastRow / activation land at adjacent forward
  // indices; non-adjacent matches mean an intervening consumer and are not
  // fusable into one kernel anyway.
  std::vector<Chain> chains;
  std::vector<char> in_chain(g.instrs.size(), 0);
  for (int32_t i = 0; i + 1 < n; ++i) {
    // Dual pattern first: MatMul / MatMul / Add / AddBroadcastRow — the
    // LSTM-gate preactivation x@W + h@U + b. Both weights must be static so
    // a later QuantizeGraph can bake them.
    if (i + 3 < n) {
      const Instr& mm1 = g.instrs[i];
      const Instr& mm2 = g.instrs[i + 1];
      const Instr& add = g.instrs[i + 2];
      const Instr& lin = g.instrs[i + 3];
      const bool operands_match =
          add.kind == OpKind::kAdd &&
          ((add.in[0] == mm1.out && add.in[1] == mm2.out) ||
           (add.in[0] == mm2.out && add.in[1] == mm1.out));
      if (mm1.kind == OpKind::kMatMul && mm2.kind == OpKind::kMatMul &&
          operands_match && lin.kind == OpKind::kAddBroadcastRow &&
          lin.in[0] == add.out && consumers[mm1.out] == 1 &&
          consumers[mm2.out] == 1 && consumers[add.out] == 1 &&
          mm1.out != g.output_buffer && mm2.out != g.output_buffer &&
          add.out != g.output_buffer && IsStaticBuffer(g, mm1.in[1]) &&
          IsStaticBuffer(g, mm2.in[1])) {
        Chain chain;
        chain.mm = i;
        chain.mm2 = i + 1;
        chain.add = i + 2;
        chain.lin = i + 3;
        chain.swapped = add.in[0] == mm2.out;
        chain.fused_kind = OpKind::kFusedDualLinear;
        in_chain[chain.mm] = 1;
        in_chain[chain.mm2] = 1;
        in_chain[chain.add] = 1;
        in_chain[chain.lin] = 1;
        chains.push_back(chain);
        i = chain.lin;
        continue;
      }
    }
    const Instr& mm = g.instrs[i];
    const Instr& lin = g.instrs[i + 1];
    if (mm.kind != OpKind::kMatMul) continue;
    if (lin.kind != OpKind::kAddBroadcastRow) continue;
    if (lin.in[0] != mm.out) continue;
    if (consumers[mm.out] != 1) continue;
    if (mm.out == g.output_buffer) continue;

    Chain chain;
    chain.mm = i;
    chain.lin = i + 1;
    chain.fused_kind = OpKind::kFusedLinear;
    // Optionally fold the activation. A near-miss (activation elsewhere,
    // bias sum consumed twice, bias sum is the output) still fuses the
    // MatMul+bias pair — the activation just stays a separate instr.
    if (i + 2 < n) {
      const Instr& act = g.instrs[i + 2];
      const bool act_is_relu = act.kind == OpKind::kRelu;
      const bool act_is_tanh = act.kind == OpKind::kTanh;
      if ((act_is_relu || act_is_tanh) && act.in[0] == lin.out &&
          consumers[lin.out] == 1 && lin.out != g.output_buffer) {
        chain.act = i + 2;
        chain.fused_kind = act_is_relu ? OpKind::kFusedLinearRelu
                                       : OpKind::kFusedLinearTanh;
      }
    }
    in_chain[chain.mm] = 1;
    in_chain[chain.lin] = 1;
    if (chain.act >= 0) in_chain[chain.act] = 1;
    chains.push_back(chain);
    i = chain.act >= 0 ? chain.act : chain.lin;  // resume after the chain
  }

  if (chains.empty()) {
    if (stats != nullptr) *stats = FusionStats{};
    return out;
  }

  // Rebuild the program: chain members collapse into one fused instr;
  // everything else is kept verbatim. Buffer ids are stable — the collapsed
  // intermediates simply become unreferenced, and the re-plan below drops
  // them from the arena (birth stays -1).
  FusionStats local;
  std::vector<Instr> new_instrs;
  new_instrs.reserve(g.instrs.size());
  size_t next_chain = 0;
  for (int32_t i = 0; i < n; ++i) {
    if (in_chain[i]) {
      CHECK_LT(next_chain, chains.size());
      const Chain& chain = chains[next_chain++];
      CHECK_EQ(chain.mm, i);
      if (chain.fused_kind == OpKind::kFusedDualLinear) {
        // The kernel's x/W operands must be the pair feeding add.in[0] so
        // the (x@W + h@U) + b epilogue reproduces the eager Add bitwise.
        const Instr& mm1 = g.instrs[chain.swapped ? chain.mm2 : chain.mm];
        const Instr& mm2 = g.instrs[chain.swapped ? chain.mm : chain.mm2];
        const Instr& lin = g.instrs[chain.lin];
        Instr fused;
        fused.kind = OpKind::kFusedDualLinear;
        fused.in = {mm1.in[0], mm2.in[0], mm1.in[1], mm2.in[1], lin.in[1]};
        fused.out = lin.out;
        // Forward-time temp for the h@U product (the x@W product lands in
        // the output buffer).
        BufferDesc aux;
        aux.kind = BufferDesc::Kind::kAux;
        aux.rows = g.buffers[fused.out].rows;
        aux.cols = g.buffers[fused.out].cols;
        fused.aux = static_cast<int32_t>(g.buffers.size());
        g.buffers.push_back(aux);
        local.fused_dual_linear++;
        new_instrs.push_back(std::move(fused));
        i = chain.lin;
        continue;
      }
      const Instr& mm = g.instrs[chain.mm];
      const Instr& lin = g.instrs[chain.lin];
      const Instr& last = g.instrs[chain.act >= 0 ? chain.act : chain.lin];
      Instr fused;
      fused.kind = chain.fused_kind;
      fused.in = {mm.in[0], mm.in[1], lin.in[1]};
      fused.out = last.out;
      switch (chain.fused_kind) {
        case OpKind::kFusedLinear:
          local.fused_linear++;
          break;
        case OpKind::kFusedLinearRelu:
          local.fused_linear_relu++;
          break;
        default:
          local.fused_linear_tanh++;
          break;
      }
      new_instrs.push_back(std::move(fused));
      i = chain.act >= 0 ? chain.act : chain.lin;
    } else {
      new_instrs.push_back(g.instrs[i]);
    }
  }
  g.instrs = std::move(new_instrs);

  // Re-plan the arena (the dead intermediates shrink it).
  PlanMemory(&g);

  CountFusedOps(local.total());
  if (stats != nullptr) *stats = local;
  return out;
}

Calibrator::Calibrator(std::shared_ptr<const Graph> graph, int samples_needed)
    : graph_(std::move(graph)), needed_(samples_needed) {
  CHECK(graph_ != nullptr);
  CHECK_GT(needed_, 0);
  size_t slots = 0;
  for (const Instr& ins : graph_->instrs) {
    if (IsQuantizableKind(ins.kind)) {
      slots += ins.kind == OpKind::kFusedDualLinear ? 2 : 1;
    }
  }
  max_abs_.assign(slots, 0.0f);
}

void Calibrator::Observe(PlanRun& run) {
  // Observed from inside the replay: arena slots are reused across instrs,
  // so a site's activations exist only right before its kernel runs.
  size_t slot = 0;
  PlanExecutor::Forward(*graph_, run,
                        [&](const Instr& ins, const KernelArgs& args) {
    if (!IsQuantizableKind(ins.kind)) return;
    // Dual sites quantize two activations (x then h); linear sites one.
    const size_t quantized_inputs =
        ins.kind == OpKind::kFusedDualLinear ? 2 : 1;
    for (size_t a = 0; a < quantized_inputs; ++a) {
      const Operand& x = args.in[a];
      float running = max_abs_[slot];
      for (size_t t = 0; t < x.size(); ++t) {
        running = std::max(running, std::fabs(x.data[t]));
      }
      max_abs_[slot] = running;
      ++slot;
    }
  });
  ++seen_;
}

std::shared_ptr<const Graph> Calibrator::Quantize() const {
  CHECK(Ready());
  return QuantizeGraph(*graph_, max_abs_);
}

std::shared_ptr<const Graph> QuantizeGraph(
    const Graph& graph, const std::vector<float>& max_abs_per_site) {
  auto out = std::make_shared<Graph>(graph);
  Graph& g = *out;
  size_t slot = 0;
  for (Instr& ins : g.instrs) {
    OpKind qkind;
    switch (ins.kind) {
      case OpKind::kFusedLinear:
        qkind = OpKind::kQuantLinear;
        break;
      case OpKind::kFusedLinearRelu:
        qkind = OpKind::kQuantLinearRelu;
        break;
      case OpKind::kFusedLinearTanh:
        qkind = OpKind::kQuantLinearTanh;
        break;
      case OpKind::kFusedDualLinear:
        qkind = OpKind::kQuantDualLinear;
        break;
      default:
        continue;
    }
    // Byte count for the run-time quantized activations, carried in float
    // arena slots (dual sites pack x then h back to back).
    size_t act_bytes = 0;
    if (qkind == OpKind::kQuantDualLinear) {
      CHECK_LT(slot + 1, max_abs_per_site.size());
      act_bytes = g.buffers[ins.in[0]].size() + g.buffers[ins.in[1]].size();
      ins.iattr0 = BakeQuantLinear(g, ins.in[2], max_abs_per_site[slot]);
      ins.iattr1 = BakeQuantLinear(g, ins.in[3], max_abs_per_site[slot + 1]);
      slot += 2;
    } else {
      CHECK_LT(slot, max_abs_per_site.size());
      act_bytes = g.buffers[ins.in[0]].size();
      ins.iattr0 = BakeQuantLinear(g, ins.in[1], max_abs_per_site[slot]);
      slot += 1;
    }
    ins.kind = qkind;
    BufferDesc aux;
    aux.kind = BufferDesc::Kind::kAux;
    aux.rows = 1;
    aux.cols = static_cast<uint32_t>((act_bytes + 3) / 4);
    ins.aux = static_cast<int32_t>(g.buffers.size());
    g.buffers.push_back(aux);
  }
  CHECK_EQ(slot, max_abs_per_site.size());
  PlanMemory(&g);
  CountQuantizedPlan();
  return out;
}

}  // namespace hisrect::nn

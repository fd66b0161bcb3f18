#include "src/ucp/loader.h"

#include <algorithm>
#include <chrono>

#include "src/common/fs.h"
#include "src/store/local_store.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor_file.h"

namespace ucp {

namespace {
int64_t AlignUp(int64_t value, int64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}
}  // namespace

Json RankLoadPlan::ToJson() const {
  JsonObject obj;
  obj["flat_layout"] = layout.ToJson();
  obj["partition_offset"] = partition_offset;
  obj["partition_numel"] = partition_numel;
  JsonArray assigns;
  for (const AtomAssignment& a : assignments) {
    JsonObject item;
    item["name"] = a.name;
    item["flat_offset"] = a.flat_offset;
    JsonArray full_shape;
    for (int64_t d : a.full_shape) {
      full_shape.push_back(Json(d));
    }
    item["full_shape"] = Json(std::move(full_shape));
    JsonArray shape;
    for (int64_t d : a.shard_shape) {
      shape.push_back(Json(d));
    }
    item["shard_shape"] = Json(std::move(shape));
    item["partition_kind"] = PartitionKindName(a.target_spec.kind);
    item["partition_dim"] = a.target_spec.dim;
    assigns.push_back(Json(std::move(item)));
  }
  obj["assignments"] = Json(std::move(assigns));
  return Json(std::move(obj));
}

RankLoadPlan GenUcpMetadata(const ModelConfig& model, const ParallelConfig& target,
                            const RankCoord& coord) {
  RankLoadPlan plan;
  std::vector<InventoryEntry> inventory = BuildInventory(model);
  std::vector<InventoryEntry> mine = StageEntries(inventory, model, coord.pp, target.pp);

  int64_t offset = 0;
  for (const InventoryEntry& entry : mine) {
    PartitionSpec spec = EffectiveSpec(entry, target);
    Shape shard_shape = ShardShape(spec, entry.param.full_shape, target.tp);

    AtomAssignment assignment;
    assignment.name = entry.param.name;
    assignment.flat_offset = offset;
    assignment.full_shape = entry.param.full_shape;
    assignment.shard_shape = shard_shape;
    assignment.target_spec = spec;
    plan.assignments.push_back(std::move(assignment));

    FlatSegment seg;
    seg.name = entry.param.name;
    seg.offset = offset;
    seg.numel = ShapeNumel(shard_shape);
    seg.shape = shard_shape;
    seg.decay = entry.param.decay;
    seg.norm_counts = NormCounts(entry, model, target, coord);
    plan.layout.segments.push_back(std::move(seg));
    offset += ShapeNumel(shard_shape);
  }

  plan.layout.total = offset;
  // Re-introduce the alignment padding the target's ZeRO partitioning requires — the
  // inverse of StripPadding (paper: "Padding is also introduced when calculating the
  // partition information").
  plan.layout.padded_total =
      AlignUp(std::max<int64_t>(offset, 1), static_cast<int64_t>(target.dp) * kZeroAlignment);
  plan.layout.partition_size = plan.layout.padded_total / target.dp;

  if (target.zero_stage == 0) {
    plan.partition_offset = 0;
    plan.partition_numel = plan.layout.padded_total;
  } else {
    plan.partition_offset = static_cast<int64_t>(coord.dp) * plan.layout.partition_size;
    plan.partition_numel = plan.layout.partition_size;
  }
  return plan;
}

namespace {

struct UcpLocalState {
  Tensor master;
  Tensor exp_avg;
  Tensor exp_avg_sq;
  int64_t steps = 0;
};

// Reads the parts of one atom that land inside this rank's partition, directly into the
// three partition buffers (one per member). `want_lo`/`want_hi` bound the wanted range in
// shard-flat coordinates; `runs` maps shard-flat to member-flat ranges. Each run clips to the
// wanted window and becomes one contiguous range read per member (dim-0 shards: a single
// run; dim>0 shards: a strided gather). The caller only builds a read whose window
// intersects the shard, and the runs tile the shard, so the file is opened eagerly: every
// call reads each member at least once.
Status ReadAssignedSlices(Store& store, const std::string& rel, const AtomAssignment& a,
                          const std::vector<ShardRun>& runs, int64_t want_lo,
                          int64_t want_hi, int64_t partition_offset,
                          float* const partition_data[3]) {
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, store.OpenRead(rel));
  UCP_ASSIGN_OR_RETURN(BundleFileView view, OpenAtomView(std::move(source)));
  // OpenAtomView checked that the three members share one shape.
  const Shape& shape = view.entries()[0].second.shape;
  if (shape != a.full_shape) {
    return DataLossError("atom file " + rel + " has shape " + ShapeToString(shape) +
                         ", plan expects " + ShapeToString(a.full_shape));
  }
  for (size_t s = 0; s < 3; ++s) {
    UCP_TRACE_SPAN_ARGS("ucp.load.slice", ::ucp::obs::TraceArgs()
                                              .S("atom", a.name)
                                              .S("state", kAtomMembers[s])
                                              .I("numel", want_hi - want_lo));
    for (const ShardRun& run : runs) {
      const int64_t lo = std::max(run.shard_offset, want_lo);
      const int64_t hi = std::min(run.shard_offset + run.numel, want_hi);
      if (lo >= hi) {
        continue;
      }
      const int64_t member_begin = run.full_offset + (lo - run.shard_offset);
      float* out = partition_data[s] + (a.flat_offset + lo - partition_offset);
      UCP_RETURN_IF_ERROR(view.ReadTensorElements(s, member_begin, hi - lo, out));
    }
  }
  return OkStatus();
}

// Per-rank phase: planning, atom reads, flat assembly — no collectives (failures here must
// not strand peers; see the agreement in LoadUcpCheckpoint).
Result<UcpLocalState> LoadUcpLocal(Store& store, const std::string& ucp_rel,
                                   RankTrainer& trainer, const UcpLoadOptions& options) {
  // Two store calls before the first atom: the marker, then the manifest. A UCP tag without
  // its `complete` marker is an aborted export: atoms may be missing or half-written even
  // though the manifest parses, so it is refused before any parse.
  if (!IsTagComplete(store, ucp_rel)) {
    return DataLossError("UCP checkpoint at " + JoinRel(store.Describe(), ucp_rel) +
                         " is not committed (missing 'complete' marker)");
  }
  UCP_ASSIGN_OR_RETURN(UcpMeta meta, ReadUcpMeta(store, ucp_rel));
  if (!SameLogicalModel(meta.model, trainer.config().model)) {
    return FailedPreconditionError(
        "UCP checkpoint was produced by a different model architecture");
  }

  const RankCoord& coord = trainer.coord();
  const ParallelConfig& target = trainer.config().strategy;
  // Plan against the trainer's config (its sharding-mode preferences decide the target
  // partitioning; the atoms themselves are mode-agnostic).
  RankLoadPlan plan = GenUcpMetadata(trainer.config().model, target, coord);

  // Cross-check the plan against the live optimizer layout; a mismatch means the planner
  // and the runtime disagree about the model, which must never pass silently.
  const std::string mismatch =
      FlatLayoutMismatch(plan.layout, "plan", trainer.optimizer().layout(), "live");
  if (!mismatch.empty()) {
    return InternalError("GenUcpMetadata plan does not match the live optimizer layout at " +
                         mismatch);
  }

  if (!options.sliced) {
    // Reference arm: whole-file atom reads, full padded flat assembly, partition sliced at
    // the end. Kept for bit-exactness testing and as the BENCH_load_cost serial baseline.
    Tensor flat_fp32 = Tensor::Zeros({plan.layout.padded_total});
    Tensor flat_m = Tensor::Zeros({plan.layout.padded_total});
    Tensor flat_v = Tensor::Zeros({plan.layout.padded_total});

    for (const AtomAssignment& a : plan.assignments) {
      UCP_TRACE_SPAN_ARGS("ucp.load.atom", ::ucp::obs::TraceArgs().S("atom", a.name));
      UCP_ASSIGN_OR_RETURN(ParamState atom, ReadAtom(store, ucp_rel, a.name));
      Tensor fp32_shard = ShardOf(a.target_spec, atom.fp32, target.tp, coord.tp);
      Tensor m_shard = ShardOf(a.target_spec, atom.exp_avg, target.tp, coord.tp);
      Tensor v_shard = ShardOf(a.target_spec, atom.exp_avg_sq, target.tp, coord.tp);
      if (fp32_shard.shape() != a.shard_shape) {
        return DataLossError("atom " + a.name + " yields shard " +
                             ShapeToString(fp32_shard.shape()) + ", plan expects " +
                             ShapeToString(a.shard_shape));
      }
      Tensor::ViewOf(flat_fp32, a.flat_offset, {fp32_shard.numel()})
          .CopyFrom(fp32_shard.Flatten());
      Tensor::ViewOf(flat_m, a.flat_offset, {m_shard.numel()}).CopyFrom(m_shard.Flatten());
      Tensor::ViewOf(flat_v, a.flat_offset, {v_shard.numel()}).CopyFrom(v_shard.Flatten());
    }

    UcpLocalState state;
    state.master = flat_fp32.Narrow(0, plan.partition_offset, plan.partition_numel);
    state.exp_avg = flat_m.Narrow(0, plan.partition_offset, plan.partition_numel);
    state.exp_avg_sq = flat_v.Narrow(0, plan.partition_offset, plan.partition_numel);
    state.steps = meta.iteration;
    return state;
  }

  // Sliced arm: allocate only this rank's partition (padding stays zero, matching the
  // reference arm bit-for-bit) and read just the atom ranges that intersect it.
  const int64_t p0 = plan.partition_offset;
  const int64_t p1 = plan.partition_offset + plan.partition_numel;
  UcpLocalState state;
  state.master = Tensor::Zeros({plan.partition_numel});
  state.exp_avg = Tensor::Zeros({plan.partition_numel});
  state.exp_avg_sq = Tensor::Zeros({plan.partition_numel});
  state.steps = meta.iteration;
  float* const buffers[3] = {state.master.data(), state.exp_avg.data(),
                             state.exp_avg_sq.data()};

  // Each assignment that intersects the partition opens its atom file once and reads its
  // fp32, exp_avg and exp_avg_sq members inline on the rank's own thread; atoms wholly
  // outside it are never opened.
  for (const AtomAssignment& a : plan.assignments) {
    const int64_t shard_numel = ShapeNumel(a.shard_shape);
    const int64_t lo = std::max<int64_t>(0, p0 - a.flat_offset);
    const int64_t hi = std::min<int64_t>(shard_numel, p1 - a.flat_offset);
    if (lo >= hi) {
      continue;
    }
    const std::vector<ShardRun> runs =
        ShardRuns(a.target_spec, a.full_shape, target.tp, coord.tp);
    UCP_RETURN_IF_ERROR(ReadAssignedSlices(store, AtomRel(ucp_rel, a.name), a, runs, lo, hi,
                                           p0, buffers));
  }
  return state;
}

}  // namespace

Status LoadUcpCheckpoint(const std::string& ucp_dir, RankTrainer& trainer,
                         const UcpLoadOptions& options) {
  LocalStore store(ucp_dir);
  return LoadUcpCheckpoint(store, "", trainer, options);
}

Status LoadUcpCheckpoint(Store& store, const std::string& ucp_rel, RankTrainer& trainer,
                         const UcpLoadOptions& options) {
  UCP_TRACE_NAMED_SPAN(span, "ucp.load");
  UCP_TRACE_SPAN_ARG_S(span, "mode", options.sliced ? "sliced" : "serial");
  static obs::Counter& loads = obs::MetricsRegistry::Global().GetCounter("ucp.loads");
  static obs::Histogram& load_seconds =
      obs::MetricsRegistry::Global().GetHistogram("ucp.load.seconds");
  const auto load_start = std::chrono::steady_clock::now();
  Result<UcpLocalState> local = LoadUcpLocal(store, ucp_rel, trainer, options);
  // Collective agreement before LoadState's DP all-gather (same rationale as the native
  // loader): every rank reaches this reduction, so one rank's failure fails all ranks
  // instead of deadlocking the collective.
  double peer_failed =
      trainer.groups().world.AllReduceMaxScalar(local.ok() ? 0.0 : 1.0);
  if (!local.ok()) {
    return local.status();
  }
  if (peer_failed > 0.0) {
    return DataLossError("aborting UCP load: a peer rank failed to read the checkpoint");
  }
  UCP_RETURN_IF_ERROR(trainer.optimizer().LoadState(local->master, local->exp_avg,
                                                    local->exp_avg_sq, local->steps));
  loads.Add(1);
  load_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - load_start).count());
  return OkStatus();
}

}  // namespace ucp

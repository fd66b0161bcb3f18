#include "src/ckpt/checkpoint.h"

#include <chrono>
#include <string>

#include "src/ckpt/async/snapshot.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor_file.h"

namespace ucp {

namespace {

// This rank's shard writes into the tag's staged area: a fresh snapshot, serialized
// immediately (the synchronous save has no one to hand the copy to). No collectives, no
// early returns across barriers; the caller aggregates outcomes.
Status WriteRankShards(Store& store, const std::string& tag, RankTrainer& trainer) {
  RankCheckpointSnapshot snap;
  {
    UCP_TRACE_SPAN("save.snapshot");
    snap.CaptureFrom(trainer);
  }
  UCP_TRACE_SPAN("save.write_shards");
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<StoreWriter> writer, store.OpenTagForWrite(tag));
  return WriteSnapshotShards(*writer, snap);
}

}  // namespace

CheckpointMeta MetaForSave(const RankTrainer& trainer, int64_t iteration) {
  CheckpointMeta meta;
  meta.model = trainer.config().model;
  meta.strategy = trainer.config().strategy;
  meta.iteration = iteration;
  meta.global_batch = trainer.config().global_batch;
  meta.data_seed = trainer.config().data_seed;
  meta.compute_dtype = trainer.config().compute_dtype;
  return meta;
}

Status SaveDistributedCheckpoint(Store& store, RankTrainer& trainer, int64_t iteration,
                                 const std::string& job) {
  if (!IsValidJobId(job)) {
    return InvalidArgumentError("bad job id: " + job);
  }
  UCP_TRACE_NAMED_SPAN(span, "save.distributed");
  UCP_TRACE_SPAN_ARG_I(span, "iteration", iteration);
  static obs::Histogram& save_seconds =
      obs::MetricsRegistry::Global().GetHistogram("save.distributed.seconds");
  const auto save_start = std::chrono::steady_clock::now();
  const std::string tag = TagForIteration(job, iteration);

  // Rank 0 resets the staging area (debris of a previous crashed save) before any rank
  // writes into it.
  Status local = OkStatus();
  if (trainer.rank() == 0) {
    local = store.ResetTagStaging(tag);
  }
  trainer.groups().world.Barrier();

  if (local.ok()) {
    local = WriteRankShards(store, tag, trainer);
  }

  // Collective agreement before committing: the marker must never be written while a peer's
  // shard is missing. The all-reduce doubles as the "all shards staged" barrier, and —
  // unlike an early return — keeps every rank in the collective so nobody strands.
  double peer_failed = trainer.groups().world.AllReduceMaxScalar(local.ok() ? 0.0 : 1.0);
  if (!local.ok() || peer_failed > 0.0) {
    if (trainer.rank() == 0) {
      store.AbortTag(tag).ok();  // best effort: make the failed save retryable
    }
    if (!local.ok()) {
      return local;
    }
    return DataLossError("aborting checkpoint save: a peer rank failed to write its shard");
  }

  Status commit = OkStatus();
  if (trainer.rank() == 0) {
    commit = store.CommitTag(tag, MetaForSave(trainer, iteration).ToJson().Dump(2));
  }
  trainer.groups().world.Barrier();
  save_seconds.Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - save_start).count());
  return commit;
}

Status SaveDistributedCheckpoint(const std::string& dir, RankTrainer& trainer,
                                 int64_t iteration, const std::string& job) {
  LocalStore store(dir);
  return SaveDistributedCheckpoint(store, trainer, iteration, job);
}

namespace {

// The per-rank phase of loading: validation and file reads only — no collectives, so it may
// fail on one rank without stranding peers.
struct LoadedOptimState {
  Tensor master;
  Tensor exp_avg;
  Tensor exp_avg_sq;
  int64_t steps = 0;
};

Result<LoadedOptimState> LoadLocalState(Store& store, const std::string& tag,
                                        RankTrainer& trainer) {
  UCP_ASSIGN_OR_RETURN(CheckpointMeta meta, ReadCheckpointMeta(store, tag));

  // The Fig. 1 behaviour: distributed checkpoints are coupled to the strategy that produced
  // them. Any mismatch is an error, not a best-effort remap.
  if (!(meta.model == trainer.config().model)) {
    return FailedPreconditionError("model config mismatch: checkpoint was written by a "
                                   "different model architecture");
  }
  if (!(meta.strategy == trainer.config().strategy)) {
    return FailedPreconditionError(
        "parallelism mismatch: checkpoint " + meta.strategy.ToString() + " vs run " +
        trainer.config().strategy.ToString() +
        " — convert through UCP to resume under a different strategy");
  }

  // Range-read this rank's shard through a view: the header parses once, and only the
  // chunks backing each requested tensor are verified (not the whole file).
  const RankCoord& coord = trainer.coord();
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source,
                       store.OpenRead(JoinRel(tag, OptimStatesFileName(coord.dp, coord.tp,
                                                                       coord.pp, coord.sp))));
  UCP_ASSIGN_OR_RETURN(BundleFileView optim, BundleFileView::Open(std::move(source)));

  // Name/shape strictness: the shard's flat layout (every parameter's name, shard shape and
  // place in the flat buffers) must be exactly the live optimizer's.
  if (!optim.meta().Has("flat_layout")) {
    return DataLossError("optimizer bundle missing flat_layout: " + optim.path());
  }
  UCP_ASSIGN_OR_RETURN(FlatLayout layout,
                       FlatLayout::FromJson(optim.meta().AsObject().at("flat_layout")));
  const std::string mismatch =
      FlatLayoutMismatch(layout, "checkpoint", trainer.optimizer().layout(), "model");
  if (!mismatch.empty()) {
    return FailedPreconditionError("flat layout mismatch in " + optim.path() + " at " +
                                   mismatch);
  }

  if (optim.IndexOf("fp32_flat") < 0 || optim.IndexOf("exp_avg") < 0 ||
      optim.IndexOf("exp_avg_sq") < 0) {
    return DataLossError("optimizer states bundle is missing tensors");
  }
  LoadedOptimState state;
  UCP_ASSIGN_OR_RETURN(state.master, optim.ReadTensor("fp32_flat"));
  UCP_ASSIGN_OR_RETURN(state.exp_avg, optim.ReadTensor("exp_avg"));
  UCP_ASSIGN_OR_RETURN(state.exp_avg_sq, optim.ReadTensor("exp_avg_sq"));
  UCP_ASSIGN_OR_RETURN(state.steps, optim.meta().GetInt("steps_taken"));
  return state;
}

}  // namespace

Status LoadDistributedCheckpoint(Store& store, const std::string& tag,
                                 RankTrainer& trainer) {
  Result<LoadedOptimState> local = LoadLocalState(store, tag, trainer);
  // Collective agreement before installing state: ZeroOptimizer::LoadState all-gathers
  // across the DP group, so a rank that failed its local reads must fail *everyone* here —
  // otherwise healthy peers would strand inside the collective. Every rank reaches this
  // reduction regardless of its local outcome.
  double peer_failed =
      trainer.groups().world.AllReduceMaxScalar(local.ok() ? 0.0 : 1.0);
  if (!local.ok()) {
    return local.status();
  }
  if (peer_failed > 0.0) {
    return DataLossError("aborting load: a peer rank failed to read this checkpoint");
  }
  return trainer.optimizer().LoadState(local->master, local->exp_avg, local->exp_avg_sq,
                                       local->steps);
}

Status LoadDistributedCheckpoint(const std::string& dir, const std::string& tag,
                                 RankTrainer& trainer) {
  LocalStore store(dir);
  return LoadDistributedCheckpoint(store, tag, trainer);
}

}  // namespace ucp

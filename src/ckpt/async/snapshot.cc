#include "src/ckpt/async/snapshot.h"

#include <utility>

#include "src/ckpt/checkpoint.h"

namespace ucp {

namespace {

// Copies `src` into slot `index` of `bundle`, reusing the existing allocation when the
// slot already holds a tensor of the same name and size (the steady-state path).
void CopyIntoSlot(TensorBundle& bundle, size_t index, const std::string& name,
                  const Tensor& src) {
  if (index < bundle.tensors.size() && bundle.tensors[index].first == name &&
      bundle.tensors[index].second.numel() == src.numel() &&
      bundle.tensors[index].second.shape() == src.shape()) {
    bundle.tensors[index].second.CopyFrom(src);
    return;
  }
  bundle.tensors.resize(index);
  bundle.Add(name, src.Clone());
}

}  // namespace

void RankCheckpointSnapshot::CaptureFrom(const RankTrainer& trainer) {
  coord = trainer.coord();

  const ZeroOptimizer& opt = trainer.optimizer();
  CopyIntoSlot(optim, 0, "fp32_flat", opt.master_state_ref());
  CopyIntoSlot(optim, 1, "exp_avg", opt.exp_avg_ref());
  CopyIntoSlot(optim, 2, "exp_avg_sq", opt.exp_avg_sq_ref());
  bytes = 3 * opt.master_state_ref().numel() * static_cast<int64_t>(sizeof(float));
  JsonObject optim_meta;
  optim_meta["flat_layout"] = opt.layout().ToJson();
  optim_meta["zero_stage"] = opt.zero_stage();
  optim_meta["steps_taken"] = opt.steps_taken();
  optim_meta["dp_index"] = coord.dp;
  optim_meta["tp_index"] = coord.tp;
  optim_meta["pp_index"] = coord.pp;
  optim_meta["sp_index"] = coord.sp;
  optim.meta = Json(std::move(optim_meta));
}

Result<SnapshotShard> SerializeSnapshotShards(const RankCheckpointSnapshot& snap) {
  SnapshotShard shard;
  shard.rel = OptimStatesFileName(snap.coord.dp, snap.coord.tp, snap.coord.pp, snap.coord.sp);
  UCP_ASSIGN_OR_RETURN(shard.bytes, SerializeBundle(snap.optim));
  return shard;
}

Status WriteSnapshotShards(StoreWriter& writer, const RankCheckpointSnapshot& snap) {
  UCP_ASSIGN_OR_RETURN(SnapshotShard shard, SerializeSnapshotShards(snap));
  return writer.WriteFile(shard.rel, shard.bytes.data(), shard.bytes.size());
}

}  // namespace ucp

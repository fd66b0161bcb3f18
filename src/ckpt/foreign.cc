#include "src/ckpt/foreign.h"

#include "src/common/fs.h"

#include "src/tensor/tensor_file.h"

namespace ucp {

std::string ForeignTagForIteration(int64_t iteration) {
  return "foreign_step" + std::to_string(iteration);
}

Status SaveForeignCheckpoint(const std::string& dir, RankTrainer& trainer,
                             int64_t iteration) {
  const ParallelConfig& s = trainer.config().strategy;
  if (s.tp != 1 || s.pp != 1 || s.sp != 1 || s.zero_stage != 0) {
    return FailedPreconditionError(
        "the foreign (DDP-style) format requires tp=pp=sp=1 and ZeRO stage 0, got " +
        s.ToString());
  }
  if (trainer.rank() == 0) {
    const std::string tag_dir = PathJoin(dir, ForeignTagForIteration(iteration));
    UCP_RETURN_IF_ERROR(MakeDirs(tag_dir));

    // Unflattened, consolidated state: slice every parameter's master/moment segment out of
    // the flat buffers.
    const ZeroOptimizer& opt = trainer.optimizer();
    Tensor master = opt.MasterState();
    Tensor exp_avg = opt.ExpAvgState();
    Tensor exp_avg_sq = opt.ExpAvgSqState();

    TensorBundle bundle;
    for (const FlatSegment& seg : opt.layout().segments) {
      bundle.Add("model." + seg.name,
                 Tensor::ViewOf(master, seg.offset, seg.shape).Clone());
      bundle.Add("optim.exp_avg." + seg.name,
                 Tensor::ViewOf(exp_avg, seg.offset, seg.shape).Clone());
      bundle.Add("optim.exp_avg_sq." + seg.name,
                 Tensor::ViewOf(exp_avg_sq, seg.offset, seg.shape).Clone());
    }
    JsonObject meta;
    meta["framework"] = "torchlight";  // the pretend third-party framework
    meta["model"] = trainer.config().model.ToJson();
    meta["iteration"] = iteration;
    meta["global_batch"] = trainer.config().global_batch;
    meta["data_seed"] = static_cast<int64_t>(trainer.config().data_seed);
    bundle.meta = Json(std::move(meta));
    UCP_RETURN_IF_ERROR(SaveBundle(PathJoin(tag_dir, "state_rank0.bundle"), bundle));
  }
  trainer.groups().world.Barrier();
  return OkStatus();
}

Result<ForeignMeta> ReadForeignMeta(const std::string& dir, const std::string& tag) {
  UCP_ASSIGN_OR_RETURN(
      std::unique_ptr<ByteSource> source,
      FileByteSource::Open(PathJoin(PathJoin(dir, tag), "state_rank0.bundle")));
  UCP_ASSIGN_OR_RETURN(BundleInfo info, StatBundle(std::move(source)));
  ForeignMeta meta;
  if (!info.meta.Has("model")) {
    return DataLossError("foreign checkpoint missing model config");
  }
  UCP_ASSIGN_OR_RETURN(meta.model, ModelConfig::FromJson(info.meta.AsObject().at("model")));
  UCP_ASSIGN_OR_RETURN(meta.iteration, info.meta.GetInt("iteration"));
  UCP_ASSIGN_OR_RETURN(int64_t batch, info.meta.GetInt("global_batch"));
  meta.global_batch = static_cast<int>(batch);
  UCP_ASSIGN_OR_RETURN(int64_t seed, info.meta.GetInt("data_seed"));
  meta.data_seed = static_cast<uint64_t>(seed);
  return meta;
}

}  // namespace ucp

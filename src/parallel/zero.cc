#include "src/parallel/zero.h"

#include <algorithm>
#include <cmath>

namespace ucp {

namespace {
int64_t AlignUp(int64_t value, int64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}
}  // namespace

Json FlatLayout::ToJson() const {
  JsonObject obj;
  JsonArray segs;
  for (const FlatSegment& s : segments) {
    JsonObject seg;
    seg["name"] = s.name;
    seg["offset"] = s.offset;
    seg["numel"] = s.numel;
    JsonArray shape;
    for (int64_t d : s.shape) {
      shape.push_back(Json(d));
    }
    seg["shape"] = Json(std::move(shape));
    seg["decay"] = s.decay;
    seg["norm_counts"] = s.norm_counts;
    segs.push_back(Json(std::move(seg)));
  }
  obj["segments"] = Json(std::move(segs));
  obj["total"] = total;
  obj["padded_total"] = padded_total;
  obj["partition_size"] = partition_size;
  return Json(std::move(obj));
}

Result<FlatLayout> FlatLayout::FromJson(const Json& json) {
  FlatLayout layout;
  UCP_ASSIGN_OR_RETURN(const JsonArray* segs, json.GetArray("segments"));
  for (const Json& seg : *segs) {
    FlatSegment s;
    UCP_ASSIGN_OR_RETURN(s.name, seg.GetString("name"));
    UCP_ASSIGN_OR_RETURN(s.offset, seg.GetInt("offset"));
    UCP_ASSIGN_OR_RETURN(s.numel, seg.GetInt("numel"));
    UCP_ASSIGN_OR_RETURN(const JsonArray* shape, seg.GetArray("shape"));
    for (const Json& d : *shape) {
      if (!d.is_number()) {
        return InvalidArgumentError("non-numeric dimension in flat segment shape");
      }
      s.shape.push_back(d.AsInt());
    }
    UCP_ASSIGN_OR_RETURN(s.decay, seg.GetBool("decay"));
    UCP_ASSIGN_OR_RETURN(s.norm_counts, seg.GetBool("norm_counts"));
    layout.segments.push_back(std::move(s));
  }
  UCP_ASSIGN_OR_RETURN(layout.total, json.GetInt("total"));
  UCP_ASSIGN_OR_RETURN(layout.padded_total, json.GetInt("padded_total"));
  UCP_ASSIGN_OR_RETURN(layout.partition_size, json.GetInt("partition_size"));
  return layout;
}

std::string FlatLayoutMismatch(const FlatLayout& a, const std::string& a_label,
                               const FlatLayout& b, const std::string& b_label) {
  auto versus = [&](const std::string& what, const std::string& x, const std::string& y) {
    return what + ": " + a_label + " " + x + " vs " + b_label + " " + y;
  };
  const size_t common = std::min(a.segments.size(), b.segments.size());
  for (size_t i = 0; i < common; ++i) {
    const FlatSegment& x = a.segments[i];
    const FlatSegment& y = b.segments[i];
    if (x.name != y.name) {
      return versus("flat segment " + std::to_string(i), x.name, y.name);
    }
    if (x.shape != y.shape) {
      return versus("shard shape of " + x.name, ShapeToString(x.shape), ShapeToString(y.shape));
    }
    if (x.numel != y.numel) {
      return versus("numel of " + x.name, std::to_string(x.numel), std::to_string(y.numel));
    }
    if (x.offset != y.offset) {
      return versus("offset of " + x.name, std::to_string(x.offset), std::to_string(y.offset));
    }
  }
  if (a.segments.size() != b.segments.size()) {
    const bool a_longer = a.segments.size() > b.segments.size();
    return "parameter " + (a_longer ? a : b).segments[common].name + " is only in the " +
           (a_longer ? a_label : b_label) + " layout";
  }
  if (a.padded_total != b.padded_total) {
    return versus("padded total", std::to_string(a.padded_total),
                  std::to_string(b.padded_total));
  }
  return "";
}

ZeroOptimizer::ZeroOptimizer(ParamStore* store, int zero_stage, ProcessGroup dp_group,
                             ProcessGroup world_group, DType compute_dtype)
    : store_(store),
      zero_stage_(zero_stage),
      dp_group_(dp_group),
      world_group_(world_group),
      compute_dtype_(compute_dtype) {
  UCP_CHECK_GE(zero_stage, 0);
  UCP_CHECK_LE(zero_stage, 3);

  // Build the flat layout in canonical store order.
  int64_t offset = 0;
  for (const ParamPtr& p : store->params()) {
    FlatSegment seg;
    seg.name = p->info.name;
    seg.offset = offset;
    seg.numel = p->value.numel();
    seg.shape = p->value.shape();
    seg.decay = p->info.decay;
    seg.norm_counts = p->norm_counts;
    layout_.segments.push_back(std::move(seg));
    offset += p->value.numel();
  }
  layout_.total = offset;
  int dp = dp_group_.size();
  layout_.padded_total = AlignUp(std::max<int64_t>(offset, 1), dp * kZeroAlignment);
  layout_.partition_size = layout_.padded_total / dp;

  // Move parameters into the flat buffers.
  flat_value_ = Tensor::Zeros({layout_.padded_total});
  flat_grad_ = Tensor::Zeros({layout_.padded_total});
  for (size_t i = 0; i < store->params().size(); ++i) {
    const ParamPtr& p = store->params()[i];
    const FlatSegment& seg = layout_.segments[i];
    Tensor value_view = Tensor::ViewOf(flat_value_, seg.offset, p->value.shape());
    value_view.CopyFrom(p->value);
    p->value = value_view;
    p->grad = Tensor::ViewOf(flat_grad_, seg.offset, p->value.shape());
    p->grad.Zero_();
  }

  // Persistent optimizer state: full for stage 0, this rank's partition otherwise.
  int64_t state_size = zero_stage_ == 0 ? layout_.padded_total : layout_.partition_size;
  flat_master_ = Tensor::Zeros({state_size});
  exp_avg_ = Tensor::Zeros({state_size});
  exp_avg_sq_ = Tensor::Zeros({state_size});
  // Masters start as the (pre-rounding) fp32 initialization values.
  Tensor init_region = Tensor::ViewOf(flat_value_, owned_offset(), {state_size});
  flat_master_.CopyFrom(init_region);

  if (compute_dtype_ != DType::kF32) {
    RoundThrough_(flat_value_, compute_dtype_);
  }
}

int64_t ZeroOptimizer::owned_offset() const {
  return zero_stage_ == 0 ? 0
                          : static_cast<int64_t>(dp_group_.index()) * layout_.partition_size;
}

double ZeroOptimizer::ComputeGlobalGradNorm() const {
  // Sum of squares over this rank's partition, masked to segments that count (one
  // representative copy per replicated parameter; see StageModel). Every world rank owns a
  // disjoint partition of its model-parallel shard, so summing masked partition
  // contributions over the world counts each logical element exactly once.
  int64_t part_begin = static_cast<int64_t>(dp_group_.index()) * layout_.partition_size;
  int64_t part_end = part_begin + layout_.partition_size;
  const float* g = flat_grad_.data();
  double local = 0.0;
  for (const FlatSegment& seg : layout_.segments) {
    if (!seg.norm_counts) {
      continue;
    }
    int64_t begin = std::max(seg.offset, part_begin);
    int64_t end = std::min(seg.offset + seg.numel, part_end);
    for (int64_t i = begin; i < end; ++i) {
      local += static_cast<double>(g[i]) * g[i];
    }
  }
  double global_sq = world_group_.AllReduceSumScalar(local);
  return std::sqrt(global_sq);
}

double ZeroOptimizer::Step(float lr, const AdamConfig& config) {
  int dp = dp_group_.size();

  // 1. DP gradient sync. Each rank's gradient is its partial sum of the *global-mean*
  //    gradient (the loss is scaled by 1/global_tokens at the source), so summing across
  //    the DP group yields the exact global gradient — no further averaging.
  if (zero_stage_ <= 1) {
    if (dp > 1) {
      dp_group_.AllReduceSum(flat_grad_);
    }
  } else if (dp > 1) {
    // Stages 2/3 shard gradients: each rank keeps only its partition of the summed grads.
    Tensor owned_grad =
        Tensor::ViewOf(flat_grad_, owned_offset(), {layout_.partition_size});
    dp_group_.ReduceScatterSum(flat_grad_, owned_grad);
  }

  // 2. Global gradient norm and clip coefficient.
  double grad_norm = ComputeGlobalGradNorm();
  float clip_coef = 1.0f;
  if (config.grad_clip > 0.0f && grad_norm > config.grad_clip) {
    clip_coef = config.grad_clip / (static_cast<float>(grad_norm) + 1e-6f);
  }

  // 3. Adam over the owned region, segment by segment (weight decay is per-parameter).
  ++steps_taken_;
  int64_t own_begin = owned_offset();
  int64_t own_end = own_begin + flat_master_.numel();
  float* master = flat_master_.data();
  float* m = exp_avg_.data();
  float* v = exp_avg_sq_.data();
  const float* g = flat_grad_.data();
  for (const FlatSegment& seg : layout_.segments) {
    int64_t begin = std::max(seg.offset, own_begin);
    int64_t end = std::min(seg.offset + seg.numel, own_end);
    if (begin >= end) {
      continue;
    }
    AdamUpdate(master + (begin - own_begin), g + begin, m + (begin - own_begin),
               v + (begin - own_begin), end - begin, steps_taken_, lr, config, seg.decay,
               clip_coef);
  }

  // 4. Publish updated masters to the live parameter values.
  PublishMasters();
  return grad_norm;
}

void ZeroOptimizer::PublishMasters() {
  if (zero_stage_ == 0) {
    flat_value_.CopyFrom(flat_master_);
  } else if (dp_group_.size() == 1) {
    flat_value_.CopyFrom(flat_master_);
  } else {
    std::vector<Tensor> partitions = dp_group_.AllGatherTensors(flat_master_);
    for (int r = 0; r < dp_group_.size(); ++r) {
      Tensor region = Tensor::ViewOf(
          flat_value_, static_cast<int64_t>(r) * layout_.partition_size,
          {layout_.partition_size});
      region.CopyFrom(partitions[static_cast<size_t>(r)]);
    }
  }
  if (compute_dtype_ != DType::kF32) {
    RoundThrough_(flat_value_, compute_dtype_);
  }
}

Status ZeroOptimizer::LoadState(const Tensor& master, const Tensor& exp_avg,
                                const Tensor& exp_avg_sq, int64_t steps_taken) {
  if (master.numel() != flat_master_.numel() || exp_avg.numel() != exp_avg_.numel() ||
      exp_avg_sq.numel() != exp_avg_sq_.numel()) {
    return InvalidArgumentError(
        "optimizer state size mismatch: expected " + std::to_string(flat_master_.numel()) +
        " elements, got " + std::to_string(master.numel()));
  }
  flat_master_.CopyFrom(master);
  exp_avg_.CopyFrom(exp_avg);
  exp_avg_sq_.CopyFrom(exp_avg_sq);
  steps_taken_ = steps_taken;
  PublishMasters();
  return OkStatus();
}

}  // namespace ucp

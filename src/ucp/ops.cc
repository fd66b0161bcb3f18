#include "src/ucp/ops.h"

#include <algorithm>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor_file.h"

namespace ucp {

Result<Tensor> StripPadding(const Tensor& flat, int64_t logical_total) {
  UCP_TRACE_SPAN_ARGS("ucp.strip_padding",
                      ::ucp::obs::TraceArgs().I("logical_total", logical_total));
  if (flat.ndim() != 1) {
    return InvalidArgumentError("StripPadding expects a flat (1-d) tensor");
  }
  if (flat.numel() < logical_total) {
    return InvalidArgumentError("flat buffer smaller than its logical size: " +
                                std::to_string(flat.numel()) + " < " +
                                std::to_string(logical_total));
  }
  if (flat.numel() == logical_total) {
    return flat.Clone();  // idempotent
  }
  return flat.Narrow(0, 0, logical_total);
}

Result<ExtractedRank> Extract(const std::string& tag_dir, const ParallelConfig& src, int tp,
                              int pp, int sp) {
  UCP_TRACE_SPAN_ARGS(
      "ucp.extract",
      ::ucp::obs::TraceArgs().I("tp", tp).I("pp", pp).I("sp", sp).I("src_dp", src.dp));
  static obs::Counter& extracts = obs::MetricsRegistry::Global().GetCounter("ucp.extracts");
  extracts.Add(1);
  ExtractedRank out;
  out.coord = {tp, sp, pp, 0};

  FlatLayout layout;
  std::vector<Tensor> master_parts;
  std::vector<Tensor> exp_avg_parts;
  std::vector<Tensor> exp_avg_sq_parts;

  for (int dp = 0; dp < src.dp; ++dp) {
    const std::string path = PathJoin(tag_dir, OptimStatesFileName(dp, tp, pp, sp));
    // Parse metadata once and range-read just the three flat tensors (v3 bundles verify
    // only the chunks those tensors occupy).
    UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, FileByteSource::Open(path));
    UCP_ASSIGN_OR_RETURN(BundleFileView bundle, BundleFileView::Open(std::move(source)));
    UCP_ASSIGN_OR_RETURN(int64_t stage, bundle.meta().GetInt("zero_stage"));
    UCP_ASSIGN_OR_RETURN(out.steps_taken, bundle.meta().GetInt("steps_taken"));
    if (!bundle.meta().Has("flat_layout")) {
      return DataLossError("optimizer bundle missing flat_layout: " + path);
    }
    UCP_ASSIGN_OR_RETURN(FlatLayout this_layout,
                         FlatLayout::FromJson(bundle.meta().AsObject().at("flat_layout")));
    if (dp == 0) {
      layout = std::move(this_layout);
      out.zero_stage = static_cast<int>(stage);
    } else if (this_layout.padded_total != layout.padded_total ||
               this_layout.segments.size() != layout.segments.size()) {
      return DataLossError("inconsistent flat layouts across DP partitions in " + path);
    }

    if (bundle.IndexOf("fp32_flat") < 0 || bundle.IndexOf("exp_avg") < 0 ||
        bundle.IndexOf("exp_avg_sq") < 0) {
      return DataLossError("optimizer bundle missing tensors: " + path);
    }
    UCP_ASSIGN_OR_RETURN(Tensor master, bundle.ReadTensor("fp32_flat"));
    UCP_ASSIGN_OR_RETURN(Tensor exp_avg, bundle.ReadTensor("exp_avg"));
    UCP_ASSIGN_OR_RETURN(Tensor exp_avg_sq, bundle.ReadTensor("exp_avg_sq"));
    master_parts.push_back(std::move(master));
    exp_avg_parts.push_back(std::move(exp_avg));
    exp_avg_sq_parts.push_back(std::move(exp_avg_sq));

    if (out.zero_stage == 0) {
      break;  // stage 0 saves the full state in every DP file; one copy suffices
    }
  }

  // Reassemble the flat buffers. Stage 0 files carry the full buffer; stages 1-3 carry
  // DP partitions that concatenate (in DP order) to the padded flat buffer.
  Tensor flat_master = master_parts.size() == 1 ? std::move(master_parts[0])
                                                : Tensor::Concat(master_parts, 0);
  Tensor flat_exp_avg = exp_avg_parts.size() == 1 ? std::move(exp_avg_parts[0])
                                                  : Tensor::Concat(exp_avg_parts, 0);
  Tensor flat_exp_avg_sq = exp_avg_sq_parts.size() == 1
                               ? std::move(exp_avg_sq_parts[0])
                               : Tensor::Concat(exp_avg_sq_parts, 0);
  if (flat_master.numel() != layout.padded_total) {
    return DataLossError("reassembled flat buffer has " +
                         std::to_string(flat_master.numel()) + " elements, layout says " +
                         std::to_string(layout.padded_total));
  }

  UCP_ASSIGN_OR_RETURN(flat_master, StripPadding(flat_master, layout.total));
  UCP_ASSIGN_OR_RETURN(flat_exp_avg, StripPadding(flat_exp_avg, layout.total));
  UCP_ASSIGN_OR_RETURN(flat_exp_avg_sq, StripPadding(flat_exp_avg_sq, layout.total));

  // Slice the per-parameter segments.
  for (const FlatSegment& seg : layout.segments) {
    ParamState state;
    state.name = seg.name;
    state.fp32 = flat_master.Narrow(0, seg.offset, seg.numel).Reshape(seg.shape);
    state.exp_avg = flat_exp_avg.Narrow(0, seg.offset, seg.numel).Reshape(seg.shape);
    state.exp_avg_sq = flat_exp_avg_sq.Narrow(0, seg.offset, seg.numel).Reshape(seg.shape);
    out.params.push_back(std::move(state));
  }
  return out;
}

namespace {

// Deterministic contribution order: (sp, tp, pp).
void SortContributions(std::vector<ShardContribution>& contributions) {
  std::sort(contributions.begin(), contributions.end(),
            [](const ShardContribution& a, const ShardContribution& b) {
              if (a.coord.sp != b.coord.sp) {
                return a.coord.sp < b.coord.sp;
              }
              if (a.coord.tp != b.coord.tp) {
                return a.coord.tp < b.coord.tp;
              }
              return a.coord.pp < b.coord.pp;
            });
}

Status CheckReplicasEqual(const std::vector<ShardContribution>& contributions,
                          const std::string& name) {
  for (size_t i = 1; i < contributions.size(); ++i) {
    if (!Tensor::BitEqual(contributions[0].state.fp32, contributions[i].state.fp32) ||
        !Tensor::BitEqual(contributions[0].state.exp_avg, contributions[i].state.exp_avg) ||
        !Tensor::BitEqual(contributions[0].state.exp_avg_sq,
                          contributions[i].state.exp_avg_sq)) {
      return DataLossError("replicated parameter " + name +
                           " has diverged replicas; if this is expected (e.g. sequence "
                           "parallelism), declare it params_to_average");
    }
  }
  return OkStatus();
}

}  // namespace

Result<ParamState> UnionParam(const PatternRule& rule, const Shape& full_shape,
                              std::vector<ShardContribution> contributions, int source_tp) {
  if (contributions.empty()) {
    return InvalidArgumentError("UnionParam with no contributions");
  }
  const std::string& name = contributions[0].state.name;
  UCP_TRACE_SPAN_ARGS("ucp.union_param",
                      ::ucp::obs::TraceArgs()
                          .S("param", name)
                          .I("contributions", static_cast<int64_t>(contributions.size())));
  static obs::Counter& unions = obs::MetricsRegistry::Global().GetCounter("ucp.unions");
  unions.Add(1);
  SortContributions(contributions);

  switch (rule.pattern) {
    case ParamPattern::kUniqueParams: {
      if (contributions.size() != 1) {
        return DataLossError("unique parameter " + name + " found on " +
                             std::to_string(contributions.size()) + " ranks");
      }
      return std::move(contributions[0].state);
    }

    case ParamPattern::kReplicatedParams: {
      UCP_RETURN_IF_ERROR(CheckReplicasEqual(contributions, name));
      return std::move(contributions[0].state);
    }

    case ParamPattern::kParamsToAverage: {
      // One representative per SP rank (the copies within an SP rank — across TP/PP — are
      // true replicas), then average across SP.
      std::vector<ShardContribution> reps;
      for (const ShardContribution& c : contributions) {
        if (reps.empty() || reps.back().coord.sp != c.coord.sp) {
          reps.push_back(c);
        }
      }
      ParamState avg;
      avg.name = name;
      avg.fp32 = reps[0].state.fp32.Clone();
      avg.exp_avg = reps[0].state.exp_avg.Clone();
      avg.exp_avg_sq = reps[0].state.exp_avg_sq.Clone();
      for (size_t i = 1; i < reps.size(); ++i) {
        avg.fp32.Add_(reps[i].state.fp32);
        avg.exp_avg.Add_(reps[i].state.exp_avg);
        avg.exp_avg_sq.Add_(reps[i].state.exp_avg_sq);
      }
      float inv = 1.0f / static_cast<float>(reps.size());
      avg.fp32.Scale_(inv);
      avg.exp_avg.Scale_(inv);
      avg.exp_avg_sq.Scale_(inv);
      return avg;
    }

    case ParamPattern::kFragmentParams: {
      // One representative per TP index (fragments are replicated across SP and, for tied
      // embeddings, across PP), concatenated per the sub-pattern.
      std::vector<Tensor> fp32_shards(static_cast<size_t>(source_tp));
      std::vector<Tensor> m_shards(static_cast<size_t>(source_tp));
      std::vector<Tensor> v_shards(static_cast<size_t>(source_tp));
      for (const ShardContribution& c : contributions) {
        size_t idx = static_cast<size_t>(c.coord.tp);
        if (c.coord.tp < 0 || c.coord.tp >= source_tp) {
          return DataLossError("fragment contribution with tp index out of range for " +
                               name);
        }
        if (!fp32_shards[idx].defined()) {
          fp32_shards[idx] = c.state.fp32;
          m_shards[idx] = c.state.exp_avg;
          v_shards[idx] = c.state.exp_avg_sq;
        }
      }
      for (int t = 0; t < source_tp; ++t) {
        if (!fp32_shards[static_cast<size_t>(t)].defined()) {
          return DataLossError("missing TP shard " + std::to_string(t) + " of " + name);
        }
      }
      PartitionSpec spec = rule.ToPartitionSpec();
      ParamState out;
      out.name = name;
      out.fp32 = Unshard(spec, fp32_shards, full_shape);
      out.exp_avg = Unshard(spec, m_shards, full_shape);
      out.exp_avg_sq = Unshard(spec, v_shards, full_shape);
      return out;
    }
  }
  return InternalError("unreachable pattern in UnionParam");
}

}  // namespace ucp

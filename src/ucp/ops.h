// The UCP transformation operations (paper §3.2, Table 2): Extract, Union, StripPadding.
// GenUcpMetadata and Load live in loader.h; the Algorithm-1 driver in converter.h.

#ifndef UCP_SRC_UCP_OPS_H_
#define UCP_SRC_UCP_OPS_H_

#include <string>
#include <vector>

#include "src/parallel/zero.h"
#include "src/ucp/atom.h"
#include "src/ucp/patterns.h"

namespace ucp {

// StripPadding: drops the ZeRO alignment padding from a reassembled flat buffer. Idempotent
// (a no-op when the buffer already has logical size).
Result<Tensor> StripPadding(const Tensor& flat, int64_t logical_total);

// One model-parallel rank's extracted content: per-parameter shard states in canonical
// order, with flat padding already stripped.
struct ExtractedRank {
  RankCoord coord;  // dp is meaningless here (all DP partitions were merged)
  int zero_stage = 0;
  int64_t steps_taken = 0;
  int64_t bytes_read = 0;  // total size of the shard files opened
  std::vector<ParamState> params;  // shapes are this rank's TP-shard shapes
};

// Extract: reads all `src.dp` optimizer-state files of model-parallel rank (tp, pp, sp)
// of checkpoint `tag` through `store`, reassembles the flat fp32/exp_avg/exp_avg_sq
// buffers (concatenating ZeRO partitions in DP order), strips padding, and slices the
// per-parameter segments. Callable in parallel across model-parallel ranks (Table 2).
Result<ExtractedRank> Extract(Store& store, const std::string& tag, const ParallelConfig& src,
                              int tp, int pp, int sp);

// One rank's contribution of one parameter to the union.
struct ShardContribution {
  RankCoord coord;
  ParamState state;
};

// Union: consolidates all contributions of one parameter according to its pattern
// (Algorithm 1's switch): unique asserts a single contribution, replicated picks one and
// verifies the copies are bit-identical, to_average averages across the SP replicas,
// fragment reassembles TP shards (including variable-size sections and n-d sub-patterns).
// `source_tp` is the TP degree of the source strategy; `full_shape` the consolidated shape.
Result<ParamState> UnionParam(const PatternRule& rule, const Shape& full_shape,
                              std::vector<ShardContribution> contributions, int source_tp);

}  // namespace ucp

#endif  // UCP_SRC_UCP_OPS_H_

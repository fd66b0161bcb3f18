// GenUcpMetadata and Load (paper Table 2): planning and executing the mapping of atom
// checkpoints onto the ranks of an arbitrary *Target* strategy.

#ifndef UCP_SRC_UCP_LOADER_H_
#define UCP_SRC_UCP_LOADER_H_

#include <string>
#include <vector>

#include "src/runtime/trainer.h"
#include "src/ucp/atom.h"

namespace ucp {

// Where one atom lands in a target rank's flat buffer.
struct AtomAssignment {
  std::string name;
  int64_t flat_offset = 0;    // element offset of this rank's TP shard in the flat buffer
  Shape full_shape;           // consolidated atom shape (for range planning without I/O)
  Shape shard_shape;          // TP-shard shape on the target
  PartitionSpec target_spec;  // how to slice the consolidated atom for this rank
};

// The partition metadata for one target rank: the flat layout it will materialize
// (including re-introduced alignment padding — GenUcpMetadata adds padding back, the inverse
// of StripPadding) and the atom slices that fill it.
struct RankLoadPlan {
  FlatLayout layout;
  int64_t partition_offset = 0;  // this rank's ZeRO partition start (0 for stage 0)
  int64_t partition_numel = 0;   // partition size (padded_total for stage 0)
  std::vector<AtomAssignment> assignments;

  Json ToJson() const;
};

// Computes the plan for target rank `coord` under `target`, purely from the model config —
// no checkpoint access. Must agree exactly with the layout ZeroOptimizer builds at runtime
// (asserted by tests).
RankLoadPlan GenUcpMetadata(const ModelConfig& model, const ParallelConfig& target,
                            const RankCoord& coord);

// Knobs for the load executor. The default is the sliced path: each rank preads only the
// atom ranges inside its own partition, inline on its own thread.
struct UcpLoadOptions {
  // Sliced reads: intersect every atom assignment with this rank's ZeRO partition, skip
  // atoms wholly outside it, and pread only the intersecting ranges into partition-sized
  // buffers. false falls back to the v1-era reference path: whole-file atom reads, full
  // padded flat assembly, partition sliced at the end. Both are bit-exact (tested).
  bool sliced = true;
};

// Load: reads the atoms named by the plan, slices each per the target spec, assembles this
// rank's flat fp32/exp_avg/exp_avg_sq partition, and installs it into the trainer's
// optimizer (which republishes parameter values). Also restores the Adam step count.
// The trainer's model config must match the UCP checkpoint's.
//
// The Store form is the canonical path: `ucp_rel` names the UCP checkpoint inside the store
// ("" = the store root, "global_step10.ucp" inside a checkpoint store). The sliced arm
// issues range reads for exactly the ShardRuns byte ranges it computes — against a
// RemoteStore those become READ_RANGE frames to ucp_serverd, chunk-CRC-verified
// server-side. The dir form wraps a LocalStore on `ucp_dir`.
Status LoadUcpCheckpoint(Store& store, const std::string& ucp_rel, RankTrainer& trainer,
                         const UcpLoadOptions& options = {});
Status LoadUcpCheckpoint(const std::string& ucp_dir, RankTrainer& trainer,
                         const UcpLoadOptions& options = {});

}  // namespace ucp

#endif  // UCP_SRC_UCP_LOADER_H_

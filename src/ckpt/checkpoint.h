// Native distributed checkpointing (the DeepSpeed-style layout UCP consumes).
//
// Directory layout for a checkpoint saved under tag `global_stepN`:
//
//   <dir>/latest                                        -- text file naming the newest tag
//   <dir>/<tag>/complete                                -- commit marker, written last; a tag
//                                                          without it is an aborted save and
//                                                          is skipped by every reader
//   <dir>/<tag>/checkpoint_meta.json                    -- model config, strategy, iteration
//   <dir>/<tag>/zero_pp_rank_D_mp_rank_TT_PPP_sp_SS_optim_states
//                                                       -- per rank, its only shard file: flat
//                                                          fp32 master / exp_avg / exp_avg_sq
//                                                          partitions + the FlatLayout
//                                                          metadata (parameter names, shard
//                                                          shapes, flat offsets)
//
// Saving is crash-consistent: every shard is written into a `<tag>.staging` sibling
// directory (each file itself tmp-written, fsynced, renamed), the staging directory is
// atomically renamed to `<tag>`, and only then is the `complete` marker dropped and `latest`
// updated. A crash at any point leaves either no tag, ignorable staging debris, or an
// unmarked tag — never a tag that readers would trust. See docs/durability.md.
//
// All storage primitives (tag grammar, CheckpointMeta, commit/list/GC, the meta and
// marker reads) live in src/store/ behind the Store interface, so the same save and load
// run against a local directory or a ucp_serverd daemon; this header re-exports them and
// adds the trainer-coupled collectives on top. Every read opens its file through
// Store::OpenRead / ReadSmallFile; only LocalStore turns a tag-relative name into a path.
//
// Loading is strict, reproducing the Fig. 1 failure mode: resuming under a different
// parallelism strategy or world size, or with a shard whose flat layout differs from the
// live optimizer's in any parameter name or shard shape, fails with FAILED_PRECONDITION
// instead of silently mis-mapping state. UCP (src/ucp) is the sanctioned way to reshape
// checkpoints.

#ifndef UCP_SRC_CKPT_CHECKPOINT_H_
#define UCP_SRC_CKPT_CHECKPOINT_H_

#include <string>

#include "src/runtime/trainer.h"
#include "src/store/ckpt_meta.h"
#include "src/store/local_store.h"
#include "src/store/store.h"
#include "src/store/tags.h"

namespace ucp {

// Saves this rank's shard. Every rank of the run must call it (collective: ends with a
// world barrier; rank 0 additionally writes checkpoint_meta.json and updates the job's
// `latest` pointer). `job` selects the tag namespace inside a shared store. The Store
// overload is the canonical path; the dir overload wraps a LocalStore on `dir`.
Status SaveDistributedCheckpoint(Store& store, RankTrainer& trainer, int64_t iteration,
                                 const std::string& job = "");
Status SaveDistributedCheckpoint(const std::string& dir, RankTrainer& trainer,
                                 int64_t iteration, const std::string& job = "");

// The checkpoint metadata a save of `trainer` at `iteration` would commit.
CheckpointMeta MetaForSave(const RankTrainer& trainer, int64_t iteration);

// Strict native load: the trainer's model + strategy must match the checkpoint exactly.
// Collective. Each rank opens its one shard through `store`; the dir overload wraps a
// LocalStore on `dir`.
Status LoadDistributedCheckpoint(Store& store, const std::string& tag, RankTrainer& trainer);
Status LoadDistributedCheckpoint(const std::string& dir, const std::string& tag,
                                 RankTrainer& trainer);

}  // namespace ucp

#endif  // UCP_SRC_CKPT_CHECKPOINT_H_

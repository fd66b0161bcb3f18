// The elastic resume driver: the paper's lazy, on-demand conversion workflow (§3.1).
//
// "The UCP conversion happens lazily and on-demand, e.g., when a training process detects a
// change of parallelism technique and hardware configuration."
//
// ResumeElastic implements exactly that detection: it first attempts a strict native load
// (free when the strategy is unchanged); on a parallelism/hardware mismatch it converts the
// checkpoint to UCP — once, cached next to the checkpoint — and loads through the UCP path.

#ifndef UCP_SRC_UCP_ELASTIC_H_
#define UCP_SRC_UCP_ELASTIC_H_

#include <string>

#include "src/runtime/trainer.h"

namespace ucp {

struct ResumeReport {
  // Which path restored the state.
  enum class Path { kNative, kUcpConverted, kUcpCached } path = Path::kNative;
  std::string tag;        // the checkpoint tag that was resumed
  int64_t iteration = 0;  // training resumes at iteration + 1
  // Phase timing for recovery accounting (bench/fig13_recovery_time). On this rank:
  double convert_seconds = 0.0;  // UCP convert + the barrier waiting for it (0 on native)
  double load_seconds = 0.0;     // the load that actually restored the state
};

// Resumes `trainer` from the newest committed checkpoint in `job`'s tag namespace under
// `dir`, converting through UCP only if the native strict load rejects the current
// strategy. The UCP cache lives at <dir>/<tag>.ucp. Tags without the `complete` marker
// (aborted saves) are skipped, and a committed tag whose data turns out damaged
// (kDataLoss/kIoError/kNotFound) falls back to the next older committed tag; the first
// failure is reported when nothing resumes. The pre-resume debris sweep is scoped to
// `job`, so resuming one job of a shared store never disturbs a sibling's in-flight save.
// Every read (the tag walk, meta, the native load, the conversion's source, the `.ucp`
// cache check and the UCP load) goes through a LocalStore on `dir`; only the conversion's
// atoms are written by path. Collective: every rank of the run must call it; rank 0
// performs the conversion while the others wait at a barrier.
Result<ResumeReport> ResumeElastic(const std::string& dir, RankTrainer& trainer,
                                   const std::string& job = "");

// Same, for an explicit tag.
Result<ResumeReport> ResumeElasticFromTag(const std::string& dir, const std::string& tag,
                                          RankTrainer& trainer);

}  // namespace ucp

#endif  // UCP_SRC_UCP_ELASTIC_H_

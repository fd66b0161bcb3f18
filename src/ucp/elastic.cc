#include "src/ucp/elastic.h"

#include <chrono>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

namespace ucp {

namespace {

// Failure codes worth retrying on an older tag: damage, absence, or transient unavailability
// of *this* tag's data (kUnavailable is what an exhausted transient-I/O retry surfaces). A
// FailedPrecondition (wrong model architecture, bad format version) would hold for every
// tag, so it aborts the walk instead.
bool RetryOlderTag(StatusCode code) {
  return code == StatusCode::kDataLoss || code == StatusCode::kIoError ||
         code == StatusCode::kNotFound || code == StatusCode::kUnavailable;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Every read goes through `store`; only the conversion's atoms are written by path, into
// the `<tag>.ucp` directory beside the tag under the store's root.
Result<ResumeReport> ResumeFromTag(LocalStore& store, const std::string& tag,
                                   RankTrainer& trainer) {
  UCP_TRACE_NAMED_SPAN(span, "resume.from_tag");
  UCP_TRACE_SPAN_ARG_S(span, "tag", tag);
  ScopedWatchdogSuspend suspend_watchdog;  // see ResumeElastic; also callable directly
  ResumeReport report;
  report.tag = tag;
  // The meta read is rank-local I/O before the first collective of any load path, so its
  // outcome must be agreed collectively: damage hitting one rank's read (torn meta, bit
  // rot) has to fail the tag for *everyone*. An early return here would strand the healthy
  // peers inside the loaders' collectives — and, with resume collectives answering to no
  // watchdog, strand them forever. The soak driver (src/soak/driver.h) exercises exactly
  // this with nth-matching read faults that fire on a single rank.
  Result<CheckpointMeta> meta_read = ReadCheckpointMeta(store, tag);
  const double meta_failed =
      trainer.groups().world.AllReduceMaxScalar(meta_read.ok() ? 0.0 : 1.0);
  if (!meta_read.ok()) {
    return meta_read.status();
  }
  if (meta_failed > 0.0) {
    return DataLossError("aborting resume from " + tag +
                         ": a peer rank failed to read its checkpoint metadata");
  }
  const CheckpointMeta meta = *meta_read;
  report.iteration = meta.iteration;

  // Fast path: unchanged strategy and hardware — plain distributed load.
  const auto native_start = std::chrono::steady_clock::now();
  Status native;
  {
    UCP_TRACE_SPAN("resume.native_load");
    native = LoadDistributedCheckpoint(store, tag, trainer);
  }
  if (native.ok()) {
    report.path = ResumeReport::Path::kNative;
    report.load_seconds = SecondsSince(native_start);
    return report;
  }
  if (native.code() != StatusCode::kFailedPrecondition) {
    return native;  // corruption / missing files are not reshard problems
  }

  // Strategy changed: convert on demand (once — the atom directory is cached beside the
  // checkpoint) and load through UCP. An unmarked .ucp dir is a crashed conversion, not a
  // cache hit; the converter replaces it.
  const std::string ucp_rel = tag + ".ucp";
  bool cached = IsUcpComplete(store, ucp_rel);
  Status convert = OkStatus();
  const auto convert_start = std::chrono::steady_clock::now();
  {
    UCP_TRACE_SPAN("resume.convert");  // rank 0 converts; peers wait at the barrier
    if (trainer.rank() == 0 && !cached) {
      UCP_LOG(Info) << "strategy changed (" << meta.strategy.ToString() << " -> "
                    << trainer.config().strategy.ToString() << "); converting " << tag
                    << " to UCP";
      Result<ConvertStats> stats =
          ConvertToUcp(store, tag, PathJoin(store.root(), ucp_rel));
      if (!stats.ok() && stats.status().code() != StatusCode::kAlreadyExists) {
        convert = stats.status();
      }
    }
    // Everyone waits for the conversion to land, then everyone runs the load — even when
    // rank 0's conversion failed. The loaders' internal agreement is what keeps the world
    // collectives aligned; rank 0 returning early here would strand its peers.
    trainer.groups().world.Barrier();
  }
  report.convert_seconds = SecondsSince(convert_start);
  const auto load_start = std::chrono::steady_clock::now();
  Status load = LoadUcpCheckpoint(store, ucp_rel, trainer);
  report.load_seconds = SecondsSince(load_start);
  if (!convert.ok()) {
    return convert;  // the root cause, not the knock-on load failure
  }
  UCP_RETURN_IF_ERROR(load);
  report.path = cached ? ResumeReport::Path::kUcpCached : ResumeReport::Path::kUcpConverted;
  return report;
}

}  // namespace

Result<ResumeReport> ResumeElastic(const std::string& dir, RankTrainer& trainer,
                                   const std::string& job) {
  UCP_TRACE_SPAN("resume.elastic");
  LocalStore store(dir);
  // Resume barriers wait on peers doing unbounded local work (rank 0's debris sweep, and —
  // in ResumeElasticFromTag — a whole UCP conversion), so a short training watchdog would
  // misread a live-but-busy rank as dead. All ranks run this straight-line path right after
  // the world was (re)built, so suspending the deadline here is safe; abort checks remain.
  ScopedWatchdogSuspend suspend_watchdog;
  // A resume means no save is in flight *for this job*, so any `<tag>.staging` directory
  // in its namespace is debris of a save (sync or async flush) the crash interrupted.
  // Sweep it now — readers never trust it, but leaving it would surprise the next save of
  // the same iteration and clutter fsck. The sweep is job-scoped: other jobs sharing the
  // store may have flushes in flight whose staging must survive. Rank 0 sweeps; the
  // barrier keeps peers from racing the removal.
  if (trainer.rank() == 0) {
    Result<int> swept = store.SweepStagingDebris(job);
    if (swept.ok() && *swept > 0) {
      UCP_LOG(Info) << "removed " << *swept << " stale .staging director"
                    << (*swept == 1 ? "y" : "ies") << " under " << dir;
    }
  }
  trainer.groups().world.Barrier();

  // Walk tags newest-first. Tags without the `complete` marker are aborted saves and are
  // skipped outright; a committed tag that fails to load (torn shard, bit rot) falls back
  // to the next older committed tag. Every rank sees the same directory, so every rank
  // makes the same skip/retry decisions and the collectives inside the loaders stay
  // aligned. The first failure is remembered: when no tag resumes, the caller learns about
  // the damage, not just "nothing found".
  UCP_ASSIGN_OR_RETURN(std::vector<std::string> tags, store.ListTags(job));
  Status first_failure = OkStatus();
  for (auto it = tags.rbegin(); it != tags.rend(); ++it) {
    if (!IsTagComplete(store, *it)) {
      // Rank 0 speaks for everyone: all ranks see the same directory and skip identically.
      if (trainer.rank() == 0) {
        UCP_LOG(Warning) << "skipping checkpoint tag " << *it << " under " << dir
                         << ": missing commit marker (aborted or in-flight save)";
      }
      continue;
    }
    Result<ResumeReport> report = ResumeFromTag(store, *it, trainer);
    if (report.ok()) {
      return report;
    }
    if (first_failure.ok()) {
      first_failure = report.status();
    }
    // The retry-vs-abort decision must be collective too: ranks can hold *different*
    // failure codes for the same tag (the rank that hit the damage has the root cause,
    // its peers the synthesized peer-failure status), and one rank walking on to an older
    // tag while another aborts would strand the walker in the next attempt's collectives.
    // Any rank's non-retryable code aborts the walk for everyone.
    const double abort_any = trainer.groups().world.AllReduceMaxScalar(
        RetryOlderTag(report.status().code()) ? 0.0 : 1.0);
    if (abort_any > 0.0) {
      return report.status();
    }
    if (trainer.rank() == 0) {
      UCP_LOG(Warning) << "resume from " << *it << " failed (" << report.status().ToString()
                       << "); falling back to an older checkpoint";
    }
  }
  if (!first_failure.ok()) {
    return first_failure;
  }
  return NotFoundError("no committed checkpoint tag under " + dir);
}

Result<ResumeReport> ResumeElasticFromTag(const std::string& dir, const std::string& tag,
                                          RankTrainer& trainer) {
  LocalStore store(dir);
  return ResumeFromTag(store, tag, trainer);
}

}  // namespace ucp

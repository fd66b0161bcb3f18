// Multi-job store soak: N concurrent training jobs sharing one checkpoint directory, each
// under its own tag namespace (checkpoint.h job namespaces), with per-job retention and
// path-scoped faults active — proving store isolation by I/O accounting.
//
// Every job runs its own TrainingRun + AsyncCheckpointEngine on its own threads, saving
// `<job>.global_stepN` tags and a `latest.<job>` pointer into the shared directory while
// the siblings do the same. Isolation is not assumed but measured: a ScopedIoAudit
// (fault_fs.h) buckets every hooked filesystem operation by the job whose files it touches,
// and each job's threads declare their identity, so any cross-job access — a GC deleting a
// sibling's tag, a debris sweep hitting a sibling's in-flight staging, a resume reading a
// foreign shard — shows up as an audit violation.
//
// Faults stay path-scoped (substring = the victim job's tag prefix): the rank-kill injector
// is process-global and would fire nondeterministically across concurrently-running jobs.

#ifndef UCP_SRC_SOAK_MULTI_JOB_H_
#define UCP_SRC_SOAK_MULTI_JOB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/fault_fs.h"
#include "src/common/status.h"
#include "src/parallel/topology.h"

namespace ucp {

struct MultiJobOptions {
  std::string dir;  // the shared store (required)
  int jobs = 4;
  int phases = 2;               // train -> drain -> resume cycles per job
  int iterations_per_phase = 4;
  int checkpoint_every = 1;
  int keep_last = 2;            // per-job engine GC after every commit
  ParallelConfig strategy{2, 1, 1, 1, 0, 1};  // 2 ranks per job
  int global_batch = 8;
  // Arm one torn-write fault scoped to job 0's tag prefix before the jobs start: job 0 must
  // fall back / re-commit past it, the siblings must not notice.
  bool inject_fault = true;
  // Run the whole soak under a ScopedIoAudit. Disable when the caller composes its own
  // audit (at most one may be active per process).
  bool audit = true;
  // Route every job through one in-process StoreServer on the shared dir: the engines save,
  // and the resumes, validation and reloads read, via RemoteStore over a unix socket. The
  // path-scoped fault then fires inside the daemon's session threads (server-side
  // injection); the audit keeps working because server threads carry no job identity (ops
  // are bucketed by path, and only a *mismatched* non-empty thread context counts as a
  // violation).
  bool through_daemon = false;
};

struct MultiJobReport {
  struct JobResult {
    std::string job;
    bool ok = false;           // every phase trained, drained and resumed
    Status status;             // first failure, when !ok
    std::string latest_tag;    // newest resumable tag at the end
    int64_t latest_iteration = -1;
    bool deep_valid = false;   // that tag deep-verifies bit-exactly (chunked CRCs)
    bool reloaded = false;     // a fresh run resumed from it end-to-end
    int committed_tags = 0;    // tags left after retention
  };
  std::vector<JobResult> jobs;
  IoAuditReport audit;              // empty when options.audit was false
  bool fault_fired = false;
  std::vector<std::string> violations;  // isolation/validity failures, human-readable

  bool ok() const { return violations.empty(); }
};

MultiJobReport RunMultiJobSoak(const MultiJobOptions& options);

}  // namespace ucp

#endif  // UCP_SRC_SOAK_MULTI_JOB_H_

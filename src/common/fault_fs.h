// Deterministic filesystem fault injection (test-only).
//
// The write / fsync / rename paths in fs.cc consult this process-global injector on every
// operation. Disarmed (the default) the check is a single relaxed atomic load, so production
// code paths pay nothing. A test arms one FaultPlan; the plan fires exactly once — on the
// nth operation of the selected kind whose path contains `path_substr` — and then stays
// spent until DisarmFaults(). Three failure modes cover the crash-consistency matrix:
//
//   kFailStop  — the operation returns kIoError without completing, modelling a process
//                killed at that point (a failed rename leaves the staging name behind, as a
//                real crash would).
//   kTornWrite — only a seed-determined prefix of the data reaches the *final* path and the
//                operation reports success: the post-crash state of a write whose rename was
//                journaled but whose data blocks never fully hit the platter.
//   kBitRot    — the write completes, then one seed-determined bit of the file is flipped:
//                silent media corruption, detectable only by checksums.
//   kTransient — the operation returns kUnavailable for `fail_count` consecutive matching
//                attempts starting at the nth, then succeeds: a flaky NFS mount or
//                rate-limited object store. Unlike the permanent modes, callers are
//                expected to survive this via retry-with-backoff (see fs.h IoRetryPolicy).
//
// All state is guarded for concurrent use from the converter thread pool and the
// multi-threaded rank simulator.

#ifndef UCP_SRC_COMMON_FAULT_FS_H_
#define UCP_SRC_COMMON_FAULT_FS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ucp {

// kRead hooks ReadFileToString / RandomAccessFile::Open: only kFailStop and kTransient
// make sense there (a torn or bit-rotted *read* is modelled by injecting the write).
enum class FsOp { kWrite = 0, kFsync = 1, kRename = 2, kRead = 3 };

struct FaultPlan {
  enum class Kind { kFailStop, kTornWrite, kBitRot, kTransient };
  Kind kind = Kind::kFailStop;
  FsOp op = FsOp::kWrite;
  int nth = 1;              // fire on the nth matching operation (1-based)
  std::string path_substr;  // only operations whose path contains this match; empty = all
  uint64_t seed = 0;        // determinism source for the torn length / flipped bit
  int fail_count = 1;       // kTransient only: consecutive matching attempts that fail
};

// Arms `plan` (replacing any armed plan) and resets counters.
void ArmFault(const FaultPlan& plan);

// Disarms and resets all counters.
void DisarmFaults();

// True once the armed plan has fired.
bool FaultFired();

// Operations matching the armed plan's (op, path_substr) filter observed since ArmFault.
// Lets tests size an injection matrix ("how many writes does one save perform?").
int FaultOpsSeen();

// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFault {
 public:
  explicit ScopedFault(const FaultPlan& plan) { ArmFault(plan); }
  ~ScopedFault() { DisarmFaults(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

// ---- I/O attribution audit ---------------------------------------------------------------
//
// The multi-job soak harness proves store isolation ("job A never touches job B's files")
// by accounting rather than trust: while an audit is active, every hooked fs operation is
// attributed to (a) the calling thread's declared context and (b) the first bucket whose
// substring list matches the operation's path. An operation whose path belongs to bucket B
// while the thread declares a different, non-empty context C != B is recorded as a
// violation. Disarmed (the default) the hook is a single relaxed atomic load.

struct IoAuditBucket {
  std::string name;                       // e.g. a job id
  std::vector<std::string> path_substrs;  // the path matches if it contains any of these
};

struct IoAuditViolation {
  std::string thread_context;  // what the thread claimed to be working on
  std::string bucket;          // whose files it actually touched
  FsOp op = FsOp::kWrite;
  std::string path;
  std::string ToString() const;
};

struct IoAuditReport {
  std::map<std::string, int64_t> ops_per_bucket;  // hooked ops matched, by bucket name
  int64_t unmatched_ops = 0;                      // hooked ops matching no bucket
  std::vector<IoAuditViolation> violations;
};

// Declares the calling thread's audit context (typically the job id its rank works for)
// until overwritten, including on threads whose lifetime the caller doesn't control (a
// checkpoint engine's flusher, via pre_flush_hook). Aborts on a context longer than the
// 64 bytes IsValidJobId allows a job id.
void SetThreadIoAuditContext(const std::string& context);

// Process-global audit; at most one active at a time (a second construction aborts).
class ScopedIoAudit {
 public:
  explicit ScopedIoAudit(std::vector<IoAuditBucket> buckets);
  ~ScopedIoAudit();
  ScopedIoAudit(const ScopedIoAudit&) = delete;
  ScopedIoAudit& operator=(const ScopedIoAudit&) = delete;

  // Snapshot of the counts and violations accumulated so far.
  IoAuditReport Report() const;
};

namespace fault_internal {

// What fs.cc should do for one hooked operation. At most one flag is set.
struct FaultAction {
  bool fail = false;       // abort the operation with kIoError
  bool torn = false;       // persist only `torn_bytes` bytes directly under the final name
  bool bitrot = false;     // complete the operation, then flip `bitrot_bit` of the file
  bool transient = false;  // abort the operation with kUnavailable (retry will succeed)
  uint64_t torn_bytes = 0;
  uint64_t bitrot_bit = 0;  // absolute bit index, reduced mod file size by the caller
};

// Consulted by fs.cc on every hooked operation. Counts matching operations and returns the
// armed action when the count reaches the plan's nth. Cheap when disarmed.
FaultAction CheckFault(FsOp op, const std::string& path);

// Audit hook, called by fs.cc alongside CheckFault. Cheap when no audit is active.
void NoteFsOp(FsOp op, const std::string& path);

}  // namespace fault_internal

}  // namespace ucp

#endif  // UCP_SRC_COMMON_FAULT_FS_H_

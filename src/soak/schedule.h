// Randomized fault-schedule generation for the soak driver.
//
// A soak schedule is a flat list of events — train segments interleaved with fault-injector
// arms, retention sweeps and integrity scans — generated as a pure function of a single
// 64-bit seed (CounterRng, so the whole schedule is reproducible from the seed alone and
// from nothing else). The driver (src/soak/driver.h) executes events in order, checks the
// global store invariants after each one, and logs every event to a JSONL failure log that
// `ucp_tool soak-replay` can re-execute bit-identically.
//
// Injector events carry *raw* 64-bit draws rather than resolved values: a rank kill, for
// example, stores `kill_rank_raw`, and the driver reduces it mod the world size current at
// execution time. This keeps schedules valid across the elastic shrinks the kills
// themselves cause, while staying deterministic (the resolution depends only on the
// deterministic execution of earlier events).

#ifndef UCP_SRC_SOAK_SCHEDULE_H_
#define UCP_SRC_SOAK_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/comm/rank_fault.h"
#include "src/common/fault_fs.h"
#include "src/common/json.h"
#include "src/parallel/topology.h"

namespace ucp {

// Everything the driver needs to run a schedule. The serialized subset (ToJson — seed,
// shape knobs, strategy, namespace) fully determines the run; `dir` and `log_path` are
// machine-local bindings and are deliberately excluded so failure logs replay bit-exactly
// in a fresh directory.
struct SoakOptions {
  uint64_t seed = 1;
  // Schedule shape: a generated schedule is `num_blocks` train segments of 2..max_train
  // iterations, each optionally preceded by injector arms and followed by GC / fsck.
  int num_blocks = 4;
  int max_train_iters = 4;
  // Rank kills are the expensive injector (each costs a detect + rebuild + resume) and
  // every kill shrinks the world, so schedules cap them.
  int max_kills = 2;
  ParallelConfig strategy{2, 1, 2, 1, 0, 1};  // TP2.DP2 — 4 simulated ranks
  int global_batch = 8;
  int checkpoint_every = 1;  // SaveAsync every iteration: maximum commit-protocol traffic
  int watchdog_ms = 2000;
  std::string job;  // tag namespace the run saves/resumes under ("" = default)
  // Route every save through an in-process ucp_serverd StoreServer serving `dir` over a
  // unix socket (the shared-filesystem deployment). Unlocks the wire-level chaos events —
  // connection drops (kConnDrop) and daemon kill+restart, after which clients resume
  // from the spool on disk (kDaemonRestart) — and invariant I8 (no committed tag is ever
  // lost, and the schedule eventually commits a tag).
  bool through_daemon = false;

  // Runtime bindings, not part of the schedule identity.
  std::string dir;       // checkpoint store (required)
  std::string log_path;  // when non-empty, the JSONL log is also written here

  Json ToJson() const;
  static Result<SoakOptions> FromJson(const Json& json);
};

enum class SoakEventKind {
  kTrain = 0,     // drive the supervisor for `iterations` steps (faults armed beforehand fire here)
  kRankKill,      // arm a rank kill for the next train segment
  kFsFault,       // arm a filesystem fault plan for the next train segment
  kGc,            // Store::Gc(keep_last) in the run's namespace
  kBackpressure,  // set the async engine's max_in_flight for subsequent segments
  kFsck,          // store-wide integrity scan (no quarantine)
  kConnDrop,      // arm a socket fault (errno + peer drop) for the next train segment
  kDaemonRestart, // kill the in-process daemon (no drain) and restart it on the same root
};

const char* SoakEventKindName(SoakEventKind kind);

// Kill sites a generated schedule may draw from. Restricted to sites every strategy hits
// each iteration (P2P/reduce-scatter/broadcast sites would be dead draws under PP=1 or
// ZeRO-0 strategies).
const std::vector<FaultSite>& SoakKillSites();

struct SoakEvent {
  SoakEventKind kind = SoakEventKind::kTrain;

  // kTrain
  int iterations = 0;

  // kRankKill — raw draws, resolved by the driver against the live world (see file comment).
  uint64_t kill_rank_raw = 0;
  uint64_t kill_iter_raw = 0;
  int kill_site = 0;  // index into SoakKillSites(), reduced mod its size

  // kFsFault — a FaultPlan, stored field-wise so the event serializes without depending on
  // injector internals.
  int fs_kind = 0;  // FaultPlan::Kind
  int fs_op = 0;    // FsOp
  int fs_nth = 1;
  std::string fs_path_substr;
  uint64_t fs_seed = 0;
  int fs_fail_count = 1;

  // kGc
  int keep_last = 3;

  // kBackpressure
  int max_in_flight = 1;

  // kConnDrop — raw draws (resolved at execution, like kRankKill): which side of the
  // exchange fails, which drop errno, and after how many matching syscalls.
  uint64_t conn_op_raw = 0;    // mod 2 -> send / recv
  uint64_t conn_kind_raw = 0;  // mod 3 -> EPIPE / ECONNRESET / ETIMEDOUT
  uint64_t conn_nth_raw = 0;   // mod 64 -> nth matching syscall

  FaultPlan ToFaultPlan() const;  // kFsFault only

  Json ToJson() const;
  static Result<SoakEvent> FromJson(const Json& json);
};

// Generates the schedule for `options.seed`: `num_blocks` train segments with randomized
// injector arms. Every generated schedule composes at least three distinct injector types
// (one rank kill, one filesystem fault and one GC are placed unconditionally), which the
// soak tests rely on for coverage accounting.
std::vector<SoakEvent> GenerateSoakSchedule(const SoakOptions& options);

// Distinct injector kinds ("rank_kill", "fs_fault:torn_write", "gc", ...) present in a
// schedule — the coverage measure behind the ">= 3 injector types" guarantee.
std::vector<std::string> ScheduleInjectorKinds(const std::vector<SoakEvent>& events);

}  // namespace ucp

#endif  // UCP_SRC_SOAK_SCHEDULE_H_

// The randomized-schedule soak driver.
//
// RunSoak composes the repo's fault injectors — rank kills (src/comm/rank_fault.h), torn
// writes / bit rot / transient I/O (src/common/fault_fs.h), retention GC and async-flush
// backpressure — into a long interleaved schedule against supervised training segments
// (Supervisor::Train), checking the store invariants of src/soak/invariants.h after every
// event.
//
// Determinism contract: the entire run is a pure function of the serialized SoakOptions
// (seed, shape, strategy, namespace). The JSONL log therefore contains no wall-clock times
// and no absolute paths — only event specs, training/loss observations, invariant
// observations and violations — which is what lets `ucp_tool soak-replay <failure.jsonl>`
// re-execute a failure log in a fresh directory and produce a byte-identical log. The
// async engine's design serves this contract: its single flusher commits saves one at a
// time in save order (so the nth-matching-operation counter of a filesystem fault always
// lands on the same operation), and a save beyond max_in_flight blocks rather than being
// dropped (so the committed set does not depend on timing).

#ifndef UCP_SRC_SOAK_DRIVER_H_
#define UCP_SRC_SOAK_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/soak/schedule.h"

namespace ucp {

struct SoakRunReport {
  bool ok = false;  // the driver executed the whole schedule (violations may still exist)
  Status status;    // why the run aborted, when !ok

  int events_run = 0;
  int64_t iterations_trained = 0;
  int invariant_checks = 0;
  int fs_faults_fired = 0;
  int kills_fired = 0;
  int recoveries = 0;
  // through_daemon runs only. "Armed" rather than "fired" for conn drops: whether the nth
  // matching syscall is reached is timing-dependent, and the log must stay deterministic.
  int conn_drops_armed = 0;
  int daemon_restarts = 0;
  std::vector<std::string> violations;

  // The JSONL failure log: header line, one line per event, summary line. Also written to
  // options.log_path when set.
  std::vector<std::string> log_lines;

  std::string LogText() const;  // log_lines joined with '\n', trailing newline
};

// Executes an explicit event list (replay path, hand-built regression schedules).
SoakRunReport RunSoakSchedule(const SoakOptions& options, const std::vector<SoakEvent>& events);

// Generates the schedule from options.seed and executes it.
SoakRunReport RunSoak(const SoakOptions& options);

// A parsed failure log: the options that identify the run plus the exact events executed
// (the event *prefix* when the original run aborted early).
struct SoakLog {
  SoakOptions options;
  std::vector<SoakEvent> events;
};
Result<SoakLog> ParseSoakLog(const std::string& text);

// Re-executes a failure log against a fresh directory. The returned report's LogText() is
// byte-identical to the input for a deterministic driver — the property soak-replay and the
// soak tests assert.
Result<SoakRunReport> ReplaySoakLog(const std::string& log_text, const std::string& dir);

}  // namespace ucp

#endif  // UCP_SRC_SOAK_DRIVER_H_

// Crash flight recorder: dumps the tracer's ring buffers + a metrics snapshot to disk.
//
// When something goes wrong mid-run — the supervisor detects a RankFailure, fsck finds an
// unrecoverable checkpoint — the most valuable artifact is what every rank was doing in the
// moments before. The span tracer already keeps that history in per-thread rings
// (src/obs/trace.h); DumpFlightRecord writes it out as
//
//   <dir>/flightrec/flight-<seq>-<label>.trace.json   Chrome trace (last 512 events/thread)
//   <dir>/flightrec/flight-<seq>-<label>.metrics.txt  DumpMetricsText() at dump time
//
// where <seq> is a process-wide dump counter (a run with repeated failures keeps every
// dossier) and <label> names the trigger ("rank-failure", "fsck").
//
// This file deliberately uses raw POSIX I/O instead of src/common/fs: the fs layer routes
// through the deterministic fault injector, and a crash dossier written during fault
// handling must not itself be corrupted by injected faults. Best-effort by design — returns
// false with `err` set rather than a Status, and never throws, so callers on failure paths
// can log and move on.

#ifndef UCP_SRC_OBS_FLIGHT_RECORDER_H_
#define UCP_SRC_OBS_FLIGHT_RECORDER_H_

#include <string>

namespace ucp {
namespace obs {

// Writes the dossier under <dir>/flightrec/ (created if missing). On success returns true
// and sets `trace_path` to the .trace.json written; on failure returns false and sets
// `err`. Thread-safe; concurrent dumps get distinct sequence numbers.
bool DumpFlightRecord(const std::string& dir, const std::string& label,
                      std::string* trace_path, std::string* err);

}  // namespace obs
}  // namespace ucp

#endif  // UCP_SRC_OBS_FLIGHT_RECORDER_H_

// Large-world stress: drives 128–512 simulated ranks through the collective layer and the
// per-thread trace rings, measuring that per-rank resource footprint stays flat as the
// world grows.
//
// Each round builds a fresh World (fresh rank threads), so repeated rounds exercise the
// thread-exit path of every per-thread registry — most importantly the trace-ring registry,
// which must retain a bounded number of orphaned rings (flight-recorder history) instead of
// one ring per exited thread forever (SetTraceOrphanRingLimit). The report exposes the
// registry size, the ring drop rate and the process RSS; the soak tests assert the
// per-rank values at 128+ ranks stay within 2x of a 32-rank baseline.

#ifndef UCP_SRC_SOAK_STRESS_H_
#define UCP_SRC_SOAK_STRESS_H_

#include <cstdint>

namespace ucp {

struct StressOptions {
  int ranks = 128;
  int rounds = 2;                // world builds; threads are created and joined per round
  int collectives_per_round = 4; // all-reduce + barrier sweeps per rank per round
  int tensor_elems = 256;        // payload size per collective
};

struct StressReport {
  int ranks = 0;
  int rounds = 0;
  double seconds = 0.0;  // total wall time
  // Average wall seconds per (collective sweep x round), i.e. the per-rank latency of one
  // synchronized step at this world size.
  double per_round_collective_seconds = 0.0;

  // Trace-ring registry after all rounds: live threads + retained orphans. Flat across
  // world sizes (bounded by the orphan limit), not O(rounds * ranks).
  uint64_t trace_rings = 0;
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;    // events lost to ring wraparound
  double trace_drop_rate = 0.0;  // dropped / (events + dropped)

  int64_t rss_kb = 0;       // VmRSS at the end; 0 when /proc is unavailable
  int64_t peak_rss_kb = 0;  // VmHWM (monotone per process)
};

StressReport RunLargeWorldStress(const StressOptions& options);

// /proc/self/status readings in kB; 0 when unavailable (non-Linux).
int64_t CurrentRssKb();
int64_t PeakRssKb();

}  // namespace ucp

#endif  // UCP_SRC_SOAK_STRESS_H_

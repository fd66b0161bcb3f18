// The benchmark's own instruments. Everything here measures the program from outside:
// spans recorded around public calls (by the workloads and by the Store wrappers), deltas
// of counters the program already exports through its metrics registry, and the order
// statistics the report prints. Nothing reaches into the program's internals, and the
// program's own span tracer stays off.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds since the first call in the process.
int64_t NowNs();
inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

// One recorded interval. `op` names the benchmark operation it belongs to (0: none) and
// `parent` the enclosing span (0: the operation itself).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t op = 0;
  int rank = -1;
  int track = -1;  // the store handle (connection) a wrapper span was recorded on
  int64_t bytes = 0;
  double ms() const { return MsBetween(start_ns, end_ns); }
};

// Where spans recorded on the calling thread belong. Installed per thread by
// ScopedContext; rank bodies install their rank, the main thread its current operation.
struct Context {
  int64_t op = 0;
  int64_t parent = 0;
  int rank = -1;
};
Context CurrentContext();

class ScopedContext {
 public:
  explicit ScopedContext(Context context);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context previous_;
};

// Process-wide span log. Disabled (recording nothing) unless a traced pass turns it on.
class SpanLog {
 public:
  static SpanLog& Get();

  void set_enabled(bool enabled);
  bool enabled() const;
  int64_t NextId();
  void Add(Span span);
  std::vector<Span> Snapshot() const;
  // Chrome trace_event JSON ("X" events; pid = rank + 1, 0 for threads without a rank).
  std::string ChromeJson(const std::vector<Span>& spans) const;

 private:
  SpanLog() = default;
  mutable std::mutex mu_;
  bool enabled_ = false;
  int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

// RAII span under the calling thread's context; while alive it is the parent of spans the
// same thread opens. Inert when the log is disabled.
class TimedSpan {
 public:
  explicit TimedSpan(const char* name, int64_t bytes = 0);
  TimedSpan(const char* name, Context context, int64_t bytes = 0);
  ~TimedSpan();
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

  void set_track(int track) { span_.track = track; }

 private:
  bool active_ = false;
  Span span_;
  Context previous_;
};

// Operation bookkeeping: one row per timed operation of a pass.
struct Op {
  int64_t id = 0;
  std::string kind;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
  double ms() const { return MsBetween(start_ns, end_ns); }
};

// Totals of the spans named in `names` whose op is in `ops`: summed durations, calls and
// bytes, plus busy time: per track, the length of the union of the spans' intervals (time
// with at least one call in flight), summed over tracks. Concurrent callers queued on one
// handle count once in busy time and once each in `ms`.
struct SpanTotal {
  double ms = 0.0;
  double busy_ms = 0.0;
  int64_t calls = 0;
  int64_t bytes = 0;
};
SpanTotal TotalFor(const std::vector<Span>& spans, const std::vector<std::string>& names,
                   const std::vector<Op>& ops);

// ---- Counters -----------------------------------------------------------------------------

// Every fsync(2) of the process, as counted and timed by the benchmark (fsync_probe.cc).
struct FsyncTotals {
  double calls = 0.0;
  double ms = 0.0;
};
FsyncTotals ReadFsyncTotals();

// Flattened snapshot of the program's metrics registry (counters by name, histograms as
// `<name>.sum` in base units and `<name>.count`) plus the benchmark's fsync totals as
// `probe.fsync.calls` and `probe.fsync.ms`.
using Counters = std::map<std::string, double>;
Counters ReadCounters();
Counters Delta(const Counters& after, const Counters& before);
// Sum of every entry whose name starts with `prefix` and ends with `suffix`.
double SumMatching(const Counters& counters, const std::string& prefix,
                   const std::string& suffix);
double Get(const Counters& counters, const std::string& name);

// ---- Order statistics ---------------------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// p50 plus the tail: the highest percentile that still has at least ten samples above it
// (the maximum below 21 samples, where that percentile would fall under the median).
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};
Summary Summarize(std::vector<double> values);

// ---- Host CPU steal -----------------------------------------------------------------------

// CPU time the hypervisor ran other guests while this machine's CPUs wanted to run: the
// `steal` column of /proc/stat's aggregate line, summed over CPUs, in ms (0 where the file
// is missing). One small file read; callers read it outside the calls they time.
double HostStealMs();

// Operation times with the host's CPU steal regressed out. On a shared host a neighbour's
// load stalls the ranks, which run in lockstep, and a run's latencies rise with it. Fits
// ms = a + slope * steal_ms over the run's operations (Theil-Sen: the median of the
// pairwise slopes, floored at 0) and returns each operation's ms - slope * steal_ms.
struct NetOfSteal {
  std::vector<double> ms;
  double slope = 0.0;       // wall ms per ms of steal
  double mean_steal = 0.0;  // steal ms per operation
};
NetOfSteal SubtractSteal(const std::vector<double>& ms, const std::vector<double>& steal_ms);

// ---- Guardrails ---------------------------------------------------------------------------

// An instrument reading that must be positive whenever the work it counts happened.
struct Reading {
  std::string name;
  double value = 0.0;
};
// Violations: every reading that is zero (or negative, or not a number).
std::vector<std::string> ZeroReadings(const std::vector<Reading>& readings);
// Violations: every operation residual (time not covered by its layer spans) below zero.
std::vector<std::string> NegativeResiduals(const std::vector<Reading>& residuals);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_

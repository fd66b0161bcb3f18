// Process-wide metrics registry: named counters, gauges, and histograms with cheap atomic
// updates on the hot path and a single SnapshotMetrics() for programmatic access.
//
// This is the unified home for every runtime statistic the system used to keep in ad-hoc
// per-module structs (TensorIoStats, IoRetryStats, AsyncSaveStats, ConvertStats). Those
// public getter APIs remain, implemented over this registry; new instrumentation should
// register metrics directly.
//
// Naming convention (see docs/observability.md): dot-separated lowercase paths,
// <subsystem>.<object>.<measure>[_<unit>], e.g. `comm.allreduce.bytes`,
// `save.flush.seconds`, `ucp.load.chunks_verified`. Units are spelled out in the name
// (seconds, bytes, calls) so text dumps are self-describing.
//
// Dependency note: this library sits BELOW src/common (ucp_common links ucp_obs), so it may
// use only the standard library. Instrumentation in ucp_common (fs.cc retry counters) and
// everything above is therefore free to use the registry.
//
// Callsite idiom — resolve the metric once, update with a single atomic op:
//
//   static obs::Counter& bytes = obs::MetricsRegistry::Global().GetCounter("comm.p2p.bytes");
//   bytes.Add(t.numel() * sizeof(float));

#ifndef UCP_SRC_OBS_METRICS_H_
#define UCP_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ucp {
namespace obs {

// Monotonic event/byte counter. Add is one relaxed fetch_add.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value (e.g. last committed iteration, in-flight saves).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  // Monotonic ratchet: keeps the maximum of all Set-like updates.
  void Max(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Distribution of non-negative samples (durations in seconds, sizes in bytes). Values are
// recorded in micro-units (1e-6) into power-of-two buckets, so one Observe is a handful of
// relaxed atomics and snapshots can report count/sum/max plus approximate percentiles.
class Histogram {
 public:
  static constexpr int kBuckets = 64;  // bucket i counts samples with floor(log2(micros))==i

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  double MaxValue() const;
  double Mean() const { uint64_t n = Count(); return n == 0 ? 0.0 : Sum() / static_cast<double>(n); }
  // Approximate quantile (q in [0,1]) from the bucket histogram; exact enough for dumps.
  double ApproxQuantile(double q) const;
  // Per-bucket counts (kBuckets entries; bucket i covers [2^i, 2^(i+1)) micro-units, bucket
  // 0 also holds sub-micro samples). Feeds the Prometheus cumulative-bucket exposition.
  std::vector<uint64_t> BucketCounts() const;
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

// One metric's value as captured by SnapshotMetrics. Exactly one of the kind-specific
// fields is meaningful, keyed by `kind`.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;        // kCounter
  int64_t gauge = 0;           // kGauge
  uint64_t count = 0;          // kHistogram
  double sum = 0.0;            // kHistogram
  double mean = 0.0;           // kHistogram
  double max = 0.0;            // kHistogram
  double p50 = 0.0;            // kHistogram
  double p99 = 0.0;            // kHistogram
  std::vector<uint64_t> buckets;  // kHistogram: per-bucket counts (Histogram::BucketCounts)
};

using MetricsSnapshot = std::vector<MetricValue>;  // sorted by name

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Returns the metric registered under `name`, creating it on first use. The reference is
  // stable for the life of the process; cache it in a static at the callsite. Names are
  // namespaced per kind (a counter and a histogram may not share a name — checked).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  // Zeroes every registered metric (benches/tests isolate measurement windows with this).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Convenience front doors.
MetricsSnapshot SnapshotMetrics();
void ResetMetrics();
// Human-readable table, one metric per line — what `ucp_tool metrics` prints.
std::string DumpMetricsText();
// Prometheus text exposition (version 0.0.4) of the same registry: counters and gauges as
// single samples, histograms as cumulative `_bucket{le=...}` series (upper bounds are the
// power-of-two bucket edges expressed in base units) plus `_sum` / `_count`. Metric names
// are mangled to the Prometheus charset: every character outside [a-zA-Z0-9_:] becomes '_'
// (`store.server.rpc.write_begin.seconds` -> `store_server_rpc_write_begin_seconds`).
std::string DumpMetricsPrometheus();

}  // namespace obs
}  // namespace ucp

#endif  // UCP_SRC_OBS_METRICS_H_

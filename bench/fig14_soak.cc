// Scale & soak characterization: schedule throughput of the randomized fault-schedule
// driver, plus the large-world stress footprint curve.
//
// Two arm families:
//
//   soak/seed<N>    — RunSoak over a few fixed seeds (the same generator the soak tests
//                     pin), timed wall-clock. Reports events/sec and invariant-check
//                     counts so a throughput regression in the driver (or a supervisor
//                     recovery path getting slower under faults) shows up as a number,
//                     not a CI timeout. Timing lives only in this report — the driver's
//                     JSONL log stays time-free by contract (see src/soak/driver.h).
//   stress/<ranks>  — RunLargeWorldStress at 32 / 128 / 256 simulated ranks. Reports the
//                     per-round collective latency, trace-ring registry size and drop
//                     rate, and RSS, i.e. the curve behind the soak tests' "128 ranks
//                     stays within 2x of 32" assertion, extended to 256.
//
// BENCH_soak.json carries both families; the soak tests enforce the invariants, this
// binary measures the cost.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/soak/driver.h"
#include "src/soak/stress.h"

namespace ucp {
namespace {

constexpr uint64_t kSoakSeeds[] = {11, 12, 13, 14};

Json RunSoakArm(uint64_t seed) {
  SoakOptions options;
  options.seed = seed;
  options.dir = bench::FreshDir("fig14_soak_seed" + std::to_string(seed));
  const auto start = std::chrono::steady_clock::now();
  SoakRunReport report = RunSoak(options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  UCP_CHECK(report.ok) << report.status.ToString();
  UCP_CHECK(report.violations.empty()) << report.violations.front();

  const double events_per_sec =
      seconds > 0.0 ? static_cast<double>(report.events_run) / seconds : 0.0;
  std::printf(
      "fig14/soak/seed%llu: %lld events in %.3fs (%.1f events/s), %lld iters, "
      "%lld checks, %lld kills, %lld fs faults, %lld recoveries\n",
      static_cast<unsigned long long>(seed), static_cast<long long>(report.events_run),
      seconds, events_per_sec, static_cast<long long>(report.iterations_trained),
      static_cast<long long>(report.invariant_checks),
      static_cast<long long>(report.kills_fired),
      static_cast<long long>(report.fs_faults_fired),
      static_cast<long long>(report.recoveries));

  JsonObject arm;
  arm["arm"] = "soak/seed" + std::to_string(seed);
  arm["seed"] = static_cast<int64_t>(seed);
  arm["seconds"] = seconds;
  arm["events"] = report.events_run;
  arm["events_per_sec"] = events_per_sec;
  arm["iterations_trained"] = report.iterations_trained;
  arm["invariant_checks"] = report.invariant_checks;
  arm["kills_fired"] = report.kills_fired;
  arm["fs_faults_fired"] = report.fs_faults_fired;
  arm["recoveries"] = report.recoveries;
  arm["violations"] = static_cast<int64_t>(report.violations.size());
  return Json(std::move(arm));
}

Json RunStressArm(int ranks) {
  StressOptions options;
  options.ranks = ranks;
  const int64_t rss_before = CurrentRssKb();
  StressReport report = RunLargeWorldStress(options);
  const int64_t rss_delta = report.rss_kb > 0 ? report.rss_kb - rss_before : 0;

  std::printf(
      "fig14/stress/%d: %.3fs total, %.6fs/collective-round, %llu trace rings "
      "(drop rate %.4f), rss %+lld kB (peak %lld kB)\n",
      ranks, report.seconds, report.per_round_collective_seconds,
      static_cast<unsigned long long>(report.trace_rings), report.trace_drop_rate,
      static_cast<long long>(rss_delta), static_cast<long long>(report.peak_rss_kb));

  JsonObject arm;
  arm["arm"] = "stress/" + std::to_string(ranks);
  arm["ranks"] = report.ranks;
  arm["rounds"] = report.rounds;
  arm["seconds"] = report.seconds;
  arm["per_round_collective_seconds"] = report.per_round_collective_seconds;
  arm["trace_rings"] = static_cast<int64_t>(report.trace_rings);
  arm["trace_events"] = static_cast<int64_t>(report.trace_events);
  arm["trace_dropped"] = static_cast<int64_t>(report.trace_dropped);
  arm["trace_drop_rate"] = report.trace_drop_rate;
  arm["rss_kb"] = report.rss_kb;
  arm["rss_delta_kb"] = rss_delta;
  arm["peak_rss_kb"] = report.peak_rss_kb;
  return Json(std::move(arm));
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);

  ucp::JsonArray arms;
  for (uint64_t seed : ucp::kSoakSeeds) {
    arms.emplace_back(ucp::RunSoakArm(seed));
  }
  // Ascending so each arm's RSS delta measures its own growth, not a predecessor's peak.
  for (int ranks : {32, 128, 256}) {
    arms.emplace_back(ucp::RunStressArm(ranks));
  }

  ucp::JsonObject doc;
  doc["benchmark"] = "fig14_soak";
  doc["soak_seeds"] = static_cast<int64_t>(std::size(ucp::kSoakSeeds));
  doc["arms"] = std::move(arms);

  ucp::bench::WriteBenchReport("BENCH_soak.json", std::move(doc));
  ucp::bench::WriteTraceIfRequested(trace_file);
  return 0;
}

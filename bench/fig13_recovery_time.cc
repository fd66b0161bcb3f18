// Recovery-time split after a mid-run rank failure: native restart vs reconfigured resume.
//
// Both arms share one kill scenario — TP2.PP2.DP2 (8 ranks), async checkpoint every 5
// iterations, the last rank killed inside the gradient all-reduce of iteration 8, a short
// watchdog so detection dominates neither arm. The supervisor then recovers two ways:
//
//   native_restart      — rebuild_same_strategy: the failed slot is assumed re-provisioned,
//                         so resume loads the committed global_step5 through the strict
//                         native loader (the "wait for a replacement node" baseline).
//   reconfigured_resume — the UCP path: shrink to the 7 surviving slots (DP first ->
//                         TP2.PP2.DP1 on 4 ranks), convert the checkpoint through UCP, and
//                         continue degraded immediately.
//
// BENCH_recovery.json reports the detect / teardown / rebuild / convert / load split per
// arm (RecoveryTiming, as measured by the supervisor). Each arm runs kRuns times; each phase
// is recorded as its median (`<phase>_seconds`) and its spread (`<phase>_iqr_over_median`),
// since one run of a millisecond-scale phase swings by several times on a shared box. The
// paper-level point: the reconfigured arm pays a one-time conversion but needs no
// replacement hardware, and the split shows where that time goes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/runtime/supervisor.h"

namespace ucp {
namespace {

constexpr int64_t kLastIteration = 15;
constexpr int64_t kKillIteration = 8;
constexpr int kVictim = 7;
constexpr int kRuns = 5;

// One kill-and-recover run of an arm.
RecoveryTiming RunOnce(const char* label, bool rebuild_same_strategy) {
  const std::string dir = bench::FreshDir(std::string("fig13_") + label);
  TrainerConfig cfg = bench::MakeConfig(Gpt3Scaled(), {2, 2, 2, 1, 1, 1});

  SupervisorOptions options;
  options.ckpt_dir = dir + "/ckpt";
  options.checkpoint_every = 5;
  options.watchdog_timeout = std::chrono::milliseconds(300);
  options.rebuild_same_strategy = rebuild_same_strategy;
  Supervisor supervisor(cfg, options);

  ArmRankFault({kVictim, kKillIteration, FaultSite::kAllReduce, /*nth=*/1});
  SupervisorReport report = supervisor.Train(1, kLastIteration);
  DisarmRankFaults();
  UCP_CHECK(report.ok) << report.status.ToString();
  UCP_CHECK(report.recoveries == 1);
  const RecoveryTiming& t = report.timings[0];
  std::printf(
      "fig13/%s: detect=%.3fs teardown=%.3fs rebuild=%.3fs convert=%.3fs load=%.3fs "
      "total=%.3fs (%s -> %s, resumed %s)\n",
      label, t.detect_seconds, t.teardown_seconds, t.rebuild_seconds, t.convert_seconds,
      t.load_seconds, t.total_seconds, t.old_strategy.ToString().c_str(),
      t.new_strategy.ToString().c_str(), t.resumed_tag.c_str());
  return t;
}

Json RunArm(const char* label, bool rebuild_same_strategy) {
  std::vector<RecoveryTiming> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back(RunOnce(label, rebuild_same_strategy));
    UCP_CHECK(runs.back().new_strategy == runs[0].new_strategy &&
              runs.back().resumed_tag == runs[0].resumed_tag &&
              runs.back().resume_path == runs[0].resume_path);
  }
  const RecoveryTiming& t = runs[0];

  JsonObject arm;
  arm["arm"] = label;
  arm["old_strategy"] = t.old_strategy.ToString();
  arm["new_strategy"] = t.new_strategy.ToString();
  arm["resumed_tag"] = t.resumed_tag;
  arm["resume_path"] = t.resume_path == ResumeReport::Path::kNative ? "native" : "ucp";
  arm["runs"] = kRuns;
  const std::pair<const char*, double RecoveryTiming::*> phases[] = {
      {"detect", &RecoveryTiming::detect_seconds},
      {"teardown", &RecoveryTiming::teardown_seconds},
      {"rebuild", &RecoveryTiming::rebuild_seconds},
      {"convert", &RecoveryTiming::convert_seconds},
      {"load", &RecoveryTiming::load_seconds},
      {"total", &RecoveryTiming::total_seconds},
  };
  for (const auto& [phase, field] : phases) {
    std::vector<double> samples;
    for (const RecoveryTiming& run : runs) {
      samples.push_back(run.*field);
    }
    const bench::MedianSpread summary = bench::Summarize(std::move(samples));
    arm[std::string(phase) + "_seconds"] = summary.median;
    arm[std::string(phase) + "_iqr_over_median"] = summary.iqr_over_median;
    std::printf("fig13/%s/%s: median=%.4fs iqr/median=%.2f (n=%d)\n", label, phase,
                summary.median, summary.iqr_over_median, kRuns);
  }
  return Json(std::move(arm));
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);

  ucp::JsonArray arms;
  arms.emplace_back(ucp::RunArm("native_restart", /*rebuild_same_strategy=*/true));
  arms.emplace_back(ucp::RunArm("reconfigured_resume", /*rebuild_same_strategy=*/false));

  ucp::JsonObject doc;
  doc["benchmark"] = "fig13_recovery_time";
  doc["strategy"] = ucp::ParallelConfig{2, 2, 2, 1, 1, 1}.ToString();
  doc["world_size"] = 8;
  doc["victim_rank"] = ucp::kVictim;
  doc["kill_iteration"] = ucp::kKillIteration;
  doc["watchdog_ms"] = 300;
  doc["arms"] = std::move(arms);

  ucp::bench::WriteBenchReport("BENCH_recovery.json", std::move(doc));
  ucp::bench::WriteTraceIfRequested(trace_file);
  return 0;
}

// Elastic failover: the paper's motivating scenario (Fig. 1), fully automated.
//
// A job trains on 8 ranks with periodic async checkpointing under the recovery supervisor.
// Mid-run, "hardware fails": an armed fault kills rank 7 inside a gradient all-reduce. The
// surviving ranks block, the world watchdog converts the hang into a detected RankFailure,
// and the supervisor tears the run down, shrinks the strategy for the 7 remaining slots
// (DP first: TP2.PP2.DP2 -> TP2.PP2.DP1, 4 ranks), converts the newest committed
// checkpoint through UCP, and resumes — no operator in the loop. When capacity returns,
// the job scales back up to 8 ranks from another on-demand UCP conversion.

#include <cstdio>

#include "src/common/fs.h"
#include "src/runtime/supervisor.h"
#include "src/store/local_store.h"
#include "src/ucp/elastic.h"

namespace {

ucp::TrainerConfig ConfigFor(const ucp::ParallelConfig& strategy) {
  ucp::TrainerConfig config;
  config.model = ucp::Gpt3Scaled();
  config.strategy = strategy;
  config.global_batch = 8;
  config.lr.max_lr = 1e-3f;
  config.lr.decay_iters = 90;
  return config;
}

}  // namespace

int main() {
  using namespace ucp;
  const std::string workdir = "/tmp/ucp_elastic";
  UCP_CHECK(RemoveAll(workdir).ok());

  // Phase 1+2 in one call: the supervisor owns train -> fail -> shrink -> resume. The armed
  // plan kills rank 7 at iteration 25, past the committed global_step20 checkpoint.
  std::printf(
      "phase 1: 8 ranks (TP2.PP2.DP2, ZeRO-1), async checkpoint every 10 iterations,\n"
      "         supervised with a 2s watchdog; rank 7 will die at iteration 25\n");
  SupervisorOptions options;
  options.ckpt_dir = workdir + "/ckpt";
  options.checkpoint_every = 10;
  options.watchdog_timeout = std::chrono::milliseconds(2000);
  Supervisor supervisor(ConfigFor({2, 2, 2, 1, 1, 1}), options);

  ArmRankFault({/*rank=*/7, /*iteration=*/25, FaultSite::kAllReduce, /*nth=*/1});
  SupervisorReport report = supervisor.Train(1, 50);
  DisarmRankFaults();
  UCP_CHECK(report.ok) << report.status.ToString();
  UCP_CHECK(report.recoveries == 1);

  const RecoveryTiming& t = report.timings[0];
  std::printf("\nphase 2: failure detected and survived automatically\n");
  std::printf("  failure   : %s\n", t.failure.ToString().c_str());
  std::printf("  strategy  : %s -> %s\n", t.old_strategy.ToString().c_str(),
              t.new_strategy.ToString().c_str());
  std::printf("  resumed   : %s (%s)\n", t.resumed_tag.c_str(),
              t.resume_path == ResumeReport::Path::kNative ? "native load" : "via UCP");
  std::printf("  recovery  : detect %.2fs, teardown %.3fs, rebuild %.3fs, convert %.3fs, "
              "load %.3fs -> total %.2fs\n",
              t.detect_seconds, t.teardown_seconds, t.rebuild_seconds, t.convert_seconds,
              t.load_seconds, t.total_seconds);
  for (int64_t it = 10; it <= 50; it += 10) {
    std::printf("  iter %3lld loss %.4f%s\n", static_cast<long long>(it),
                report.losses[static_cast<size_t>(it - 1)],
                it > 20 ? "  (re-run on 4 ranks)" : "");
  }
  std::printf("  final strategy: %s on %d ranks\n",
              report.final_strategy.ToString().c_str(), report.final_strategy.world_size());

  // Phase 3: capacity restored — scale back up to 8 ranks, now pure ZeRO-3 DP.
  // ResumeElastic detects the strategy change, converts the supervisor's last checkpoint on
  // demand (cached beside it), and loads through UCP.
  std::printf("\nphase 3: capacity restored -> scale up to 8 ranks as DP8 (ZeRO-3)\n");
  TrainingRun restored(ConfigFor({1, 1, 8, 1, 3, 1}));
  LocalStore ckpt(workdir + "/ckpt");
  restored.Run([&](RankTrainer& trainer) {
    Result<ResumeReport> resume = ResumeElastic(ckpt, trainer);
    UCP_CHECK(resume.ok()) << resume.status().ToString();
    UCP_CHECK(resume->path == ResumeReport::Path::kUcpConverted ||
              resume->path == ResumeReport::Path::kUcpCached);
    UCP_CHECK(resume->iteration == 50);
  });
  auto losses = restored.Train(51, 60);
  std::printf("  iter  60 loss %.4f  (on 8 ranks again)\n", losses.back());
  std::printf("\ntraining survived a mid-run rank death (8->4) and grew back (4->8) "
              "without losing a step.\n");
  return 0;
}

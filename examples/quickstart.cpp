// Quickstart: the whole UCP lifecycle in ~60 lines.
//
//   1. Train a small GPT under 3-D parallelism (TP2 x PP2 x DP2, ZeRO-1) on 8 simulated
//      ranks.
//   2. Save a normal distributed checkpoint (per-rank shards — zero extra cost).
//   3. Convert it to the Universal Checkpoint format (lazy, on demand).
//   4. Resume training on a *different* cluster shape: 2 ranks, pure ZeRO-2 data
//      parallelism — and watch the loss continue exactly where it left off.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build --target quickstart
//               ./build/examples/quickstart

#include <cmath>
#include <cstdio>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/runtime/trainer.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

int main() {
  using namespace ucp;
  const std::string workdir = "/tmp/ucp_quickstart";
  UCP_CHECK(RemoveAll(workdir).ok());

  // ---- 1. Train under the Source strategy. ----
  TrainerConfig config;
  config.model = Gpt3Scaled();                 // GPT-like: L=4, H=64, vocab=256
  config.strategy = {2, 2, 2, 1, 1, 1};        // TP2, PP2, DP2, ZeRO-1 -> 8 ranks
  config.global_batch = 8;
  config.lr.max_lr = 1e-3f;
  config.lr.decay_iters = 60;

  std::printf("training %s under %s on %d simulated ranks\n",
              ArchKindName(config.model.arch), config.strategy.ToString().c_str(),
              config.strategy.world_size());
  TrainingRun source(config);
  std::vector<double> losses = source.Train(1, 30);
  std::printf("iter  1 loss %.4f\niter 30 loss %.4f\n", losses.front(), losses.back());

  // ---- 2. Save a normal distributed checkpoint. ----
  source.Run([&](RankTrainer& t) {
    UCP_CHECK(SaveDistributedCheckpoint(workdir + "/ckpt", t, 30).ok());
  });
  std::printf("saved distributed checkpoint at iteration 30\n");

  // ---- 3. Convert to UCP (this is the only step a strategy change costs). ----
  // Discover the newest committed tag instead of hardcoding it: FindLatestValidTag skips
  // uncommitted or damaged tags, unlike the advisory `latest` pointer.
  LocalStore ckpt(workdir + "/ckpt");
  Result<std::string> tag = FindLatestValidTag(ckpt);
  UCP_CHECK(tag.ok()) << tag.status().ToString();
  Result<ConvertStats> stats = ConvertToUcp(workdir + "/ckpt", *tag, workdir + "/ucp");
  UCP_CHECK(stats.ok()) << stats.status().ToString();
  std::printf("converted to UCP: %d atom checkpoints (extract %.0f ms, union %.0f ms)\n",
              stats->atoms_written, stats->extract_seconds * 1e3,
              stats->union_seconds * 1e3);

  // ---- 4. Resume on different hardware: 2 ranks, ZeRO-2 data parallelism. ----
  TrainerConfig target_config = config;
  target_config.strategy = {1, 1, 2, 1, 2, 1};  // TP1, PP1, DP2, ZeRO-2 -> 2 ranks
  std::printf("resuming under %s on %d ranks\n",
              target_config.strategy.ToString().c_str(),
              target_config.strategy.world_size());
  TrainingRun target(target_config);
  target.Run([&](RankTrainer& t) {
    UCP_CHECK(LoadUcpCheckpoint(workdir + "/ucp", t).ok());
  });

  std::vector<double> resumed = target.Train(31, 40);
  std::vector<double> continued = source.Train(31, 40);
  std::printf("\niter  resumed(2 ranks)  continued(8 ranks)  |diff|\n");
  for (size_t i = 0; i < resumed.size(); ++i) {
    std::printf("%4zu  %16.4f  %18.4f  %.2e\n", 31 + i, resumed[i], continued[i],
                std::fabs(resumed[i] - continued[i]));
  }
  std::printf("\nthe resumed run tracks the original to floating-point noise. done.\n");
  return 0;
}

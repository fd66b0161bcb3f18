// Cross-framework ingestion (paper §1: "resuming training of checkpoints from other popular
// training frameworks").
//
// A job trained with a third-party DDP-style framework ("torchlight" — consolidated
// per-parameter state dict, no flat buffers, no partitions) leaves behind a checkpoint in
// its own on-disk format. ConvertForeignToUcp maps it into the same atom-checkpoint format
// native checkpoints convert to, after which any parallelism strategy can resume from it —
// here, 3-D parallelism on 8 ranks.

#include <cmath>
#include <cstdio>

#include "src/ckpt/foreign.h"
#include "src/common/fs.h"
#include "src/runtime/trainer.h"
#include "src/store/local_store.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

int main() {
  using namespace ucp;
  const std::string workdir = "/tmp/ucp_cross_framework";
  UCP_CHECK(RemoveAll(workdir).ok());

  TrainerConfig ddp_config;
  ddp_config.model = Gpt3Scaled();
  ddp_config.strategy = {1, 1, 2, 1, 0, 1};  // plain DDP, as the foreign framework trains
  ddp_config.global_batch = 8;
  ddp_config.lr.max_lr = 1e-3f;
  ddp_config.lr.decay_iters = 40;

  std::printf("phase 1: 'torchlight' trains with plain DDP on 2 ranks\n");
  TrainingRun ddp(ddp_config);
  auto ddp_losses = ddp.Train(1, 20);
  ddp.Run([&](RankTrainer& t) {
    UCP_CHECK(SaveForeignCheckpoint(workdir + "/torchlight", t, 20).ok());
  });
  std::printf("  iter 20 loss %.4f, saved %s/torchlight/foreign_step20\n",
              ddp_losses.back(), workdir.c_str());

  std::printf("phase 2: ingest the foreign checkpoint into UCP\n");
  LocalStore out(workdir);
  Result<ConvertStats> stats =
      ConvertForeignToUcp(workdir + "/torchlight", "foreign_step20", out, "ucp");
  UCP_CHECK(stats.ok()) << stats.status().ToString();
  std::printf("  %d atoms written\n", stats->atoms_written);

  std::printf("phase 3: resume under 3-D parallelism (TP2.PP2.DP2, ZeRO-1) on 8 ranks\n");
  TrainerConfig target_config = ddp_config;
  target_config.strategy = {2, 2, 2, 1, 1, 1};
  TrainingRun target(target_config);
  target.Run([&](RankTrainer& t) {
    UCP_CHECK(LoadUcpCheckpoint(workdir + "/ucp", t).ok());
  });

  auto resumed = target.Train(21, 30);
  auto continued = ddp.Train(21, 30);
  std::printf("\niter  resumed(3-D, 8 ranks)  continued(DDP, 2 ranks)  |diff|\n");
  for (size_t i = 0; i < resumed.size(); ++i) {
    std::printf("%4zu  %21.4f  %23.4f  %.2e\n", 21 + i, resumed[i], continued[i],
                std::fabs(resumed[i] - continued[i]));
  }
  std::printf("\nforeign checkpoint resumed under a completely different framework "
              "configuration.\n");
  return 0;
}

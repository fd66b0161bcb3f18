// Advanced sub-patterns (paper Fig. 5): resharding models whose parameters do not split
// evenly along one dimension.
//
//   - GQA: the fused QKV weight [q + k + v, hidden] has *variable-size* sections — Q is
//     num_heads * head_dim wide but K/V only num_kv_heads * head_dim. TP must split each
//     section independently.
//   - MoE: expert weights are 3-d tensors [n_experts, ffn, hidden]; TP splits the middle
//     (ffn) dimension while the expert dimension stays intact.
//
// This example prints the UCP language spec the converter uses for each case, performs a
// reshard across TP degrees, and verifies loss continuity.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/runtime/trainer.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

namespace {

ucp::TrainerConfig ConfigFor(const ucp::ModelConfig& model,
                             const ucp::ParallelConfig& strategy) {
  ucp::TrainerConfig config;
  config.model = model;
  config.strategy = strategy;
  config.global_batch = 8;
  config.lr.max_lr = 1e-3f;
  config.lr.decay_iters = 40;
  return config;
}

void Demo(const char* title, const ucp::ModelConfig& model,
          const ucp::ParallelConfig& source_strategy,
          const ucp::ParallelConfig& target_strategy, const char* focus_param) {
  using namespace ucp;
  std::printf("==== %s ====\n", title);
  const std::string workdir = std::string("/tmp/ucp_subpattern_") + ArchKindName(model.arch);
  UCP_CHECK(RemoveAll(workdir).ok());

  // Show how the UCP language describes this model under the source strategy.
  PatternLibrary library = PatternLibrary::ForStrategy(model, source_strategy);
  std::printf("UCP pattern spec (source %s):\n%s\n", source_strategy.ToString().c_str(),
              library.ToSpec().c_str());

  TrainingRun source(ConfigFor(model, source_strategy));
  source.Train(1, 10);
  source.Run([&](RankTrainer& t) {
    UCP_CHECK(SaveDistributedCheckpoint(workdir + "/ckpt", t, 10).ok());
  });
  UCP_CHECK(ConvertToUcp(workdir + "/ckpt", TagForIteration(10), workdir + "/ucp").ok());

  // Inspect the focus parameter: local shard on the source vs consolidated atom.
  ParamPtr shard = source.trainer(0).model().store().FindOrNull(focus_param);
  LocalStore ucp(workdir + "/ucp");
  Result<ParamState> atom = ReadAtom(ucp, "", focus_param);
  UCP_CHECK(atom.ok()) << atom.status().ToString();
  std::printf("parameter %s\n", focus_param);
  if (shard != nullptr) {
    std::printf("  source rank-0 shard shape: %s\n",
                ShapeToString(shard->value.shape()).c_str());
  }
  std::printf("  consolidated atom shape:   %s\n",
              ShapeToString(atom->fp32.shape()).c_str());

  TrainingRun target(ConfigFor(model, target_strategy));
  target.Run([&](RankTrainer& t) {
    UCP_CHECK(LoadUcpCheckpoint(workdir + "/ucp", t).ok());
  });
  ParamPtr reshard = target.trainer(0).model().store().FindOrNull(focus_param);
  if (reshard != nullptr) {
    std::printf("  target rank-0 shard shape: %s (target %s)\n",
                ShapeToString(reshard->value.shape()).c_str(),
                target_strategy.ToString().c_str());
  }

  auto continued = source.Train(11, 15);
  auto resumed = target.Train(11, 15);
  double max_delta = 0.0;
  for (size_t i = 0; i < resumed.size(); ++i) {
    max_delta = std::max(max_delta, std::fabs(resumed[i] - continued[i]));
  }
  std::printf("loss continuity over 5 resumed iterations: max|delta| = %.2e\n\n", max_delta);
  UCP_CHECK(max_delta < 0.02);
}

}  // namespace

int main() {
  using namespace ucp;

  // GQA: TP2 -> TP1 x PP2. Focus on the fused QKV weight with sections {64, 32, 32}.
  Demo("GQA: variable-size fused QKV sections", LlamaScaled(), {2, 1, 2, 1, 1, 1},
       {1, 2, 2, 1, 1, 1},
       "language_model.encoder.layers.0.self_attention.query_key_value.weight");

  // MoE: TP1 x DP4 -> TP2 x DP2. Focus on the 3-d expert tensor split along dim 1.
  Demo("MoE: 3-d expert tensors split along the ffn dim", MoeScaled(), {1, 2, 4, 1, 1, 1},
       {2, 2, 2, 1, 1, 1}, "language_model.encoder.layers.0.mlp.moe.experts.w1");

  std::printf("both Fig. 5 sub-patterns reshard losslessly.\n");
  return 0;
}

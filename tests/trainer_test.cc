// Runtime equivalence properties: the global loss trajectory is independent of the
// parallelism strategy (to fp reduction-order tolerance), bit-deterministic for repeated
// identical runs, and learning actually happens. Parameterized over a strategy sweep.

#include <gtest/gtest.h>

#include "src/runtime/trainer.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ModelConfig& model, const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = model;
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  cfg.lr.warmup_iters = 2;
  cfg.lr.decay_iters = 30;
  return cfg;
}

TEST(TrainerTest, LossDecreasesOnMarkovData) {
  TrainerConfig cfg = ConfigFor(TinyGpt(), {1, 1, 1, 1, 0, 1});
  cfg.lr.max_lr = 3e-3f;  // tiny model: a larger LR shows learning within 60 iters
  cfg.lr.decay_iters = 60;
  TrainingRun run(cfg);
  auto losses = run.Train(1, 60);
  double early = (losses[0] + losses[1] + losses[2]) / 3;
  double late = (losses[57] + losses[58] + losses[59]) / 3;
  EXPECT_LT(late, early - 0.3) << "model failed to learn";
}

TEST(TrainerTest, RepeatedRunsBitIdentical) {
  auto run_once = [] {
    TrainingRun run(ConfigFor(TinyGpt(), {2, 1, 2, 1, 1, 2}));
    return run.Train(1, 6);
  };
  auto a = run_once();
  auto b = run_once();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "iter " << i;
  }
}

struct StrategyCase {
  ParallelConfig strategy;
  const char* label;
};

// Without a printer gtest dumps the raw bytes, the label pointer included, into every
// listed test name, so the names ctest registers would change from build to build. The
// label is already the name's suffix, so the printer shows only the case's data.
void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.strategy.ToString(); }

class StrategySweepTest : public ::testing::TestWithParam<StrategyCase> {};

// The core property behind the paper's Table 3: with identical data and init, every
// parallelism strategy computes the same optimization trajectory up to floating-point
// reduction order.
TEST_P(StrategySweepTest, LossMatchesSerialBaseline) {
  ModelConfig model = TinyGpt();
  TrainingRun baseline(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  auto expected = baseline.Train(1, 6);

  TrainingRun run(ConfigFor(model, GetParam().strategy));
  auto actual = run.Train(1, 6);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 5e-3) << GetParam().label << " iter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySweepTest,
    ::testing::Values(
        StrategyCase{{2, 1, 1, 1, 0, 1}, "tp2"},
        StrategyCase{{1, 2, 1, 1, 0, 1}, "pp2"},
        StrategyCase{{1, 1, 2, 1, 0, 1}, "dp2"},
        StrategyCase{{1, 1, 2, 1, 1, 1}, "dp2_zero1"},
        StrategyCase{{1, 1, 2, 1, 2, 1}, "dp2_zero2"},
        StrategyCase{{1, 1, 2, 1, 3, 1}, "dp2_zero3"},
        StrategyCase{{1, 1, 1, 2, 0, 1}, "sp2"},
        StrategyCase{{2, 2, 1, 1, 0, 1}, "tp2_pp2"},
        StrategyCase{{2, 1, 2, 1, 1, 1}, "tp2_dp2_zero1"},
        StrategyCase{{1, 2, 2, 1, 1, 2}, "pp2_dp2_micro2"},
        StrategyCase{{2, 2, 2, 1, 1, 1}, "tp2_pp2_dp2"},
        StrategyCase{{1, 1, 4, 1, 2, 1}, "dp4_zero2"},
        StrategyCase{{1, 1, 2, 2, 1, 1}, "dp2_sp2_zero1"}),
    [](const ::testing::TestParamInfo<StrategyCase>& row) { return row.param.label; });

TEST(TrainerTest, MicroBatchCountInvariance) {
  ModelConfig model = TinyGpt();
  TrainingRun run1(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  ParallelConfig micro4{1, 1, 1, 1, 0, 4};
  TrainingRun run4(ConfigFor(model, micro4));
  auto l1 = run1.Train(1, 5);
  auto l4 = run4.Train(1, 5);
  for (size_t i = 0; i < l1.size(); ++i) {
    EXPECT_NEAR(l1[i], l4[i], 2e-4) << "iter " << i;
  }
}

TEST(TrainerTest, EveryRankReportsSameLoss) {
  TrainerConfig cfg = ConfigFor(TinyGpt(), {2, 2, 2, 1, 1, 1});
  TrainingRun run(cfg);
  std::vector<double> losses(8, -1.0);
  run.Run([&](RankTrainer& t) {
    losses[static_cast<size_t>(t.rank())] = t.TrainIteration(1);
  });
  for (int r = 1; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(losses[static_cast<size_t>(r)], losses[0]) << "rank " << r;
  }
}

TEST(TrainerTest, GqaModelTrainsUnderTp) {
  ModelConfig model = TinyLlama();
  TrainingRun baseline(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  TrainingRun tp(ConfigFor(model, {2, 1, 1, 1, 0, 1}));
  auto lb = baseline.Train(1, 5);
  auto lt = tp.Train(1, 5);
  for (size_t i = 0; i < lb.size(); ++i) {
    EXPECT_NEAR(lt[i], lb[i], 5e-3) << "iter " << i;
  }
}

TEST(TrainerTest, MoeModelTrainsUnderTpAndDp) {
  ModelConfig model = TinyMoe();
  TrainingRun baseline(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  TrainingRun parallel(ConfigFor(model, {2, 1, 2, 1, 1, 1}));
  auto lb = baseline.Train(1, 5);
  auto lp = parallel.Train(1, 5);
  for (size_t i = 0; i < lb.size(); ++i) {
    EXPECT_NEAR(lp[i], lb[i], 5e-3) << "iter " << i;
  }
}

TEST(TrainerTest, MoeExpertShardingMatchesFfnSharding) {
  // The two MoE sharding modes (TP inside each expert vs whole-expert parallelism) compute
  // the same mathematics; trajectories agree to reduction-order noise.
  ModelConfig ffn_mode = TinyMoe();
  ModelConfig expert_mode = TinyMoe();
  expert_mode.moe_expert_sharding = true;
  TrainingRun a(ConfigFor(ffn_mode, {2, 1, 1, 1, 0, 1}));
  TrainingRun b(ConfigFor(expert_mode, {2, 1, 1, 1, 0, 1}));
  auto la = a.Train(1, 5);
  auto lb = b.Train(1, 5);
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_NEAR(la[i], lb[i], 5e-3) << "iter " << i;
  }
}

TEST(TrainerTest, TiedEmbeddingCopiesStayIdenticalAcrossStages) {
  ModelConfig model = TinyGpt();
  model.arch = ArchKind::kBloom;
  model.tied_embeddings = true;
  TrainerConfig cfg = ConfigFor(model, {1, 2, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 5);
  // After training, the first-stage copy and the last-stage copy must be bit-identical.
  ParamPtr first = run.trainer(0).model().store().FindOrNull(
      "language_model.embedding.word_embeddings.weight");
  ParamPtr last = run.trainer(1).model().store().FindOrNull(
      "language_model.embedding.word_embeddings.weight");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(last->tied_secondary);
  EXPECT_TRUE(Tensor::BitEqual(first->value, last->value));
}

TEST(TrainerTest, SpNormReplicasDriftAsDesigned) {
  // Sequence parallelism deliberately skips gradient sync for norm parameters; after a few
  // steps the SP replicas differ (this is exactly what params_to_average repairs).
  TrainerConfig cfg = ConfigFor(TinyGpt(), {1, 1, 1, 2, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 5);
  ParamPtr sp0 = run.trainer(0).model().store().FindOrNull(
      "language_model.encoder.layers.0.input_layernorm.weight");
  ParamPtr sp1 = run.trainer(1).model().store().FindOrNull(
      "language_model.encoder.layers.0.input_layernorm.weight");
  ASSERT_NE(sp0, nullptr);
  ASSERT_NE(sp1, nullptr);
  EXPECT_FALSE(Tensor::BitEqual(sp0->value, sp1->value));
  // But the drift is small: both followed near-identical gradients.
  EXPECT_TRUE(Tensor::AllClose(sp0->value, sp1->value, 5e-2f, 5e-2f));
}

TEST(TrainerTest, MptBf16TrainsAndDiffersFromF32) {
  ModelConfig model = TinyGpt();
  TrainerConfig f32 = ConfigFor(model, {1, 1, 1, 1, 0, 1});
  TrainerConfig bf16 = f32;
  bf16.compute_dtype = DType::kBF16;
  auto lf = TrainingRun(f32).Train(1, 5);
  auto lb = TrainingRun(bf16).Train(1, 5);
  EXPECT_NE(lf.back(), lb.back());
  EXPECT_NEAR(lf.back(), lb.back(), 0.05);
}

}  // namespace
}  // namespace ucp

// Unit tests for the UCP operations: StripPadding, Extract, UnionParam per pattern, atom
// storage, and GenUcpMetadata's agreement with the live optimizer layout.

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/common/rng.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"
#include "src/ucp/ops.h"

namespace ucp {
namespace {

ParamState MakeState(const std::string& name, const Tensor& base) {
  ParamState state;
  state.name = name;
  state.fp32 = base.Clone();
  state.exp_avg = base.Clone();
  state.exp_avg.Scale_(0.5f);
  state.exp_avg_sq = base.Clone();
  state.exp_avg_sq.Scale_(0.25f);
  return state;
}

// ---------------- StripPadding ----------------

TEST(StripPaddingTest, RemovesTailPadding) {
  Tensor flat = Tensor::Full({10}, 1.0f);
  Result<Tensor> stripped = StripPadding(flat, 7);
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped->numel(), 7);
}

TEST(StripPaddingTest, Idempotent) {
  Tensor flat = Tensor::Full({10}, 1.0f);
  Tensor once = *StripPadding(flat, 7);
  Tensor twice = *StripPadding(once, 7);
  EXPECT_TRUE(Tensor::BitEqual(once, twice));
}

TEST(StripPaddingTest, RejectsUndersizedBuffer) {
  Tensor flat = Tensor::Full({5}, 1.0f);
  EXPECT_EQ(StripPadding(flat, 7).status().code(), StatusCode::kInvalidArgument);
}

TEST(StripPaddingTest, RejectsNonFlat) {
  Tensor t = Tensor::Zeros({2, 2});
  EXPECT_EQ(StripPadding(t, 2).status().code(), StatusCode::kInvalidArgument);
}

// ---------------- UnionParam ----------------

TEST(UnionTest, UniqueSingleContribution) {
  PatternRule rule{ParamPattern::kUniqueParams, "*", 0, {}};
  Tensor base = Tensor::Full({2, 2}, 3.0f);
  std::vector<ShardContribution> contributions;
  contributions.push_back({{0, 0, 1, 0}, MakeState("p", base)});
  Result<ParamState> merged = UnionParam(rule, {2, 2}, std::move(contributions), 1);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(Tensor::BitEqual(merged->fp32, base));
}

TEST(UnionTest, UniqueRejectsMultiple) {
  PatternRule rule{ParamPattern::kUniqueParams, "*", 0, {}};
  Tensor base = Tensor::Full({2}, 1.0f);
  std::vector<ShardContribution> contributions;
  contributions.push_back({{0, 0, 0, 0}, MakeState("p", base)});
  contributions.push_back({{0, 0, 1, 0}, MakeState("p", base)});
  EXPECT_EQ(UnionParam(rule, {2}, std::move(contributions), 1).status().code(),
            StatusCode::kDataLoss);
}

TEST(UnionTest, ReplicatedPicksOneAndVerifies) {
  PatternRule rule{ParamPattern::kReplicatedParams, "*", 0, {}};
  Tensor base = Tensor::Full({3}, 2.0f);
  std::vector<ShardContribution> contributions;
  contributions.push_back({{1, 0, 0, 0}, MakeState("p", base)});
  contributions.push_back({{0, 0, 0, 0}, MakeState("p", base)});
  Result<ParamState> merged = UnionParam(rule, {3}, std::move(contributions), 2);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(Tensor::BitEqual(merged->fp32, base));
}

TEST(UnionTest, ReplicatedDivergenceIsDataLoss) {
  PatternRule rule{ParamPattern::kReplicatedParams, "*", 0, {}};
  std::vector<ShardContribution> contributions;
  contributions.push_back({{0, 0, 0, 0}, MakeState("p", Tensor::Full({3}, 2.0f))});
  contributions.push_back({{1, 0, 0, 0}, MakeState("p", Tensor::Full({3}, 2.5f))});
  EXPECT_EQ(UnionParam(rule, {3}, std::move(contributions), 2).status().code(),
            StatusCode::kDataLoss);
}

TEST(UnionTest, ToAverageAveragesAcrossSp) {
  PatternRule rule{ParamPattern::kParamsToAverage, "*", 0, {}};
  std::vector<ShardContribution> contributions;
  // Two SP ranks, each with a TP replica pair (identical within the SP rank).
  for (int sp = 0; sp < 2; ++sp) {
    for (int tp = 0; tp < 2; ++tp) {
      RankCoord c{tp, sp, 0, 0};
      contributions.push_back({c, MakeState("p", Tensor::Full({4}, sp == 0 ? 1.0f : 3.0f))});
    }
  }
  Result<ParamState> merged = UnionParam(rule, {4}, std::move(contributions), 2);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(Tensor::BitEqual(merged->fp32, Tensor::Full({4}, 2.0f)));
  EXPECT_TRUE(Tensor::BitEqual(merged->exp_avg, Tensor::Full({4}, 1.0f)));
}

TEST(UnionTest, FragmentReassemblesInTpOrder) {
  PatternRule rule{ParamPattern::kFragmentParams, "*", 0, {}};
  Tensor full = Tensor::Zeros({4, 2});
  for (int64_t i = 0; i < 8; ++i) {
    full.at(i) = static_cast<float>(i);
  }
  PartitionSpec spec = rule.ToPartitionSpec();
  std::vector<ShardContribution> contributions;
  // Deliver shards out of order; union must sort by tp.
  for (int tp : {1, 0}) {
    contributions.push_back({{tp, 0, 0, 0}, MakeState("p", ShardOf(spec, full, 2, tp))});
  }
  Result<ParamState> merged = UnionParam(rule, {4, 2}, std::move(contributions), 2);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(Tensor::BitEqual(merged->fp32, full));
}

TEST(UnionTest, FragmentWithSectionsAndSpReplicas) {
  // GQA sections plus SP=2 replication of each TP shard: union keeps one replica per TP.
  PatternRule rule{ParamPattern::kFragmentParams, "*", 0, {4, 2, 2}};
  Tensor full = Tensor::Zeros({8, 2});
  for (int64_t i = 0; i < 16; ++i) {
    full.at(i) = static_cast<float>(i);
  }
  PartitionSpec spec = rule.ToPartitionSpec();
  std::vector<ShardContribution> contributions;
  for (int sp = 0; sp < 2; ++sp) {
    for (int tp = 0; tp < 2; ++tp) {
      contributions.push_back(
          {{tp, sp, 0, 0}, MakeState("p", ShardOf(spec, full, 2, tp))});
    }
  }
  Result<ParamState> merged = UnionParam(rule, {8, 2}, std::move(contributions), 2);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(Tensor::BitEqual(merged->fp32, full));
}

TEST(UnionTest, FragmentMissingShardIsDataLoss) {
  PatternRule rule{ParamPattern::kFragmentParams, "*", 0, {}};
  Tensor full = Tensor::Full({4, 2}, 1.0f);
  std::vector<ShardContribution> contributions;
  contributions.push_back(
      {{0, 0, 0, 0}, MakeState("p", ShardOf(rule.ToPartitionSpec(), full, 2, 0))});
  EXPECT_EQ(UnionParam(rule, {4, 2}, std::move(contributions), 2).status().code(),
            StatusCode::kDataLoss);
}

TEST(UnionTest, EmptyContributionsRejected) {
  PatternRule rule{ParamPattern::kUniqueParams, "*", 0, {}};
  EXPECT_EQ(UnionParam(rule, {2}, {}, 1).status().code(), StatusCode::kInvalidArgument);
}

// ---------------- Atom storage ----------------

class AtomTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_atom_test"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }
  std::string dir_;
};

TEST_F(AtomTest, WriteReadRoundTrip) {
  CounterRng rng(1, 1);
  ParamState state = MakeState("language_model.embedding.word_embeddings.weight",
                               Tensor::Gaussian({8, 4}, rng, 0, 1.0f));
  ASSERT_TRUE(WriteAtom(dir_, state).ok());
  LocalStore ucp(dir_);
  Result<ParamState> back = ReadAtom(ucp, "", state.name);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(Tensor::BitEqual(back->fp32, state.fp32));
  EXPECT_TRUE(Tensor::BitEqual(back->exp_avg, state.exp_avg));
  EXPECT_TRUE(Tensor::BitEqual(back->exp_avg_sq, state.exp_avg_sq));
  // One file, holding the three members with the full shape.
  Result<std::unique_ptr<ByteSource>> file = FileByteSource::Open(AtomPath(dir_, state.name));
  ASSERT_TRUE(file.ok()) << file.status();
  Result<BundleInfo> info = StatBundle(std::move(*file));
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_EQ(info->entries.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(info->entries[s].first, kAtomMembers[s]);
    EXPECT_EQ(info->entries[s].second.shape, (Shape{8, 4}));
  }
}

TEST_F(AtomTest, MissingAtomIsNotFound) {
  LocalStore ucp(dir_);
  EXPECT_EQ(ReadAtom(ucp, "", "no.such.param").status().code(), StatusCode::kNotFound);
}

TEST_F(AtomTest, UcpMetaRoundTrip) {
  UcpMeta meta;
  meta.model = TinyMoe();
  meta.source_strategy = {2, 2, 2, 1, 1, 2};
  meta.iteration = 100;
  meta.global_batch = 32;
  meta.data_seed = 4;
  meta.atom_names = {"a.weight", "b.bias"};
  ASSERT_TRUE(WriteUcpMeta(dir_, meta).ok());
  LocalStore ucp(dir_);
  Result<UcpMeta> back = ReadUcpMeta(ucp, "");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->model == meta.model);
  EXPECT_TRUE(back->source_strategy == meta.source_strategy);
  EXPECT_EQ(back->iteration, 100);
  EXPECT_EQ(back->atom_names, meta.atom_names);
}

// ---------------- Extract & GenUcpMetadata against live runs ----------------

class ExtractTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_extract_test"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }
  std::string dir_;
};

TEST_F(ExtractTest, ReassemblesParamsFromZeroPartitions) {
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = {1, 1, 2, 1, 2, 1};
  cfg.global_batch = 4;
  TrainingRun run(cfg);
  run.Train(1, 2);
  run.Run([&](RankTrainer& t) {
    UCP_CHECK(SaveDistributedCheckpoint(dir_, t, 2).ok());
  });

  LocalStore ckpt(dir_);
  Result<ExtractedRank> extracted = Extract(ckpt, "global_step2", cfg.strategy, 0, 0, 0);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_EQ(extracted->steps_taken, 2);
  EXPECT_EQ(extracted->zero_stage, 2);
  // Both ZeRO partitions were opened, and bytes_read is their total size.
  int64_t shard_bytes = 0;
  for (int dp = 0; dp < 2; ++dp) {
    shard_bytes += static_cast<int64_t>(*FileSize(
        PathJoin(PathJoin(dir_, "global_step2"), OptimStatesFileName(dp, 0, 0, 0))));
  }
  EXPECT_EQ(extracted->bytes_read, shard_bytes);

  // Every extracted fp32 state must equal the live parameter value (fp32 mode: published
  // values == masters).
  const ParamStore& store = run.trainer(0).model().store();
  ASSERT_EQ(extracted->params.size(), store.params().size());
  for (const ParamState& state : extracted->params) {
    ParamPtr live = store.FindOrNull(state.name);
    ASSERT_NE(live, nullptr) << state.name;
    EXPECT_TRUE(Tensor::BitEqual(state.fp32, live->value)) << state.name;
    EXPECT_EQ(state.fp32.shape(), live->value.shape());
  }
}

TEST_F(ExtractTest, MissingFileIsNotFound) {
  LocalStore ckpt(dir_);
  EXPECT_EQ(Extract(ckpt, "global_step1", ParallelConfig{}, 0, 0, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(GenUcpMetadataTest, PlanMatchesLiveOptimizerLayout) {
  for (ParallelConfig target : {ParallelConfig{2, 2, 2, 1, 1, 1},
                                ParallelConfig{1, 1, 4, 1, 3, 1},
                                ParallelConfig{2, 1, 1, 2, 2, 1},
                                ParallelConfig{1, 2, 2, 1, 0, 1}}) {
    TrainerConfig cfg;
    cfg.model = TinyGpt();
    cfg.strategy = target;
    cfg.global_batch = 8;
    TrainingRun run(cfg);
    for (int rank = 0; rank < run.world_size(); ++rank) {
      RankTrainer& t = run.trainer(rank);
      RankLoadPlan plan = GenUcpMetadata(cfg.model, target, t.coord());
      const FlatLayout& live = t.optimizer().layout();
      ASSERT_EQ(plan.layout.segments.size(), live.segments.size()) << target.ToString();
      EXPECT_EQ(plan.layout.total, live.total);
      EXPECT_EQ(plan.layout.padded_total, live.padded_total);
      EXPECT_EQ(plan.layout.partition_size, live.partition_size);
      for (size_t i = 0; i < live.segments.size(); ++i) {
        EXPECT_EQ(plan.layout.segments[i].name, live.segments[i].name);
        EXPECT_EQ(plan.layout.segments[i].offset, live.segments[i].offset);
        EXPECT_EQ(plan.layout.segments[i].shape, live.segments[i].shape);
        EXPECT_EQ(plan.layout.segments[i].decay, live.segments[i].decay);
        EXPECT_EQ(plan.layout.segments[i].norm_counts, live.segments[i].norm_counts);
      }
      EXPECT_EQ(plan.partition_numel, t.optimizer().state_numel());
      EXPECT_EQ(plan.partition_offset, t.optimizer().owned_offset());
    }
  }
}

TEST(GenUcpMetadataTest, PlanJsonSerializes) {
  RankLoadPlan plan = GenUcpMetadata(TinyGpt(), {2, 1, 1, 1, 1, 1}, {0, 0, 0, 0});
  Json json = plan.ToJson();
  EXPECT_TRUE(json.Has("flat_layout"));
  EXPECT_TRUE(json.Has("assignments"));
  Result<Json> reparsed = Json::Parse(json.Dump(2));
  ASSERT_TRUE(reparsed.ok());
}

// ---------------- Randomized Extract -> Union -> Load round-trip ----------------

// Property test: for randomly sampled valid strategies, save -> ConvertToUcp ->
// LoadUcpCheckpoint into a fresh run of the same strategy restores every parameter and
// every optimizer partition bitwise. Same-strategy round-trips still push every atom
// through Extract and UnionParam (fragment reassembly, replica verification, SP averaging)
// while keeping the expected values trivially available: the source run itself. The RNG is
// seeded, so a failing strategy reproduces deterministically.
TEST(UcpRoundTripPropertyTest, SampledStrategiesRoundTripBitwise) {
  const std::string dir = *MakeTempDir("ucp_prop_test");
  Rng rng(0xC0FFEE);
  std::set<std::array<int, 6>> seen;
  std::vector<ParallelConfig> strategies;
  // Sample (tp, pp, dp, sp, zero_stage, micro_batches) from the lattice TinyGpt admits
  // (heads/hidden/ffn/vocab divisible by tp, seq by sp, layers >= pp, batch 8 by dp*micro)
  // with world_size capped at 8, deduplicated until 20 distinct strategies are collected.
  while (strategies.size() < 20) {
    const int tp = 1 << rng.NextBounded(2);
    const int pp = 1 << rng.NextBounded(2);
    const int dp = 1 << rng.NextBounded(3);
    const int sp = 1 << rng.NextBounded(2);
    const int zero = static_cast<int>(rng.NextBounded(4));
    const int micro = 1 << rng.NextBounded(2);
    if (tp * pp * dp * sp > 8) {
      continue;
    }
    if (!seen.insert({tp, pp, dp, sp, zero, micro}).second) {
      continue;
    }
    strategies.push_back({tp, pp, dp, sp, zero, micro});
  }

  // Asserts `got` carries bitwise-identical state to `want` on every rank.
  auto expect_bit_identical = [](TrainingRun& want, TrainingRun& got) {
    for (int rank = 0; rank < want.world_size(); ++rank) {
      const ZeroOptimizer& a = want.trainer(rank).optimizer();
      const ZeroOptimizer& b = got.trainer(rank).optimizer();
      EXPECT_EQ(b.steps_taken(), a.steps_taken()) << "rank " << rank;
      EXPECT_TRUE(Tensor::BitEqual(b.MasterState(), a.MasterState())) << "rank " << rank;
      EXPECT_TRUE(Tensor::BitEqual(b.ExpAvgState(), a.ExpAvgState())) << "rank " << rank;
      EXPECT_TRUE(Tensor::BitEqual(b.ExpAvgSqState(), a.ExpAvgSqState())) << "rank " << rank;
      const ParamStore& loaded = got.trainer(rank).model().store();
      for (const ParamPtr& p : want.trainer(rank).model().store().params()) {
        ParamPtr q = loaded.FindOrNull(p->info.name);
        ASSERT_NE(q, nullptr) << p->info.name;
        EXPECT_TRUE(Tensor::BitEqual(q->value, p->value)) << "rank " << rank << " "
                                                          << p->info.name;
      }
    }
  };

  for (size_t i = 0; i < strategies.size(); ++i) {
    SCOPED_TRACE(strategies[i].ToString());
    TrainerConfig cfg;
    cfg.model = TinyGpt();
    cfg.strategy = strategies[i];
    cfg.global_batch = 8;
    const int64_t steps = 1 + static_cast<int64_t>(rng.NextBounded(2));
    const std::string tag = TagForIteration(steps);

    TrainingRun source(cfg);
    source.Train(1, steps);
    const std::string ckpt = PathJoin(dir, "ckpt" + std::to_string(i));
    source.Run([&](RankTrainer& t) {
      UCP_CHECK(SaveDistributedCheckpoint(ckpt, t, steps).ok());
    });
    const std::string ucp = PathJoin(ckpt, tag + ".ucp");
    Result<ConvertStats> stats = ConvertToUcp(ckpt, tag, ucp);
    ASSERT_TRUE(stats.ok()) << stats.status();

    TrainingRun target(cfg);
    target.Run([&](RankTrainer& t) { UCP_CHECK(LoadUcpCheckpoint(ucp, t).ok()); });
    if (strategies[i].sp == 1) {
      expect_bit_identical(source, target);
    } else {
      // SP-independent params (layernorms) drift across the SP group and the union stores
      // their average, so the loaded run holds the canonical averaged replicas rather than
      // the source's drifted ones. The bitwise property for SP > 1 is that the canonical
      // form is a fixed point: a second save -> convert -> load must reproduce `target`
      // exactly (averaging identical replicas is exact in IEEE arithmetic).
      const std::string ckpt2 = PathJoin(dir, "ckpt" + std::to_string(i) + "b");
      target.Run([&](RankTrainer& t) {
        UCP_CHECK(SaveDistributedCheckpoint(ckpt2, t, steps).ok());
      });
      const std::string ucp2 = PathJoin(ckpt2, tag + ".ucp");
      Result<ConvertStats> stats2 = ConvertToUcp(ckpt2, tag, ucp2);
      ASSERT_TRUE(stats2.ok()) << stats2.status();
      TrainingRun second(cfg);
      second.Run([&](RankTrainer& t) { UCP_CHECK(LoadUcpCheckpoint(ucp2, t).ok()); });
      expect_bit_identical(target, second);
      ASSERT_TRUE(RemoveAll(ckpt2).ok());
    }
    ASSERT_TRUE(RemoveAll(ckpt).ok());
  }
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace ucp

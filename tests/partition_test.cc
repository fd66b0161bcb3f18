// Partition-spec semantics: ShardOf / Unshard round trips for every pattern, including the
// Fig. 5 sub-patterns (variable-size fused-QKV sections, 3-d MoE expert tensors), plus the
// topology's rank/coordinate algebra.

#include <gtest/gtest.h>

#include "src/parallel/partition_spec.h"
#include "src/parallel/topology.h"

namespace ucp {
namespace {

Tensor Iota(Shape shape) {
  Tensor t = Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(i);
  }
  return t;
}

std::vector<Tensor> AllShards(const PartitionSpec& spec, const Tensor& full, int degree) {
  std::vector<Tensor> shards;
  for (int r = 0; r < degree; ++r) {
    shards.push_back(ShardOf(spec, full, degree, r));
  }
  return shards;
}

TEST(PartitionSpecTest, ReplicatedShardIsFullCopy) {
  Tensor full = Iota({4, 4});
  PartitionSpec spec = PartitionSpec::Replicated();
  Tensor shard = ShardOf(spec, full, 4, 2);
  EXPECT_TRUE(Tensor::BitEqual(shard, full));
  EXPECT_FALSE(shard.SharesStorageWith(full));
}

TEST(PartitionSpecTest, FragmentDim0RoundTrip) {
  Tensor full = Iota({8, 3});
  PartitionSpec spec = PartitionSpec::Fragment(0);
  EXPECT_EQ(ShardShape(spec, full.shape(), 4), (Shape{2, 3}));
  Tensor rebuilt = Unshard(spec, AllShards(spec, full, 4), full.shape());
  EXPECT_TRUE(Tensor::BitEqual(rebuilt, full));
}

TEST(PartitionSpecTest, FragmentDim1RoundTrip) {
  Tensor full = Iota({3, 8});
  PartitionSpec spec = PartitionSpec::Fragment(1);
  EXPECT_EQ(ShardShape(spec, full.shape(), 2), (Shape{3, 4}));
  // Shard 1 holds columns 4..7.
  Tensor shard1 = ShardOf(spec, full, 2, 1);
  EXPECT_EQ(shard1.at(0), 4.0f);
  Tensor rebuilt = Unshard(spec, AllShards(spec, full, 2), full.shape());
  EXPECT_TRUE(Tensor::BitEqual(rebuilt, full));
}

TEST(PartitionSpecTest, GqaVariableSectionsRoundTrip) {
  // Fused QKV with GQA: q = 8 rows, k = v = 2 rows, tp = 2. Each rank takes the matching
  // half of each section: rank 0 gets q[0:4], k[0:1], v[0:1].
  Tensor full = Iota({12, 3});
  PartitionSpec spec = PartitionSpec::FragmentSections(0, {8, 2, 2});
  EXPECT_EQ(ShardShape(spec, full.shape(), 2), (Shape{6, 3}));

  Tensor shard0 = ShardOf(spec, full, 2, 0);
  // Rows 0-3 (q half), row 8 (k half), row 10 (v half).
  EXPECT_EQ(shard0.at(0), 0.0f);
  EXPECT_EQ(shard0.at(4 * 3), 8.0f * 3);
  EXPECT_EQ(shard0.at(5 * 3), 10.0f * 3);

  Tensor rebuilt = Unshard(spec, AllShards(spec, full, 2), full.shape());
  EXPECT_TRUE(Tensor::BitEqual(rebuilt, full));
}

TEST(PartitionSpecTest, MoeExpert3dMiddleDimRoundTrip) {
  // w1 [E=3, ffn=4, hidden=2] partitioned on the ffn dim (Fig. 5 MoE sub-pattern).
  Tensor full = Iota({3, 4, 2});
  PartitionSpec spec = PartitionSpec::Fragment(1);
  EXPECT_EQ(ShardShape(spec, full.shape(), 2), (Shape{3, 2, 2}));
  Tensor shard1 = ShardOf(spec, full, 2, 1);
  // Expert 0, local row 0 of shard 1 = full[0][2][0] = 4.
  EXPECT_EQ(shard1.at(0), 4.0f);
  Tensor rebuilt = Unshard(spec, AllShards(spec, full, 2), full.shape());
  EXPECT_TRUE(Tensor::BitEqual(rebuilt, full));
}

TEST(PartitionSpecTest, MoeExpert3dLastDimRoundTrip) {
  Tensor full = Iota({2, 3, 6});
  PartitionSpec spec = PartitionSpec::Fragment(2);
  Tensor rebuilt = Unshard(spec, AllShards(spec, full, 3), full.shape());
  EXPECT_TRUE(Tensor::BitEqual(rebuilt, full));
}

TEST(PartitionSpecTest, ToAverageUnshardAverages) {
  PartitionSpec spec = PartitionSpec::ToAverage();
  std::vector<Tensor> replicas = {Tensor::Full({4}, 1.0f), Tensor::Full({4}, 3.0f)};
  Tensor avg = Unshard(spec, replicas, {4});
  EXPECT_TRUE(Tensor::BitEqual(avg, Tensor::Full({4}, 2.0f)));
}

TEST(PartitionSpecTest, DegreeOneIsIdentity) {
  Tensor full = Iota({5, 5});
  for (auto spec : {PartitionSpec::Fragment(0), PartitionSpec::Replicated()}) {
    Tensor shard = ShardOf(spec, full, 1, 0);
    EXPECT_TRUE(Tensor::BitEqual(shard, full));
    EXPECT_TRUE(Tensor::BitEqual(Unshard(spec, {shard}, full.shape()), full));
  }
}

TEST(PartitionSpecTest, ShardsAreDisjointAndCoverFragment) {
  Tensor full = Iota({6, 4});
  PartitionSpec spec = PartitionSpec::Fragment(0);
  auto shards = AllShards(spec, full, 3);
  double total = 0.0;
  for (const Tensor& s : shards) {
    total += s.SumAll();
  }
  EXPECT_DOUBLE_EQ(total, full.SumAll());
}

// ---------------- Property sweep: ShardOf/Unshard round trips ----------------

struct SweepCase {
  Shape shape;
  PartitionSpec spec;
  int degree;
  const char* label;
};

// Without a printer gtest dumps the raw bytes, heap pointers included, into every listed
// test name, so the names ctest registers would change from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << ShapeToString(c.shape) << " degree " << c.degree;
}

class ShardRoundTripSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ShardRoundTripSweep, UnshardInvertsShardOf) {
  const SweepCase& c = GetParam();
  CounterRng rng(0xABCD, static_cast<uint64_t>(c.degree));
  Tensor full = Tensor::Gaussian(c.shape, rng, 0, 1.0f);
  std::vector<Tensor> shards = AllShards(c.spec, full, c.degree);
  // Every shard has the predicted shape.
  for (const Tensor& s : shards) {
    EXPECT_EQ(s.shape(), ShardShape(c.spec, c.shape, c.degree));
  }
  Tensor rebuilt = Unshard(c.spec, shards, c.shape);
  EXPECT_TRUE(Tensor::BitEqual(rebuilt, full));
  // For fragments, shards are disjoint: total mass is conserved.
  if (c.spec.kind == PartitionKind::kFragment) {
    double total = 0.0;
    for (const Tensor& s : shards) {
      total += s.SumAll();
    }
    EXPECT_NEAR(total, full.SumAll(), 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, ShardRoundTripSweep,
    ::testing::Values(
        SweepCase{{16}, PartitionSpec::Fragment(0), 4, "vec_even4"},
        SweepCase{{12, 5}, PartitionSpec::Fragment(0), 3, "rows3"},
        SweepCase{{5, 12}, PartitionSpec::Fragment(1), 6, "cols6"},
        SweepCase{{24, 7}, PartitionSpec::FragmentSections(0, {16, 4, 4}), 2, "gqa2"},
        SweepCase{{24, 7}, PartitionSpec::FragmentSections(0, {16, 4, 4}), 4, "gqa4"},
        SweepCase{{48}, PartitionSpec::FragmentSections(0, {32, 8, 8}), 8, "gqa_bias8"},
        SweepCase{{4, 8, 6}, PartitionSpec::Fragment(1), 2, "moe_w1"},
        SweepCase{{4, 6, 8}, PartitionSpec::Fragment(2), 4, "moe_w2"},
        SweepCase{{2, 3, 4, 6}, PartitionSpec::Fragment(3), 3, "rank4_last"},
        SweepCase{{8, 8}, PartitionSpec::Replicated(), 4, "replicated"},
        SweepCase{{10, 10}, PartitionSpec::Fragment(0), 1, "degree1"}),
    [](const ::testing::TestParamInfo<SweepCase>& row) { return row.param.label; });

// ---------------- Topology ----------------

TEST(TopologyTest, CoordRankRoundTrip) {
  ParallelConfig config{2, 2, 2, 2, 0, 1};  // tp pp dp sp
  World world(config.world_size());
  Topology topo(&world, config);
  for (int r = 0; r < config.world_size(); ++r) {
    RankCoord c = topo.CoordOf(r);
    EXPECT_EQ(topo.RankOf(c), r);
  }
}

TEST(TopologyTest, TpIsFastestVarying) {
  ParallelConfig config{2, 2, 1, 1, 0, 1};
  World world(4);
  Topology topo(&world, config);
  EXPECT_EQ(topo.CoordOf(0).tp, 0);
  EXPECT_EQ(topo.CoordOf(1).tp, 1);
  EXPECT_EQ(topo.CoordOf(1).pp, 0);
  EXPECT_EQ(topo.CoordOf(2).pp, 1);
}

TEST(TopologyTest, GroupsPartitionTheWorld) {
  ParallelConfig config{2, 2, 2, 1, 1, 1};
  World world(8);
  Topology topo(&world, config);
  for (int r = 0; r < 8; ++r) {
    auto groups = topo.GroupsFor(r);
    EXPECT_EQ(groups.tp.size(), 2);
    EXPECT_EQ(groups.pp.size(), 2);
    EXPECT_EQ(groups.dp.size(), 2);
    EXPECT_EQ(groups.sp.size(), 1);
    EXPECT_EQ(groups.world.size(), 8);
    // The rank's own coordinate appears at its index within each group.
    RankCoord c = topo.CoordOf(r);
    EXPECT_EQ(groups.tp.index(), c.tp);
    EXPECT_EQ(groups.dp.index(), c.dp);
  }
}

TEST(TopologyTest, StageNeighbours) {
  ParallelConfig config{1, 4, 1, 1, 0, 1};
  World world(4);
  Topology topo(&world, config);
  EXPECT_EQ(topo.NextStageRank(0), 1);
  EXPECT_EQ(topo.PrevStageRank(3), 2);
}

TEST(TopologyTest, EmbeddingTieGroupSpansFirstAndLastStage) {
  ParallelConfig config{1, 3, 2, 1, 0, 1};
  World world(6);
  Topology topo(&world, config);
  for (int r = 0; r < 6; ++r) {
    auto groups = topo.GroupsFor(r);
    RankCoord c = topo.CoordOf(r);
    if (c.pp == 0 || c.pp == 2) {
      ASSERT_TRUE(groups.embedding_tie.valid());
      EXPECT_EQ(groups.embedding_tie.size(), 2);
    } else {
      EXPECT_FALSE(groups.embedding_tie.valid());
    }
  }
}

TEST(TopologyTest, LayerSplitEvenAndRemainder) {
  EXPECT_EQ(SplitLayersAcrossStages(8, 4),
            (std::vector<std::pair<int, int>>{{0, 2}, {2, 2}, {4, 2}, {6, 2}}));
  EXPECT_EQ(SplitLayersAcrossStages(7, 3),
            (std::vector<std::pair<int, int>>{{0, 3}, {3, 2}, {5, 2}}));
}

TEST(ParallelConfigTest, JsonRoundTrip) {
  ParallelConfig config{2, 4, 2, 1, 3, 4};
  Result<ParallelConfig> back = ParallelConfig::FromJson(config.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, config);
  EXPECT_EQ(config.ToString(), "TP2.PP4.DP2.SP1.Z3");
}

// ---------------------------------------------------------------------------
// ShardRuns at large worlds. A 512-rank world factors into TP x PP x DP as e.g.
// TP512, TP128.PP2.DP2, TP32.PP4.DP4, TP8.PP8.DP8 or TP2.PP16.DP16 — the run
// decomposition only ever sees the TP degree, so the property is checked at
// every TP degree those factorizations produce, for every rank. Pure arithmetic
// over specs and shapes: no payload I/O, no files.
// ---------------------------------------------------------------------------

// The ShardRuns contract: for every rank, runs tile the rank's shard contiguously
// (ascending shard_offset with no gaps), full offsets are strictly ascending and
// non-overlapping, and every run's elements are bit-equal to the ShardOf copy.
// For fragment specs the ranks' runs must additionally cover the full tensor
// exactly once.
void CheckShardRunsProperty(const PartitionSpec& spec, const Tensor& full, int degree) {
  SCOPED_TRACE("kind=" + std::string(PartitionKindName(spec.kind)) +
               " dim=" + std::to_string(spec.dim) + " degree=" + std::to_string(degree));
  std::vector<int> coverage(static_cast<size_t>(full.numel()), 0);
  for (int rank = 0; rank < degree; ++rank) {
    Tensor shard = ShardOf(spec, full, degree, rank);
    std::vector<ShardRun> runs = ShardRuns(spec, full.shape(), degree, rank);
    int64_t tiled = 0;
    int64_t prev_full_end = -1;
    for (const ShardRun& run : runs) {
      ASSERT_GT(run.numel, 0);
      ASSERT_EQ(run.shard_offset, tiled) << "rank " << rank << " leaves a gap in its shard";
      ASSERT_GT(run.full_offset, prev_full_end) << "rank " << rank << " runs not ascending";
      ASSERT_LE(run.full_offset + run.numel, full.numel());
      for (int64_t i = 0; i < run.numel; ++i) {
        ASSERT_EQ(shard.at(run.shard_offset + i), full.at(run.full_offset + i))
            << "rank " << rank << " run mismatch at element " << i;
        ++coverage[static_cast<size_t>(run.full_offset + i)];
      }
      tiled += run.numel;
      prev_full_end = run.full_offset + run.numel - 1;
    }
    ASSERT_EQ(tiled, shard.numel()) << "rank " << rank << " runs do not tile its shard";
  }
  if (spec.kind == PartitionKind::kFragment) {
    for (size_t i = 0; i < coverage.size(); ++i) {
      ASSERT_EQ(coverage[i], 1) << "full element " << i << " covered " << coverage[i]
                                << " times across ranks";
    }
  } else {
    // Replicated / to-average: every rank covers the whole tensor once.
    for (size_t i = 0; i < coverage.size(); ++i) {
      ASSERT_EQ(coverage[i], degree);
    }
  }
}

TEST(ShardRunsPropertyTest, HoldsAtEveryTpDegreeOfA512RankWorld) {
  const std::vector<int> degrees = {2, 8, 32, 128, 512};
  for (int degree : degrees) {
    // dim-0 fragment: one pread-sized run per rank.
    CheckShardRunsProperty(PartitionSpec::Fragment(0), Iota({1024, 3}), degree);
    // dim-1 fragment: strided gather, one run per leading row.
    CheckShardRunsProperty(PartitionSpec::Fragment(1), Iota({4, 1024}), degree);
    // Fused-QKV sections, each divisible by the largest degree.
    CheckShardRunsProperty(PartitionSpec::FragmentSections(0, {2048, 512, 512}),
                           Iota({3072, 2}), degree);
    // 3-d MoE expert tensor split on an inner dim.
    CheckShardRunsProperty(PartitionSpec::Fragment(1), Iota({4, 512, 2}), degree);
  }
}

TEST(ShardRunsPropertyTest, ReplicatedSpecsYieldIdentityRunsAtLargeDegree) {
  for (const PartitionSpec& spec : {PartitionSpec::Replicated(), PartitionSpec::ToAverage()}) {
    Tensor full = Iota({16, 8});
    std::vector<ShardRun> runs = ShardRuns(spec, full.shape(), 512, 511);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].shard_offset, 0);
    EXPECT_EQ(runs[0].full_offset, 0);
    EXPECT_EQ(runs[0].numel, full.numel());
    CheckShardRunsProperty(spec, full, 32);
  }
}

TEST(ParallelConfigTest, MalformedJsonRejected) {
  Json bad = *Json::Parse(R"({"tp":0,"pp":1,"dp":1,"sp":1,"zero_stage":0,"micro_batches":1})");
  EXPECT_FALSE(ParallelConfig::FromJson(bad).ok());
  Json bad_stage =
      *Json::Parse(R"({"tp":1,"pp":1,"dp":1,"sp":1,"zero_stage":7,"micro_batches":1})");
  EXPECT_FALSE(ParallelConfig::FromJson(bad_stage).ok());
}

}  // namespace
}  // namespace ucp

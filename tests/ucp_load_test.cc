// The sliced load path (v3 range reads), as properties:
//
//  1. Bit-exact equivalence: the partition-pruned sliced loader produces exactly the
//     optimizer state of the whole-file reference arm, across a {TP}x{PP}x{DP}x{ZeRO}
//     target grid.
//  2. Chunked CRCs localize damage: bit-rot inside one 64 KiB chunk fails only the ranges
//     that touch it; untouched ranges still load, and header-only Stat still succeeds.
//  3. Backward compatibility: v1/v2 files round-trip through the view API, and a UCP
//     checkpoint rewritten at v2 still loads bit-exactly through the sliced path.
//  4. The sliced arm reads strictly fewer bytes than the reference arm.

#include <gtest/gtest.h>

#include <cstring>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

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

class LoadEnv : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_load"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }

  // Trains a small source run and converts its checkpoint to UCP at Sub("ucp").
  void MakeUcp(const ModelConfig& model) {
    TrainingRun source(ConfigFor(model, {1, 1, 2, 1, 1, 1}));
    source.Train(1, 3);
    source.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(Sub("src"), t, 3);
      UCP_CHECK(s.ok()) << s.ToString();
    });
    Result<ConvertStats> stats =
        ConvertToUcp(Sub("src"), "global_step3", Sub("ucp"), {.num_threads = 2});
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  static void LoadAll(TrainingRun& run, const std::string& ucp_dir,
                      const UcpLoadOptions& options) {
    run.Run([&](RankTrainer& t) {
      Status s = LoadUcpCheckpoint(ucp_dir, t, options);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  std::string dir_;
};

// Property 1: the sliced loader and the whole-file reference arm install
// bit-identical optimizer state on every rank, across the target grid.
TEST_F(LoadEnv, SlicedMatchesWholeFileAcrossTargetGrid) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);

  for (int tp : {1, 2, 4}) {
    for (int pp : {1, 2}) {
      for (int dp : {1, 2}) {
        for (int zero : {0, 1}) {
          ParallelConfig target{tp, pp, dp, 1, zero, 1};
          SCOPED_TRACE(target.ToString());

          TrainingRun sliced(ConfigFor(model, target));
          LoadAll(sliced, Sub("ucp"), {.sliced = true});
          TrainingRun whole(ConfigFor(model, target));
          LoadAll(whole, Sub("ucp"), {.sliced = false});

          for (int r = 0; r < sliced.world_size(); ++r) {
            const ZeroOptimizer& a = sliced.trainer(r).optimizer();
            const ZeroOptimizer& b = whole.trainer(r).optimizer();
            EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
            EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
            EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState()))
                << "rank " << r;
            EXPECT_EQ(a.steps_taken(), b.steps_taken()) << "rank " << r;
          }
        }
      }
    }
  }
}

// Property 2: damage inside one CRC chunk is invisible to ranges that avoid the chunk and
// fatal to ranges that touch it. Header-only Stat keeps working (the header has its own CRC).
TEST_F(LoadEnv, ChunkCrcLocalizesBitRot) {
  // 256x320 fp32 = 327680 payload bytes = 5 chunks of 64 KiB.
  Tensor t = Tensor::Zeros({256, 320});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i % 977) * 0.5f;
  }
  const std::string path = Sub("chunked");
  ASSERT_TRUE(SaveTensor(path, t).ok());

  Result<TensorFileInfo> info = StatTensor(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->format_version, 3u);
  EXPECT_EQ(info->chunk_bytes, 64u * 1024);
  EXPECT_EQ(info->num_chunks, 5u);

  // Flip one byte in chunk 2. The payload starts at header_bytes, recorded at offset 12.
  std::string raw = *ReadFileToString(path);
  uint64_t header_bytes = 0;
  std::memcpy(&header_bytes, raw.data() + 12, sizeof(header_bytes));
  raw[header_bytes + 2 * 65536 + 123] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());

  // The header is untouched, so planning APIs still work.
  EXPECT_TRUE(StatTensor(path).ok());
  // Whole-file readers and the deep verifier must notice.
  EXPECT_EQ(LoadTensor(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DeepVerifyTensorFile(path).code(), StatusCode::kDataLoss);

  Result<TensorFileView> view = TensorFileView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  // Rows [0, 50) live in bytes [0, 64000): chunk 0 only — loads clean and bit-exact.
  Result<Tensor> head = view->ReadRange(0, 50);
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_TRUE(Tensor::BitEqual(*head, t.Narrow(0, 0, 50)));
  // Rows [160, 256) live in chunks 3-4 — also untouched.
  Result<Tensor> tail = view->ReadRange(160, 96);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_TRUE(Tensor::BitEqual(*tail, t.Narrow(0, 160, 96)));
  // Rows [100, 120) straddle the corrupted chunk 2 — caught by its CRC.
  Status bad = view->ReadRange(100, 20).status();
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.ToString().find("per-tensor CRC"), std::string::npos) << bad.ToString();
}

// Chunk verification is memoized per view: re-reading a verified range does not re-verify
// (or re-read) its chunks; an unverified chunk is fetched whole exactly once.
TEST_F(LoadEnv, ChunkVerificationIsMemoizedPerView) {
  Tensor t = Tensor::Zeros({256, 320});
  const std::string path = Sub("memo");
  ASSERT_TRUE(SaveTensor(path, t).ok());

  Result<TensorFileView> view = TensorFileView::Open(path);
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(view->ReadRange(0, 50).ok());
  TensorIoStats first = GetTensorIoStats();
  ASSERT_TRUE(view->ReadRange(0, 50).ok());
  TensorIoStats second = GetTensorIoStats();
  EXPECT_EQ(second.chunks_verified, first.chunks_verified);
  // The re-read still fetches payload bytes, but only the 64000 requested — not the chunk.
  EXPECT_EQ(second.bytes_read - first.bytes_read, 50u * 320 * 4);
}

// Property 3a: the legacy writers round-trip through every reader entry point.
TEST_F(LoadEnv, LegacyVersionsRoundTripThroughViews) {
  Tensor t = Tensor::Zeros({7, 9});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = 1.0f / static_cast<float>(i + 1);
  }
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    const std::string path = Sub("v" + std::to_string(version));
    ASSERT_TRUE(SaveTensorAtVersion(path, t, DType::kF32, version).ok());

    Result<TensorFileInfo> info = StatTensor(path);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->format_version, version);
    EXPECT_EQ(info->num_chunks, 0u);  // no chunk table before v3
    EXPECT_EQ(info->shape, t.shape());

    Result<Tensor> whole = LoadTensor(path);
    ASSERT_TRUE(whole.ok());
    EXPECT_TRUE(Tensor::BitEqual(*whole, t));

    Result<TensorFileView> view = TensorFileView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status();
    Result<Tensor> range = view->ReadRange(2, 3);
    ASSERT_TRUE(range.ok()) << range.status();
    EXPECT_TRUE(Tensor::BitEqual(*range, t.Narrow(0, 2, 3)));
  }
}

// Property 3b: a UCP checkpoint whose atoms were written by an old (v2) build still loads
// through the sliced path, bit-exactly.
TEST_F(LoadEnv, V2AtomsLoadBitExactThroughSlicedPath) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);

  // Downgrade every atom state file to v2 in place.
  Result<UcpMeta> meta = ReadUcpMeta(Sub("ucp"));
  ASSERT_TRUE(meta.ok());
  for (const std::string& name : meta->atom_names) {
    for (const char* state : {"fp32", "exp_avg", "exp_avg_sq"}) {
      const std::string path = PathJoin(AtomDir(Sub("ucp"), name), state);
      Result<Tensor> t = LoadTensor(path);
      ASSERT_TRUE(t.ok()) << path;
      ASSERT_TRUE(SaveTensorAtVersion(path, *t, DType::kF32, 2).ok());
    }
  }
  ASSERT_EQ(StatTensor(PathJoin(AtomDir(Sub("ucp"), meta->atom_names[0]), "fp32"))
                ->format_version,
            2u);

  ParallelConfig target{2, 2, 2, 1, 1, 1};
  TrainingRun sliced(ConfigFor(model, target));
  LoadAll(sliced, Sub("ucp"), {.sliced = true});
  TrainingRun whole(ConfigFor(model, target));
  LoadAll(whole, Sub("ucp"), {.sliced = false});
  for (int r = 0; r < sliced.world_size(); ++r) {
    const ZeroOptimizer& a = sliced.trainer(r).optimizer();
    const ZeroOptimizer& b = whole.trainer(r).optimizer();
    EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
    EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
    EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState())) << "rank " << r;
  }
}

// Property 4: on a TP2·DP2 target the sliced arm moves at most half the bytes the
// whole-file arm does (partition pruning alone guarantees this).
TEST_F(LoadEnv, SlicedArmReadsFewerBytes) {
  ModelConfig model = TinyGpt();
  MakeUcp(model);
  ParallelConfig target{2, 1, 2, 1, 1, 1};

  TrainingRun whole(ConfigFor(model, target));
  ResetTensorIoStats();
  LoadAll(whole, Sub("ucp"), {.sliced = false});
  const uint64_t whole_bytes = GetTensorIoStats().bytes_read;

  TrainingRun sliced(ConfigFor(model, target));
  ResetTensorIoStats();
  LoadAll(sliced, Sub("ucp"), {.sliced = true});
  const uint64_t sliced_bytes = GetTensorIoStats().bytes_read;

  EXPECT_GT(whole_bytes, 0u);
  EXPECT_LE(sliced_bytes * 2, whole_bytes)
      << "sliced " << sliced_bytes << " vs whole " << whole_bytes;
}

}  // namespace
}  // namespace ucp

// The sliced load path (v3 range reads), as properties:
//
//  1. Bit-exact equivalence: the partition-pruned sliced loader produces exactly the
//     optimizer state of the whole-file reference arm, across a {TP}x{PP}x{DP}x{ZeRO}
//     target grid.
//  2. Chunked CRCs localize damage: bit-rot inside one 64 KiB chunk of a bundle member fails
//     only the ranges that touch it; untouched ranges still load, and header-only Stat
//     still succeeds.
//  3. Only v3 is read: a version field of 1, 2 or 4 fails every bundle reader with kDataLoss
//     naming the value, with or without resealed CRCs, and so does a header size that
//     would wrap the readers' bounds check. Only f32 payloads are read: a dtype byte of 1
//     (bf16) or 2 (f16) fails every reader with kDataLoss too.
//  4. The sliced arm reads strictly fewer bytes than the reference arm.

#include <gtest/gtest.h>

#include <cstring>

#include "src/ckpt/checkpoint.h"
#include "src/common/crc32.h"
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

std::unique_ptr<ByteSource> Source(const std::string& path) {
  Result<std::unique_ptr<ByteSource>> source = FileByteSource::Open(path);
  UCP_CHECK(source.ok()) << source.status().ToString();
  return std::move(source).value();
}

// A bundle whose member 1, "t", is 256x320 fp32 = 327680 payload bytes = 5 chunks of
// 64 KiB. A small member 0 comes first, so "t" does not start at the header's end.
Tensor WriteChunkedBundle(const std::string& path) {
  Tensor t = Tensor::Zeros({256, 320});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i % 977) * 0.5f;
  }
  TensorBundle bundle;
  bundle.Add("bias", Tensor::Full({8}, 1.0f));
  bundle.Add("t", t);
  UCP_CHECK(SaveBundle(path, bundle).ok());
  return t;
}

// Rows [row_begin, row_begin + row_count) of member 1 of `view`.
Result<Tensor> ReadRows(BundleFileView& view, int64_t row_begin, int64_t row_count) {
  Tensor rows = Tensor::Zeros({row_count, 320});
  UCP_RETURN_IF_ERROR(view.ReadTensorElements(1, row_begin * 320, rows.numel(), rows.data()));
  return rows;
}

// Property 2: damage inside one CRC chunk of a member is invisible to ranges that avoid the
// chunk and fatal to ranges that touch it. Header-only Stat keeps working (the header has
// its own CRC).
TEST_F(LoadEnv, ChunkCrcLocalizesBitRot) {
  const std::string path = Sub("chunked");
  const Tensor t = WriteChunkedBundle(path);

  Result<BundleInfo> info = StatBundle(Source(path));
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->entries.size(), 2u);
  EXPECT_EQ(info->entries[1].second.chunk_bytes, 64u * 1024);
  EXPECT_EQ(info->entries[1].second.num_chunks, 5u);

  // Flip one byte in chunk 2 of member "t".
  Result<std::optional<FileChunkIndex>> chunks = ReadFileChunkIndex(*Source(path));
  ASSERT_TRUE(chunks.ok() && chunks->has_value());
  const uint64_t t_begin = (**chunks).regions.at(1).begin;
  std::string raw = *ReadFileToString(path);
  raw[t_begin + 2 * 65536 + 123] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());

  // The header is untouched, so planning APIs still work.
  EXPECT_TRUE(StatBundle(Source(path)).ok());
  // Whole-file readers and the deep verifier must notice.
  EXPECT_EQ(LoadBundle(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(DeepVerifyBundleFile(Source(path)).code(), StatusCode::kDataLoss);

  Result<BundleFileView> view = BundleFileView::Open(Source(path));
  ASSERT_TRUE(view.ok()) << view.status();
  // Rows [0, 50) live in bytes [0, 64000): chunk 0 only — loads clean and bit-exact.
  Result<Tensor> head = ReadRows(*view, 0, 50);
  ASSERT_TRUE(head.ok()) << head.status();
  EXPECT_TRUE(Tensor::BitEqual(*head, t.Narrow(0, 0, 50)));
  // Rows [160, 256) live in chunks 3-4 — also untouched.
  Result<Tensor> tail = ReadRows(*view, 160, 96);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_TRUE(Tensor::BitEqual(*tail, t.Narrow(0, 160, 96)));
  // The other member shares no chunk with "t".
  EXPECT_TRUE(view->ReadTensor("bias").ok());
  // Rows [100, 120) straddle the corrupted chunk 2 — caught by its CRC.
  Status bad = ReadRows(*view, 100, 20).status();
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.ToString().find("per-tensor CRC"), std::string::npos) << bad.ToString();
}

// Chunk verification is memoized per view: re-reading a verified range does not re-verify
// (or re-read) its chunks; an unverified chunk is fetched whole exactly once.
TEST_F(LoadEnv, ChunkVerificationIsMemoizedPerView) {
  const std::string path = Sub("memo");
  WriteChunkedBundle(path);

  Result<BundleFileView> view = BundleFileView::Open(Source(path));
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(ReadRows(*view, 0, 50).ok());
  TensorIoStats first = GetTensorIoStats();
  ASSERT_TRUE(ReadRows(*view, 0, 50).ok());
  TensorIoStats second = GetTensorIoStats();
  EXPECT_EQ(second.chunks_verified, first.chunks_verified);
  // The re-read still fetches payload bytes, but only the 64000 requested — not the chunk.
  EXPECT_EQ(second.bytes_read - first.bytes_read, 50u * 320 * 4);
}

// Property 3: v3 is the only format version read. A v3 bundle whose version field says 1, 2
// or 4 fails kDataLoss naming that value through every reader, whether or not its header and
// file CRCs were resealed over the edited field.

// `file` with the bytes at `at` replaced by `value`. `reseal` recomputes the header CRC
// (at the file's original header size) and the file CRC over the edit.
template <typename T>
std::vector<uint8_t> Patched(std::vector<uint8_t> file, size_t at, T value, bool reseal) {
  uint64_t header_bytes = 0;
  std::memcpy(&header_bytes, file.data() + 12, sizeof(header_bytes));
  std::memcpy(file.data() + at, &value, sizeof(value));
  if (reseal) {
    const uint32_t header_crc = Crc32(file.data(), header_bytes - 4);
    std::memcpy(file.data() + header_bytes - 4, &header_crc, sizeof(header_crc));
    const uint32_t file_crc = Crc32(file.data(), file.size() - 4);
    std::memcpy(file.data() + file.size() - 4, &file_crc, sizeof(file_crc));
  }
  return file;
}

// A serialized bundle, written after `patch` and handed to every bundle reader.
class ReaderMatrix {
 public:
  explicit ReaderMatrix(const std::string& dir) : path_(PathJoin(dir, "b.ucb")) {
    TensorBundle bundle;
    bundle.Add("w", Tensor::Full({7, 9}, 0.25f));
    bundle.meta = Json(JsonObject{{"iteration", Json(int64_t{3})}});
    file_ = *SerializeBundle(bundle);
  }

  template <typename Patch>
  std::vector<std::pair<const char*, Status>> Read(const Patch& patch) {
    const std::vector<uint8_t> bytes = patch(file_);
    UCP_CHECK(WriteFileAtomic(path_, bytes.data(), bytes.size()).ok());
    return {
        {"LoadBundle", LoadBundle(path_).status()},
        {"StatBundle", StatBundle(Source(path_)).status()},
        {"BundleFileView::Open", BundleFileView::Open(Source(path_)).status()},
        {"DeepVerifyBundleFile", DeepVerifyBundleFile(Source(path_))},
        {"ReadFileChunkIndex", ReadFileChunkIndex(*Source(path_)).status()},
    };
  }

 private:
  std::string path_;
  std::vector<uint8_t> file_;
};

TEST_F(LoadEnv, UnsupportedVersionFieldFailsDataLossThroughEveryReader) {
  ReaderMatrix readers(dir_);
  for (uint32_t version : {3u, 1u, 2u, 4u}) {
    for (bool reseal : {true, false}) {
      if (version == 3 && !reseal) {
        continue;  // identical to the resealed v3 control
      }
      SCOPED_TRACE("version " + std::to_string(version) + (reseal ? " resealed" : ""));
      const auto outcomes = readers.Read([&](const std::vector<uint8_t>& file) {
        return Patched(file, 8, version, reseal);
      });
      for (const auto& [reader, status] : outcomes) {
        if (version == 3) {
          EXPECT_TRUE(status.ok()) << reader << ": " << status;
          continue;
        }
        EXPECT_EQ(status.code(), StatusCode::kDataLoss) << reader << ": " << status;
        EXPECT_NE(status.message().find("format version " + std::to_string(version)),
                  std::string::npos)
            << reader << ": " << status;
      }
    }
  }
}

// A header-size field within 4 of 2^64 must not wrap the readers' bounds check into
// reading or allocating past the file, even with every CRC resealed: each reader fails
// kDataLoss.
TEST_F(LoadEnv, HeaderSizeNearTwoToTheSixtyFourFailsDataLossThroughEveryReader) {
  ReaderMatrix readers(dir_);
  const auto outcomes = readers.Read([](const std::vector<uint8_t>& file) {
    return Patched(file, 12, ~uint64_t{0} - 1, /*reseal=*/true);
  });
  for (const auto& [reader, status] : outcomes) {
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << reader << ": " << status;
  }
}

// Offset of the first member's dtype byte: after the 20-byte prologue, the meta string, the
// entry count and the first member's name.
size_t FirstDtypeOffset(const std::vector<uint8_t>& file) {
  size_t at = 20;
  uint32_t meta_bytes = 0;
  std::memcpy(&meta_bytes, file.data() + at, sizeof(meta_bytes));
  at += 4 + meta_bytes + 4;
  uint32_t name_bytes = 0;
  std::memcpy(&name_bytes, file.data() + at, sizeof(name_bytes));
  return at + 4 + name_bytes;
}

// Payloads are f32 only: a dtype byte of 1 (bf16) or 2 (f16) fails every reader with
// kDataLoss. With the CRCs resealed over the edit, the message names the byte; without, a
// CRC check refuses the file first. Byte 0, resealed, is the control.
TEST_F(LoadEnv, HalfPrecisionDtypeByteFailsDataLossThroughEveryReader) {
  ReaderMatrix readers(dir_);
  for (uint8_t dtype : {uint8_t{0}, uint8_t{1}, uint8_t{2}}) {
    for (bool reseal : {true, false}) {
      if (dtype == 0 && !reseal) {
        continue;  // identical to the resealed control
      }
      SCOPED_TRACE("dtype byte " + std::to_string(dtype) + (reseal ? " resealed" : ""));
      const auto outcomes = readers.Read([&](const std::vector<uint8_t>& file) {
        EXPECT_EQ(file[FirstDtypeOffset(file)], 0);
        return Patched(file, FirstDtypeOffset(file), dtype, reseal);
      });
      for (const auto& [reader, status] : outcomes) {
        if (dtype == 0) {
          EXPECT_TRUE(status.ok()) << reader << ": " << status;
          continue;
        }
        EXPECT_EQ(status.code(), StatusCode::kDataLoss) << reader << ": " << status;
        if (reseal) {
          EXPECT_NE(status.message().find("dtype byte " + std::to_string(dtype)),
                    std::string::npos)
              << reader << ": " << status;
        }
      }
    }
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

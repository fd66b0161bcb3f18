// The Store abstraction and the ucp_serverd wire path, as properties:
//
//  1. Conformance: LocalStore and RemoteStore satisfy the same contract — staged
//     write/commit/read-back, uncommitted tags invisible, wholesale commit replacement,
//     job-scoped GC, idempotent delete — exercised by one parameterized suite.
//  2. Torn frames are rejected with a typed kDataLoss at the wire layer, and a server
//     that receives one closes the connection instead of misparsing the stream.
//  3. Transient socket errors (EINTR/EAGAIN/short transfers) are absorbed by the
//     IoRetryPolicy and surfaced in io.retry.*; they never fail a healthy exchange.
//  4. Admission control bounds in-flight staged bytes: a newcomer is rejected with
//     kUnavailable while the budget is held, and admitted once the holder commits.
//  5. A range read over a corrupted chunk fails kDataLoss on both backends (the daemon
//     verifies chunk CRCs server-side; the file views verify again client-side).
//  6. Kill-mid-save safety: a client that vanishes mid-stream or a daemon killed before
//     commit never yields a tag that resume/fsck would accept.
//  7. The sliced UCP loader is bit-exact over RemoteStore vs LocalStore across a
//     {TP}x{PP}x{DP} reconfiguration sweep.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/common/bytes.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/model/config.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/trainer.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/store/wire.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/converter.h"
#include "src/ucp/elastic.h"
#include "src/ucp/loader.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

std::string MetaJson(int64_t iteration) {
  CheckpointMeta meta;
  meta.model = TinyGpt();
  meta.strategy = ParallelConfig{1, 1, 1, 1, 0, 1};
  meta.iteration = iteration;
  meta.global_batch = 8;
  return meta.ToJson().Dump(2);
}

// ---------------------------------------------------------------------------
// Property 1: backend conformance. Every test below runs once against a
// LocalStore on a temp dir and once against a RemoteStore talking to an
// in-process daemon serving the same dir. The remote_leaseless row connects with
// lease_ttl_ms = 0: a session with release-on-disconnect semantics and no
// reconnect must satisfy the identical contract bit-exactly.
// ---------------------------------------------------------------------------

class StoreConformanceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = *MakeTempDir("store_conf");
    if (remote()) {
      StoreServerOptions options;
      options.root = dir_;
      options.listen = "unix:" + dir_ + ".sock";  // sibling path: keeps List("") clean
      Result<std::unique_ptr<StoreServer>> started =
          StoreServer::Start(std::move(options));
      ASSERT_TRUE(started.ok()) << started.status();
      server_ = std::move(*started);
      RemoteStoreOptions client;
      if (leaseless()) {
        client.lease_ttl_ms = 0;
      }
      Result<std::shared_ptr<RemoteStore>> opened =
          RemoteStore::Connect(server_->endpoint(), client);
      ASSERT_TRUE(opened.ok()) << opened.status();
      EXPECT_EQ((*opened)->lease_token().empty(), leaseless());
      store_ = *opened;
    } else {
      store_ = std::make_shared<LocalStore>(dir_);
    }
  }

  void TearDown() override {
    store_.reset();
    if (server_ != nullptr) {
      server_->Shutdown();
      server_.reset();
    }
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  bool remote() const { return std::string(GetParam()).rfind("remote", 0) == 0; }
  bool leaseless() const { return std::string(GetParam()) == "remote_leaseless"; }

  void CommitSimpleTag(const std::string& tag, int64_t iteration,
                       const std::string& file = "shard",
                       const std::string& payload = "payload") {
    ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
    Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->WriteFile(file, payload).ok());
    Status committed = store_->CommitTag(tag, MetaJson(iteration));
    ASSERT_TRUE(committed.ok()) << committed.ToString();
  }

  // Saves `run` at `iteration` through store_, on every rank.
  void SaveThroughStore(TrainingRun& run, int64_t iteration) {
    run.Run([&](RankTrainer& trainer) {
      Status saved = SaveDistributedCheckpoint(*store_, trainer, iteration);
      UCP_CHECK(saved.ok()) << saved.ToString();
    });
  }

  std::string dir_;
  std::unique_ptr<StoreServer> server_;
  std::shared_ptr<Store> store_;
};

TrainerConfig ReaderConfig(const ParallelConfig& strategy) {
  TrainerConfig config;
  config.model = TinyGpt();
  config.strategy = strategy;
  config.global_batch = 8;
  return config;
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreConformanceTest,
                         ::testing::Values("local", "remote", "remote_leaseless"),
                         [](const ::testing::TestParamInfo<const char*>& row) {
                           return std::string(row.param);
                         });

TEST_P(StoreConformanceTest, StagedCommitRoundTrip) {
  const std::string tag = "global_step1";
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ((*writer)->tag(), tag);

  // One small file and one file large enough to stream as several wire chunks.
  ASSERT_TRUE((*writer)->WriteFile("small", std::string("hello store")).ok());
  std::vector<uint8_t> big(3u * 1024 * 1024 + 7);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }
  ASSERT_TRUE((*writer)->WriteFile("big", big).ok());

  // Nothing is visible before commit.
  EXPECT_FALSE(IsTagComplete(*store_, tag));
  ASSERT_TRUE(store_->CommitTag(tag, MetaJson(1)).ok());
  EXPECT_TRUE(IsTagComplete(*store_, tag));

  Result<std::string> small = store_->ReadSmallFile(JoinRel(tag, "small"));
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(*small, "hello store");

  Result<std::unique_ptr<ByteSource>> source = store_->OpenRead(JoinRel(tag, "big"));
  ASSERT_TRUE(source.ok()) << source.status();
  EXPECT_EQ((*source)->size(), big.size());
  // Positional reads at the start, across the 1 MiB wire-chunk boundary, and the tail.
  for (uint64_t offset : {uint64_t{0}, uint64_t{(1u << 20) - 3}, uint64_t{big.size() - 9}}) {
    uint8_t buf[16] = {0};
    const size_t n = std::min<size_t>(sizeof(buf), big.size() - offset);
    ASSERT_TRUE((*source)->ReadAt(offset, buf, n).ok()) << offset;
    EXPECT_EQ(std::memcmp(buf, big.data() + offset, n), 0) << offset;
  }

  Result<std::vector<std::string>> entries = store_->List(tag);
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_NE(std::find(entries->begin(), entries->end(), "big"), entries->end());
  EXPECT_NE(std::find(entries->begin(), entries->end(), "small"), entries->end());
  EXPECT_NE(std::find(entries->begin(), entries->end(), "complete"), entries->end());

  Result<std::vector<std::string>> tags = store_->ListTags("");
  ASSERT_TRUE(tags.ok()) << tags.status();
  EXPECT_EQ(*tags, std::vector<std::string>{tag});
  Result<std::string> latest = ReadLatestTag(*store_);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(*latest, tag);
  Result<std::string> valid = FindLatestValidTag(*store_);
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ(*valid, tag);
  Result<CheckpointMeta> meta = ReadCheckpointMeta(*store_, tag);
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->iteration, 1);
}

TEST_P(StoreConformanceTest, UncommittedTagsAreInvisibleAndSweepable) {
  const std::string tag = "global_step5";
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string("half a save")).ok());
  writer->reset();

  EXPECT_FALSE(IsTagComplete(*store_, tag));
  EXPECT_EQ(FindLatestValidTag(*store_).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(ReadCheckpointMeta(*store_, tag).ok());

  // Abort drops the staging dir; a second abort of the now-absent staging is OK.
  ASSERT_TRUE(store_->AbortTag(tag).ok());
  ASSERT_TRUE(store_->AbortTag(tag).ok());
  Result<bool> staged = store_->Exists(tag + ".staging");
  ASSERT_TRUE(staged.ok());
  EXPECT_FALSE(*staged);

  // Fresh debris (a crashed save that never aborted) is picked up by the sweeper.
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<int> swept = store_->SweepStagingDebris("");
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_GE(*swept, 1);
}

TEST_P(StoreConformanceTest, CommitWholesaleReplacesPreviousCommit) {
  CommitSimpleTag("global_step2", 2, "old_shard", "v1");
  CommitSimpleTag("global_step2", 2, "new_shard", "v2");
  Result<std::vector<std::string>> entries = store_->List("global_step2");
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_NE(std::find(entries->begin(), entries->end(), "new_shard"), entries->end());
  EXPECT_EQ(std::find(entries->begin(), entries->end(), "old_shard"), entries->end());
}

TEST_P(StoreConformanceTest, GcIsJobScopedAndDryRunIsInert) {
  CommitSimpleTag("global_step1", 1);
  CommitSimpleTag("global_step2", 2);
  CommitSimpleTag("global_step3", 3);
  CommitSimpleTag("jobA.global_step7", 7);

  Result<GcReport> dry = store_->Gc("", 2, /*dry_run=*/true);
  ASSERT_TRUE(dry.ok()) << dry.status();
  EXPECT_EQ(dry->removed, std::vector<std::string>{"global_step1"});
  EXPECT_TRUE(IsTagComplete(*store_, "global_step1"));  // dry run deleted nothing

  Result<GcReport> wet = store_->Gc("", 2, /*dry_run=*/false);
  ASSERT_TRUE(wet.ok()) << wet.status();
  EXPECT_EQ(wet->removed, std::vector<std::string>{"global_step1"});
  EXPECT_FALSE(IsTagComplete(*store_, "global_step1"));
  EXPECT_TRUE(IsTagComplete(*store_, "global_step3"));
  // The sibling job's namespace was invisible to the sweep.
  EXPECT_TRUE(IsTagComplete(*store_, "jobA.global_step7"));
  Result<std::vector<std::string>> job_tags = store_->ListTags("jobA");
  ASSERT_TRUE(job_tags.ok());
  EXPECT_EQ(*job_tags, std::vector<std::string>{"jobA.global_step7"});
}

TEST_P(StoreConformanceTest, DeleteTagIsIdempotent) {
  CommitSimpleTag("global_step4", 4);
  ASSERT_TRUE(store_->DeleteTag("global_step4").ok());
  Result<bool> exists = store_->Exists("global_step4");
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists);
  ASSERT_TRUE(store_->DeleteTag("global_step4").ok());
}

// Property 5: a range read that touches a corrupted chunk is a typed kDataLoss through
// either backend; ranges that avoid the chunk still read clean.
TEST_P(StoreConformanceTest, RangeReadOverCorruptChunkIsTypedDataLoss) {
  // 256x320 fp32 = 327680 payload bytes = 5 chunks of 64 KiB.
  Tensor t = Tensor::Zeros({256, 320});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i % 977) * 0.5f;
  }
  TensorBundle bundle;
  bundle.Add("t", t);
  Result<std::vector<uint8_t>> bytes = SerializeBundle(bundle);
  ASSERT_TRUE(bytes.ok()) << bytes.status();

  const std::string tag = "global_step9";
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WriteFile("t", *bytes).ok());
  ASSERT_TRUE(store_->CommitTag(tag, MetaJson(9)).ok());

  // Flip one byte inside chunk 2, directly on the disk both backends bottom out in. The one
  // member's payload starts where the header ends.
  const std::string path = PathJoin(dir_, PathJoin(tag, "t"));
  std::string raw = *ReadFileToString(path);
  uint64_t header_bytes = 0;
  std::memcpy(&header_bytes, raw.data() + 12, sizeof(header_bytes));
  raw[header_bytes + 2 * 65536 + 123] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());

  Result<std::unique_ptr<ByteSource>> source = store_->OpenRead(JoinRel(tag, "t"));
  ASSERT_TRUE(source.ok()) << source.status();
  Result<BundleFileView> view = BundleFileView::Open(std::move(*source));
  ASSERT_TRUE(view.ok()) << view.status();
  // Rows [0, 50) live in chunk 0 — clean and bit-exact.
  Tensor head = Tensor::Zeros({50, 320});
  ASSERT_TRUE(view->ReadTensorElements(0, 0, head.numel(), head.data()).ok());
  EXPECT_TRUE(Tensor::BitEqual(head, t.Narrow(0, 0, 50)));
  // Rows [100, 120) straddle the corrupted chunk 2.
  Tensor straddle = Tensor::Zeros({20, 320});
  EXPECT_EQ(view->ReadTensorElements(0, 100 * 320, straddle.numel(), straddle.data()).code(),
            StatusCode::kDataLoss);
}

// The checkpoint readers on every backend: the native load, the conversion's source side and
// native validation open every file through the Store they are given.
TEST_P(StoreConformanceTest, NativeLoadThroughStoreResumesBitExact) {
  const TrainerConfig config = ReaderConfig({1, 1, 2, 1, 1, 1});
  TrainingRun source(config);
  source.Train(1, 2);
  SaveThroughStore(source, 2);
  const std::vector<double> expected = source.Train(3, 4);

  TrainingRun resumed(config);
  resumed.Run([&](RankTrainer& trainer) {
    Status loaded = LoadDistributedCheckpoint(*store_, "global_step2", trainer);
    UCP_CHECK(loaded.ok()) << loaded.ToString();
  });
  EXPECT_EQ(resumed.Train(3, 4), expected);
  for (int r = 0; r < source.world_size(); ++r) {
    const ZeroOptimizer& a = resumed.trainer(r).optimizer();
    const ZeroOptimizer& b = source.trainer(r).optimizer();
    EXPECT_TRUE(Tensor::BitEqual(a.MasterState(), b.MasterState())) << "rank " << r;
    EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgState(), b.ExpAvgState())) << "rank " << r;
    EXPECT_TRUE(Tensor::BitEqual(a.ExpAvgSqState(), b.ExpAvgSqState())) << "rank " << r;
  }

  // Another strategy is refused on every rank, never remapped.
  TrainingRun other(ReaderConfig({2, 1, 1, 1, 0, 1}));
  std::vector<Status> statuses(static_cast<size_t>(other.world_size()));
  other.Run([&](RankTrainer& trainer) {
    statuses[static_cast<size_t>(trainer.rank())] =
        LoadDistributedCheckpoint(*store_, "global_step2", trainer);
  });
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  }
}

TEST_P(StoreConformanceTest, ConvertThroughStoreWritesTheDirFormsAtoms) {
  const ParallelConfig strategy{2, 1, 2, 1, 1, 1};
  TrainingRun source(ReaderConfig(strategy));
  source.Train(1, 2);
  SaveThroughStore(source, 2);

  // The atoms land in local directories outside the store.
  const std::string out = *MakeTempDir("store_conv");
  const std::string via_store = PathJoin(out, "via_store");
  const std::string via_dir = PathJoin(out, "via_dir");
  Result<ConvertStats> a = ConvertToUcp(*store_, "global_step2", via_store);
  ASSERT_TRUE(a.ok()) << a.status();
  Result<ConvertStats> b = ConvertToUcp(dir_, "global_step2", via_dir);
  ASSERT_TRUE(b.ok()) << b.status();

  // bytes_read is the size of every shard file Extract opened: all of them under ZeRO-1.
  int64_t shard_bytes = 0;
  for (int tp = 0; tp < strategy.tp; ++tp) {
    for (int dp = 0; dp < strategy.dp; ++dp) {
      shard_bytes += static_cast<int64_t>(
          *FileSize(PathJoin(PathJoin(dir_, "global_step2"), OptimStatesFileName(dp, tp, 0, 0))));
    }
  }
  EXPECT_EQ(a->bytes_read, shard_bytes);
  EXPECT_EQ(b->bytes_read, shard_bytes);
  EXPECT_EQ(a->bytes_written, b->bytes_written);
  EXPECT_EQ(a->atoms_written, b->atoms_written);

  LocalStore converted(via_store);
  Result<UcpMeta> meta = ReadUcpMeta(converted, "");
  ASSERT_TRUE(meta.ok()) << meta.status();
  ASSERT_FALSE(meta->atom_names.empty());
  for (const std::string& name : meta->atom_names) {
    Result<std::string> x = ReadFileToString(AtomPath(via_store, name));
    Result<std::string> y = ReadFileToString(AtomPath(via_dir, name));
    ASSERT_TRUE(x.ok() && y.ok()) << name;
    EXPECT_TRUE(*x == *y) << name << " differs";
  }
  ASSERT_TRUE(RemoveAll(out).ok());
}

TEST_P(StoreConformanceTest, ValidateNativeThroughStoreReportsFlippedByteAndMissingShard) {
  TrainingRun source(ReaderConfig({1, 1, 2, 1, 1, 1}));
  source.Train(1, 2);
  SaveThroughStore(source, 2);
  const std::string tag = "global_step2";
  Result<ValidationReport> clean = ValidateNativeCheckpoint(*store_, tag);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_TRUE(clean->ok()) << clean->ToString();
  EXPECT_EQ(clean->files_checked, 2);

  // Flip the first payload byte of DP rank 0's shard, and delete DP rank 1's, on disk
  // under the store's root.
  const std::string flipped = OptimStatesFileName(0, 0, 0, 0);
  const std::string path = PathJoin(PathJoin(dir_, tag), flipped);
  uint64_t payload_begin = 0;
  {
    Result<std::unique_ptr<ByteSource>> file = FileByteSource::Open(path);
    ASSERT_TRUE(file.ok()) << file.status();
    Result<std::optional<FileChunkIndex>> index = ReadFileChunkIndex(**file);
    ASSERT_TRUE(index.ok() && index->has_value()) << index.status();
    payload_begin = (**index).regions.front().begin;
  }
  std::string bytes = *ReadFileToString(path);
  bytes[payload_begin] = static_cast<char>(bytes[payload_begin] ^ 0x5a);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  const std::string deleted = OptimStatesFileName(1, 0, 0, 0);
  ASSERT_TRUE(RemoveAll(PathJoin(PathJoin(dir_, tag), deleted)).ok());

  Result<ValidationReport> damaged = ValidateNativeCheckpoint(*store_, tag);
  ASSERT_TRUE(damaged.ok()) << damaged.status();
  ASSERT_EQ(damaged->problems.size(), 2u) << damaged->ToString();
  EXPECT_EQ(damaged->problems[0].rfind(JoinRel(tag, flipped) + ": DATA_LOSS", 0), 0u)
      << damaged->problems[0];
  EXPECT_EQ(damaged->problems[1], "missing file: " + JoinRel(tag, deleted));
}

// The daemon's own READ_RANGE check, seen through a raw ByteSource read that no client-side
// view re-verifies: a corrupted chunk never ships, whether the range covers it exactly or only
// its last bytes. Remote rows only; a local ByteSource is the file itself.
class RemoteRangeVerifyTest : public StoreConformanceTest {};

INSTANTIATE_TEST_SUITE_P(RemoteBackends, RemoteRangeVerifyTest,
                         ::testing::Values("remote", "remote_leaseless"),
                         [](const ::testing::TestParamInfo<const char*>& row) {
                           return std::string(row.param);
                         });

TEST_P(RemoteRangeVerifyTest, RawReadOverCorruptChunkIsRefusedByTheDaemon) {
  // 256x320 fp32 = 327680 payload bytes = 5 chunks of 64 KiB.
  constexpr uint64_t kChunk = 65536;
  Tensor t = Tensor::Zeros({256, 320});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(i % 977) * 0.5f;
  }
  TensorBundle bundle;
  bundle.Add("t", t);
  Result<std::vector<uint8_t>> bytes = SerializeBundle(bundle);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const std::string tag = "global_step9";
  ASSERT_TRUE(store_->ResetTagStaging(tag).ok());
  Result<std::unique_ptr<StoreWriter>> writer = store_->OpenTagForWrite(tag);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WriteFile("t", *bytes).ok());
  ASSERT_TRUE(store_->CommitTag(tag, MetaJson(9)).ok());

  const std::string path = PathJoin(dir_, PathJoin(tag, "t"));
  std::string raw = *ReadFileToString(path);
  uint64_t header_bytes = 0;
  std::memcpy(&header_bytes, raw.data() + 12, sizeof(header_bytes));
  const uint64_t chunk2 = header_bytes + 2 * kChunk;
  raw[chunk2 + 123] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());

  Result<std::unique_ptr<ByteSource>> source = store_->OpenRead(JoinRel(tag, "t"));
  ASSERT_TRUE(source.ok()) << source.status();
  const obs::Counter& failures =
      obs::MetricsRegistry::Global().GetCounter("store.server.chunk_crc_failures");
  std::vector<uint8_t> buf(kChunk);

  const uint64_t before = failures.Value();
  Status exact = (*source)->ReadAt(chunk2, buf.data(), kChunk);
  EXPECT_EQ(exact.code(), StatusCode::kDataLoss) << exact;
  EXPECT_EQ(failures.Value(), before + 1);
  Status tail = (*source)->ReadAt(chunk2 + kChunk - 100, buf.data(), 100);
  EXPECT_EQ(tail.code(), StatusCode::kDataLoss) << tail;
  EXPECT_EQ(failures.Value(), before + 2);

  // The clean neighbours on either side still read, bit-exact, on the same handle.
  for (uint64_t chunk_begin : {chunk2 - kChunk, chunk2 + kChunk}) {
    Status clean = (*source)->ReadAt(chunk_begin, buf.data(), kChunk);
    ASSERT_TRUE(clean.ok()) << clean;
    EXPECT_EQ(std::memcmp(buf.data(), raw.data() + chunk_begin, kChunk), 0);
  }
  EXPECT_EQ(failures.Value(), before + 2);
}

// ---------------------------------------------------------------------------
// Property 2: torn frames.
// ---------------------------------------------------------------------------

void PutU32Le(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<uint8_t>((v >> 24) & 0xff));
}

std::vector<uint8_t> RawFrame(uint32_t magic, uint8_t type, uint32_t len,
                              const std::string& payload, uint32_t crc) {
  std::vector<uint8_t> out;
  PutU32Le(out, magic);
  out.push_back(type);
  PutU32Le(out, len);
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32Le(out, crc);
  return out;
}

TEST(WireTest, TornFramesAreTypedDataLoss) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  // A well-formed frame round-trips.
  const std::string payload = "abcd";
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kPing, payload.data(), payload.size()).ok());
  Result<WireFrame> good = RecvFrame(fds[1]);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->op, WireOp::kPing);
  ASSERT_EQ(good->payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(good->payload.data(), payload.data(), payload.size()), 0);

  // Same frame with a wrong CRC: torn.
  std::vector<uint8_t> bad_crc = RawFrame(
      kWireMagic, static_cast<uint8_t>(WireOp::kPing), 4, payload, 0xDEADBEEFu);
  ASSERT_EQ(::write(fds[0], bad_crc.data(), bad_crc.size()),
            static_cast<ssize_t>(bad_crc.size()));
  EXPECT_EQ(RecvFrame(fds[1]).status().code(), StatusCode::kDataLoss);

  // Bad magic.
  int more[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, more), 0);
  std::vector<uint8_t> bad_magic = RawFrame(
      0x12345678u, static_cast<uint8_t>(WireOp::kPing), 4, payload, 0u);
  ASSERT_EQ(::write(more[0], bad_magic.data(), bad_magic.size()),
            static_cast<ssize_t>(bad_magic.size()));
  EXPECT_EQ(RecvFrame(more[1]).status().code(), StatusCode::kDataLoss);

  // A length beyond the frame bound is rejected before any allocation that size.
  int oversized[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, oversized), 0);
  std::vector<uint8_t> too_big = RawFrame(
      kWireMagic, static_cast<uint8_t>(WireOp::kPing), kMaxFramePayload + 1, "", 0u);
  ASSERT_EQ(::write(oversized[0], too_big.data(), too_big.size()),
            static_cast<ssize_t>(too_big.size()));
  EXPECT_EQ(RecvFrame(oversized[1]).status().code(), StatusCode::kDataLoss);

  for (int fd : {fds[0], fds[1], more[0], more[1], oversized[0], oversized[1]}) {
    ::close(fd);
  }
}

// ---------------------------------------------------------------------------
// Remote-only properties: a live in-process daemon.
// ---------------------------------------------------------------------------

class StoreServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = *MakeTempDir("store_srv");
    local_ = std::make_unique<LocalStore>(dir_);
    StoreServerOptions options;
    options.root = dir_;
    options.listen = "unix:" + dir_ + ".sock";
    StartServer(std::move(options));
  }

  void StartServer(StoreServerOptions options) {
    Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(std::move(options));
    ASSERT_TRUE(started.ok()) << started.status();
    server_ = std::move(*started);
  }

  void TearDown() override {
    ClearSocketFaults();
    if (server_ != nullptr) {
      server_->Shutdown();
    }
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::shared_ptr<RemoteStore> Connect() { return Connect(RemoteStoreOptions{}); }

  std::shared_ptr<RemoteStore> Connect(const RemoteStoreOptions& options) {
    Result<std::shared_ptr<RemoteStore>> store =
        RemoteStore::Connect(server_->endpoint(), options);
    UCP_CHECK(store.ok()) << store.status();
    return *store;
  }

  std::string dir_;
  std::unique_ptr<LocalStore> local_;  // the daemon's root, read directly
  std::unique_ptr<StoreServer> server_;
};

// A server that receives a torn frame closes the connection rather than resynchronize a
// stream whose framing is lost.
TEST_F(StoreServerTest, ServerClosesConnectionOnTornFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serve([&] { server_->ServeConnectionForTest(fds[1]); });

  std::vector<uint8_t> hello;
  PutU32Le(hello, kWireVersion);
  PutU32Le(hello, kWireVersion);
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kHello, hello).ok());
  Result<WireFrame> ok = RecvFrame(fds[0]);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->op, WireOp::kHelloOk);

  const uint64_t crc_errors_before = CounterValue("store.server.frame_crc_errors");
  std::vector<uint8_t> torn = RawFrame(
      kWireMagic, static_cast<uint8_t>(WireOp::kPing), 4, "abcd", 0xDEADBEEFu);
  ASSERT_EQ(::write(fds[0], torn.data(), torn.size()), static_cast<ssize_t>(torn.size()));

  // The server sends one best-effort typed error frame, then hangs up: the read after it
  // sees EOF (kUnavailable), never a reply to the torn request.
  Result<WireFrame> err = RecvFrame(fds[0]);
  ASSERT_TRUE(err.ok()) << err.status();
  EXPECT_EQ(err->op, WireOp::kError);
  EXPECT_EQ(RecvFrame(fds[0]).status().code(), StatusCode::kUnavailable);
  serve.join();
  EXPECT_GT(CounterValue("store.server.frame_crc_errors"), crc_errors_before);
  ::close(fds[0]);
}

// A client whose supported version window misses the server's, above it or below it, fails
// closed with a typed kFailedPrecondition error frame instead of misparsing later exchanges.
TEST_F(StoreServerTest, VersionMismatchFailsClosed) {
  const std::pair<uint32_t, uint32_t> windows[] = {{kWireVersion + 7, kWireVersion + 9},
                                                   {1, kWireVersion - 1}};
  for (const auto& [min_version, max_version] : windows) {
    SCOPED_TRACE("[" + std::to_string(min_version) + ", " + std::to_string(max_version) + "]");
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread serve([&] { server_->ServeConnectionForTest(fds[1]); });

    std::vector<uint8_t> hello;
    PutU32Le(hello, min_version);
    PutU32Le(hello, max_version);
    ASSERT_TRUE(SendFrame(fds[0], WireOp::kHello, hello).ok());
    Result<WireFrame> reply = RecvFrame(fds[0]);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->op, WireOp::kError);
    ASSERT_FALSE(reply->payload.empty());
    EXPECT_EQ(reply->payload[0], static_cast<uint8_t>(StatusCode::kFailedPrecondition));
    serve.join();
    ::close(fds[0]);
  }
}

// The retired chunk-dedup ops (request types 19 and 20) get the typed "unknown wire op"
// reply, and the session keeps serving afterwards.
TEST_F(StoreServerTest, RetiredChunkOpsAreUnknownAndTheSessionSurvives) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serve([&] { server_->ServeConnectionForTest(fds[1]); });

  std::vector<uint8_t> hello;
  PutU32Le(hello, kWireVersion);
  PutU32Le(hello, kWireVersion);
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kHello, hello).ok());
  Result<WireFrame> ok = RecvFrame(fds[0]);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->op, WireOp::kHelloOk);

  for (uint8_t op : {19, 20}) {
    ASSERT_TRUE(SendFrame(fds[0], static_cast<WireOp>(op), std::vector<uint8_t>(8)).ok());
    Result<WireFrame> reply = RecvFrame(fds[0]);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->op, WireOp::kError) << "op " << int{op};
    ByteReader r(reply->payload.data(), reply->payload.size());
    Result<uint8_t> code = r.GetU8();
    Result<std::string> message = r.GetString();
    ASSERT_TRUE(message.ok()) << message.status();
    EXPECT_EQ(static_cast<StatusCode>(*code), StatusCode::kUnimplemented) << *message;
    EXPECT_NE(message->find("unknown wire op"), std::string::npos) << *message;
  }
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kPing, std::vector<uint8_t>()).ok());
  Result<WireFrame> pong = RecvFrame(fds[0]);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->op, WireOp::kOk);
  ::close(fds[0]);
  serve.join();
}

// Property 3: transient socket errors on either side of an exchange are retried, counted
// in io.retry.*, and invisible to the caller.
TEST_F(StoreServerTest, TransientSocketErrorsAreRetriedNotFatal) {
  std::shared_ptr<RemoteStore> store = Connect();
  const uint64_t retries_before = CounterValue("io.retry.retries");
  const uint64_t transient_before = CounterValue("io.retry.transient_errors");
  const uint64_t giveups_before = CounterValue("io.retry.giveups");

  const SocketFault::Op ops[] = {SocketFault::Op::kSend, SocketFault::Op::kRecv};
  const SocketFault::Kind kinds[] = {SocketFault::Kind::kEintr, SocketFault::Kind::kEagain,
                                     SocketFault::Kind::kShort};
  int injected = 0;
  for (SocketFault::Op op : ops) {
    for (SocketFault::Kind kind : kinds) {
      SocketFault fault;
      fault.op = op;
      fault.kind = kind;
      fault.nth = 0;
      ArmSocketFault(fault);
      Status ping = store->Ping();
      EXPECT_TRUE(ping.ok()) << ping.ToString();
      // A short transfer is partial progress, not an error: only the EINTR/EAGAIN arms
      // count toward io.retry.transient_errors.
      if (kind != SocketFault::Kind::kShort) {
        ++injected;
      }
    }
  }
  ClearSocketFaults();

  EXPECT_GE(CounterValue("io.retry.transient_errors") - transient_before,
            static_cast<uint64_t>(injected));
  EXPECT_GT(CounterValue("io.retry.retries"), retries_before);
  EXPECT_EQ(CounterValue("io.retry.giveups"), giveups_before);
}

// Property 4: the staged-bytes budget rejects a newcomer while held and admits it after
// the holder commits — backpressure, not deadlock.
TEST_F(StoreServerTest, AdmissionControlRejectsThenAdmits) {
  server_->Shutdown();
  StoreServerOptions options;
  options.root = dir_;
  options.listen = "unix:" + dir_ + ".sock";
  options.max_staged_bytes = 64 * 1024;
  StartServer(std::move(options));

  std::shared_ptr<RemoteStore> first = Connect();
  std::shared_ptr<RemoteStore> second = Connect();
  const std::string blob(60 * 1024, 'x');

  ASSERT_TRUE(first->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> w1 = first->OpenTagForWrite("global_step1");
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE((*w1)->WriteFile("shard", blob).ok());
  EXPECT_EQ(server_->staged_bytes(), blob.size());

  // The budget is held by the first session; the second is turned away (after its
  // bounded client-side retries) with kUnavailable.
  const uint64_t rejects_before = CounterValue("store.server.admission_rejects");
  ASSERT_TRUE(second->ResetTagStaging("global_step2").ok());
  Result<std::unique_ptr<StoreWriter>> w2 = second->OpenTagForWrite("global_step2");
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ((*w2)->WriteFile("shard", blob).code(), StatusCode::kUnavailable);
  EXPECT_GT(CounterValue("store.server.admission_rejects"), rejects_before);

  // Commit releases the budget; the same write now goes through and commits.
  ASSERT_TRUE(first->CommitTag("global_step1", MetaJson(1)).ok());
  EXPECT_EQ(server_->staged_bytes(), 0u);
  ASSERT_TRUE((*w2)->WriteFile("shard", blob).ok());
  ASSERT_TRUE(second->CommitTag("global_step2", MetaJson(2)).ok());
  EXPECT_TRUE(IsTagComplete(*local_, "global_step2"));
}

// Property 4b: the declared WRITE_BEGIN size is untrusted input. A hostile u64 (here
// 2^63) must be rejected with a typed error before the server sizes any buffer from it —
// never an uncaught std::length_error that takes the daemon (and every other job's
// checkpoint service) down with it.
TEST_F(StoreServerTest, HostileWriteBeginTotalIsRejectedNotFatal) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serve([&] { server_->ServeConnectionForTest(fds[1]); });

  std::vector<uint8_t> hello;
  PutU32Le(hello, kWireVersion);
  PutU32Le(hello, kWireVersion);
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kHello, hello).ok());
  Result<WireFrame> ok = RecvFrame(fds[0]);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_EQ(ok->op, WireOp::kHelloOk);

  ByteWriter begin;
  begin.PutString("global_step1");
  begin.PutString("shard");
  begin.PutU64(uint64_t{1} << 63);
  begin.PutU64(0);  // resume offset: a fresh write
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kWriteBegin, begin.buffer()).ok());
  Result<WireFrame> reply = RecvFrame(fds[0]);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->op, WireOp::kError);
  ASSERT_FALSE(reply->payload.empty());
  EXPECT_EQ(reply->payload[0], static_cast<uint8_t>(StatusCode::kFailedPrecondition));
  EXPECT_EQ(server_->staged_bytes(), 0u);

  // The connection (and the daemon) survive: the next request on the same session works.
  ASSERT_TRUE(SendFrame(fds[0], WireOp::kPing, nullptr, 0).ok());
  Result<WireFrame> pong = RecvFrame(fds[0]);
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_EQ(pong->op, WireOp::kOk);

  ::close(fds[0]);
  serve.join();
}

// Property 4c: an honest file bigger than the whole staging budget fails typed and fast
// (kFailedPrecondition — "raise --max-staged-bytes"), not kUnavailable: the client must
// surface it instead of burning its retry budget on a request that can never be admitted.
TEST_F(StoreServerTest, WriteLargerThanBudgetFailsTypedWithoutRetry) {
  server_->Shutdown();
  StoreServerOptions options;
  options.root = dir_;
  options.listen = "unix:" + dir_ + ".sock";
  options.max_staged_bytes = 64 * 1024;
  StartServer(std::move(options));

  std::shared_ptr<RemoteStore> store = Connect();
  const uint64_t retries_before = CounterValue("io.retry.retries");
  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ((*writer)->WriteFile("shard", std::string(80 * 1024, 'x')).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(CounterValue("io.retry.retries"), retries_before);
  EXPECT_EQ(server_->staged_bytes(), 0u);

  // Within-budget saves on the same connection still go through.
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string(16 * 1024, 'y')).ok());
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());
  EXPECT_TRUE(IsTagComplete(*local_, "global_step1"));
}

// Property 4d: staged bytes are attributed per (session, tag). With two async saves
// multiplexed over one connection, save N+1's ResetTagStaging (or either commit) must
// release only its own tag's budget — never save N's still-staged bytes.
TEST_F(StoreServerTest, ResetReleasesOnlyThatTagsStagedBytes) {
  std::shared_ptr<RemoteStore> store = Connect();
  const std::string a(8 * 1024, 'a');
  const std::string b(16 * 1024, 'b');

  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> w1 = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE((*w1)->WriteFile("shard", a).ok());
  EXPECT_EQ(server_->staged_bytes(), a.size());

  // Save 2 begins while save 1 is still staged: its reset must not free save 1's budget.
  ASSERT_TRUE(store->ResetTagStaging("global_step2").ok());
  EXPECT_EQ(server_->staged_bytes(), a.size());
  Result<std::unique_ptr<StoreWriter>> w2 = store->OpenTagForWrite("global_step2");
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE((*w2)->WriteFile("shard", b).ok());
  EXPECT_EQ(server_->staged_bytes(), a.size() + b.size());

  // Each commit releases exactly its own tag's bytes.
  ASSERT_TRUE(store->CommitTag("global_step2", MetaJson(2)).ok());
  EXPECT_EQ(server_->staged_bytes(), a.size());
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());
  EXPECT_EQ(server_->staged_bytes(), 0u);
}

// A READ_RANGE whose offset+len wraps around u64 is the bounds check's kOutOfRange, not
// a short-read kDataLoss from the underlying pread.
TEST_F(StoreServerTest, ReadRangeOverflowingOffsetIsTypedOutOfRange) {
  std::shared_ptr<RemoteStore> store = Connect();
  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string("0123456789")).ok());
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());

  Result<std::unique_ptr<ByteSource>> source =
      store->OpenRead(JoinRel("global_step1", "shard"));
  ASSERT_TRUE(source.ok()) << source.status();
  uint8_t buf[16] = {0};
  EXPECT_EQ((*source)
                ->ReadAt(std::numeric_limits<uint64_t>::max() - 4, buf, sizeof(buf))
                .code(),
            StatusCode::kOutOfRange);
  // The handle is still good for in-range reads.
  ASSERT_TRUE((*source)->ReadAt(2, buf, 3).ok());
  EXPECT_EQ(std::memcmp(buf, "234", 3), 0);
}

// A long-lived daemon serving many short-lived connections (the multi-job
// reconnect-per-phase pattern) must join finished session threads as it goes, not hoard
// one zombie thread stack per past connection until shutdown.
TEST_F(StoreServerTest, FinishedConnectionThreadsAreReaped) {
  for (int i = 0; i < 8; ++i) {
    std::shared_ptr<RemoteStore> store = Connect();
    ASSERT_TRUE(store->Ping().ok());
  }
  for (int i = 0; i < 100 && server_->active_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Each new accept reaps previously finished threads, so the tracked handle count
  // converges to at most the one most-recent connection, not the connection history.
  size_t tracked = server_->session_thread_count();
  for (int i = 0; i < 100 && tracked > 1; ++i) {
    std::shared_ptr<RemoteStore> probe = Connect();
    ASSERT_TRUE(probe->Ping().ok());
    probe.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tracked = server_->session_thread_count();
  }
  EXPECT_LE(tracked, 1u);
}

// Property 6a: a client that vanishes mid-save leaves no visible tag, the server releases
// its admission budget, and the next client saves normally. The doomed client runs
// lease-less (ttl 0): these are the release-on-disconnect semantics every client without
// a lease gets. A *leased* client's staged state instead survives to
// lease expiry — that arm lives in chaos_test.cc.
TEST_F(StoreServerTest, ClientCrashMidSaveLeavesNoVisibleTag) {
  RemoteStoreOptions no_lease;
  no_lease.lease_ttl_ms = 0;
  std::shared_ptr<RemoteStore> doomed = Connect(no_lease);
  ASSERT_TRUE(doomed->ResetTagStaging("global_step3").ok());
  Result<std::unique_ptr<StoreWriter>> writer = doomed->OpenTagForWrite("global_step3");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string(128 * 1024, 'y')).ok());
  doomed->CloseForTest();  // the "client crashed before commit" arm

  // The server notices the hangup, drops the session, and releases its staged bytes.
  for (int i = 0; i < 100 && server_->staged_bytes() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server_->staged_bytes(), 0u);
  EXPECT_FALSE(IsTagComplete(*local_, "global_step3"));
  EXPECT_EQ(FindLatestValidTag(*local_).status().code(), StatusCode::kNotFound);

  std::shared_ptr<RemoteStore> next = Connect();
  ASSERT_TRUE(next->ResetTagStaging("global_step3").ok());
  Result<std::unique_ptr<StoreWriter>> retry = next->OpenTagForWrite("global_step3");
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE((*retry)->WriteFile("shard", std::string("fresh")).ok());
  ASSERT_TRUE(next->CommitTag("global_step3", MetaJson(3)).ok());
  EXPECT_TRUE(IsTagComplete(*local_, "global_step3"));
}

// Errno-mapping regressions: every connection-level errno the injector can raise must
// surface as a typed kUnavailable (the code the engine treats as skip-and-retry and the
// reconnect machinery treats as redialable) — never an untyped kIoError. Reconnect is off
// so the raw transport error reaches the caller instead of being healed.
class SocketErrnoTest : public StoreServerTest,
                        public ::testing::WithParamInterface<SocketFault::Kind> {};

TEST_P(SocketErrnoTest, SendSideErrnoIsTypedUnavailable) {
  RemoteStoreOptions options;
  options.reconnect = false;
  std::shared_ptr<RemoteStore> store = Connect(options);
  ArmSocketFault({SocketFault::Op::kSend, GetParam(), 0});
  EXPECT_EQ(store->Ping().code(), StatusCode::kUnavailable);
  ClearSocketFaults();
}

TEST_P(SocketErrnoTest, RecvSideErrnoIsTypedUnavailable) {
  RemoteStoreOptions options;
  options.reconnect = false;
  std::shared_ptr<RemoteStore> store = Connect(options);
  ArmSocketFault({SocketFault::Op::kRecv, GetParam(), 0});
  EXPECT_EQ(store->Ping().code(), StatusCode::kUnavailable);
  ClearSocketFaults();
}

INSTANTIATE_TEST_SUITE_P(DropErrnos, SocketErrnoTest,
                         ::testing::Values(SocketFault::Kind::kEpipe,
                                           SocketFault::Kind::kEconnreset,
                                           SocketFault::Kind::kEtimedout),
                         [](const ::testing::TestParamInfo<SocketFault::Kind>& row) {
                           switch (row.param) {
                             case SocketFault::Kind::kEpipe: return std::string("epipe");
                             case SocketFault::Kind::kEconnreset:
                               return std::string("econnreset");
                             default: return std::string("etimedout");
                           }
                         });

// The mapping itself, pinned per errno (the injection tests above can observe the drop as
// a peer EOF instead of the raw errno when the in-process server consumes the fault).
TEST(WireErrnoTest, ConnectionErrnosMapToUnavailable) {
  for (int err : {EPIPE, ECONNRESET, ETIMEDOUT, ECONNREFUSED, ECONNABORTED, ENOTCONN}) {
    EXPECT_EQ(StatusFromSocketErrno("socket recv", err).code(), StatusCode::kUnavailable)
        << err;
  }
  for (int err : {EIO, EBADF, EINVAL}) {
    EXPECT_EQ(StatusFromSocketErrno("socket send", err).code(), StatusCode::kIoError) << err;
  }
}

// Property 6b (the acceptance gate): killing the daemon mid-save never leaves a tag that
// fsck or ResumeElastic accepts; resume lands on the last committed save.
TEST_F(StoreServerTest, DaemonKillMidSaveNeverLeavesAcceptedTag) {
  // A real save through the daemon first: the sync save path over RemoteStore.
  TrainerConfig config;
  config.model = TinyGpt();
  config.strategy = ParallelConfig{1, 1, 1, 1, 0, 1};
  config.global_batch = 8;
  {
    std::shared_ptr<RemoteStore> store = Connect();
    TrainingRun run(config);
    run.Train(1, 2);
    run.Run([&](RankTrainer& trainer) {
      Status saved = SaveDistributedCheckpoint(*store, trainer, 2);
      UCP_CHECK(saved.ok()) << saved.ToString();
    });
  }
  ASSERT_TRUE(IsTagComplete(*local_, "global_step2"));

  // Stage the next save and kill the daemon (no drain) before it commits. A short
  // reconnect deadline keeps the commit's (correct) redial attempts against the
  // permanently-dead daemon from stalling the test.
  RemoteStoreOptions short_deadline;
  short_deadline.reconnect_deadline = std::chrono::milliseconds(200);
  std::shared_ptr<RemoteStore> store = Connect(short_deadline);
  ASSERT_TRUE(store->ResetTagStaging("global_step3").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step3");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string(64 * 1024, 'z')).ok());
  server_->Shutdown(/*drain=*/false);
  EXPECT_FALSE(store->CommitTag("global_step3", MetaJson(3)).ok());

  // The interrupted tag is invisible to every acceptance path.
  EXPECT_FALSE(IsTagComplete(*local_, "global_step3"));
  Result<std::string> valid = FindLatestValidTag(*local_);
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ(*valid, "global_step2");
  Result<FsckReport> fsck = Fsck(dir_, /*quarantine=*/false);
  ASSERT_TRUE(fsck.ok()) << fsck.status();

  TrainingRun resumed(config);
  resumed.Run([&](RankTrainer& trainer) {
    Result<ResumeReport> report = ResumeElastic(dir_, trainer);
    UCP_CHECK(report.ok()) << report.status();
    UCP_CHECK(report->tag == "global_step2") << report->tag;
    UCP_CHECK(report->iteration == 2) << report->iteration;
  });
}

// ---------------------------------------------------------------------------
// Wire observability: distributed trace-context propagation, per-RPC
// latency/bytes histograms, METRICS_DUMP, and the HTTP exposition.
// ---------------------------------------------------------------------------

uint64_t HistogramCount(const std::string& name) {
  for (const obs::MetricValue& m : obs::SnapshotMetrics()) {
    if (m.name == name) {
      return m.count;
    }
  }
  return 0;
}

// One-shot HTTP GET against the daemon's --http listener (HttpLoop answers a single
// request per connection and closes).
std::string HttpGet(const std::string& endpoint, const std::string& target) {
  Result<Endpoint> ep = ParseEndpoint(endpoint);
  if (!ep.ok()) {
    return std::string();
  }
  Result<int> fd = DialEndpoint(*ep);
  if (!fd.ok()) {
    return std::string();
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(*fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(*fd);
      return std::string();
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(*fd);
  return response;
}

// A string arg ("trace_id", "op", "tag", ...) from an exported trace event.
std::string TraceArg(const Json& event, const char* key) {
  if (!event.Has("args")) {
    return std::string();
  }
  Result<std::string> v = event.AsObject().at("args").GetString(key);
  return v.ok() ? *v : std::string();
}

// The tentpole property: a client ships (trace_id, span_id) ahead of each traced
// request, and the daemon's handling span parents under the client RPC span and is
// attributed to (session, lease, tag).
TEST_F(StoreServerTest, TraceContextParentsServerSpansUnderClientRpc) {
  obs::SetTraceEnabled(true);
  obs::ResetTrace();
  std::shared_ptr<RemoteStore> store = Connect();
  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string(128 * 1024, 'q')).ok());
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());

  Result<Json> parsed = Json::Parse(obs::ExportChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  ASSERT_TRUE(events.ok());

  // Client RPC spans, keyed by their span id.
  std::map<std::string, std::string> client_rpc;  // span_id -> trace_id
  for (const Json& e : **events) {
    Result<std::string> name = e.GetString("name");
    if (name.ok() && *name == "store.client.rpc" && !TraceArg(e, "span_id").empty()) {
      client_rpc[TraceArg(e, "span_id")] = TraceArg(e, "trace_id");
    }
  }
  ASSERT_FALSE(client_rpc.empty());

  bool checked_write_begin = false;
  for (const Json& e : **events) {
    Result<std::string> name = e.GetString("name");
    if (!name.ok() || *name != "store.server.rpc" || TraceArg(e, "op") != "write_begin") {
      continue;
    }
    checked_write_begin = true;
    // Attributed to the session, its lease, and the tag being written.
    const Json& args = e.AsObject().at("args");
    EXPECT_TRUE(args.GetInt("session").ok());
    EXPECT_TRUE(args.GetInt("lease").ok());
    EXPECT_EQ(TraceArg(e, "tag"), "global_step1");
    // Parented under a client RPC span of the same trace.
    const std::string parent = TraceArg(e, "parent_span_id");
    ASSERT_TRUE(client_rpc.count(parent))
        << "server write_begin span is not parented under any client RPC span";
    EXPECT_EQ(client_rpc[parent], TraceArg(e, "trace_id"));
  }
  EXPECT_TRUE(checked_write_begin);
}

// Reconnect attribution: a save interrupted by a connection drop resumes under the SAME
// trace_id — the reconnect span, the WRITE_RESUME continuation, and every server-side
// write span belong to one logical operation, not two roots.
TEST_F(StoreServerTest, TraceContextSurvivesConnDropAndWriteResume) {
  obs::SetTraceEnabled(true);
  obs::ResetTrace();
  std::shared_ptr<RemoteStore> store = Connect();
  ASSERT_FALSE(store->lease_token().empty());

  std::vector<uint8_t> body(6u * 1024 * 1024 + 13);
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }
  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok()) << writer.status();
  // Drop the connection mid-chunk-stream (sends since arming: BEGIN=1, its OK=2, chunks
  // from 3), forcing reconnect + WRITE_RESUME inside one WriteFile call.
  ArmSocketFault({SocketFault::Op::kSend, SocketFault::Kind::kEconnreset, 5, 0});
  Status wrote = (*writer)->WriteFile("shard", body.data(), body.size());
  ClearSocketFaults();
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());

  Result<Json> parsed = Json::Parse(obs::ExportChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  ASSERT_TRUE(events.ok());

  std::string save_trace;  // the logical operation's trace id
  std::string reconnect_trace;
  std::string resume_trace;
  bool saw_resume_instant = false;
  bool saw_resume_server_span = false;
  std::set<std::string> server_write_traces;
  for (const Json& e : **events) {
    Result<std::string> name = e.GetString("name");
    if (!name.ok()) {
      continue;
    }
    if (*name == "store.client.write_file") {
      save_trace = TraceArg(e, "trace_id");
    } else if (*name == "store.client.reconnect") {
      reconnect_trace = TraceArg(e, "trace_id");
    } else if (*name == "store.client.write_resume") {
      saw_resume_instant = true;
    } else if (*name == "store.server.rpc") {
      const std::string op = TraceArg(e, "op");
      if (op == "write_resume") {
        saw_resume_server_span = true;
        resume_trace = TraceArg(e, "trace_id");
      }
      if (op == "write_begin" || op == "write_chunk" || op == "write_end" ||
          op == "write_resume") {
        // Mid-stream chunk frames carry no per-frame header (only the frame after a
        // TRACE_CONTEXT is annotated), so their spans are context-free — skip those.
        if (!TraceArg(e, "trace_id").empty()) {
          server_write_traces.insert(TraceArg(e, "trace_id"));
        }
      }
    }
  }
  ASSERT_FALSE(save_trace.empty());
  EXPECT_EQ(reconnect_trace, save_trace)
      << "reconnect span opened a new trace root instead of joining the save's";
  EXPECT_TRUE(saw_resume_instant);
  // The post-drop continuation is the SAME logical operation: the server's WRITE_RESUME
  // span — and every other context-carrying write span, before the drop and after the
  // resume — belongs to the save's one trace, not a second root.
  ASSERT_TRUE(saw_resume_server_span);
  EXPECT_EQ(resume_trace, save_trace);
  EXPECT_EQ(server_write_traces.size(), 1u);
  EXPECT_TRUE(server_write_traces.count(save_trace));
}

// METRICS_DUMP over the wire: both formats, with the per-RPC server histograms non-zero
// after a save — and the client-side RPC latency histograms populated too.
TEST_F(StoreServerTest, MetricsDumpServesTextAndPrometheusWithRpcHistograms) {
  std::shared_ptr<RemoteStore> store = Connect();
  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string(64 * 1024, 'm')).ok());
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());

  Result<std::string> text = store->MetricsDump(/*prometheus=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("store.server.rpc.write_begin.seconds"), std::string::npos);

  Result<std::string> prom = store->MetricsDump(/*prometheus=*/true);
  ASSERT_TRUE(prom.ok()) << prom.status();
  EXPECT_NE(prom->find("# TYPE"), std::string::npos);
  const std::string needle = "store_server_rpc_write_begin_seconds_count ";
  const size_t at = prom->find(needle);
  ASSERT_NE(at, std::string::npos) << *prom;
  EXPECT_GT(std::strtoull(prom->c_str() + at + needle.size(), nullptr, 10), 0u);

  // Satellite of the same change: the client records its own RPC latency per op.
  EXPECT_GT(HistogramCount("store.client.rpc.write_begin.seconds"), 0u);
  EXPECT_GT(HistogramCount("store.client.rpc.commit_tag.seconds"), 0u);
}

// The HTTP listener: /healthz is structured JSON (drain state, lease/session counts,
// staged bytes, journal seq, wire version), /metrics speaks both plaintext and
// Prometheus exposition via ?format=.
TEST_F(StoreServerTest, HttpServesHealthzJsonAndPrometheusExposition) {
  server_->Shutdown();
  StoreServerOptions options;
  options.root = dir_;
  options.listen = "unix:" + dir_ + ".sock";
  options.http_listen = "tcp:127.0.0.1:0";
  StartServer(std::move(options));
  ASSERT_FALSE(server_->http_endpoint().empty());

  std::shared_ptr<RemoteStore> store = Connect();
  ASSERT_TRUE(store->ResetTagStaging("global_step1").ok());
  Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite("global_step1");
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->WriteFile("shard", std::string(32 * 1024, 'h')).ok());
  ASSERT_TRUE(store->CommitTag("global_step1", MetaJson(1)).ok());

  const std::string healthz = HttpGet(server_->http_endpoint(), "/healthz");
  ASSERT_NE(healthz.find("200"), std::string::npos) << healthz;
  const size_t body_at = healthz.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  Result<Json> health = Json::Parse(healthz.substr(body_at + 4));
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health->GetString("status"), "ok");
  EXPECT_EQ(*health->GetBool("draining"), false);
  EXPECT_TRUE(health->GetInt("sessions").ok());
  EXPECT_TRUE(health->GetInt("leases").ok());
  EXPECT_TRUE(health->GetInt("staged_bytes").ok());
  EXPECT_TRUE(health->GetInt("journal_seq").ok());
  EXPECT_EQ(*health->GetInt("wire_version"), static_cast<int64_t>(kWireVersion));

  const std::string prom =
      HttpGet(server_->http_endpoint(), "/metrics?format=prometheus");
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
  EXPECT_NE(prom.find("store_server_rpc_write_begin_seconds_bucket{le="),
            std::string::npos);
  EXPECT_NE(prom.find("store_server_rpc_write_begin_seconds_count"), std::string::npos);

  const std::string plain = HttpGet(server_->http_endpoint(), "/metrics");
  EXPECT_NE(plain.find("store.server.rpc.write_begin.seconds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property 7: the sliced loader is bit-exact over the wire.
// ---------------------------------------------------------------------------

TEST_F(StoreServerTest, SlicedLoadOverRemoteBitExactWithLocalAcrossSweep) {
  ModelConfig model = TinyGpt();
  TrainerConfig source_config;
  source_config.model = model;
  source_config.strategy = ParallelConfig{1, 1, 2, 1, 1, 1};
  source_config.global_batch = 8;
  TrainingRun source(source_config);
  source.Train(1, 3);
  source.Run([&](RankTrainer& trainer) {
    Status saved = SaveDistributedCheckpoint(dir_, trainer, 3);
    UCP_CHECK(saved.ok()) << saved.ToString();
  });
  Result<ConvertStats> converted =
      ConvertToUcp(dir_, "global_step3", PathJoin(dir_, "ucp"), {.num_threads = 2});
  ASSERT_TRUE(converted.ok()) << converted.status();

  std::shared_ptr<RemoteStore> remote = Connect();
  for (int tp : {1, 2, 4}) {
    for (int pp : {1, 2}) {
      for (int dp : {1, 2}) {
        ParallelConfig target{tp, pp, dp, 1, 1, 1};
        SCOPED_TRACE(target.ToString());
        TrainerConfig config;
        config.model = model;
        config.strategy = target;
        config.global_batch = 8;

        UcpLoadOptions load_options;
        load_options.sliced = true;

        TrainingRun local_run(config);
        local_run.Run([&](RankTrainer& trainer) {
          Status loaded = LoadUcpCheckpoint(PathJoin(dir_, "ucp"), trainer, load_options);
          UCP_CHECK(loaded.ok()) << loaded.ToString();
        });
        TrainingRun remote_run(config);
        remote_run.Run([&](RankTrainer& trainer) {
          Status loaded = LoadUcpCheckpoint(*remote, "ucp", trainer, load_options);
          UCP_CHECK(loaded.ok()) << loaded.ToString();
        });

        for (int r = 0; r < local_run.world_size(); ++r) {
          const ZeroOptimizer& a = remote_run.trainer(r).optimizer();
          const ZeroOptimizer& b = local_run.trainer(r).optimizer();
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

}  // namespace
}  // namespace ucp

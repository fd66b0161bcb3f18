#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/fault_fs.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"

namespace ucp {
namespace {

// ---------------- Status / Result ----------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = DataLossError("bad crc");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DATA_LOSS: bad crc");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  UCP_ASSIGN_OR_RETURN(int half, Halve(x));
  UCP_ASSIGN_OR_RETURN(int quarter, Halve(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

// ---------------- Strings ----------------

TEST(StringsTest, Split) {
  EXPECT_EQ(StrSplit("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", '.'), (std::vector<std::string>{""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b"}, "/"), "a/b");
  EXPECT_EQ(StrJoin({}, "/"), "");
}

TEST(StringsTest, GlobBasics) {
  EXPECT_TRUE(GlobMatch("*", "anything.at.all"));
  EXPECT_TRUE(GlobMatch("abc", "abc"));
  EXPECT_FALSE(GlobMatch("abc", "abd"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
}

TEST(StringsTest, GlobOnParameterNames) {
  const char* qkv = "language_model.encoder.layers.3.self_attention.query_key_value.weight";
  EXPECT_TRUE(GlobMatch("language_model.encoder.layers.*.self_attention.query_key_value.weight", qkv));
  EXPECT_TRUE(GlobMatch("*query_key_value*", qkv));
  EXPECT_FALSE(GlobMatch("*query_key_value.bias", qkv));
  EXPECT_TRUE(GlobMatch("*layernorm.weight",
                        "language_model.encoder.layers.0.input_layernorm.weight"));
}

TEST(StringsTest, GlobStarBacktracking) {
  EXPECT_TRUE(GlobMatch("a*b*c", "aXbYbZc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "aXbY"));
  EXPECT_TRUE(GlobMatch("**", ""));
}

TEST(StringsTest, ZeroPad) {
  EXPECT_EQ(ZeroPad(7, 3), "007");
  EXPECT_EQ(ZeroPad(123, 2), "123");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("TP%d.PP%d", 2, 4), "TP2.PP4");
}

// ---------------- RNG ----------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DoubleRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(CounterRngTest, IndexableAndOrderIndependent) {
  CounterRng rng(42, 1);
  uint64_t v5 = rng.U64At(5);
  uint64_t v100 = rng.U64At(100);
  // Reading in a different order yields the same values (pure function of counter).
  EXPECT_EQ(rng.U64At(100), v100);
  EXPECT_EQ(rng.U64At(5), v5);
}

TEST(CounterRngTest, StreamsDecorrelated) {
  CounterRng a(42, 1);
  CounterRng b(42, 2);
  int same = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    same += a.U64At(i) == b.U64At(i) ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRngTest, GaussianMoments) {
  CounterRng rng(9, 3);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    float g = rng.GaussianAt(static_cast<uint64_t>(i));
    sum += g;
    sq += static_cast<double>(g) * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---------------- CRC32 ----------------

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// Bit-at-a-time reference: the definition of the reflected 0xEDB88320 CRC, sharing no code
// (and no table) with the implementation under test.
uint32_t ReferenceCrc32(const uint8_t* p, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> NoiseBytes(size_t size, uint64_t seed) {
  std::vector<uint8_t> out(size);
  uint64_t x = seed;
  for (uint8_t& b : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(x >> 56);
  }
  return out;
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1100 cover the byte loop (< 64), one 64-byte fold, the 16-byte folds and
  // every tail length, each at all 16 offsets from a 16-byte boundary.
  const std::vector<uint8_t> buf = NoiseBytes(1100 + 16, 1);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len)) << "offset " << offset << " len " << len;
    }
  }
  for (size_t len : {size_t{65535}, size_t{65536}, size_t{65537}, size_t{(1u << 20) + 7}}) {
    const std::vector<uint8_t> big = NoiseBytes(len, len);
    EXPECT_EQ(Crc32(big.data(), len), ReferenceCrc32(big.data(), len)) << "len " << len;
  }
}

TEST(Crc32Test, UpdateSplitAtEveryByteComposes) {
  const std::vector<uint8_t> buf = NoiseBytes(4096, 2);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, ReferenceCrc32(buf.data(), buf.size()));
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t crc = Crc32Update(Crc32Init(), buf.data(), split);
    crc = Crc32Update(crc, buf.data() + split, buf.size() - split);
    ASSERT_EQ(Crc32Finalize(crc), whole) << "split at " << split;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "hello universal checkpointing";
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, data, 5);
  crc = Crc32Update(crc, data + 5, 24);
  EXPECT_EQ(Crc32Finalize(crc), Crc32(data, 29));
}

TEST(Crc32Test, DetectsFlip) {
  std::string data = "some checkpoint payload";
  uint32_t before = Crc32(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32(data.data(), data.size()), before);
}

// ---------------- Bytes ----------------

TEST(BytesTest, RoundTrip) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(1ULL << 40);
  w.PutI64(-12345);
  w.PutF32(3.25f);
  w.PutF64(-1e100);
  w.PutString("atoms");

  ByteReader r(w.buffer().data(), w.size());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 1ULL << 40);
  EXPECT_EQ(*r.GetI64(), -12345);
  EXPECT_EQ(*r.GetF32(), 3.25f);
  EXPECT_EQ(*r.GetF64(), -1e100);
  EXPECT_EQ(*r.GetString(), "atoms");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncationIsDataLoss) {
  ByteWriter w;
  w.PutU32(5);
  ByteReader r(w.buffer().data(), 2);
  EXPECT_EQ(r.GetU32().status().code(), StatusCode::kDataLoss);
}

TEST(BytesTest, StringLengthBeyondBufferIsDataLoss) {
  ByteWriter w;
  w.PutU32(1000);  // length prefix promising 1000 bytes
  w.PutBytes("abc", 3);
  ByteReader r(w.buffer().data(), w.size());
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kDataLoss);
}

// ---------------- JSON ----------------

TEST(JsonTest, ScalarRoundTrip) {
  Json v = *Json::Parse(R"({"a": 1, "b": -2.5, "c": "x", "d": true, "e": null})");
  EXPECT_EQ(*v.GetInt("a"), 1);
  EXPECT_EQ(*v.GetDouble("b"), -2.5);
  EXPECT_EQ(*v.GetString("c"), "x");
  EXPECT_EQ(*v.GetBool("d"), true);
  EXPECT_TRUE(v.AsObject().at("e").is_null());
}

TEST(JsonTest, NestedDumpParseRoundTrip) {
  JsonObject inner;
  inner["shape"] = Json(JsonArray{Json(64), Json(128)});
  inner["pattern"] = "fragment";
  JsonObject outer;
  outer["param"] = Json(std::move(inner));
  outer["count"] = 3;
  Json original(std::move(outer));

  for (int indent : {0, 2}) {
    Result<Json> reparsed = Json::Parse(original.Dump(indent));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status();
    EXPECT_EQ(*reparsed, original);
  }
}

TEST(JsonTest, StringEscapes) {
  Json v = std::string("line1\nline\"2\"\ttab\\slash");
  Result<Json> reparsed = Json::Parse(v.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->AsString(), v.AsString());
}

TEST(JsonTest, UnicodeEscapeParses) {
  Result<Json> v = Json::Parse(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "A\xc3\xa9");
}

TEST(JsonTest, MalformedInputsRejected) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} junk").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, LargeIntegersExact) {
  int64_t big = (1LL << 53) - 1;
  Json v = big;
  EXPECT_EQ(Json::Parse(v.Dump())->AsInt(), big);
}

TEST(JsonTest, MissingKeyIsNotFound) {
  Json v = *Json::Parse("{}");
  EXPECT_EQ(v.GetInt("missing").status().code(), StatusCode::kNotFound);
}

TEST(JsonTest, WrongTypeIsInvalidArgument) {
  Json v = *Json::Parse(R"({"a": "text"})");
  EXPECT_EQ(v.GetInt("a").status().code(), StatusCode::kInvalidArgument);
}

TEST(JsonTest, DeterministicKeyOrder) {
  Json a = *Json::Parse(R"({"b": 1, "a": 2})");
  Json b = *Json::Parse(R"({"a": 2, "b": 1})");
  EXPECT_EQ(a.Dump(), b.Dump());
}

// ---------------- Filesystem ----------------

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<std::string> dir = MakeTempDir("ucp_fs_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }
  std::string dir_;
};

TEST_F(FsTest, WriteReadRoundTrip) {
  std::string path = PathJoin(dir_, "file.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "contents").ok());
  EXPECT_EQ(*ReadFileToString(path), "contents");
  EXPECT_EQ(*FileSize(path), 8u);
}

TEST_F(FsTest, AtomicOverwrite) {
  std::string path = PathJoin(dir_, "file.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(*ReadFileToString(path), "new");
  // No leftover temp files.
  EXPECT_EQ(ListDir(dir_)->size(), 1u);
}

TEST_F(FsTest, MakeDirsNested) {
  std::string nested = PathJoin(dir_, "a/b/c");
  ASSERT_TRUE(MakeDirs(nested).ok());
  EXPECT_TRUE(DirExists(nested));
}

TEST_F(FsTest, ReadMissingIsNotFound) {
  EXPECT_EQ(ReadFileToString(PathJoin(dir_, "absent")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(FsTest, ListDirSorted) {
  ASSERT_TRUE(WriteFileAtomic(PathJoin(dir_, "b"), "1").ok());
  ASSERT_TRUE(WriteFileAtomic(PathJoin(dir_, "a"), "2").ok());
  EXPECT_EQ(*ListDir(dir_), (std::vector<std::string>{"a", "b"}));
}

TEST_F(FsTest, DirBytesSumsNestedFilesAndReadsZeroWhenMissing) {
  ASSERT_TRUE(MakeDirs(PathJoin(dir_, "a/b")).ok());
  ASSERT_TRUE(MakeDirs(PathJoin(dir_, "empty")).ok());
  ASSERT_TRUE(WriteFileAtomic(PathJoin(dir_, "top"), std::string(7, 'x')).ok());
  ASSERT_TRUE(WriteFileAtomic(PathJoin(dir_, "a/mid"), std::string(100, 'y')).ok());
  ASSERT_TRUE(WriteFileAtomic(PathJoin(dir_, "a/b/leaf"), std::string(4096, 'z')).ok());
  EXPECT_EQ(DirBytes(dir_), 7u + 100u + 4096u);
  EXPECT_EQ(DirBytes(PathJoin(dir_, "a")), 100u + 4096u);
  EXPECT_EQ(DirBytes(PathJoin(dir_, "empty")), 0u);
  EXPECT_EQ(DirBytes(PathJoin(dir_, "absent")), 0u);
}

TEST_F(FsTest, PathJoinEdgeCases) {
  EXPECT_EQ(PathJoin("a", "b"), "a/b");
  EXPECT_EQ(PathJoin("a/", "b"), "a/b");
  EXPECT_EQ(PathJoin("a", "/b"), "a/b");
  EXPECT_EQ(PathJoin("", "b"), "b");
  EXPECT_EQ(PathJoin("a", ""), "a");
}

// ---------------- ScopedFsyncBatch ----------------

// Each test arms a plan that counts the fsyncs under the test dir and, except where a test
// wants a failure, never fires.
class ScopedFsyncBatchTest : public FsTest {
 protected:
  FaultPlan CountFsyncs() const {
    FaultPlan plan;
    plan.op = FsOp::kFsync;
    plan.nth = 1 << 30;
    plan.path_substr = dir_;
    return plan;
  }

  // Writes `size` seeded bytes to `name` under the test dir and remembers them.
  Status Write(const std::string& name, size_t size) {
    std::string bytes(size, '\0');
    Rng rng(size + name.size());
    for (char& c : bytes) {
      c = static_cast<char>(rng.NextU64());
    }
    const std::string path = PathJoin(dir_, name);
    written_[path] = bytes;
    return WriteFileAtomic(path, bytes);
  }

  void ExpectAllReadBackExact() const {
    for (const auto& [path, bytes] : written_) {
      Result<std::string> back = ReadFileToString(path);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_TRUE(*back == bytes) << path;
    }
  }

  std::map<std::string, std::string> written_;
};

TEST_F(ScopedFsyncBatchTest, DefersEveryFsyncUntilSyncAll) {
  ScopedFault fault(CountFsyncs());
  {
    ScopedFsyncBatch batch;
    ASSERT_TRUE(Write("shard0", 1).ok());
    ASSERT_TRUE(Write("shard1", 4096 + 3).ok());
    ASSERT_TRUE(Write("shard2", (1u << 20) + 17).ok());
    EXPECT_EQ(FaultOpsSeen(), 0);
    EXPECT_EQ(batch.pending(), 3u);

    ASSERT_TRUE(batch.SyncAll().ok());
    EXPECT_EQ(FaultOpsSeen(), 3);
    EXPECT_EQ(batch.pending(), 0u);

    ASSERT_TRUE(batch.SyncAll().ok());
    EXPECT_EQ(FaultOpsSeen(), 3);
  }
  EXPECT_FALSE(FaultFired());
  ExpectAllReadBackExact();
  EXPECT_EQ(ListDir(dir_)->size(), 3u);  // no tmp debris
}

TEST_F(ScopedFsyncBatchTest, WriteOutsideAnyBatchFsyncsAtOnce) {
  ScopedFault fault(CountFsyncs());
  ASSERT_TRUE(Write("eager", 4096).ok());
  EXPECT_EQ(FaultOpsSeen(), 1);
  {
    ScopedFsyncBatch batch;
    ASSERT_TRUE(Write("deferred", 4096).ok());
    EXPECT_EQ(FaultOpsSeen(), 1);
    ASSERT_TRUE(batch.SyncAll().ok());
  }
  // The batch is gone, so writes flush eagerly again.
  ASSERT_TRUE(Write("eager_again", 10).ok());
  EXPECT_EQ(FaultOpsSeen(), 3);
  ExpectAllReadBackExact();
}

TEST_F(ScopedFsyncBatchTest, InnerBatchRecordsOnlyItsOwnWrites) {
  ScopedFault fault(CountFsyncs());
  ScopedFsyncBatch outer;
  ASSERT_TRUE(Write("outer0", 100).ok());
  {
    ScopedFsyncBatch inner;
    ASSERT_TRUE(Write("inner0", 200).ok());
    ASSERT_TRUE(Write("inner1", 300).ok());
    EXPECT_EQ(inner.pending(), 2u);
    EXPECT_EQ(outer.pending(), 1u);
    ASSERT_TRUE(inner.SyncAll().ok());
    EXPECT_EQ(FaultOpsSeen(), 2);
  }
  // The outer batch is active again once the inner one is destroyed.
  ASSERT_TRUE(Write("outer1", 400).ok());
  EXPECT_EQ(outer.pending(), 2u);
  EXPECT_EQ(FaultOpsSeen(), 2);
  ASSERT_TRUE(outer.SyncAll().ok());
  EXPECT_EQ(FaultOpsSeen(), 4);
  ExpectAllReadBackExact();
}

TEST_F(ScopedFsyncBatchTest, FailStopOnSecondFsyncFailsSyncAllNamingThatFile) {
  FaultPlan plan = CountFsyncs();
  plan.kind = FaultPlan::Kind::kFailStop;
  plan.nth = 2;
  ScopedFault fault(plan);
  ScopedFsyncBatch batch;
  ASSERT_TRUE(Write("shard0", 4096).ok());
  ASSERT_TRUE(Write("shard1", 4096).ok());
  ASSERT_TRUE(Write("shard2", 4096).ok());
  const Status synced = batch.SyncAll();
  EXPECT_EQ(synced.code(), StatusCode::kIoError);
  EXPECT_NE(synced.message().find(PathJoin(dir_, "shard1")), std::string::npos)
      << synced.ToString();
  EXPECT_TRUE(FaultFired());
  // SyncAll stops at the failure: the third file is never fsynced.
  EXPECT_EQ(FaultOpsSeen(), 2);
  ExpectAllReadBackExact();
}

// ---------------- ThreadPool ----------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  int count = 0;
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

}  // namespace
}  // namespace ucp

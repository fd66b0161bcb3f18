#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/tensor/bf16.h"
#include "src/tensor/matmul.h"
#include "src/tensor/tensor.h"
#include "src/store/local_store.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/atom.h"

namespace ucp {
namespace {

Tensor Iota(Shape shape) {
  Tensor t = Tensor::Zeros(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(i);
  }
  return t;
}

// ---------------- Core tensor ----------------

TEST(TensorTest, ZerosAndShape) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.SumAll(), 0.0);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Iota({4});
  Tensor b = a.Clone();
  b.at(0) = 99.0f;
  EXPECT_EQ(a.at(0), 0.0f);
  EXPECT_FALSE(a.SharesStorageWith(b));
}

TEST(TensorTest, ReshapeShares) {
  Tensor a = Iota({2, 6});
  Tensor b = a.Reshape({3, 4});
  b.at(0) = 42.0f;
  EXPECT_EQ(a.at(0), 42.0f);
  EXPECT_TRUE(a.SharesStorageWith(b));
}

TEST(TensorTest, ViewOfWindowsIntoStorage) {
  Tensor flat = Iota({10});
  Tensor view = Tensor::ViewOf(flat, 4, {2, 3});
  EXPECT_EQ(view.at(0), 4.0f);
  view.at(0) = -1.0f;
  EXPECT_EQ(flat.at(4), -1.0f);
}

TEST(TensorTest, NarrowMiddleDim) {
  Tensor t = Iota({2, 4, 3});
  Tensor n = t.Narrow(1, 1, 2);
  EXPECT_EQ(n.shape(), (Shape{2, 2, 3}));
  // Element [0][0][0] of the narrow = original [0][1][0] = 3.
  EXPECT_EQ(n.at(0), 3.0f);
  // Element [1][1][2] of the narrow = original [1][2][2] = 12+6+2.
  EXPECT_EQ(n.at(1 * 6 + 1 * 3 + 2), static_cast<float>(1 * 12 + 2 * 3 + 2));
}

TEST(TensorTest, ConcatInverseOfSplit) {
  Tensor t = Iota({4, 6});
  for (int dim = 0; dim < 2; ++dim) {
    std::vector<Tensor> parts = t.Split(dim, 2);
    Tensor back = Tensor::Concat(parts, dim);
    EXPECT_TRUE(Tensor::BitEqual(t, back)) << "dim " << dim;
  }
}

TEST(TensorTest, SplitSizesUneven) {
  Tensor t = Iota({6, 2});
  std::vector<Tensor> parts = t.SplitSizes(0, {1, 2, 3});
  EXPECT_EQ(parts[0].shape(), (Shape{1, 2}));
  EXPECT_EQ(parts[1].shape(), (Shape{2, 2}));
  EXPECT_EQ(parts[2].shape(), (Shape{3, 2}));
  EXPECT_TRUE(Tensor::BitEqual(Tensor::Concat(parts, 0), t));
}

TEST(TensorTest, Concat3DMiddleDim) {
  Tensor a = Iota({2, 2, 3});
  Tensor b = Iota({2, 1, 3});
  Tensor c = Tensor::Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 3}));
  // Row layout per outer index: a's two rows then b's row.
  EXPECT_EQ(c.at(0), a.at(0));       // a[0][0][0]
  EXPECT_EQ(c.at(3), a.at(3));       // a[0][1][0]
  EXPECT_EQ(c.at(6), b.at(0));       // b[0][0][0]
  EXPECT_EQ(c.at(9), a.at(6));       // a[1][0][0]
  EXPECT_EQ(c.at(15), b.at(3));      // b[1][0][0]
}

TEST(TensorTest, Transpose2D) {
  Tensor t = Iota({2, 3});
  Tensor tt = t.Transpose2D();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_EQ(tt.at(0 * 2 + 1), t.at(1 * 3 + 0));
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a = Tensor::Full({4}, 2.0f);
  Tensor b = Tensor::Full({4}, 3.0f);
  a.Add_(b);
  EXPECT_EQ(a.at(0), 5.0f);
  a.Mul_(b);
  EXPECT_EQ(a.at(0), 15.0f);
  a.Sub_(b);
  EXPECT_EQ(a.at(0), 12.0f);
  a.Scale_(0.5f);
  EXPECT_EQ(a.at(0), 6.0f);
  a.AddScaled_(b, 2.0f);
  EXPECT_EQ(a.at(0), 12.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t = Tensor::FromVector({4}, {1.0f, -3.0f, 2.0f, 0.5f});
  EXPECT_DOUBLE_EQ(t.SumAll(), 0.5);
  EXPECT_EQ(t.MaxAbs(), 3.0f);
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 1.0 + 9.0 + 4.0 + 0.25);
  EXPECT_DOUBLE_EQ(t.Dot(t), t.SquaredNorm());
}

TEST(TensorTest, GaussianDeterministicAndShardable) {
  CounterRng rng(11, 5);
  Tensor full = Tensor::Gaussian({8, 4}, rng, 0, 1.0f);
  Tensor again = Tensor::Gaussian({8, 4}, rng, 0, 1.0f);
  EXPECT_TRUE(Tensor::BitEqual(full, again));
  // Offset counters index into the same stream: the second half of `full` equals a tensor
  // generated at counter_base = 16.
  Tensor tail = Tensor::Gaussian({4, 4}, rng, 16, 1.0f);
  EXPECT_TRUE(Tensor::BitEqual(full.Narrow(0, 4, 4), tail));
}

TEST(TensorTest, AllCloseTolerance) {
  Tensor a = Tensor::Full({3}, 1.0f);
  Tensor b = Tensor::Full({3}, 1.0f + 1e-7f);
  EXPECT_TRUE(Tensor::AllClose(a, b));
  Tensor c = Tensor::Full({3}, 1.1f);
  EXPECT_FALSE(Tensor::AllClose(a, c));
}

// ---------------- Matmul ----------------

TEST(MatmulTest, KnownProduct) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatmulNN(a, b);
  EXPECT_EQ(c.at(0), 58.0f);
  EXPECT_EQ(c.at(1), 64.0f);
  EXPECT_EQ(c.at(2), 139.0f);
  EXPECT_EQ(c.at(3), 154.0f);
}

TEST(MatmulTest, TransposedVariantsConsistent) {
  CounterRng rng(3, 1);
  Tensor a = Tensor::Gaussian({4, 5}, rng, 0, 1.0f);
  Tensor b = Tensor::Gaussian({5, 6}, rng, 100, 1.0f);
  Tensor nn = MatmulNN(a, b);
  // A^T from a pre-transposed matrix.
  Tensor tn = MatmulTN(a.Transpose2D(), b);
  EXPECT_TRUE(Tensor::AllClose(nn, tn, 1e-5f, 1e-5f));
  Tensor nt = MatmulNT(a, b.Transpose2D());
  EXPECT_TRUE(Tensor::AllClose(nn, nt, 1e-5f, 1e-5f));
}

TEST(MatmulTest, AccumulateAddsToExisting) {
  Tensor a = Tensor::Full({2, 2}, 1.0f);
  Tensor b = Tensor::Full({2, 2}, 1.0f);
  Tensor c = Tensor::Full({2, 2}, 10.0f);
  MatmulNN(a, b, c, /*accumulate=*/true);
  EXPECT_EQ(c.at(0), 12.0f);
  MatmulNN(a, b, c, /*accumulate=*/false);
  EXPECT_EQ(c.at(0), 2.0f);
}

// ---------------- bf16 / f16 ----------------

TEST(Bf16Test, ExactValuesSurvive) {
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 256.0f}) {
    EXPECT_EQ(Bf16ToF32(F32ToBf16(v)), v);
  }
}

TEST(Bf16Test, RoundingError) {
  float v = 1.00390625f;  // needs more mantissa bits than bf16 has
  float r = Bf16ToF32(F32ToBf16(v));
  EXPECT_NE(r, v);
  EXPECT_NEAR(r, v, 0.01f);
}

TEST(F16Test, ExactAndSubnormal) {
  for (float v : {0.0f, 1.0f, -0.25f, 1024.0f}) {
    EXPECT_EQ(F16ToF32(F32ToF16(v)), v);
  }
  // Value below f16 normal range but within subnormal range.
  float tiny = 1e-6f;
  float r = F16ToF32(F32ToF16(tiny));
  EXPECT_NEAR(r, tiny, 1e-7f);
}

TEST(F16Test, OverflowToInf) {
  EXPECT_TRUE(std::isinf(F16ToF32(F32ToF16(1e6f))));
}

TEST(RoundThroughTest, F32IsIdentity) {
  CounterRng rng(1, 1);
  Tensor t = Tensor::Gaussian({16}, rng, 0, 1.0f);
  EXPECT_TRUE(Tensor::BitEqual(RoundThrough(t, DType::kF32), t));
}

TEST(RoundThroughTest, Bf16IsIdempotent) {
  CounterRng rng(1, 2);
  Tensor t = Tensor::Gaussian({64}, rng, 0, 1.0f);
  Tensor once = RoundThrough(t, DType::kBF16);
  Tensor twice = RoundThrough(once, DType::kBF16);
  EXPECT_TRUE(Tensor::BitEqual(once, twice));
}

// ---------------- Serialization ----------------

class TensorFileTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_tensor_file_test"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }
  std::string dir_;
};

TEST_F(TensorFileTest, SaveLoadRoundTripF32) {
  CounterRng rng(5, 1);
  TensorBundle bundle;
  bundle.Add("t", Tensor::Gaussian({3, 5, 2}, rng, 0, 2.0f));
  std::string path = PathJoin(dir_, "b.ucb");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  Result<TensorBundle> loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->Find("t"), nullptr);
  EXPECT_TRUE(Tensor::BitEqual(*bundle.Find("t"), *loaded->Find("t")));
}

std::unique_ptr<ByteSource> Source(const std::string& path) {
  Result<std::unique_ptr<ByteSource>> source = FileByteSource::Open(path);
  UCP_CHECK(source.ok()) << source.status().ToString();
  return std::move(source).value();
}

TEST_F(TensorFileTest, StatReadsHeaderOnly) {
  TensorBundle bundle;
  bundle.Add("t", Tensor::Zeros({7, 9}));
  std::string path = PathJoin(dir_, "b.ucb");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  ResetTensorIoStats();
  Result<BundleInfo> info = StatBundle(Source(path));
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->entries.size(), 1u);
  EXPECT_EQ(info->entries[0].second.shape, (Shape{7, 9}));
  EXPECT_EQ(info->entries[0].second.payload_bytes, 63u * 4);
  // Only the header prefix was read: the payload is 252 bytes, the whole file more.
  EXPECT_LT(GetTensorIoStats().bytes_read, *FileSize(path) - 63 * 4);
}

// A bundle of two members ("a" then "b") whose file bytes a test then damages, and the
// three readers that must refuse the damage with kDataLoss: the whole-file load, a view read
// of the touched member and the deep verifier.
class DamagedBundle {
 public:
  explicit DamagedBundle(const std::string& dir) : path_(PathJoin(dir, "b.ucb")) {
    TensorBundle bundle;
    bundle.Add("a", Tensor::Full({16}, 0.5f));
    bundle.Add("b", Tensor::Full({16}, 1.5f));
    bundle.meta = Json(JsonObject{});
    UCP_CHECK(SaveBundle(path_, bundle).ok());
    contents_ = *ReadFileToString(path_);
  }

  std::string& contents() { return contents_; }
  // Absolute file offset of member `index`'s payload.
  uint64_t PayloadBegin(size_t index) {
    Result<std::optional<FileChunkIndex>> chunks = ReadFileChunkIndex(*Source(path_));
    UCP_CHECK(chunks.ok() && chunks->has_value());
    return (**chunks).regions.at(index).begin;
  }
  void Write() { UCP_CHECK(WriteFileAtomic(path_, contents_).ok()); }

  Status Load() { return LoadBundle(path_).status(); }
  Status ViewRead(const std::string& member) {
    Result<BundleFileView> view = BundleFileView::Open(Source(path_));
    return view.ok() ? view->ReadTensor(member).status() : view.status();
  }
  Status DeepVerify() { return DeepVerifyBundleFile(Source(path_)); }

 private:
  std::string path_;
  std::string contents_;
};

TEST_F(TensorFileTest, CorruptionDetected) {
  DamagedBundle file(dir_);
  const uint64_t b_begin = file.PayloadBegin(1);
  file.contents()[b_begin + 5] ^= 0x40;  // flip a payload bit of member "b"
  file.Write();
  // The whole-file readers check the chunk CRCs before the file CRC, so they name the
  // damaged member and chunk, not just the file.
  for (const Status& whole : {file.Load(), file.DeepVerify()}) {
    EXPECT_EQ(whole.code(), StatusCode::kDataLoss);
    EXPECT_NE(whole.message().find("per-tensor CRC mismatch in"), std::string::npos) << whole;
    EXPECT_NE(whole.message().find("b.ucb:b (chunk 0 of 1)"), std::string::npos) << whole;
  }
  EXPECT_EQ(file.ViewRead("b").code(), StatusCode::kDataLoss);
  // The chunk CRCs localize the damage: the untouched member still reads.
  EXPECT_TRUE(file.ViewRead("a").ok());
}

// Bytes no chunk CRC covers still fail the whole-file readers: the header has its own CRC,
// and the trailing file CRC is checked last.
TEST_F(TensorFileTest, HeaderAndTrailerDamageDetected) {
  for (const bool trailer : {false, true}) {
    DamagedBundle file(dir_);
    const size_t at = trailer ? file.contents().size() - 1 : file.PayloadBegin(0) - 6;
    file.contents()[at] ^= 0x01;
    file.Write();
    const char* want = trailer ? "bundle CRC mismatch" : "bundle header CRC mismatch";
    for (const Status& whole : {file.Load(), file.DeepVerify()}) {
      EXPECT_EQ(whole.code(), StatusCode::kDataLoss) << (trailer ? "trailer" : "header");
      EXPECT_NE(whole.message().find(want), std::string::npos) << whole;
    }
  }
}

TEST_F(TensorFileTest, TruncationDetected) {
  DamagedBundle file(dir_);
  file.contents().resize(file.contents().size() - 10);  // the tail of member "b" and the CRC
  file.Write();
  EXPECT_EQ(file.Load().code(), StatusCode::kDataLoss);
  EXPECT_EQ(file.ViewRead("b").code(), StatusCode::kDataLoss);
  EXPECT_EQ(file.DeepVerify().code(), StatusCode::kDataLoss);
}

TEST_F(TensorFileTest, WrongMagicDetected) {
  DamagedBundle file(dir_);
  const uint32_t zip_magic = 0x04034B50;  // "PK\3\4": a file of another format
  std::memcpy(file.contents().data(), &zip_magic, sizeof(zip_magic));
  file.Write();
  EXPECT_EQ(file.Load().code(), StatusCode::kDataLoss);
  Status opened = file.ViewRead("a");
  EXPECT_EQ(opened.code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.message().find("bad magic"), std::string::npos) << opened;
  // The daemon serves a foreign file unverified rather than refusing it.
  Result<std::optional<FileChunkIndex>> chunks =
      ReadFileChunkIndex(*Source(PathJoin(dir_, "b.ucb")));
  ASSERT_TRUE(chunks.ok()) << chunks.status();
  EXPECT_FALSE(chunks->has_value());
}

TEST_F(TensorFileTest, BundleRoundTripPreservesOrderAndMeta) {
  TensorBundle bundle;
  bundle.Add("z_last", Tensor::Full({2}, 1.0f));
  bundle.Add("a_first", Tensor::Full({3}, 2.0f));
  JsonObject meta;
  meta["iteration"] = 42;
  bundle.meta = Json(std::move(meta));

  std::string path = PathJoin(dir_, "bundle.ucb");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  Result<TensorBundle> loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->tensors.size(), 2u);
  // Insertion order is preserved (flat-group layout depends on it).
  EXPECT_EQ(loaded->tensors[0].first, "z_last");
  EXPECT_EQ(loaded->tensors[1].first, "a_first");
  EXPECT_EQ(*loaded->meta.GetInt("iteration"), 42);
  EXPECT_TRUE(Tensor::BitEqual(*loaded->Find("a_first"), Tensor::Full({3}, 2.0f)));
  EXPECT_EQ(loaded->Find("missing"), nullptr);
}

TEST_F(TensorFileTest, StatBundleSkipsPayloads) {
  TensorBundle bundle;
  bundle.Add("w", Tensor::Zeros({8, 8}));
  bundle.meta = Json(JsonObject{{"tag", Json("x")}});
  std::string path = PathJoin(dir_, "bundle.ucb");
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  Result<BundleInfo> info = StatBundle(Source(path));
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->entries.size(), 1u);
  EXPECT_EQ(info->entries[0].first, "w");
  EXPECT_EQ(info->entries[0].second.shape, (Shape{8, 8}));
  EXPECT_EQ(*info->meta.GetString("tag"), "x");
}

// ---------------- Format pin ----------------

// Values with busy low mantissa bits, built from integers so every platform computes the same
// floats.
Tensor PinTensor(Shape shape, uint32_t seed) {
  Tensor t = Tensor::Zeros(std::move(shape));
  uint32_t x = seed;
  for (int64_t i = 0; i < t.numel(); ++i) {
    x = x * 1664525u + 1013904223u;
    t.at(i) = static_cast<float>(static_cast<int32_t>(x) >> 8) * 0x1p-12f;
  }
  return t;
}

// CRC of everything before the trailing file CRC. (The CRC of a whole file is useless as a
// pin: a message followed by its own CRC always hashes to the same residue.)
uint32_t BodyCrc(const std::vector<uint8_t>& file) { return Crc32(file.data(), file.size() - 4); }

struct FormatPin {
  int64_t numel;
  uint64_t bundle_bytes;
  uint32_t bundle_body_crc;
};

// Expected v3 sizes and pre-trailer CRCs, taken from the byte-table CRC and the multi-buffer
// writer the format was first written with. A change to any of them is a format change.
constexpr FormatPin kFormatPins[] = {
    {1, 232, 0xE8FBEF2Bu},
    {7, 256, 0x8BC0FE86u},
    {1000, 4228, 0x4F3D7F25u},
    {65537, 262392, 0xFF7E15D2u},
    {300001, 1200304, 0xC173D9C0u},
};

// The pinned atom file: a 214-byte header, three 140-byte payloads and the trailing CRC.
constexpr uint64_t kAtomPinBytes = 638;
constexpr uint32_t kAtomPinBodyCrc = 0x9CE24698u;

TEST_F(TensorFileTest, SerializedBytesArePinned) {
  for (const FormatPin& pin : kFormatPins) {
    SCOPED_TRACE("f32 x " + std::to_string(pin.numel));
    const Tensor t = PinTensor({pin.numel}, static_cast<uint32_t>(pin.numel));

    // A second member follows the pinned one, so its payload offset is pinned too.
    TensorBundle bundle;
    bundle.Add("w", t);
    bundle.Add("tail", PinTensor({3, 5}, 7));
    bundle.meta = Json(JsonObject{{"iteration", Json(int64_t{7})}, {"dtype", Json("pin")}});
    Result<std::vector<uint8_t>> bundle_file = SerializeBundle(bundle);
    ASSERT_TRUE(bundle_file.ok()) << bundle_file.status();
    EXPECT_EQ(bundle_file->size(), pin.bundle_bytes);
    EXPECT_EQ(BodyCrc(*bundle_file), pin.bundle_body_crc);
    const std::string bundle_path = PathJoin(dir_, "pin.ucb");
    ASSERT_TRUE(WriteFileAtomic(bundle_path, bundle_file->data(), bundle_file->size()).ok());
    Result<TensorBundle> loaded_bundle = LoadBundle(bundle_path);
    ASSERT_TRUE(loaded_bundle.ok()) << loaded_bundle.status();
    ASSERT_EQ(loaded_bundle->tensors.size(), 2u);
    EXPECT_EQ(*loaded_bundle->meta.GetInt("iteration"), 7);
    Result<BundleFileView> bundle_view = BundleFileView::Open(Source(bundle_path));
    ASSERT_TRUE(bundle_view.ok()) << bundle_view.status();
    for (const auto& [name, expect] : bundle.tensors) {
      ASSERT_NE(loaded_bundle->Find(name), nullptr) << name;
      EXPECT_TRUE(Tensor::BitEqual(*loaded_bundle->Find(name), expect)) << name;
      Result<Tensor> member = bundle_view->ReadTensor(name);
      ASSERT_TRUE(member.ok()) << member.status();
      EXPECT_TRUE(Tensor::BitEqual(*member, expect)) << name;
    }
  }

  // An atom file is a bundle with the members fp32, exp_avg and exp_avg_sq and an empty
  // meta, staged by WriteAtom into a UCP tag.
  SCOPED_TRACE("atom file");
  ParamState state;
  state.name = "pin.atom.weight";
  state.fp32 = PinTensor({5, 7}, 11);
  state.exp_avg = PinTensor({5, 7}, 12);
  state.exp_avg_sq = PinTensor({5, 7}, 13);
  LocalStore ucp(dir_);
  ASSERT_TRUE(ucp.ResetTagStaging("pin.ucp").ok());
  Result<std::unique_ptr<StoreWriter>> writer = ucp.OpenTagForWrite("pin.ucp");
  ASSERT_TRUE(writer.ok()) << writer.status();
  Result<int64_t> staged = WriteAtom(**writer, state);
  ASSERT_TRUE(staged.ok()) << staged.status();
  ASSERT_TRUE(ucp.CommitTag("pin.ucp", "{}").ok());
  Result<std::string> file = ReadFileToString(PathJoin(dir_, "pin.ucp/atoms/pin.atom.weight"));
  ASSERT_TRUE(file.ok()) << file.status();
  const std::vector<uint8_t> bytes(file->begin(), file->end());
  EXPECT_EQ(bytes.size(), kAtomPinBytes);
  EXPECT_EQ(static_cast<uint64_t>(*staged), kAtomPinBytes);
  EXPECT_EQ(BodyCrc(bytes), kAtomPinBodyCrc);
  Result<ParamState> back = ReadAtom(ucp, "pin.ucp", state.name);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(Tensor::BitEqual(back->fp32, state.fp32));
  EXPECT_TRUE(Tensor::BitEqual(back->exp_avg, state.exp_avg));
  EXPECT_TRUE(Tensor::BitEqual(back->exp_avg_sq, state.exp_avg_sq));
}

}  // namespace
}  // namespace ucp

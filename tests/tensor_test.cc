#include <gtest/gtest.h>

#include <cmath>

#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/tensor/bf16.h"
#include "src/tensor/matmul.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_file.h"

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
  Tensor t = Tensor::Gaussian({3, 5, 2}, rng, 0, 2.0f);
  std::string path = PathJoin(dir_, "t.uct");
  ASSERT_TRUE(SaveTensor(path, t).ok());
  Result<Tensor> loaded = LoadTensor(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(Tensor::BitEqual(t, *loaded));
}

TEST_F(TensorFileTest, StatReadsHeaderOnly) {
  Tensor t = Tensor::Zeros({7, 9});
  std::string path = PathJoin(dir_, "t.uct");
  ASSERT_TRUE(SaveTensor(path, t).ok());
  Result<TensorFileInfo> info = StatTensor(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->shape, (Shape{7, 9}));
  EXPECT_EQ(info->payload_bytes, 63u * 4);
}

TEST_F(TensorFileTest, CorruptionDetected) {
  Tensor t = Tensor::Full({16}, 1.5f);
  std::string path = PathJoin(dir_, "t.uct");
  ASSERT_TRUE(SaveTensor(path, t).ok());
  std::string contents = *ReadFileToString(path);
  contents[contents.size() / 2] ^= 0x40;  // flip a payload bit
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  EXPECT_EQ(LoadTensor(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(TensorFileTest, TruncationDetected) {
  Tensor t = Tensor::Full({16}, 1.5f);
  std::string path = PathJoin(dir_, "t.uct");
  ASSERT_TRUE(SaveTensor(path, t).ok());
  std::string contents = *ReadFileToString(path);
  contents.resize(contents.size() - 10);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  EXPECT_EQ(LoadTensor(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(TensorFileTest, WrongMagicDetected) {
  std::string path = PathJoin(dir_, "b.ucb");
  TensorBundle bundle;
  bundle.Add("x", Tensor::Zeros({2}));
  bundle.meta = Json(JsonObject{});
  ASSERT_TRUE(SaveBundle(path, bundle).ok());
  // A bundle is not a tensor file.
  EXPECT_EQ(LoadTensor(path).status().code(), StatusCode::kDataLoss);
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
  Result<BundleInfo> info = StatBundle(path);
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
  uint64_t tensor_bytes;
  uint32_t tensor_body_crc;
  uint64_t bundle_bytes;
  uint32_t bundle_body_crc;
};

// Expected v3 sizes and pre-trailer CRCs, taken from the byte-table CRC and the multi-buffer
// writer the format was first written with. A change to any of them is a format change.
constexpr FormatPin kFormatPins[] = {
    {1, 65, 0x84510D17u, 232, 0xE8FBEF2Bu},
    {7, 89, 0x4BE9BCD5u, 256, 0x8BC0FE86u},
    {1000, 4061, 0x5D3EDE7Eu, 4228, 0x4F3D7F25u},
    {65537, 262225, 0xC26344DBu, 262392, 0xFF7E15D2u},
    {300001, 1200137, 0xCCA3B0C3u, 1200304, 0xC173D9C0u},
};

TEST_F(TensorFileTest, SerializedBytesArePinned) {
  for (const FormatPin& pin : kFormatPins) {
    SCOPED_TRACE("f32 x " + std::to_string(pin.numel));
    const Tensor t = PinTensor({pin.numel}, static_cast<uint32_t>(pin.numel));

    Result<std::vector<uint8_t>> file = SerializeTensor(t);
    ASSERT_TRUE(file.ok()) << file.status();
    EXPECT_EQ(file->size(), pin.tensor_bytes);
    EXPECT_EQ(BodyCrc(*file), pin.tensor_body_crc);
    const std::string tensor_path = PathJoin(dir_, "pin.uct");
    ASSERT_TRUE(WriteFileAtomic(tensor_path, file->data(), file->size()).ok());
    Result<Tensor> loaded = LoadTensor(tensor_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(Tensor::BitEqual(*loaded, t));
    Result<TensorFileView> tensor_view = TensorFileView::Open(tensor_path);
    ASSERT_TRUE(tensor_view.ok()) << tensor_view.status();
    Result<Tensor> viewed = tensor_view->ReadAll();
    ASSERT_TRUE(viewed.ok()) << viewed.status();
    EXPECT_TRUE(Tensor::BitEqual(*viewed, *loaded));

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
    Result<BundleFileView> bundle_view = BundleFileView::Open(bundle_path);
    ASSERT_TRUE(bundle_view.ok()) << bundle_view.status();
    for (const auto& [name, expect] : bundle.tensors) {
      ASSERT_NE(loaded_bundle->Find(name), nullptr) << name;
      EXPECT_TRUE(Tensor::BitEqual(*loaded_bundle->Find(name), expect)) << name;
      Result<Tensor> member = bundle_view->ReadTensor(name);
      ASSERT_TRUE(member.ok()) << member.status();
      EXPECT_TRUE(Tensor::BitEqual(*member, expect)) << name;
    }
  }
}

}  // namespace
}  // namespace ucp

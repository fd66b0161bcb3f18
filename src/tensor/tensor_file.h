// On-disk tensor formats.
//
// Two container types cover the whole system:
//  - Single-tensor files ("UCT1"): one tensor per file. Atom checkpoints use these —
//    <param>/fp32, <param>/exp_avg, <param>/exp_avg_sq — the .pt-file analogue from the
//    paper (§3.1).
//  - Bundle files ("UCB1"): an ordered map of named tensors plus a JSON metadata blob. Each
//    training rank persists its shard of model/optimizer state as one bundle — the analogue
//    of torch.save of a rank's state dict.
//
// Both carry an endianness tag, a format-version field (gated on load), CRC32 integrity
// checks that localize damage to a named tensor (or, from v3, to one payload chunk), and a
// trailing CRC32 over the entire file. Truncation and corruption are detected at load time
// (kDataLoss); `ucp_tool fsck` reports the damaged member.
//
// Format version history:
//   1 — magic, endian tag, payloads, whole-file CRC. (No version field: readers sniff it
//       by the absence of a known version value at the version offset.)
//   2 — adds the version field and a CRC32 after every tensor payload.
//   3 — range-readable layout: all headers form a fixed-size prefix (its size is recorded
//       at a fixed offset and the prefix carries its own CRC), payloads are raw contiguous
//       bytes protected by a table of per-chunk CRC32s (64 KiB chunks, shrinking to 4 KiB
//       for small payloads), and bundle entries record absolute payload offsets. Stat* read
//       only the prefix; TensorFileView/BundleFileView serve pread range reads verifying
//       only the chunks a range touches. The trailing whole-file CRC remains for
//       whole-file readers and deep fsck.
//
// Writers emit v3; readers accept v1, v2, and v3.

#ifndef UCP_SRC_TENSOR_TENSOR_FILE_H_
#define UCP_SRC_TENSOR_TENSOR_FILE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/common/status.h"
#include "src/tensor/bf16.h"
#include "src/tensor/tensor.h"

namespace ucp {

// In-memory tensors are always fp32; `dtype` selects the storage width. Loading converts
// back to fp32 (lossy round-trip for bf16/f16, by design).
Status SaveTensor(const std::string& path, const Tensor& tensor, DType dtype = DType::kF32);
Result<Tensor> LoadTensor(const std::string& path);

// The exact bytes SaveTensor/SaveBundle would write, without writing them. The checkpoint
// store's write path streams these through a StoreWriter (local: the same WriteFileAtomic
// as before; remote: chunked frames to ucp_serverd), so serialization is shared between
// both backends.
Result<std::vector<uint8_t>> SerializeTensor(const Tensor& tensor, DType dtype = DType::kF32);

// Writes the legacy format `version` (1 or 2) instead of the current one. Exists for
// backward-compatibility tests and migration tooling; production saves use SaveTensor.
Status SaveTensorAtVersion(const std::string& path, const Tensor& tensor, DType dtype,
                           uint32_t version);

// Header-only peek: shape/dtype/chunking without reading the payload. For v3 files this
// reads a few hundred bytes (the header prefix, verified by its own CRC); v1/v2 files fall
// back to a whole-file read so corruption still cannot bless a bad plan.
struct TensorFileInfo {
  Shape shape;
  DType dtype = DType::kF32;
  uint64_t payload_bytes = 0;
  uint32_t format_version = 0;
  uint32_t chunk_bytes = 0;  // 0 for v1/v2 (no chunk table)
  uint32_t num_chunks = 0;
};
Result<TensorFileInfo> StatTensor(const std::string& path);

// Full-integrity pass without materializing tensors: whole-file CRC plus every per-tensor /
// per-chunk CRC. What `ucp_tool fsck` runs in its default (deep) mode. The ByteSource
// forms verify the same bytes through any source, e.g. a file opened through a Store.
Status DeepVerifyTensorFile(const std::string& path);
Status DeepVerifyTensorFile(std::unique_ptr<ByteSource> source);
Status DeepVerifyBundleFile(const std::string& path);
Status DeepVerifyBundleFile(std::unique_ptr<ByteSource> source);

// Cumulative counters for checkpoint-file reads (payload + header bytes actually fetched,
// whether via pread or whole-file reads). Process-global and thread-safe; the load benches
// reset them around an arm to report bytes-read-per-rank.
struct TensorIoStats {
  uint64_t bytes_read = 0;
  uint64_t read_calls = 0;
  uint64_t chunks_verified = 0;
};
TensorIoStats GetTensorIoStats();
void ResetTensorIoStats();

// A read-only view of one v3 tensor file: parses and verifies the header once, then serves
// element/row ranges via pread, verifying only the CRC chunks each range touches (each
// chunk at most once per view). For v1/v2 files the whole payload is read and verified at
// Open and ranges are served from memory — same API, legacy cost. Not thread-safe; give
// each worker its own view (the kernel-side pread is position-independent anyway).
class TensorFileView {
 public:
  static Result<TensorFileView> Open(const std::string& path);
  // Same view over any ByteSource (e.g. a remote store file). Ranges become positional
  // reads against the source; chunk CRCs are still verified on this side of the wire.
  static Result<TensorFileView> Open(std::unique_ptr<ByteSource> source);

  const TensorFileInfo& info() const { return info_; }
  const std::string& path() const { return path_; }
  int64_t numel() const { return ShapeNumel(info_.shape); }
  // Row = index along dim 0 (a 0-d scalar counts as one row of one element).
  int64_t rows() const { return info_.shape.empty() ? 1 : info_.shape[0]; }
  int64_t row_numel() const { return info_.shape.empty() ? 1 : numel() / rows(); }

  // Reads elements [elem_begin, elem_begin + elem_count) (row-major order) as fp32 into
  // `out`. kDataLoss if a touched chunk fails its CRC.
  Status ReadElements(int64_t elem_begin, int64_t elem_count, float* out);

  // Rows [row_begin, row_begin + row_count) as a fresh tensor of shape
  // {row_count, info().shape[1:]...}.
  Result<Tensor> ReadRange(int64_t row_begin, int64_t row_count);

  Result<Tensor> ReadAll();

 private:
  TensorFileView() = default;

  std::string path_;
  TensorFileInfo info_;
  std::unique_ptr<ByteSource> source_;  // held only for v3 files
  uint64_t payload_offset_ = 0;      // absolute file offset of the raw payload (v3)
  std::vector<uint32_t> chunk_crcs_;
  std::vector<bool> chunk_verified_;
  std::vector<uint8_t> scratch_;     // chunk read buffer, reused across calls
  std::vector<uint8_t> legacy_payload_;  // v1/v2: whole payload, verified at Open
};

// An ordered state dict. Order is preserved because ZeRO's flattened groups depend on a
// canonical parameter order.
struct TensorBundle {
  std::vector<std::pair<std::string, Tensor>> tensors;
  Json meta;  // iteration number, strategy descriptor, RNG state, ...

  // Copies and moves carry only `tensors` and `meta`; the lazy name index (and the lock
  // that makes concurrent const Finds safe) are per-instance and rebuilt on first Find.
  TensorBundle() = default;
  TensorBundle(const TensorBundle& other);
  TensorBundle& operator=(const TensorBundle& other);
  TensorBundle(TensorBundle&& other) noexcept;
  TensorBundle& operator=(TensorBundle&& other) noexcept;

  void Add(std::string name, Tensor t);
  // nullptr when absent. O(1) via a name index (rebuilt lazily if `tensors` was edited
  // directly); first insertion wins for duplicate names, matching the old linear scan.
  // Safe to call from many threads at once (the converter's parallel ingest does) as
  // long as no thread is mutating the bundle.
  const Tensor* Find(const std::string& name) const;
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

 private:
  mutable std::mutex index_mu_;
  mutable std::unordered_map<std::string, size_t> index_;
};

Status SaveBundle(const std::string& path, const TensorBundle& bundle,
                  DType dtype = DType::kF32);
Result<std::vector<uint8_t>> SerializeBundle(const TensorBundle& bundle,
                                             DType dtype = DType::kF32);
Result<TensorBundle> LoadBundle(const std::string& path);

// Bundle metadata + member names/shapes without payloads. Header-only for v3 (see
// StatTensor); whole-file for v1/v2.
struct BundleInfo {
  Json meta;
  std::vector<std::pair<std::string, TensorFileInfo>> entries;
};
Result<BundleInfo> StatBundle(const std::string& path);
Result<BundleInfo> StatBundle(std::unique_ptr<ByteSource> source);

// Bundle twin of TensorFileView: one header parse/verify at Open, then per-member range
// reads via pread with chunk-granular CRC verification. The native checkpoint load path
// reads its three flat optimizer tensors through this, and Extract uses it to pull flat
// buffers without the v2-era double CRC pass (whole-file + per-tensor).
class BundleFileView {
 public:
  static Result<BundleFileView> Open(const std::string& path);
  static Result<BundleFileView> Open(std::unique_ptr<ByteSource> source);

  const Json& meta() const { return meta_; }
  const std::string& path() const { return path_; }
  const std::vector<std::pair<std::string, TensorFileInfo>>& entries() const {
    return entries_;
  }
  // -1 when absent.
  int IndexOf(const std::string& name) const;

  // Whole member as a tensor; kNotFound when the name is absent.
  Result<Tensor> ReadTensor(const std::string& name);
  // Elements [elem_begin, elem_begin + elem_count) of member `entry_index` as fp32.
  Status ReadTensorElements(size_t entry_index, int64_t elem_begin, int64_t elem_count,
                            float* out);

 private:
  struct Member {
    uint64_t payload_offset = 0;  // absolute (v3) or offset into legacy_payload_ (v1/v2)
    uint32_t chunk_bytes = 0;
    std::vector<uint32_t> chunk_crcs;
    std::vector<bool> chunk_verified;
  };

  BundleFileView() = default;

  std::string path_;
  Json meta_;
  std::vector<std::pair<std::string, TensorFileInfo>> entries_;
  std::vector<Member> members_;
  std::unique_ptr<ByteSource> source_;  // held only for v3 files
  std::vector<uint8_t> scratch_;
  std::vector<uint8_t> legacy_payload_;  // v1/v2: all payloads back to back, verified
};

// The per-chunk CRC layout of one v3 container file (tensor or bundle), expressed in
// absolute file offsets. ucp_serverd builds this per open file so READ_RANGE requests can
// be verified server-side before any payload byte crosses the wire. One region per payload
// (a tensor file has one; a bundle has one per member, each with its own chunk size).
struct ChunkRegion {
  uint64_t begin = 0;  // absolute offset of the payload this region covers
  uint64_t end = 0;    // one past its last byte
  uint32_t chunk_bytes = 0;
  std::vector<uint32_t> chunk_crcs;
};
struct FileChunkIndex {
  std::vector<ChunkRegion> regions;
};

// Parses the self-checksummed v3 header prefix of `source` into a chunk index. Returns
// nullopt (not an error) for legacy v1/v2 files and for files that are not UCT1/UCB1
// containers at all — those are served without server-side payload verification (readers
// still run their own whole-file checks). kDataLoss when a v3 header is damaged.
Result<std::optional<FileChunkIndex>> ReadFileChunkIndex(ByteSource& source);

}  // namespace ucp

#endif  // UCP_SRC_TENSOR_TENSOR_FILE_H_

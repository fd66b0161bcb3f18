// On-disk tensor format.
//
// One container type covers the whole system: the bundle file ("UCB1"), an ordered map of
// named fp32 tensors plus a JSON metadata blob. Each training rank persists its
// optimizer-state shard as one bundle (the analogue of torch.save of a rank's state dict),
// and each atom checkpoint is one bundle with the members fp32, exp_avg and exp_avg_sq (the
// paper's per-parameter .pt files, §3.1).
//
// A bundle carries an endianness tag, a format-version field, CRC32 integrity checks that
// localize damage to one payload chunk of a named member, and a trailing CRC32 over the
// entire file. Truncation and corruption are detected at load time (kDataLoss); `ucp_tool
// fsck` names the damaged file.
//
// Format: v3 only. The header forms a fixed-size prefix (its size is recorded at a fixed
// offset and the prefix carries its own CRC), payloads are raw contiguous bytes protected by
// a table of per-chunk CRC32s (64 KiB chunks, shrinking to 4 KiB for small payloads), and
// entries record absolute payload offsets. StatBundle reads only the prefix; BundleFileView
// serves pread range reads verifying only the chunks a range touches. The trailing
// whole-file CRC serves whole-file readers and deep fsck. A version field other than 3 fails
// every reader with kDataLoss naming the value. (v1 and v2, which had no chunk table and
// were read whole, are no longer read.) Payloads are fp32: a dtype byte other than 0 (f32)
// fails every reader with kDataLoss naming the byte.

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
#include "src/tensor/tensor.h"

namespace ucp {

// Header-only peek at one bundle member: shape and chunking without reading the payload.
struct TensorFileInfo {
  Shape shape;
  uint64_t payload_bytes = 0;
  uint32_t chunk_bytes = 0;
  uint32_t num_chunks = 0;
};

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

// Writes the bundle atomically (tmp write, fsync, rename). The atom writer and foreign
// checkpoints write by path; training saves stream SerializeBundle's bytes through a
// StoreWriter (local: the same WriteFileAtomic; remote: chunked frames to ucp_serverd), so
// serialization is shared between both backends.
Status SaveBundle(const std::string& path, const TensorBundle& bundle);
Result<std::vector<uint8_t>> SerializeBundle(const TensorBundle& bundle);
// Whole-file read, verified end to end (file CRC and every chunk CRC).
Result<TensorBundle> LoadBundle(const std::string& path);

// Bundle metadata + member names/shapes without payloads, from the header prefix alone
// (verified by its own CRC).
struct BundleInfo {
  Json meta;
  std::vector<std::pair<std::string, TensorFileInfo>> entries;
};
Result<BundleInfo> StatBundle(std::unique_ptr<ByteSource> source);

// Full-integrity pass without materializing tensors: whole-file CRC plus every per-member /
// per-chunk CRC. What `ucp_tool fsck` runs in its default (deep) mode, through any source
// (a local file, or a file opened through a Store).
Status DeepVerifyBundleFile(std::unique_ptr<ByteSource> source);

// A read-only view of one bundle: one header parse/verify at Open, then per-member range
// reads via pread, verifying only the CRC chunks each range touches (each chunk at most
// once per view). Over a remote store file the ranges become positional reads against the
// source, and chunk CRCs are still verified on this side of the wire. Not thread-safe; give
// each worker its own view.
class BundleFileView {
 public:
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
    uint64_t payload_offset = 0;  // absolute file offset
    std::vector<uint32_t> chunk_crcs;
    std::vector<bool> chunk_verified;
  };

  BundleFileView() = default;

  std::string path_;
  Json meta_;
  std::vector<std::pair<std::string, TensorFileInfo>> entries_;
  std::vector<Member> members_;
  std::unique_ptr<ByteSource> source_;
  std::vector<uint8_t> scratch_;
};

// The per-chunk CRC layout of one bundle file, expressed in absolute file offsets.
// ucp_serverd builds this per open file so READ_RANGE requests can be verified server-side
// before any payload byte crosses the wire. One region per member, each with its own chunk
// size.
struct ChunkRegion {
  uint64_t begin = 0;  // absolute offset of the payload this region covers
  uint64_t end = 0;    // one past its last byte
  uint32_t chunk_bytes = 0;
  std::vector<uint32_t> chunk_crcs;
};
struct FileChunkIndex {
  std::vector<ChunkRegion> regions;
};

// Parses the self-checksummed header prefix of `source` into a chunk index. Returns nullopt
// (not an error) for files that are not bundles at all; those are served without
// server-side payload verification. kDataLoss when a bundle's version field is not 3 or its
// header is damaged.
Result<std::optional<FileChunkIndex>> ReadFileChunkIndex(ByteSource& source);

}  // namespace ucp

#endif  // UCP_SRC_TENSOR_TENSOR_FILE_H_

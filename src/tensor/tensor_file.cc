#include "src/tensor/tensor_file.h"

#include <atomic>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/obs/metrics.h"

namespace ucp {
namespace {

constexpr uint32_t kBundleMagic = 0x31424355;  // "UCB1" little-endian
constexpr uint32_t kEndianTag = 0x01020304;
constexpr uint32_t kFormatVersion = 3;  // the only version written or read

// Chunk sizing: 64 KiB default, halved down to 4 KiB until a payload spans at least four
// chunks, so chunk-CRC localization is meaningful even for simulator-scale tensors.
constexpr uint32_t kMaxChunkBytes = 64 * 1024;
constexpr uint32_t kMinChunkBytes = 4 * 1024;

uint32_t PickChunkBytes(uint64_t payload_bytes) {
  uint32_t chunk = kMaxChunkBytes;
  while (chunk > kMinChunkBytes && payload_bytes < 4ull * chunk) {
    chunk /= 2;
  }
  return chunk;
}

uint32_t NumChunksFor(uint64_t payload_bytes, uint32_t chunk_bytes) {
  if (payload_bytes == 0) {
    return 0;
  }
  return static_cast<uint32_t>((payload_bytes + chunk_bytes - 1) / chunk_bytes);
}

// Registry-backed (see src/obs/metrics.h); GetTensorIoStats reads these back out.
obs::Counter& BytesReadCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("tensor.io.bytes_read");
  return c;
}
obs::Counter& ReadCallsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("tensor.io.read_calls");
  return c;
}
obs::Counter& ChunksVerifiedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("tensor.io.chunks_verified");
  return c;
}

void CountRead(uint64_t bytes) {
  BytesReadCounter().Add(bytes);
  ReadCallsCounter().Add(1);
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void PatchU32(std::vector<uint8_t>& buf, size_t at, uint32_t v) {
  std::memcpy(buf.data() + at, &v, 4);
}

void PatchU64(std::vector<uint8_t>& buf, size_t at, uint64_t v) {
  std::memcpy(buf.data() + at, &v, 8);
}

// ---------------------------------------------------------------------------
// Per-payload header pieces: dtype, shape and payload size. Payloads are raw little-endian
// fp32, the in-memory layout, so encoding and decoding are plain copies.

// The payload dtype byte: 0 (f32) is the only value written or read, and a reader refuses
// any other byte with kDataLoss.
constexpr uint8_t kF32DtypeByte = 0;

void PutHeader(ByteWriter& w, const Tensor& t) {
  w.PutU8(kF32DtypeByte);
  w.PutU32(static_cast<uint32_t>(t.ndim()));
  for (int i = 0; i < t.ndim(); ++i) {
    w.PutI64(t.dim(i));
  }
}

// One entry of a v3 header: dtype, shape, payload size and chunk table.
struct V3Entry {
  TensorFileInfo info;
  std::vector<uint32_t> chunk_crcs;
};

Result<V3Entry> GetV3Entry(ByteReader& r, const std::string& what) {
  V3Entry e;
  TensorFileInfo& info = e.info;
  UCP_ASSIGN_OR_RETURN(uint8_t dtype_byte, r.GetU8());
  if (dtype_byte != kF32DtypeByte) {
    return DataLossError("payload dtype byte " + std::to_string(dtype_byte) + " in " + what +
                         " is not supported (only f32 is read)");
  }
  UCP_ASSIGN_OR_RETURN(uint32_t ndim, r.GetU32());
  if (ndim > 16) {
    return DataLossError("implausible tensor rank " + std::to_string(ndim));
  }
  for (uint32_t i = 0; i < ndim; ++i) {
    UCP_ASSIGN_OR_RETURN(int64_t d, r.GetI64());
    if (d < 0) {
      return DataLossError("negative dimension in tensor header");
    }
    info.shape.push_back(d);
  }
  UCP_ASSIGN_OR_RETURN(info.payload_bytes, r.GetU64());
  uint64_t expect = static_cast<uint64_t>(ShapeNumel(info.shape)) * sizeof(float);
  if (info.payload_bytes != expect) {
    return DataLossError("payload size " + std::to_string(info.payload_bytes) +
                         " does not match shape " + ShapeToString(info.shape));
  }
  UCP_ASSIGN_OR_RETURN(info.chunk_bytes, r.GetU32());
  if (info.chunk_bytes == 0) {
    return DataLossError("zero chunk size in " + what);
  }
  UCP_ASSIGN_OR_RETURN(info.num_chunks, r.GetU32());
  if (info.num_chunks != NumChunksFor(info.payload_bytes, info.chunk_bytes)) {
    return DataLossError("chunk count does not match payload size in " + what);
  }
  e.chunk_crcs.resize(info.num_chunks);
  for (uint32_t& crc : e.chunk_crcs) {
    UCP_ASSIGN_OR_RETURN(crc, r.GetU32());
  }
  return e;
}

std::string ChunkCrcErr(const std::string& what, size_t chunk_index, size_t num_chunks) {
  // Callers and fsck match on the "per-tensor CRC mismatch in <member>" phrasing; the
  // suffix pinpoints the damaged chunk.
  return "per-tensor CRC mismatch in " + what + " (chunk " + std::to_string(chunk_index) +
         " of " + std::to_string(num_chunks) + ")";
}

// Verifies every chunk CRC of a payload already in memory.
Status VerifyChunks(const uint8_t* payload, uint64_t payload_bytes, uint32_t chunk_bytes,
                    const std::vector<uint32_t>& crcs, const std::string& what) {
  for (size_t ci = 0; ci < crcs.size(); ++ci) {
    uint64_t start = ci * static_cast<uint64_t>(chunk_bytes);
    uint64_t size = std::min<uint64_t>(chunk_bytes, payload_bytes - start);
    if (Crc32(payload + start, static_cast<size_t>(size)) != crcs[ci]) {
      return DataLossError(ChunkCrcErr(what, ci, crcs.size()));
    }
    ChunksVerifiedCounter().Add(1);
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// v3 writer. Layout:
//   u32 magic | u32 endian | u32 version
//   u64 header_bytes                         (fixed offset 12; == first payload's offset)
//   str meta_json | u32 count
//   count x { str name
//             u8 dtype | u32 ndim | i64 dims[ndim] | u64 payload_bytes
//             u32 chunk_bytes | u32 num_chunks | u32 chunk_crc[num_chunks]
//             u64 payload_offset }
//   u32 header_crc                           (CRC32 over bytes [0, here))
//   payloads (raw, concatenated in entry order)
//   u32 file_crc                             (CRC32 over bytes [0, here))
//
// The header is written first, with zeroed slots for the chunk CRCs and payload offsets; that
// fixes the file's size. The file is then allocated once, each payload is encoded at its final
// offset, and the slots are filled from the bytes in place.

// One payload of a v3 file and the header slots that describe it.
struct V3Payload {
  const Tensor* tensor;
  uint64_t bytes;
  uint32_t chunk_bytes;
  size_t crc_slot;     // header offset of chunk_crc[0]
  size_t offset_slot;  // header offset of the entry's payload_offset
};

void PutPrologue(ByteWriter& w) {
  w.PutU32(kBundleMagic);
  w.PutU32(kEndianTag);
  w.PutU32(kFormatVersion);
  w.PutU64(0);  // header_bytes, patched by BuildV3
}

// dtype, shape, payload size and chunk table (CRC slots zeroed) of one payload.
V3Payload PutV3Entry(ByteWriter& w, const Tensor& t) {
  V3Payload p{&t, static_cast<uint64_t>(t.numel()) * sizeof(float), 0, 0, 0};
  p.chunk_bytes = PickChunkBytes(p.bytes);
  const uint32_t num_chunks = NumChunksFor(p.bytes, p.chunk_bytes);
  PutHeader(w, t);
  w.PutU64(p.bytes);
  w.PutU32(p.chunk_bytes);
  w.PutU32(num_chunks);
  p.crc_slot = w.size();
  for (uint32_t ci = 0; ci < num_chunks; ++ci) {
    w.PutU32(0);
  }
  return p;
}

std::vector<uint8_t> BuildV3(const ByteWriter& header, const std::vector<V3Payload>& payloads) {
  const uint64_t header_bytes = header.size() + 4;  // + header_crc
  uint64_t file_bytes = header_bytes + 4;           // + file_crc
  for (const V3Payload& p : payloads) {
    file_bytes += p.bytes;
  }
  std::vector<uint8_t> buf;
  buf.reserve(static_cast<size_t>(file_bytes));
  buf.assign(header.buffer().begin(), header.buffer().end());
  buf.resize(static_cast<size_t>(header_bytes));
  PatchU64(buf, 12, header_bytes);
  for (const V3Payload& p : payloads) {
    const size_t at = buf.size();
    PatchU64(buf, p.offset_slot, at);
    const auto* payload = reinterpret_cast<const uint8_t*>(p.tensor->data());
    buf.insert(buf.end(), payload, payload + p.bytes);
    for (uint64_t start = 0, ci = 0; start < p.bytes; start += p.chunk_bytes, ++ci) {
      const uint64_t size = std::min<uint64_t>(p.chunk_bytes, p.bytes - start);
      PatchU32(buf, p.crc_slot + 4 * ci,
               Crc32(buf.data() + at + start, static_cast<size_t>(size)));
    }
  }
  PatchU32(buf, header_bytes - 4, Crc32(buf.data(), header_bytes - 4));
  const size_t body_bytes = buf.size();
  buf.resize(body_bytes + 4);
  PatchU32(buf, body_bytes, Crc32(buf.data(), body_bytes));
  return buf;
}

// ---------------------------------------------------------------------------
// Read-side helpers.

// Checks magic, endian tag and format version from the 12-byte prologue. A version other
// than 3 is kDataLoss, the code a bad magic gets: both CRCs cover the field, so bit rot in it
// and a file from another build look alike, and either way resume must fall back to an
// older tag.
Status CheckPrologue(const uint8_t* p, const std::string& path) {
  if (LoadU32(p) != kBundleMagic) {
    return DataLossError("bundle bad magic in " + path);
  }
  if (LoadU32(p + 4) != kEndianTag) {
    return DataLossError("bundle endianness mismatch in " + path);
  }
  const uint32_t version = LoadU32(p + 8);
  if (version != kFormatVersion) {
    return DataLossError("bundle format version " + std::to_string(version) + " in " + path +
                         " is not supported (only v3 is read)");
  }
  return OkStatus();
}

Status CheckFileCrc(const std::string& contents, const std::string& path) {
  size_t body_size = contents.size() - 4;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, contents.data() + body_size, 4);
  if (stored_crc != Crc32(contents.data(), body_size)) {
    return DataLossError("bundle CRC mismatch in " + path);
  }
  return OkStatus();
}

// Checks the prologue, the trailing file CRC and the header-size field of a whole file held
// in memory; returns the header size (== the first payload's offset).
Result<uint64_t> CheckWholeFile(const std::string& contents, const std::string& path) {
  if (contents.size() < 24) {  // prologue + header size + trailing CRC at minimum
    return DataLossError("bundle file truncated: " + path);
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  UCP_RETURN_IF_ERROR(CheckPrologue(data, path));
  UCP_RETURN_IF_ERROR(CheckFileCrc(contents, path));
  const uint64_t header_bytes = LoadU64(data + 12);
  if (header_bytes < 24 || header_bytes > contents.size() - 4) {
    return DataLossError("bundle header size out of range in " + path);
  }
  return header_bytes;
}

Status CheckHeaderCrc(const uint8_t* prefix, uint64_t size, const std::string& path) {
  if (size < 24) {
    return DataLossError("bundle header truncated: " + path);
  }
  if (Crc32(prefix, static_cast<size_t>(size - 4)) != LoadU32(prefix + size - 4)) {
    return DataLossError("bundle header CRC mismatch in " + path);
  }
  return OkStatus();
}

struct V3BundleHeader {
  Json meta;
  std::vector<std::pair<std::string, TensorFileInfo>> entries;
  struct Member {
    uint64_t payload_offset;
    std::vector<uint32_t> chunk_crcs;
  };
  std::vector<Member> members;
};

// Parses the header prefix (bytes [0, header_bytes), including its CRC). `file_size` is the
// size of the whole file the prefix came from; a file whose last payload does not end
// exactly at its trailing CRC is truncated (or padded) and rejected.
Result<V3BundleHeader> ParseV3BundlePrefix(const uint8_t* prefix, uint64_t size,
                                           uint64_t file_size, const std::string& path) {
  UCP_RETURN_IF_ERROR(CheckHeaderCrc(prefix, size, path));
  ByteReader r(prefix, static_cast<size_t>(size - 4));
  (void)r.GetU32();  // magic
  (void)r.GetU32();  // endian
  (void)r.GetU32();  // version
  UCP_ASSIGN_OR_RETURN(uint64_t header_bytes, r.GetU64());
  if (header_bytes != size) {
    return DataLossError("inconsistent header size in " + path);
  }
  V3BundleHeader out;
  UCP_ASSIGN_OR_RETURN(std::string meta_text, r.GetString());
  UCP_ASSIGN_OR_RETURN(out.meta, Json::Parse(meta_text));
  UCP_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  if (count > r.remaining()) {  // each entry takes well over one byte
    return DataLossError("implausible bundle entry count in " + path);
  }
  uint64_t expected_offset = header_bytes;
  for (uint32_t i = 0; i < count; ++i) {
    UCP_ASSIGN_OR_RETURN(std::string name, r.GetString());
    UCP_ASSIGN_OR_RETURN(V3Entry entry, GetV3Entry(r, path + ":" + name));
    UCP_ASSIGN_OR_RETURN(uint64_t payload_offset, r.GetU64());
    if (payload_offset != expected_offset) {
      return DataLossError("non-contiguous payload offsets in " + path);
    }
    expected_offset += entry.info.payload_bytes;
    out.entries.emplace_back(std::move(name), std::move(entry.info));
    out.members.push_back({payload_offset, std::move(entry.chunk_crcs)});
  }
  if (!r.AtEnd()) {
    return DataLossError("trailing bytes in bundle header of " + path);
  }
  if (expected_offset + 4 != file_size) {
    return DataLossError("bundle file truncated: " + path);
  }
  return out;
}

// A whole file held in memory, parsed and fully verified: prologue, file CRC, header and
// every payload chunk.
Result<V3BundleHeader> VerifyBundleFile(const std::string& contents, const std::string& path) {
  UCP_ASSIGN_OR_RETURN(uint64_t header_bytes, CheckWholeFile(contents, path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h,
                       ParseV3BundlePrefix(data, header_bytes, contents.size(), path));
  for (size_t i = 0; i < h.entries.size(); ++i) {
    const TensorFileInfo& info = h.entries[i].second;
    UCP_RETURN_IF_ERROR(VerifyChunks(data + h.members[i].payload_offset, info.payload_bytes,
                                     info.chunk_bytes, h.members[i].chunk_crcs,
                                     path + ":" + h.entries[i].first));
  }
  return h;
}

// Reads the full contents of a source into memory for a deep-verify pass.
Result<std::string> SlurpSource(ByteSource& source) {
  std::string contents(source.size(), '\0');
  if (!contents.empty()) {
    UCP_RETURN_IF_ERROR(source.ReadAt(0, contents.data(), contents.size()));
  }
  CountRead(contents.size());
  return contents;
}

// Reads the [0, header_bytes) prefix of `f` after checking its prologue, so a wrong magic or
// version is reported as such rather than as a bad header size.
Result<std::vector<uint8_t>> ReadV3Prefix(ByteSource& f) {
  if (f.size() < 24) {
    return DataLossError("bundle file truncated: " + f.name());
  }
  uint8_t head[20];
  UCP_RETURN_IF_ERROR(f.ReadAt(0, head, sizeof(head)));
  UCP_RETURN_IF_ERROR(CheckPrologue(head, f.name()));
  uint64_t header_bytes = LoadU64(head + 12);
  if (header_bytes < 24 || header_bytes > f.size() - 4) {
    return DataLossError("bundle header size out of range in " + f.name());
  }
  std::vector<uint8_t> prefix(static_cast<size_t>(header_bytes));
  UCP_RETURN_IF_ERROR(f.ReadAt(0, prefix.data(), prefix.size()));
  CountRead(prefix.size());
  return prefix;
}

// BundleFileView's chunk-verifying positional read: copies elements
// [elem_begin, elem_begin + elem_count) of a payload living at `payload_offset` in `f`.
// Unverified chunks are read whole (and their CRC checked once); already-verified chunks are
// read only where the range overlaps them.
Status ReadChunkedRange(ByteSource& f, uint64_t payload_offset,
                        uint64_t payload_bytes, uint32_t chunk_bytes,
                        const std::vector<uint32_t>& crcs, std::vector<bool>& verified,
                        std::vector<uint8_t>& scratch, int64_t elem_begin,
                        int64_t elem_count, float* out, const std::string& what) {
  if (elem_count == 0) {
    return OkStatus();
  }
  const uint64_t esize = sizeof(float);
  const uint64_t byte_begin = static_cast<uint64_t>(elem_begin) * esize;
  const uint64_t byte_end = byte_begin + static_cast<uint64_t>(elem_count) * esize;
  const size_t first_chunk = static_cast<size_t>(byte_begin / chunk_bytes);
  const size_t last_chunk = static_cast<size_t>((byte_end - 1) / chunk_bytes);
  if (scratch.size() < chunk_bytes) {
    scratch.resize(chunk_bytes);
  }
  float* dst = out;
  for (size_t ci = first_chunk; ci <= last_chunk; ++ci) {
    const uint64_t chunk_start = ci * static_cast<uint64_t>(chunk_bytes);
    const uint64_t chunk_size = std::min<uint64_t>(chunk_bytes, payload_bytes - chunk_start);
    const uint64_t overlap_begin = std::max(byte_begin, chunk_start);
    const uint64_t overlap_end = std::min(byte_end, chunk_start + chunk_size);
    const size_t overlap_bytes = static_cast<size_t>(overlap_end - overlap_begin);
    if (!verified[ci]) {
      UCP_RETURN_IF_ERROR(f.ReadAt(payload_offset + chunk_start, scratch.data(),
                                   static_cast<size_t>(chunk_size)));
      CountRead(chunk_size);
      if (Crc32(scratch.data(), static_cast<size_t>(chunk_size)) != crcs[ci]) {
        return DataLossError(ChunkCrcErr(what, ci, crcs.size()));
      }
      verified[ci] = true;
      ChunksVerifiedCounter().Add(1);
      std::memcpy(dst, scratch.data() + (overlap_begin - chunk_start), overlap_bytes);
    } else {
      UCP_RETURN_IF_ERROR(f.ReadAt(payload_offset + overlap_begin, scratch.data(),
                                   overlap_bytes));
      CountRead(overlap_bytes);
      std::memcpy(dst, scratch.data(), overlap_bytes);
    }
    dst += overlap_bytes / esize;
  }
  return OkStatus();
}

}  // namespace

// ---------------------------------------------------------------------------
// IO stats.

TensorIoStats GetTensorIoStats() {
  TensorIoStats s;
  s.bytes_read = BytesReadCounter().Value();
  s.read_calls = ReadCallsCounter().Value();
  s.chunks_verified = ChunksVerifiedCounter().Value();
  return s;
}

void ResetTensorIoStats() {
  BytesReadCounter().Reset();
  ReadCallsCounter().Reset();
  ChunksVerifiedCounter().Reset();
}

// ---------------------------------------------------------------------------
// TensorBundle.

TensorBundle::TensorBundle(const TensorBundle& other)
    : tensors(other.tensors), meta(other.meta) {}

TensorBundle& TensorBundle::operator=(const TensorBundle& other) {
  if (this != &other) {
    tensors = other.tensors;
    meta = other.meta;
    std::lock_guard<std::mutex> lock(index_mu_);
    index_.clear();
  }
  return *this;
}

TensorBundle::TensorBundle(TensorBundle&& other) noexcept
    : tensors(std::move(other.tensors)), meta(std::move(other.meta)) {}

TensorBundle& TensorBundle::operator=(TensorBundle&& other) noexcept {
  if (this != &other) {
    tensors = std::move(other.tensors);
    meta = std::move(other.meta);
    std::lock_guard<std::mutex> lock(index_mu_);
    index_.clear();
  }
  return *this;
}

void TensorBundle::Add(std::string name, Tensor t) {
  tensors.emplace_back(std::move(name), std::move(t));
  std::lock_guard<std::mutex> lock(index_mu_);
  index_.clear();  // rebuilt lazily on the next Find
}

const Tensor* TensorBundle::Find(const std::string& name) const {
  if (tensors.empty()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (index_.empty()) {
      for (size_t i = 0; i < tensors.size(); ++i) {
        index_.emplace(tensors[i].first, i);  // emplace keeps the first duplicate
      }
    }
    auto it = index_.find(name);
    if (it == index_.end()) {
      if (index_.size() == tensors.size()) {
        return nullptr;
      }
    } else if (it->second < tensors.size() && tensors[it->second].first == name) {
      return &tensors[it->second].second;
    }
    // The index is stale (tensors was edited directly, e.g. the snapshot writer's
    // resize-then-Add); rebuild once and retry.
    index_.clear();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Bundle files.

Result<std::vector<uint8_t>> SerializeBundle(const TensorBundle& bundle) {
  ByteWriter w;
  PutPrologue(w);
  w.PutString(bundle.meta.Dump());
  w.PutU32(static_cast<uint32_t>(bundle.tensors.size()));
  std::vector<V3Payload> payloads;
  payloads.reserve(bundle.tensors.size());
  for (const auto& [name, tensor] : bundle.tensors) {
    if (!tensor.defined()) {
      return InvalidArgumentError("SerializeBundle of undefined tensor " + name);
    }
    w.PutString(name);
    payloads.push_back(PutV3Entry(w, tensor));
    payloads.back().offset_slot = w.size();
    w.PutU64(0);  // payload_offset, patched by BuildV3
  }
  return BuildV3(w, payloads);
}

Status SaveBundle(const std::string& path, const TensorBundle& bundle) {
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, SerializeBundle(bundle));
  return WriteFileAtomic(path, buf.data(), buf.size());
}

Result<TensorBundle> LoadBundle(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  CountRead(contents.size());
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h, VerifyBundleFile(contents, path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(contents.data());
  TensorBundle bundle;
  bundle.meta = std::move(h.meta);
  for (size_t i = 0; i < h.entries.size(); ++i) {
    const TensorFileInfo& info = h.entries[i].second;
    Tensor t = Tensor::Zeros(info.shape);
    std::memcpy(t.data(), data + h.members[i].payload_offset, info.payload_bytes);
    bundle.Add(h.entries[i].first, std::move(t));
  }
  return bundle;
}

Result<BundleInfo> StatBundle(std::unique_ptr<ByteSource> source) {
  UCP_ASSIGN_OR_RETURN(BundleFileView view, BundleFileView::Open(std::move(source)));
  BundleInfo info;
  info.meta = view.meta();
  info.entries = view.entries();
  return info;
}

Status DeepVerifyBundleFile(std::unique_ptr<ByteSource> source) {
  UCP_ASSIGN_OR_RETURN(std::string contents, SlurpSource(*source));
  return VerifyBundleFile(contents, source->name()).status();
}

// ---------------------------------------------------------------------------
// BundleFileView.

Result<BundleFileView> BundleFileView::Open(std::unique_ptr<ByteSource> source) {
  const std::string path = source->name();
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> prefix, ReadV3Prefix(*source));
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h, ParseV3BundlePrefix(prefix.data(), prefix.size(),
                                                             source->size(), path));
  BundleFileView view;
  view.path_ = path;
  view.meta_ = std::move(h.meta);
  view.entries_ = std::move(h.entries);
  for (V3BundleHeader::Member& m : h.members) {
    Member member;
    member.payload_offset = m.payload_offset;
    member.chunk_verified.assign(m.chunk_crcs.size(), false);
    member.chunk_crcs = std::move(m.chunk_crcs);
    view.members_.push_back(std::move(member));
  }
  view.source_ = std::move(source);
  return view;
}

int BundleFileView::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Result<Tensor> BundleFileView::ReadTensor(const std::string& name) {
  int idx = IndexOf(name);
  if (idx < 0) {
    return NotFoundError("bundle " + path_ + " has no tensor " + name);
  }
  const TensorFileInfo& info = entries_[static_cast<size_t>(idx)].second;
  Tensor t = Tensor::Zeros(info.shape);
  UCP_RETURN_IF_ERROR(
      ReadTensorElements(static_cast<size_t>(idx), 0, t.numel(), t.data()));
  return t;
}

Status BundleFileView::ReadTensorElements(size_t entry_index, int64_t elem_begin,
                                          int64_t elem_count, float* out) {
  if (entry_index >= entries_.size()) {
    return InvalidArgumentError("bundle entry index out of range for " + path_);
  }
  const TensorFileInfo& info = entries_[entry_index].second;
  if (elem_begin < 0 || elem_count < 0 ||
      elem_begin + elem_count > ShapeNumel(info.shape)) {
    return InvalidArgumentError("ReadTensorElements range out of bounds for " + path_ + ":" +
                                entries_[entry_index].first);
  }
  Member& m = members_[entry_index];
  return ReadChunkedRange(*source_, m.payload_offset, info.payload_bytes, info.chunk_bytes,
                          m.chunk_crcs, m.chunk_verified, scratch_, elem_begin, elem_count,
                          out, path_ + ":" + entries_[entry_index].first);
}

// ---------------------------------------------------------------------------
// Chunk index (server-side READ_RANGE verification).

Result<std::optional<FileChunkIndex>> ReadFileChunkIndex(ByteSource& source) {
  if (source.size() < 16) {
    return std::optional<FileChunkIndex>(std::nullopt);
  }
  uint8_t magic_bytes[4];
  UCP_RETURN_IF_ERROR(source.ReadAt(0, magic_bytes, sizeof(magic_bytes)));
  if (LoadU32(magic_bytes) != kBundleMagic) {
    return std::optional<FileChunkIndex>(std::nullopt);
  }
  UCP_ASSIGN_OR_RETURN(std::vector<uint8_t> prefix, ReadV3Prefix(source));
  UCP_ASSIGN_OR_RETURN(V3BundleHeader h, ParseV3BundlePrefix(prefix.data(), prefix.size(),
                                                             source.size(), source.name()));
  FileChunkIndex index;
  for (size_t i = 0; i < h.members.size(); ++i) {
    ChunkRegion region;
    region.begin = h.members[i].payload_offset;
    region.end = h.members[i].payload_offset + h.entries[i].second.payload_bytes;
    region.chunk_bytes = h.entries[i].second.chunk_bytes;
    region.chunk_crcs = std::move(h.members[i].chunk_crcs);
    index.regions.push_back(std::move(region));
  }
  return std::optional<FileChunkIndex>(std::move(index));
}

}  // namespace ucp

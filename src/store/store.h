// The unified checkpoint-store abstraction.
//
// Every checkpoint read (native load, Extract and conversion's source side, validation,
// the UCP load, the resume tag walk) and every save, commit and GC goes through `Store`,
// so a training job is indifferent to whether its checkpoints live in a local directory
// (LocalStore) or behind `ucp_serverd` (RemoteStore, speaking the framed wire protocol in
// wire.h). The writes that still take a path are conversion's atom output and fsck's
// quarantine renames (docs/store.md). The interface is deliberately narrow
// (Portus/ByteCheckpoint-style decoupling): relative paths and tag names only, staged
// writes with an explicit commit, positional reads via ByteSource so BundleFileView range
// reads work unchanged over either backend.
//
// Commit protocol (identical on both backends; the remote one runs it server-side):
//   ResetTagStaging(tag)              -- clear debris of a crashed save
//   OpenTagForWrite(tag) -> writer    -- one writer per rank; files land in <tag>.staging
//   writer->WriteFile(rel, bytes)     -- whole serialized shard files (bundle blobs)
//   CommitTag(tag, meta_json)         -- meta into staging, rename, marker, latest
//   AbortTag(tag)                     -- or: drop the staging dir, nothing published
//
// See docs/store.md for the full contract and docs/durability.md for why the commit
// ordering is what makes crash-consistency hold.

#ifndef UCP_SRC_STORE_STORE_H_
#define UCP_SRC_STORE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fs.h"
#include "src/common/status.h"
#include "src/store/ckpt_meta.h"
#include "src/store/tags.h"

namespace ucp {

// Retention outcome of one Gc() pass (see Store::Gc for the policy).
struct GcReport {
  std::vector<std::string> removed;  // committed tags deleted (ascending iteration)
  std::vector<std::string> kept;     // committed tags surviving
  std::string ToString() const;
};

// Result of the retired StoreWriter::WriteFileChunked below, empty since nothing reads it.
struct ChunkedWriteStats {};

// A staged write of one tag. Writers only stage: nothing a reader trusts exists until the
// owning Store's CommitTag. Several writers may stage into the same tag concurrently (one
// per rank); Commit/Abort are store-level, called once by rank 0 / the flusher.
class StoreWriter {
 public:
  virtual ~StoreWriter() = default;

  const std::string& tag() const { return tag_; }

  // Stages `rel` (a file name inside the tag) with exactly these bytes. Local: the same
  // tmp-write/fsync/rename as always (ScopedFsyncBatch on the calling thread still
  // applies). Remote: a chunked frame stream, CRC-verified server-side before the file is
  // staged.
  virtual Status WriteFile(const std::string& rel, const void* data, size_t size) = 0;
  Status WriteFile(const std::string& rel, const std::vector<uint8_t>& bytes) {
    return WriteFile(rel, bytes.data(), bytes.size());
  }
  Status WriteFile(const std::string& rel, const std::string& text) {
    return WriteFile(rel, text.data(), text.size());
  }

  // Retired chunked-write hooks, inert: perfbench/timed_store.cc still overrides all three.
  // Nothing else calls them; they go when the benchmark drops its overrides.
  virtual bool SupportsChunked() const { return false; }
  virtual Result<ChunkedWriteStats> WriteFileChunked(const std::string& rel,
                                                     const void* data, size_t size,
                                                     const std::vector<uint64_t>& /*digests*/,
                                                     bool /*compress*/,
                                                     uint64_t /*inherited*/) {
    UCP_RETURN_IF_ERROR(WriteFile(rel, data, size));
    return ChunkedWriteStats{};
  }
  virtual Status FinalizeManifest(const std::string& /*parent_tag*/) { return OkStatus(); }

 protected:
  explicit StoreWriter(std::string tag) : tag_(std::move(tag)) {}

 private:
  std::string tag_;
};

class Store {
 public:
  virtual ~Store() = default;

  // Human-readable identity ("dir:/path" or "unix:/sock"), for logs and errors.
  virtual std::string Describe() const = 0;

  // Stable identity of `rel`: LocalStore returns the absolute path, RemoteStore an
  // endpoint-qualified key. Its one caller is RemoteStore::OpenRead, which names the
  // ByteSource it returns with it.
  virtual std::string CacheKey(const std::string& rel) const = 0;

  // ---- Reads ----------------------------------------------------------------------------

  // Positional access to one file; the handle stays valid independently of the Store's
  // later calls. Remote sources verify nothing themselves — chunk CRCs are checked
  // server-side per READ_RANGE and again by the file views client-side.
  virtual Result<std::unique_ptr<ByteSource>> OpenRead(const std::string& rel) = 0;

  // Whole small file (latest pointers, meta JSON). Not for tensor payloads.
  virtual Result<std::string> ReadSmallFile(const std::string& rel) = 0;

  // True when `rel` exists (file or directory).
  virtual Result<bool> Exists(const std::string& rel) = 0;

  // Entry names under directory `rel` ("" = store root), sorted.
  virtual Result<std::vector<std::string>> List(const std::string& rel) = 0;

  // All checkpoint tags in `job`'s namespace, ascending iteration order (committed or not;
  // callers filter with IsTagComplete).
  virtual Result<std::vector<std::string>> ListTags(const std::string& job) = 0;

  // ---- Staged writes / commit ----------------------------------------------------------

  virtual Result<std::unique_ptr<StoreWriter>> OpenTagForWrite(const std::string& tag) = 0;

  // Clears `<tag>.staging` (debris of a previous crashed save) and recreates it empty.
  virtual Status ResetTagStaging(const std::string& tag) = 0;

  // The commit sequence shared by the synchronous save and the async flusher: metadata into
  // staging, wholesale replacement of any previous `<tag>` commit, atomic rename, marker,
  // then the owning job's `latest` pointer (the namespace is parsed from the tag name).
  // Single-caller (rank 0 / the flusher); staging must hold every shard. `meta_json` is the
  // serialized CheckpointMeta (meta.ToJson().Dump(2)).
  virtual Status CommitTag(const std::string& tag, const std::string& meta_json) = 0;

  // Drops the staging directory of an aborted save. OK when absent.
  virtual Status AbortTag(const std::string& tag) = 0;

  // ---- Retention / GC ------------------------------------------------------------------

  // Removes a committed tag and its cached `.ucp` conversion. OK when absent.
  virtual Status DeleteTag(const std::string& tag) = 0;

  // Retention for steady-state training (`ucp_tool gc`, AsyncCheckpointOptions::keep_last):
  // keeps the newest `keep_last` *committed* tags of `job`'s namespace. Uncommitted tags
  // and staging debris are never touched: they belong to crashed-save recovery, and a tag
  // mid-commit by a concurrent flusher must not be swept. Never deletes the tag the job's
  // `latest` names, nor the newest tag whose metadata still reads back: when every tag in
  // the keep window is damaged, that older tag is the job's only resume point. Other jobs'
  // tags and pointers are invisible to it. Call from one process per job.
  virtual Result<GcReport> Gc(const std::string& job, int keep_last, bool dry_run) = 0;

  // Removes stale `<tag>.staging` / `<tag>.ucp.staging` dirs in `job`'s namespace (debris
  // of crashed saves and conversions, never trusted by any reader). Returns the number
  // removed. Call with no save in flight for `job`; other jobs' staging is never touched,
  // since sweeping a concurrent flush's staging would fail its commit rename.
  virtual Result<int> SweepStagingDebris(const std::string& job) = 0;
};

// ---- Store-generic helpers (compositions of the primitives above) ------------------------

// Reads the job's latest pointer. Advisory: it is written after the commit marker, so a
// crash can leave it one save behind, and fsck quarantine can orphan it. Resume must use
// FindLatestValidTag; this is for diagnostics and retention's "never delete what latest
// names" guard.
Result<std::string> ReadLatestTag(Store& store, const std::string& job = "");

// True when the tag's `complete` commit marker exists (the save finished).
bool IsTagComplete(Store& store, const std::string& tag);

// Fails with kDataLoss on a tag whose save never committed (missing `complete` marker).
Result<CheckpointMeta> ReadCheckpointMeta(Store& store, const std::string& tag);

// Newest committed tag in `job`'s namespace whose metadata parses — the tag a resume
// should trust. kNotFound when no valid tag exists.
Result<std::string> FindLatestValidTag(Store& store, const std::string& job = "");

// Joins store-relative paths with exactly one '/'; "" on either side yields the other.
std::string JoinRel(const std::string& a, const std::string& b);

// Opens a store from an endpoint spec: "unix:/path" or "tcp:host:port" dial a running
// ucp_serverd (RemoteStore); anything else is a local directory (LocalStore).
Result<std::shared_ptr<Store>> OpenStore(const std::string& endpoint);

// True when `endpoint` names a remote store ("unix:" / "tcp:" prefix).
bool IsRemoteEndpoint(const std::string& endpoint);

}  // namespace ucp

#endif  // UCP_SRC_STORE_STORE_H_

// Filesystem helpers for checkpoint I/O.
//
// Writes are crash-consistent: data goes to a temporary sibling file which is fsynced and
// renamed into place only after a successful flush, so a checkpoint directory never contains
// a half-written file under its final name. The write / fsync / rename paths consult the
// fault injector in fault_fs.h, which is how the crash-consistency tests simulate kills,
// torn writes, and bit rot at exact points in the commit protocol.

#ifndef UCP_SRC_COMMON_FS_H_
#define UCP_SRC_COMMON_FS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace ucp {

// Retry policy for transient (kUnavailable) I/O failures — a flaky network mount or a
// rate-limited object store. Only kUnavailable is retried: permanent failures (kIoError)
// and corruption (kDataLoss) return immediately, and the crash-consistency fault modes
// (fail-stop, torn write, bit rot) are permanent by design.
struct IoRetryPolicy {
  int max_attempts = 4;                     // total attempts, including the first
  std::chrono::milliseconds base_backoff{1};   // doubles per retry ...
  std::chrono::milliseconds max_backoff{100};  // ... capped here
};

// Process-global; read at the start of each retried operation. Tests shrink the backoff.
void SetIoRetryPolicy(const IoRetryPolicy& policy);
IoRetryPolicy GetIoRetryPolicy();

// Process-global counters for transient-retry activity (same pattern as TensorIoStats).
struct IoRetryStats {
  uint64_t transient_errors = 0;  // kUnavailable results observed across all attempts
  uint64_t retries = 0;           // re-attempts made after a transient error
  uint64_t giveups = 0;           // operations that exhausted max_attempts
};
IoRetryStats GetIoRetryStats();
void ResetIoRetryStats();

// Creates `path` and any missing parents.
Status MakeDirs(const std::string& path);

bool FileExists(const std::string& path);
bool DirExists(const std::string& path);

Result<uint64_t> FileSize(const std::string& path);

// Total bytes of the regular files under `path`, recursively; 0 when it does not exist.
uint64_t DirBytes(const std::string& path);

// Last-modification time of `path` in whole seconds since the POSIX epoch.
Result<int64_t> FileMtimeSeconds(const std::string& path);

// Atomically replaces `path` with `contents` (tmp file + fsync + rename). Transient
// (kUnavailable) failures are retried per the IoRetryPolicy with capped exponential
// backoff; all other failures return immediately.
Status WriteFileAtomic(const std::string& path, const void* data, size_t size);
Status WriteFileAtomic(const std::string& path, const std::string& contents);

// Starts the kernel's writeback of bytes [offset, offset + size) of the open file `fd` and
// returns without waiting for it (sync_file_range with SYNC_FILE_RANGE_WRITE; a no-op off
// Linux). A hint only: it makes nothing durable, and the fsync that must still follow
// reports any I/O error, so there is no result. Writers whose fsync comes later call it
// right after writing, so the disk drains these bytes while the next ones are produced
// and the fsync waits only for the tail. It may block while the device queue is full.
void StartWriteback(int fd, uint64_t offset, uint64_t size);

// Batches fsyncs on the current thread. While an instance is in scope, WriteFileAtomic on
// this thread defers the per-file fsync, starts the file's writeback (StartWriteback) and
// records the final path; SyncAll() then flushes every recorded file in one pass (each
// fsync still routes through the fault injector). Durability placement, not elision: the
// checkpoint flusher calls SyncAll() before the commit rename, so nothing the commit
// protocol trusts can be un-flushed. Used by the async checkpoint engine, where moving
// fsyncs out of the per-shard write path is most of the flush-throughput win. Nestable;
// destruction without SyncAll() simply drops the batch (the caller aborted — its staging
// dir is untrusted debris anyway).
class ScopedFsyncBatch {
 public:
  ScopedFsyncBatch();
  ~ScopedFsyncBatch();
  ScopedFsyncBatch(const ScopedFsyncBatch&) = delete;
  ScopedFsyncBatch& operator=(const ScopedFsyncBatch&) = delete;

  // Fsyncs every file written under the batch since the last SyncAll. Stops at the first
  // failure (the commit must not proceed past an unflushed shard).
  Status SyncAll();

  size_t pending() const { return paths_.size(); }

 private:
  friend Status WriteFileAtomic(const std::string& path, const void* data, size_t size);
  void Record(const std::string& path) { paths_.push_back(path); }

  std::vector<std::string> paths_;
  ScopedFsyncBatch* previous_;  // restores the outer batch on destruction
};

// Renames `from` to `to` (same filesystem; `to` must not exist for directories). This is
// the commit point of the checkpoint staging protocol, so it routes through the fault
// injector like the file writes do.
Status RenamePath(const std::string& from, const std::string& to);

// Read-only positional access to one file (pread; no shared cursor). The sliced checkpoint
// load path uses this to fetch byte ranges of tensor files without reading whole files.
// Movable, not copyable; the descriptor closes on destruction. A moved-from file is closed.
// Concurrent ReadAt calls on one instance are safe at the kernel level (pread is atomic in
// the offset), but the checkpoint readers give each worker its own instance anyway.
class RandomAccessFile {
 public:
  static Result<RandomAccessFile> Open(const std::string& path);

  RandomAccessFile() = default;
  ~RandomAccessFile();
  RandomAccessFile(RandomAccessFile&& other) noexcept;
  RandomAccessFile& operator=(RandomAccessFile&& other) noexcept;
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  bool open() const { return fd_ >= 0; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  // Reads exactly `size` bytes at `offset` into `out`; kDataLoss on short reads (the caller
  // asked for bytes the file does not have — a truncation symptom, not an I/O hiccup).
  Status ReadAt(uint64_t offset, void* out, size_t size) const;

 private:
  RandomAccessFile(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

// Abstract positional byte reader: what the checkpoint file readers actually need from a
// file. Implemented by FileByteSource below (pread on a local file) and by the checkpoint
// store's remote backend (each ReadAt becomes a READ_RANGE request to ucp_serverd), so
// BundleFileView serves local and remote files through one code path.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual uint64_t size() const = 0;
  // Stable identifier for error messages and cache keys (a path or a store URL).
  virtual const std::string& name() const = 0;
  // Reads exactly `size` bytes at `offset` into `out`; kDataLoss on short reads.
  virtual Status ReadAt(uint64_t offset, void* out, size_t size) = 0;
};

// ByteSource over a local file.
class FileByteSource final : public ByteSource {
 public:
  static Result<std::unique_ptr<ByteSource>> Open(const std::string& path);
  explicit FileByteSource(RandomAccessFile file) : file_(std::move(file)) {}

  uint64_t size() const override { return file_.size(); }
  const std::string& name() const override { return file_.path(); }
  Status ReadAt(uint64_t offset, void* out, size_t size) override {
    return file_.ReadAt(offset, out, size);
  }

 private:
  RandomAccessFile file_;
};

Result<std::string> ReadFileToString(const std::string& path);

// Names (not full paths) of directory entries, sorted. Fails if `path` is not a directory.
Result<std::vector<std::string>> ListDir(const std::string& path);

// Recursively removes `path` if it exists; no-op (OK) when absent.
Status RemoveAll(const std::string& path);

// Joins with exactly one '/' between parts.
std::string PathJoin(const std::string& a, const std::string& b);

// Creates a fresh unique directory under the system temp dir with the given prefix.
Result<std::string> MakeTempDir(const std::string& prefix);

}  // namespace ucp

#endif  // UCP_SRC_COMMON_FS_H_

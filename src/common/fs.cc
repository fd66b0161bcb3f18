#include "src/common/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/common/fault_fs.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ucp {

namespace stdfs = std::filesystem;

namespace {

using fault_internal::CheckFault;
using fault_internal::FaultAction;
using fault_internal::NoteFsOp;

std::mutex g_retry_policy_mu;
IoRetryPolicy g_retry_policy;

// Registry-backed (see src/obs/metrics.h); GetIoRetryStats reads these back out.
obs::Counter& TransientErrorsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("fs.retry.transient_errors");
  return c;
}
obs::Counter& RetriesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("fs.retry.retries");
  return c;
}
obs::Counter& GiveupsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("fs.retry.giveups");
  return c;
}

// Runs `op` until it returns something other than kUnavailable, backing off exponentially
// (capped) between attempts. The last status — success, permanent error, or the final
// transient error once max_attempts is exhausted — is returned as-is.
template <typename Op>
Status RetryTransient(Op&& op) {
  const IoRetryPolicy policy = GetIoRetryPolicy();
  std::chrono::milliseconds backoff = policy.base_backoff;
  for (int attempt = 1;; ++attempt) {
    Status s = op();
    if (s.ok() || s.code() != StatusCode::kUnavailable) {
      return s;
    }
    TransientErrorsCounter().Add(1);
    if (attempt >= policy.max_attempts) {
      GiveupsCounter().Add(1);
      return s;
    }
    RetriesCounter().Add(1);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

// What WriteWholeFile does with the bytes once they are written.
enum class AfterWrite {
  kNothing,         // the fault injector's torn and bit-rotted files
  kFsync,           // an eager atomic write
  kStartWriteback,  // an atomic write whose fsync an enclosing ScopedFsyncBatch defers
};

// Writes `size` bytes to a freshly-created `path`, then does what `after` says (an fsync
// only fault permitting). Used for both the atomic tmp file and the torn-write injection
// path.
Status WriteWholeFile(const std::string& path, const void* data, size_t size,
                      AfterWrite after) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return IoError("open for write failed: " + path + ": " + std::strerror(errno));
  }
  const char* p = static_cast<const char*>(data);
  size_t left = size;
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return IoError("write failed: " + path + ": " + std::strerror(errno));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (after == AfterWrite::kStartWriteback) {
    StartWriteback(fd, 0, size);
  }
  if (after == AfterWrite::kFsync) {
    NoteFsOp(FsOp::kFsync, path);
    FaultAction fa = CheckFault(FsOp::kFsync, path);
    if (fa.fail) {
      ::close(fd);
      return IoError("fault injection: fsync " + path);
    }
    if (fa.transient) {
      ::close(fd);
      return UnavailableError("fault injection: transient fsync " + path);
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      return IoError("fsync failed: " + path + ": " + std::strerror(errno));
    }
  }
  if (::close(fd) != 0) {
    return IoError("close failed: " + path + ": " + std::strerror(errno));
  }
  return OkStatus();
}

// Flips one bit of an existing file in place — the injector's silent-corruption mode.
Status FlipBitInFile(const std::string& path, uint64_t bit_index) {
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) {
    return contents.status();
  }
  if (contents->empty()) {
    return OkStatus();
  }
  uint64_t bit = bit_index % (contents->size() * 8);
  (*contents)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  return WriteWholeFile(path, contents->data(), contents->size(), AfterWrite::kNothing);
}

// Innermost active fsync batch on this thread; null when writes flush eagerly.
thread_local ScopedFsyncBatch* g_active_fsync_batch = nullptr;

// Fsyncs an already-written file in place (the deferred half of a batched write).
Status FsyncExistingFile(const std::string& path) {
  NoteFsOp(FsOp::kFsync, path);
  FaultAction fa = CheckFault(FsOp::kFsync, path);
  if (fa.fail) {
    return IoError("fault injection: fsync " + path);
  }
  if (fa.transient) {
    return UnavailableError("fault injection: transient fsync " + path);
  }
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return IoError("open for fsync failed: " + path + ": " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return IoError("fsync failed: " + path + ": " + std::strerror(errno));
  }
  if (::close(fd) != 0) {
    return IoError("close failed: " + path + ": " + std::strerror(errno));
  }
  return OkStatus();
}

}  // namespace

void StartWriteback(int fd, uint64_t offset, uint64_t size) {
#ifdef __linux__
  ::sync_file_range(fd, static_cast<off64_t>(offset), static_cast<off64_t>(size),
                    SYNC_FILE_RANGE_WRITE);
#else
  (void)fd;
  (void)offset;
  (void)size;
#endif
}

ScopedFsyncBatch::ScopedFsyncBatch() : previous_(g_active_fsync_batch) {
  g_active_fsync_batch = this;
}

ScopedFsyncBatch::~ScopedFsyncBatch() { g_active_fsync_batch = previous_; }

Status ScopedFsyncBatch::SyncAll() {
  if (paths_.empty()) {
    return OkStatus();
  }
  UCP_TRACE_NAMED_SPAN(span, "fs.fsync_batch");
  UCP_TRACE_SPAN_ARG_I(span, "files", static_cast<int64_t>(paths_.size()));
  static obs::Counter& fsyncs = obs::MetricsRegistry::Global().GetCounter("fs.fsync.calls");
  fsyncs.Add(paths_.size());
  for (const std::string& path : paths_) {
    UCP_RETURN_IF_ERROR(RetryTransient([&path] { return FsyncExistingFile(path); }));
  }
  paths_.clear();
  return OkStatus();
}

void SetIoRetryPolicy(const IoRetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(g_retry_policy_mu);
  g_retry_policy = policy;
}

IoRetryPolicy GetIoRetryPolicy() {
  std::lock_guard<std::mutex> lock(g_retry_policy_mu);
  return g_retry_policy;
}

IoRetryStats GetIoRetryStats() {
  IoRetryStats stats;
  stats.transient_errors = TransientErrorsCounter().Value();
  stats.retries = RetriesCounter().Value();
  stats.giveups = GiveupsCounter().Value();
  return stats;
}

void ResetIoRetryStats() {
  TransientErrorsCounter().Reset();
  RetriesCounter().Reset();
  GiveupsCounter().Reset();
}

Status MakeDirs(const std::string& path) {
  std::error_code ec;
  stdfs::create_directories(path, ec);
  if (ec) {
    return IoError("create_directories(" + path + "): " + ec.message());
  }
  return OkStatus();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return stdfs::is_regular_file(path, ec);
}

bool DirExists(const std::string& path) {
  std::error_code ec;
  return stdfs::is_directory(path, ec);
}

Result<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = stdfs::file_size(path, ec);
  if (ec) {
    return IoError("file_size(" + path + "): " + ec.message());
  }
  return size;
}

uint64_t DirBytes(const std::string& path) {
  Result<std::vector<std::string>> entries = ListDir(path);
  if (!entries.ok()) {
    return 0;
  }
  uint64_t total = 0;
  for (const std::string& name : *entries) {
    const std::string child = PathJoin(path, name);
    if (DirExists(child)) {
      total += DirBytes(child);
    } else if (Result<uint64_t> size = FileSize(child); size.ok()) {
      total += *size;
    }
  }
  return total;
}

Result<int64_t> FileMtimeSeconds(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return IoError("stat(" + path + "): " + std::strerror(errno));
  }
  return static_cast<int64_t>(st.st_mtime);
}

Status WriteFileAtomic(const std::string& path, const void* data, size_t size) {
  // The whole tmp-write + fsync + rename sequence is one retry unit: a transient failure
  // anywhere restarts from a fresh tmp file, so partial attempts never survive.
  return RetryTransient([&]() -> Status {
  NoteFsOp(FsOp::kWrite, path);
  FaultAction wa = CheckFault(FsOp::kWrite, path);
  if (wa.fail) {
    return IoError("fault injection: write " + path);
  }
  if (wa.transient) {
    return UnavailableError("fault injection: transient write " + path);
  }
  if (wa.torn) {
    // Torn write: only a prefix of the data persists under the *final* name and the caller
    // is told the write succeeded — the on-disk state after a crash on a filesystem whose
    // rename was journaled before the data blocks were flushed.
    size_t kept = size == 0 ? 0 : static_cast<size_t>(wa.torn_bytes % size);
    return WriteWholeFile(path, data, kept, AfterWrite::kNothing);
  }
  // A per-process counter keeps concurrent writers (converter thread pool) from colliding on
  // the temporary name.
  static std::atomic<uint64_t> counter{0};
  std::string tmp = path + ".tmp." + std::to_string(counter.fetch_add(1));
  ScopedFsyncBatch* batch = g_active_fsync_batch;
  Status written = WriteWholeFile(
      tmp, data, size, batch == nullptr ? AfterWrite::kFsync : AfterWrite::kStartWriteback);
  if (!written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  NoteFsOp(FsOp::kRename, path);
  FaultAction ra = CheckFault(FsOp::kRename, path);
  if (ra.fail) {
    // A simulated kill between flush and rename leaves the tmp file behind, exactly as a
    // real crash would; callers and fsck must tolerate the debris.
    return IoError("fault injection: rename " + tmp + " -> " + path);
  }
  if (ra.transient) {
    // Unlike fail-stop, a transient rename failure is observed by a live process that will
    // retry with a fresh tmp file — clean this one up instead of leaving debris.
    std::remove(tmp.c_str());
    return UnavailableError("fault injection: transient rename " + tmp + " -> " + path);
  }
  std::error_code ec;
  stdfs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return IoError("rename " + tmp + " -> " + path + ": " + ec.message());
  }
  if (wa.bitrot) {
    return FlipBitInFile(path, wa.bitrot_bit);
  }
  if (batch != nullptr) {
    batch->Record(path);
  }
  return OkStatus();
  });
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  return WriteFileAtomic(path, contents.data(), contents.size());
}

Status RenamePath(const std::string& from, const std::string& to) {
  // Commit-point rename: retried on transient failure like the write path.
  return RetryTransient([&]() -> Status {
    NoteFsOp(FsOp::kRename, to);
    FaultAction ra = CheckFault(FsOp::kRename, to);
    if (ra.fail) {
      return IoError("fault injection: rename " + from + " -> " + to);
    }
    if (ra.transient) {
      return UnavailableError("fault injection: transient rename " + from + " -> " + to);
    }
    std::error_code ec;
    stdfs::rename(from, to, ec);
    if (ec) {
      return IoError("rename " + from + " -> " + to + ": " + ec.message());
    }
    return OkStatus();
  });
}

RandomAccessFile::~RandomAccessFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

RandomAccessFile::RandomAccessFile(RandomAccessFile&& other) noexcept
    : fd_(other.fd_), size_(other.size_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.size_ = 0;
}

RandomAccessFile& RandomAccessFile::operator=(RandomAccessFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

Result<RandomAccessFile> RandomAccessFile::Open(const std::string& path) {
  NoteFsOp(FsOp::kRead, path);
  {
    FaultAction fa = CheckFault(FsOp::kRead, path);
    if (fa.fail) {
      return IoError("fault injection: read " + path);
    }
    if (fa.transient) {
      return UnavailableError("fault injection: transient read " + path);
    }
  }
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return NotFoundError("cannot open " + path + ": " + std::strerror(errno));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return IoError("lseek failed: " + path + ": " + std::strerror(errno));
  }
  return RandomAccessFile(fd, static_cast<uint64_t>(end), path);
}

Status RandomAccessFile::ReadAt(uint64_t offset, void* out, size_t size) const {
  if (fd_ < 0) {
    return InternalError("ReadAt on a closed file: " + path_);
  }
  char* p = static_cast<char*>(out);
  size_t left = size;
  uint64_t pos = offset;
  while (left > 0) {
    ssize_t n = ::pread(fd_, p, left, static_cast<off_t>(pos));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError("pread failed: " + path_ + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return DataLossError("short read at offset " + std::to_string(pos) + " of " + path_ +
                           " (file truncated?)");
    }
    p += n;
    left -= static_cast<size_t>(n);
    pos += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

Result<std::unique_ptr<ByteSource>> FileByteSource::Open(const std::string& path) {
  UCP_ASSIGN_OR_RETURN(RandomAccessFile file, RandomAccessFile::Open(path));
  return std::unique_ptr<ByteSource>(new FileByteSource(std::move(file)));
}

Result<std::string> ReadFileToString(const std::string& path) {
  NoteFsOp(FsOp::kRead, path);
  {
    FaultAction fa = CheckFault(FsOp::kRead, path);
    if (fa.fail) {
      return IoError("fault injection: read " + path);
    }
    if (fa.transient) {
      return UnavailableError("fault injection: transient read " + path);
    }
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::string contents;
  in.seekg(0, std::ios::end);
  std::streampos end = in.tellg();
  if (end < 0) {
    return IoError("tellg failed for " + path);
  }
  contents.resize(static_cast<size_t>(end));
  in.seekg(0, std::ios::beg);
  in.read(contents.data(), end);
  if (!in) {
    return IoError("read failed for " + path);
  }
  return contents;
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  if (!DirExists(path)) {
    return NotFoundError("not a directory: " + path);
  }
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : stdfs::directory_iterator(path, ec)) {
    names.push_back(entry.path().filename().string());
  }
  if (ec) {
    return IoError("directory_iterator(" + path + "): " + ec.message());
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveAll(const std::string& path) {
  std::error_code ec;
  stdfs::remove_all(path, ec);
  if (ec) {
    return IoError("remove_all(" + path + "): " + ec.message());
  }
  return OkStatus();
}

std::string PathJoin(const std::string& a, const std::string& b) {
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  if (a.back() == '/') {
    return a + (b.front() == '/' ? b.substr(1) : b);
  }
  return a + (b.front() == '/' ? b : "/" + b);
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  stdfs::path base = stdfs::temp_directory_path(ec);
  if (ec) {
    return IoError("temp_directory_path: " + ec.message());
  }
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string name =
        prefix + "." + std::to_string(::getpid()) + "." + std::to_string(counter.fetch_add(1));
    stdfs::path candidate = base / name;
    if (stdfs::create_directory(candidate, ec)) {
      return candidate.string();
    }
  }
  return IoError("could not create temp dir with prefix " + prefix);
}

}  // namespace ucp

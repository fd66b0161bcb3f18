// Store backend that speaks the wire protocol to a running ucp_serverd.
//
// One connection per RemoteStore; a mutex serializes request/response exchanges, so the
// simulator's rank threads can share a single store the way they share a directory today.
// Reads: OPEN_READ returns the handle, the size and, for a bundle, its header prefix, so a
// ReadAt inside the header is answered from memory. Any other ReadAt becomes one READ_RANGE
// per kWireChunkBytes (verified server-side against the file's chunk-CRC table), whose reply
// payload is received straight into the caller's buffer. Closing a source sends a one-way
// CLOSE_READ. Staged writes stream as WRITE_BEGIN / WRITE_CHUNK* / WRITE_END with a
// whole-file CRC the server checks before the file lands in staging.
//
// Retry semantics, two distinct layers:
//  - Admission-control rejections (the daemon's staged-bytes cap) arrive as kUnavailable
//    *responses* on a healthy connection and are retried with IoRetryPolicy backoff.
//  - Transport failures (daemon died, connection dropped, network partitioned) also map
//    to kUnavailable. When the session holds a lease, the store transparently redials
//    under `reconnect_deadline` with exponential backoff + jitter, re-presents its lease
//    token (a restarted daemon grants it a fresh lease), and resumes: streamed uploads
//    continue from the server-acknowledged offset (WRITE_RESUME), open read handles are
//    reopened by path, and an interrupted COMMIT_TAG is checked for completion before
//    being retried. When there is no lease (lease_ttl_ms 0), the transport failure
//    surfaces typed and nothing is retried.

#ifndef UCP_SRC_STORE_REMOTE_STORE_H_
#define UCP_SRC_STORE_REMOTE_STORE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/store/store.h"
#include "src/store/wire.h"

namespace ucp {

struct RemoteStoreOptions {
  // Total wall-clock budget for one reconnect episode (dial + handshake + SESSION_OPEN,
  // retried with backoff). Past it the original transport error surfaces as kUnavailable.
  std::chrono::milliseconds reconnect_deadline{5000};
  // TTL requested at SESSION_OPEN; the server clamps to its own max. Should comfortably
  // exceed reconnect_deadline or the server reaps the lease mid-reconnect. 0 skips the
  // lease entirely: release-on-disconnect semantics and no reconnect.
  uint32_t lease_ttl_ms = 15000;
};

// Snapshot returned by SERVER_STAT — surfaced by `ucp_tool ping`.
struct RemoteServerStat {
  uint32_t wire_version = 0;
  uint32_t sessions = 0;
  uint32_t leases = 0;  // named leases only
  uint64_t staged_bytes = 0;
  bool draining = false;
};

class RemoteByteSource;

class RemoteStore final : public Store, public std::enable_shared_from_this<RemoteStore> {
 public:
  // Dials `endpoint` ("unix:/path" or "tcp:host:port"), runs the version handshake, and
  // (lease_ttl_ms > 0) binds a session lease under a freshly generated token.
  static Result<std::shared_ptr<RemoteStore>> Connect(const std::string& endpoint);
  static Result<std::shared_ptr<RemoteStore>> Connect(const std::string& endpoint,
                                                      const RemoteStoreOptions& options);

  ~RemoteStore() override;
  RemoteStore(const RemoteStore&) = delete;
  RemoteStore& operator=(const RemoteStore&) = delete;

  std::string Describe() const override { return endpoint_; }
  std::string CacheKey(const std::string& rel) const override {
    return endpoint_ + "!" + rel;
  }
  uint64_t session_id() const;
  // Empty when the session holds no lease (lease_ttl_ms 0).
  const std::string& lease_token() const { return lease_token_; }

  Result<std::unique_ptr<ByteSource>> OpenRead(const std::string& rel) override;
  Result<std::string> ReadSmallFile(const std::string& rel) override;
  Result<bool> Exists(const std::string& rel) override;
  Result<std::vector<std::string>> List(const std::string& rel) override;
  Result<std::vector<std::string>> ListTags(const std::string& job) override;

  Result<std::unique_ptr<StoreWriter>> OpenTagForWrite(const std::string& tag) override;
  Status ResetTagStaging(const std::string& tag) override;
  Status CommitTag(const std::string& tag, const std::string& meta_json) override;
  Status AbortTag(const std::string& tag) override;

  Status DeleteTag(const std::string& tag) override;
  Result<GcReport> Gc(const std::string& job, int keep_last, bool dry_run) override;
  Result<int> SweepStagingDebris(const std::string& job) override;

  // Liveness probe (PING round trip).
  Status Ping();
  // Server-side counters snapshot.
  Result<RemoteServerStat> ServerStat();
  // The daemon's metrics page over the store endpoint — the same payload /metrics serves,
  // as text table or Prometheus exposition.
  Result<std::string> MetricsDump(bool prometheus);

  // Drops the connection and never reconnects, failing all further calls with
  // kUnavailable. Used by tests to simulate a client crash mid-stream (the server must
  // discard — or, under a lease, preserve until expiry — the partial staging).
  void CloseForTest();

 private:
  friend class RemoteByteSource;
  friend class RemoteStoreWriter;

  RemoteStore(int fd, std::string endpoint, uint64_t session_id, uint32_t max_frame,
              RemoteStoreOptions options, std::string lease_token)
      : fd_(fd), endpoint_(std::move(endpoint)), session_id_(session_id),
        max_frame_(max_frame), options_(options), lease_token_(std::move(lease_token)) {}

  // One request/response exchange on the current socket — no reconnect. Any send/recv
  // failure closes the fd (the stream position is unknown; the socket is junk), so
  // afterwards `fd_ < 0` distinguishes transport death from a typed error *response*.
  // With `dest`, a reply of its length lands in its buffer (RecvFrame).
  Result<WireFrame> ExchangeLocked(WireOp op, const std::vector<uint8_t>& payload,
                                   WireOp ok_op, const FrameDest* dest = nullptr);
  // ExchangeLocked plus transparent reconnect-and-retry on transport failure, for
  // idempotent ops (reads, lists, tag state transitions).
  Result<WireFrame> RoundtripLocked(WireOp op, const std::vector<uint8_t>& payload,
                                    WireOp ok_op);
  Result<WireFrame> Roundtrip(WireOp op, const std::vector<uint8_t>& payload, WireOp ok_op);
  // The one backpressure loop: re-runs `exchange` with IoRetryPolicy backoff while it fails
  // with a kUnavailable *response* on a live connection (the daemon's admission control),
  // counting io.retry.*.
  Result<WireFrame> RetryBackpressureLocked(
      const std::function<Result<WireFrame>()>& exchange);
  // RoundtripLocked under RetryBackpressureLocked.
  Result<WireFrame> RoundtripWithRetry(WireOp op, const std::vector<uint8_t>& payload,
                                       WireOp ok_op);

  // A store reconnects exactly when it holds a lease.
  bool CanReconnectLocked() const { return !lease_token_.empty() && !closed_for_test_; }
  // Redials + HELLO + SESSION_OPEN(token) with backoff + jitter until
  // options_.reconnect_deadline. On success bumps conn_epoch_ (read handles reopen
  // lazily). Honors a server retry-after hint as the backoff floor.
  Status ReconnectLocked();
  void CloseFdLocked();

  // The full streamed upload of one file, resuming across reconnects (WRITE_RESUME).
  Status WriteFileLocked(const std::string& tag, const std::string& rel, const void* data,
                         size_t size);
  // One BEGIN/CHUNK*/END attempt starting at `resume`; `sent_high` tracks the highest
  // byte offset ever put on the wire for resumed-vs-restarted accounting.
  Status WriteFileOnceLocked(const std::string& tag, const std::string& rel,
                             const void* data, size_t size, uint64_t resume,
                             uint64_t* sent_high);

  Status ReadRange(RemoteByteSource& src, uint64_t offset, void* out, size_t size);
  void CloseRead(RemoteByteSource& src);

  mutable std::mutex mu_;
  int fd_ = -1;
  const std::string endpoint_;
  uint64_t session_id_ = 0;
  uint32_t max_frame_ = kMaxFramePayload;
  RemoteStoreOptions options_;
  const std::string lease_token_;
  bool closed_for_test_ = false;
  // Bumped on every successful reconnect; RemoteByteSource handles stamped with an older
  // epoch are stale (server-side read state died with the old session) and reopen by path.
  uint64_t conn_epoch_ = 1;
};

}  // namespace ucp

#endif  // UCP_SRC_STORE_REMOTE_STORE_H_

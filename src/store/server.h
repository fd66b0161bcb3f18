// The checkpoint store daemon: serves a LocalStore root to many concurrent clients over
// the wire protocol, with per-client sessions, session leases, admission control on staged
// bytes, and a plaintext HTTP /metrics + /healthz endpoint surfacing the process metrics
// registry.
//
// `tools/ucp_serverd.cc` is the thin CLI around this class; tests embed it in-process
// (which also routes the process-global fault injector through the *server's* threads, so
// the crash-consistency fault matrix exercises the daemon's own commit path).
//
// Admission control: every WRITE_BEGIN reserves its file's bytes against
// `max_staged_bytes`. A single file declaring more than the whole budget is rejected
// outright with kFailedPrecondition *before* any buffer is sized from the declared
// length, so a malicious or corrupt total can never drive an allocation past the
// operator-set budget. Within the budget, an exhausted pool rejects newcomers with
// kUnavailable (clients back off and retry per IoRetryPolicy) — except for the *oldest*
// lease currently holding staged bytes, which is always admitted. That exception is the
// progress guarantee: the oldest save in flight can always finish and release its budget,
// so backpressure never deadlocks into livelock. Staged bytes are attributed per
// (lease, tag): commit/abort/reset of one tag releases only that tag's bytes, so two
// saves multiplexed over one connection can't free each other's budget.
//
// Session leases: a client may bind a lease (SESSION_OPEN with a self-generated
// token and TTL). Staged bytes and half-streamed upload spools of a leased session survive
// the socket — lease *expiry*, not connection death, is what reaps them.
// A reconnecting client re-presents its token, re-adopts the lease (same admission
// seniority), asks WRITE_RESUME how far each upload got, and continues from the
// acknowledged offset. The lease table is journaled to `<root>/.ucp_serverd.journal` so a
// restarted daemon re-adopts live-leased half-staged tags and sweeps expired ones.
// Sessions without a lease (the client never sent SESSION_OPEN, or leases are disabled)
// release everything the moment the connection dies.

#ifndef UCP_SRC_STORE_SERVER_H_
#define UCP_SRC_STORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/store/local_store.h"
#include "src/store/wire.h"

namespace ucp {

struct StoreServerOptions {
  std::string root;                           // directory the daemon serves
  std::string listen = "unix:/tmp/ucp.sock";  // "unix:/path" or "tcp:host:port" (port 0 ok)
  std::string http_listen;                    // optional "tcp:host:port" for /metrics
  int max_sessions = 64;
  uint64_t max_staged_bytes = 256ull << 20;   // admission budget for in-flight staging
  bool drain_on_shutdown = true;              // wait for idle sessions before closing them
  // Upper bound on the TTL a SESSION_OPEN may request (requests above it are clamped,
  // not refused). 0 disables leases entirely: SESSION_OPEN gets kFailedPrecondition and
  // every session falls back to release-on-disconnect.
  uint32_t max_lease_ttl_ms = 60000;
  // Persist the lease table to `<root>/.ucp_serverd.journal` so a restarted daemon
  // re-adopts live-leased half-staged uploads instead of stranding them.
  bool journal = true;
  // Dump a flight record (<root>/flightrec/) when the server observes an anomaly — lease
  // expiry, commit failure, admission rejection, journal adoption after restart — so
  // post-chaos forensics never depend on reproducing the schedule. Capped per label so a
  // flapping client can't fill the disk with dossiers.
  bool anomaly_flightrec = true;
};

class StoreServer {
 public:
  // Binds, recovers the lease journal (if any), spawns the accept / lease-reaper (and
  // optional HTTP) threads, returns a running server.
  static Result<std::unique_ptr<StoreServer>> Start(StoreServerOptions options);

  ~StoreServer();
  StoreServer(const StoreServer&) = delete;
  StoreServer& operator=(const StoreServer&) = delete;

  // Resolved endpoints (TCP port 0 replaced by the kernel's choice).
  const std::string& endpoint() const { return endpoint_; }
  const std::string& http_endpoint() const { return http_endpoint_; }

  // Enters drain mode without closing anything: new SESSION_OPEN requests are refused
  // with a typed kUnavailable carrying a retry-after hint, and lease TTLs stop being
  // extended — in-flight saves finish, new long-lived work goes elsewhere.
  // Shutdown(drain=true) implies it.
  void BeginDrain();
  bool draining() const { return draining_.load(); }

  // Stops accepting, then closes sessions: with drain, idle sessions are closed
  // immediately and busy ones get to finish their current exchange; without, every
  // connection is torn down at once (the "daemon killed" arm of the fault tests).
  void Shutdown(bool drain);
  void Shutdown() { Shutdown(options_.drain_on_shutdown); }

  int active_sessions() const;
  int active_leases() const;
  uint64_t staged_bytes() const { return staged_bytes_.load(); }
  // Thread handles still tracked (live sessions plus finished-but-unjoined ones):
  // bounded by active_sessions() plus whatever the accept loop hasn't reaped yet.
  size_t session_thread_count() const;

  // Runs the full per-connection protocol on the calling thread until the peer closes —
  // the socketpair test hook (no accept loop involved).
  void ServeConnectionForTest(int fd);

 private:
  struct Session;
  struct OpenRead;
  struct Lease;
  struct Reply;

  explicit StoreServer(StoreServerOptions options)
      : options_(std::move(options)), store_(options_.root) {}

  void AcceptLoop();
  void HttpLoop();
  void ReaperLoop();
  void ServeConnection(int fd, std::shared_ptr<Session> session);
  // One request frame -> one (or zero, for chunks) response frame. Returns false when the
  // connection must close. HandleFrame absorbs TRACE_CONTEXT prefix frames, adopts the
  // propagated context around a per-RPC server span, and records per-op histograms;
  // HandleFrameInner appends WRITE_CHUNK frames and sends Dispatch's reply or error.
  bool HandleFrame(int fd, const WireFrame& frame, Session& session);
  bool HandleFrameInner(int fd, const WireFrame& frame, Session& session);
  // Decodes one request, runs it, and returns the reply frame to send.
  Result<Reply> Dispatch(const WireFrame& frame, Session& session);
  Status HandleWriteBegin(const WireFrame& frame, Session& session);
  Status HandleWriteChunk(const WireFrame& frame, Session& session);
  Status HandleWriteEnd(const WireFrame& frame, Session& session);
  Result<Reply> HandleWriteResume(const WireFrame& frame);
  Result<Reply> HandleSessionOpen(const WireFrame& frame, Session& session);
  Result<Reply> HandleReadRange(const WireFrame& frame, Session& session);
  Result<Reply> HandleOpenRead(const WireFrame& frame, Session& session);
  void AbandonOpenWrite(Session& session);
  // Releases the lease's staged-bytes budget and drops it from the table.
  // Caller holds mu_.
  void ReleaseLeaseLocked(Lease& lease);
  // After a reset, commit or abort of `tag`: releases the budget `lease` holds for that tag
  // (other tags' saves on the lease keep theirs) and journals a named lease. Takes mu_.
  void ReleaseStagedTag(Lease& lease, const std::string& tag);
  // Rewrites the lease journal from the current table. Caller holds mu_; no-op when
  // journaling is off.
  void WriteJournalLocked();
  // Reads the journal left by a previous daemon: live leases are re-adopted (staged
  // budget recomputed from on-disk spool + staging bytes), expired ones have their spool
  // dirs swept. Returns true when any lease was adopted.
  bool RecoverJournal();
  std::string JournalPath() const;
  // Joins connection threads that finished serving (they park their own handle on
  // dead_threads_ on the way out). Called from the accept loop and Shutdown.
  void ReapDeadThreads();
  // Anomaly hook: writes a flight-recorder dossier under <root>/flightrec/ labeled
  // "serverd-<label>" (best effort, capped per label, gated by anomaly_flightrec).
  // Must be called without mu_ held — it does file I/O.
  void DumpAnomaly(const std::string& label, const std::string& detail);

  StoreServerOptions options_;
  LocalStore store_;
  std::string endpoint_;
  std::string http_endpoint_;

  // Atomic: Shutdown swaps them to -1 while the accept/http loops are still reading them
  // to call accept().
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> http_fd_{-1};
  std::thread accept_thread_;
  std::thread http_thread_;
  std::thread reaper_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  mutable std::mutex mu_;
  uint64_t next_session_id_ = 1;
  uint64_t next_lease_id_ = 1;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  // Keyed by lease id == creation order; admission's oldest-first scan depends on it.
  // Holds one entry per live session (its implicit per-connection lease) plus every
  // named lease still inside its TTL.
  std::map<uint64_t, std::shared_ptr<Lease>> leases_;
  // Keyed by session id so a finishing connection can move its own handle to
  // dead_threads_; the accept loop joins those opportunistically (a long-lived daemon
  // serving many short connections must not accumulate zombie thread stacks).
  std::map<uint64_t, std::thread> session_threads_;
  std::vector<std::thread> dead_threads_;
  std::atomic<uint64_t> staged_bytes_{0};
  // Journal rewrites since startup — /healthz surfaces it so operators can see lease-table
  // churn (and that recovery/journaling is live at all).
  std::atomic<uint64_t> journal_seq_{0};
  // Flight-record dumps already written per anomaly label (its own mutex: DumpAnomaly
  // runs on failure paths that may or may not hold mu_).
  std::mutex anomaly_mu_;
  std::map<std::string, int> anomaly_counts_;
};

}  // namespace ucp

#endif  // UCP_SRC_STORE_SERVER_H_

#include "src/store/server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/tags.h"
#include "src/tensor/tensor_file.h"

namespace ucp {

namespace {

struct ServerMetrics {
  obs::Counter& ops = obs::MetricsRegistry::Global().GetCounter("store.server.ops");
  obs::Counter& bytes_in =
      obs::MetricsRegistry::Global().GetCounter("store.server.bytes_in");
  obs::Counter& bytes_out =
      obs::MetricsRegistry::Global().GetCounter("store.server.bytes_out");
  obs::Counter& admission_rejects =
      obs::MetricsRegistry::Global().GetCounter("store.server.admission_rejects");
  obs::Counter& frame_errors =
      obs::MetricsRegistry::Global().GetCounter("store.server.frame_crc_errors");
  obs::Counter& chunk_crc_failures =
      obs::MetricsRegistry::Global().GetCounter("store.server.chunk_crc_failures");
  obs::Counter& lease_expiries =
      obs::MetricsRegistry::Global().GetCounter("store.server.lease_expiries");
  obs::Counter& leases_resumed =
      obs::MetricsRegistry::Global().GetCounter("store.server.leases_resumed");
  obs::Counter& resumed_write_bytes =
      obs::MetricsRegistry::Global().GetCounter("store.server.resumed_write_bytes");
  obs::Gauge& sessions = obs::MetricsRegistry::Global().GetGauge("store.server.sessions");
  obs::Gauge& leases = obs::MetricsRegistry::Global().GetGauge("store.server.leases");
  obs::Gauge& staged =
      obs::MetricsRegistry::Global().GetGauge("store.server.staged_bytes");

  static ServerMetrics& Get() {
    static ServerMetrics* m = new ServerMetrics();
    return *m;
  }
};

// Lease expiries live only in this process, so they run on the steady clock: a wall-clock
// step can neither expire nor extend a lease.
int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// `retry_after_ms` > 0 appends the retry hint clients take as their backoff floor.
Status SendError(int fd, const Status& error, uint32_t retry_after_ms = 0) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(error.code()));
  w.PutString(error.message());
  if (retry_after_ms > 0) {
    w.PutU32(retry_after_ms);
  }
  return SendFrame(fd, WireOp::kError, w.buffer());
}

// Writes exactly [data, data+size) at `offset` (pwrite loop; EINTR absorbed).
Status PwriteAll(int fd, const void* data, size_t size, uint64_t offset,
                 const std::string& path) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = size;
  while (left > 0) {
    const ssize_t n = ::pwrite(fd, p, left, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoError("spool write failed for " + path + ": " + std::strerror(errno));
    }
    p += n;
    left -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

std::vector<uint8_t> EncodeStrList(const std::vector<std::string>& items) {
  ByteWriter w;
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const std::string& s : items) {
    w.PutString(s);
  }
  return w.TakeBuffer();
}

// ---- Per-RPC telemetry ---------------------------------------------------------------------

// The tag a request frame is about, for span attribution: tag-leading payloads are peeked
// (the handlers re-decode and validate for real), stream frames inherit the open write's
// tag. Empty when the op isn't tag-scoped.
std::string RpcTagFor(const WireFrame& frame, const std::string& write_tag) {
  switch (frame.op) {
    case WireOp::kResetStaging:
    case WireOp::kWriteBegin:
    case WireOp::kCommitTag:
    case WireOp::kAbortTag:
    case WireOp::kDeleteTag:
    case WireOp::kWriteResume: {
      ByteReader r(frame.payload.data(), frame.payload.size());
      Result<std::string> tag = r.GetString();
      return tag.ok() ? *tag : std::string();
    }
    case WireOp::kWriteChunk:
    case WireOp::kWriteEnd:
      return write_tag;
    default:
      return std::string();
  }
}

// `store.server.rpc.<op>.{seconds,bytes_in}` — one latency/size distribution per message
// type. Registry lookups are a mutex + map probe, dwarfed by the I/O every frame does.
obs::Histogram& RpcSecondsFor(WireOp op) {
  return obs::MetricsRegistry::Global().GetHistogram(
      std::string("store.server.rpc.") + WireOpName(op) + ".seconds");
}
obs::Histogram& RpcBytesInFor(WireOp op) {
  return obs::MetricsRegistry::Global().GetHistogram(
      std::string("store.server.rpc.") + WireOpName(op) + ".bytes_in");
}

}  // namespace

// Read handles carry the file's chunk index so READ_RANGE responses are verified
// *before* any payload byte crosses the wire — a client never sees bytes the server knows
// are rotten. Each chunk verifies at most once per handle (same memoization the local
// views use).
struct StoreServer::OpenRead {
  std::unique_ptr<ByteSource> source;
  std::string rel;
  // nullopt: not a bundle — served unverified.
  std::optional<FileChunkIndex> index;
  std::vector<std::vector<bool>> verified;  // parallel to index->regions
};

// What the admission budget is attributed to. Every session holds exactly one lease: an
// *implicit* one (empty token) that dies with the connection, or a *named* one
// (SESSION_OPEN) that survives socket death until its TTL lapses, so a reconnecting client
// can re-adopt its staged state. All fields are guarded by StoreServer::mu_ except
// expires_at_ms, which the serving thread refreshes per frame and the reaper polls.
struct StoreServer::Lease {
  uint64_t id = 0;           // creation order; admission's oldest-first scan keys on it
  std::string token;         // empty = implicit per-connection lease
  // Atomics: the serving thread refreshes the expiry on every frame without taking mu_,
  // and a re-adopting connection may rewrite the TTL while the stale one still reads it.
  std::atomic<uint32_t> ttl_ms{0};
  std::atomic<int64_t> expires_at_ms{0};
  uint64_t bound_session = 0;  // 0 = no live connection attached
  // Attribution of admitted staged bytes by tag, so releasing one tag (commit/abort/
  // reset) leaves the budget of other in-flight saves on this lease intact.
  std::map<std::string, uint64_t> staged_by_tag;
  uint64_t staged_total = 0;

  bool named() const { return !token.empty(); }
};

struct StoreServer::Session {
  uint64_t id = 0;
  int fd = -1;
  std::shared_ptr<Lease> lease;  // never null once the session is registered
  uint64_t ops = 0;

  // In-flight streamed write (between WRITE_BEGIN and WRITE_END). Bytes append to a spool
  // file under <tag>.wip — on disk, outside the staging dir — so a half-streamed upload
  // survives connection drops and daemon restarts for WRITE_RESUME, and a commit can
  // never publish a partial file.
  bool write_open = false;
  std::string write_tag;
  std::string write_rel;
  std::string spool_path;
  uint64_t write_total = 0;
  uint64_t write_spooled = 0;  // server-acknowledged contiguous prefix
  uint32_t write_crc = 0;      // running (un-finalized) CRC of the spooled prefix
  int spool_fd = -1;

  uint64_t next_handle = 1;
  std::map<uint64_t, OpenRead> reads;
  // Outgoing READ_RANGE frame, grow-only: the payload is read straight into it (clients
  // cap a READ_RANGE at kWireChunkBytes, so it stays near 1 MiB).
  std::vector<uint8_t> reply_frame;
  // Set while the serving thread waits for a request with no upload open; a draining
  // Shutdown closes such a session at once unless its lease has bytes staged.
  std::atomic<bool> idle{false};
};

// A response frame: its type and payload.
struct StoreServer::Reply {
  WireOp op = WireOp::kOk;
  std::vector<uint8_t> payload;
};

Result<std::unique_ptr<StoreServer>> StoreServer::Start(StoreServerOptions options) {
  if (options.root.empty()) {
    return InvalidArgumentError("store server needs a root directory");
  }
  if (options.max_lease_ttl_ms == 0) {
    return InvalidArgumentError("store server needs a max lease TTL above 0 ms");
  }
  UCP_RETURN_IF_ERROR(MakeDirs(options.root));
  UCP_ASSIGN_OR_RETURN(Endpoint ep, ParseEndpoint(options.listen));
  std::unique_ptr<StoreServer> server(new StoreServer(std::move(options)));
  UCP_ASSIGN_OR_RETURN(server->listen_fd_, ListenEndpoint(ep));
  if (!ep.is_unix && ep.port == 0) {
    UCP_ASSIGN_OR_RETURN(ep.port, BoundSocketPort(server->listen_fd_));
  }
  server->endpoint_ = EndpointToString(ep);
  if (!server->options_.http_listen.empty()) {
    UCP_ASSIGN_OR_RETURN(Endpoint hep, ParseEndpoint(server->options_.http_listen));
    if (hep.is_unix) {
      return InvalidArgumentError("http endpoint must be tcp:host:port");
    }
    UCP_ASSIGN_OR_RETURN(server->http_fd_, ListenEndpoint(hep));
    if (hep.port == 0) {
      UCP_ASSIGN_OR_RETURN(hep.port, BoundSocketPort(server->http_fd_));
    }
    server->http_endpoint_ = EndpointToString(hep);
    server->http_thread_ = std::thread([s = server.get()] { s->HttpLoop(); });
  }
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  server->reaper_thread_ = std::thread([s = server.get()] { s->ReaperLoop(); });
  return server;
}

StoreServer::~StoreServer() { Shutdown(false); }

int StoreServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

int StoreServer::active_leases() const {
  std::lock_guard<std::mutex> lock(mu_);
  int named = 0;
  for (const auto& [id, lease] : leases_) {
    named += lease->named() ? 1 : 0;
  }
  return named;
}

void StoreServer::BeginDrain() { draining_.store(true); }

size_t StoreServer::session_thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_threads_.size() + dead_threads_.size();
}

void StoreServer::ReapDeadThreads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(dead_threads_);
  }
  // Each handle here was parked by its own thread on the way out of ServeConnection, so
  // the join is (at most) a momentary wait for that thread to finish returning.
  for (std::thread& t : done) {
    t.join();
  }
}

void StoreServer::Shutdown(bool drain) {
  if (drain) {
    // Entering drain first means no new SESSION_OPEN is accepted (typed refusal with a
    // retry-after hint) while existing sessions get to finish — a lease granted now
    // would only be killed mid-save below.
    BeginDrain();
  }
  if (stopping_.exchange(true)) {
    // Second call: still join anything the first caller raced past.
  }
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
    // Nothing listens on the socket file any more. A daemon restarted on the same path
    // binds it afresh, since its Start runs after this Shutdown.
    if (Result<Endpoint> ep = ParseEndpoint(endpoint_); ep.ok() && ep->is_unix) {
      ::unlink(ep->path.c_str());
    }
  }
  const int http_fd = http_fd_.exchange(-1);
  if (http_fd >= 0) {
    ::shutdown(http_fd, SHUT_RDWR);
    ::close(http_fd);
  }
  if (drain) {
    // A session waiting for its next request with no upload open and nothing staged on its
    // lease is closed at once; a session whose lease holds staged bytes stays open, so a
    // staged save can still commit. Busy sessions finish their current exchange and close
    // once idle. Bounded wait, then hard-close.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (sessions_.empty()) {
          break;
        }
        for (auto& [id, session] : sessions_) {
          if (session->idle.load() && session->lease->staged_total == 0) {
            ::shutdown(session->fd, SHUT_RDWR);  // the handler's recv sees EOF
          }
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, session] : sessions_) {
      ::shutdown(session->fd, SHUT_RDWR);  // unblocks the handler's recv
    }
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (http_thread_.joinable()) {
    http_thread_.join();
  }
  if (reaper_thread_.joinable()) {
    reaper_thread_.join();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(dead_threads_);
    for (auto& [id, t] : session_threads_) {
      threads.push_back(std::move(t));
    }
    session_threads_.clear();
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

void StoreServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) {
      return;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listen socket closed by Shutdown
    }
    // Join connection threads that finished while we were blocked in accept — a
    // long-lived daemon must not hoard one zombie thread stack per past connection.
    ReapDeadThreads();
    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load() ||
          static_cast<int>(sessions_.size()) >= options_.max_sessions) {
        // Over the session cap: reject before the handshake so the client fails typed.
        SendError(fd, UnavailableError("server at max_sessions capacity")).ok();
        ::close(fd);
        continue;
      }
      session = std::make_shared<Session>();
      session->id = next_session_id_++;
      session->fd = fd;
      session->lease = std::make_shared<Lease>();
      session->lease->id = next_lease_id_++;
      session->lease->bound_session = session->id;
      leases_[session->lease->id] = session->lease;
      sessions_[session->id] = session;
      ServerMetrics::Get().sessions.Set(static_cast<int64_t>(sessions_.size()));
      session_threads_.emplace(
          session->id,
          std::thread([this, fd, session] { ServeConnection(fd, session); }));
    }
  }
}

void StoreServer::ServeConnectionForTest(int fd) {
  auto session = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    session->id = next_session_id_++;
    session->fd = fd;
    session->lease = std::make_shared<Lease>();
    session->lease->id = next_lease_id_++;
    session->lease->bound_session = session->id;
    leases_[session->lease->id] = session->lease;
    sessions_[session->id] = session;
    ServerMetrics::Get().sessions.Set(static_cast<int64_t>(sessions_.size()));
  }
  ServeConnection(fd, session);
}

void StoreServer::ServeConnection(int fd, std::shared_ptr<Session> session) {
  // Session threads export as the daemon's own process track, so a merged client+server
  // trace renders the server's handling spans on their own pid, not "runtime".
  obs::SetThreadTrackName("ucp_serverd");
  // Handshake first: anything else is a protocol error and the connection dies typed.
  bool greeted = false;
  for (;;) {
    session->idle.store(!session->write_open);
    Result<WireFrame> frame = RecvFrame(fd);
    session->idle.store(false);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDataLoss) {
        ServerMetrics::Get().frame_errors.Add(1);
        SendError(fd, frame.status()).ok();  // best effort before closing
      }
      break;  // peer gone or stream unusable
    }
    ServerMetrics::Get().ops.Add(1);
    ServerMetrics::Get().bytes_in.Add(kFrameHeaderBytes + frame->payload.size() +
                                      (frame->trace.valid() ? kTraceContextBytes : 0) +
                                      kFrameTrailerBytes);
    session->ops++;
    if (!greeted) {
      if (frame->op != WireOp::kHello) {
        SendError(fd, FailedPreconditionError("expected HELLO as the first frame")).ok();
        break;
      }
      ByteReader r(frame->payload.data(), frame->payload.size());
      Result<uint32_t> min_v = r.GetU32();
      Result<uint32_t> max_v = r.GetU32();
      if (!min_v.ok() || !max_v.ok() || *min_v > *max_v) {
        SendError(fd, InvalidArgumentError("malformed HELLO")).ok();
        break;
      }
      if (*max_v < kWireVersion || *min_v > kWireVersion) {
        SendError(fd, FailedPreconditionError("no common protocol version: server speaks v" +
                                              std::to_string(kWireVersion)))
            .ok();
        break;
      }
      ByteWriter w;
      w.PutU32(kWireVersion);
      w.PutU64(session->id);
      w.PutU32(kMaxFramePayload);
      if (!SendFrame(fd, WireOp::kHelloOk, w.buffer()).ok()) {
        break;
      }
      greeted = true;
      continue;
    }
    // Receiving any frame is proof of life: refresh the lease — unless draining, when
    // TTLs deliberately stop being extended so the table winds down.
    if (session->lease->named() && !draining_.load()) {
      session->lease->expires_at_ms.store(NowMs() + session->lease->ttl_ms.load());
    }
    if (!HandleFrame(fd, *frame, *session)) {
      break;
    }
  }
  // Teardown. The spool keeps its bytes on disk (a reconnecting lease holder resumes
  // into it; otherwise it is sweepable debris), only the descriptor closes here.
  AbandonOpenWrite(*session);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Lease> lease = session->lease;
    // A named lease another connection re-adopted (bound_session moved on) is no longer
    // ours to unbind or release — the steal already transferred ownership.
    if (lease != nullptr &&
        (!lease->named() || lease->bound_session == session->id)) {
      if (!lease->named() || NowMs() >= lease->expires_at_ms.load()) {
        // Implicit lease (no SESSION_OPEN) or a named lease that already outlived its
        // TTL while the socket lingered: its budget frees now. Staged/spooled files
        // stay — inert debris the next save's ResetTagStaging or a sweep clears.
        ReleaseLeaseLocked(*lease);
      } else {
        // Named and live: the client may come back. The TTL clock started at its last
        // frame; the reaper collects it if no one re-adopts.
        lease->bound_session = 0;
      }
    }
    sessions_.erase(session->id);
    ServerMetrics::Get().sessions.Set(static_cast<int64_t>(sessions_.size()));
  }
  ::close(fd);
  // Park our own thread handle for the accept loop (or Shutdown) to join — a thread
  // can't join itself, and leaving it in session_threads_ would leak the stack until
  // shutdown. Absent entry = test-hook path (ServeConnectionForTest) or Shutdown
  // already claimed the handle.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = session_threads_.find(session->id);
    if (it != session_threads_.end()) {
      dead_threads_.push_back(std::move(it->second));
      session_threads_.erase(it);
    }
  }
}

void StoreServer::AbandonOpenWrite(Session& session) {
  if (session.spool_fd < 0) {
    session.write_open = false;
    return;
  }
  ::close(session.spool_fd);
  session.spool_fd = -1;
  session.write_open = false;
  // Un-charge the bytes WRITE_BEGIN reserved but the stream never delivered. This keeps
  // the invariant that a lease's per-tag charge equals its bytes on disk plus declared
  // still-in-flight remainders — which is exactly what a resumed WRITE_BEGIN re-charges
  // (total - resume), so drop/resume cycles neither double-charge nor leak budget.
  const uint64_t undelivered = session.write_total > session.write_spooled
                                   ? session.write_total - session.write_spooled
                                   : 0;
  if (undelivered == 0 || session.lease == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = session.lease->staged_by_tag.find(session.write_tag);
  if (it == session.lease->staged_by_tag.end()) {
    return;  // tag charge already released (commit/abort/reset raced the teardown)
  }
  const uint64_t give = std::min(it->second, undelivered);
  it->second -= give;
  session.lease->staged_total -= std::min(session.lease->staged_total, give);
  if (give > 0) {
    staged_bytes_.fetch_sub(give);
    ServerMetrics::Get().staged.Set(static_cast<int64_t>(staged_bytes_.load()));
  }
}

void StoreServer::ReleaseLeaseLocked(Lease& lease) {
  const uint64_t held = lease.staged_total;
  lease.staged_by_tag.clear();
  lease.staged_total = 0;
  if (held > 0) {
    staged_bytes_.fetch_sub(held);
    ServerMetrics::Get().staged.Set(static_cast<int64_t>(staged_bytes_.load()));
  }
  leases_.erase(lease.id);
  ServerMetrics::Get().leases.Set(static_cast<int64_t>(leases_.size()));
}

void StoreServer::ReleaseStagedTag(Lease& lease, const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lease.staged_by_tag.find(tag);
  if (it != lease.staged_by_tag.end()) {
    const uint64_t held = it->second;
    lease.staged_by_tag.erase(it);
    lease.staged_total -= std::min(lease.staged_total, held);
    if (held > 0) {
      staged_bytes_.fetch_sub(held);
      ServerMetrics::Get().staged.Set(static_cast<int64_t>(staged_bytes_.load()));
    }
  }
}

void StoreServer::ReaperLoop() {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int64_t now = NowMs();
    std::vector<std::shared_ptr<Lease>> expired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, lease] : leases_) {
        if (!lease->named() || now < lease->expires_at_ms.load()) {
          continue;
        }
        if (lease->bound_session != 0) {
          // A bound lease past its TTL means the client went quiet without the socket
          // dying — a partitioned peer. Force the connection down; teardown completes
          // the reap. Skipped while draining: drain lets in-flight saves finish.
          if (!draining_.load()) {
            auto sit = sessions_.find(lease->bound_session);
            if (sit != sessions_.end()) {
              ::shutdown(sit->second->fd, SHUT_RDWR);
            }
          }
          continue;
        }
        expired.push_back(lease);
      }
      for (const std::shared_ptr<Lease>& lease : expired) {
        ServerMetrics::Get().lease_expiries.Add(1);
        ReleaseLeaseLocked(*lease);
      }
    }
    if (!expired.empty()) {
      // Outside mu_: an expiry means a client went away without resolving its save —
      // exactly the moment the rings' recent history is worth keeping.
      DumpAnomaly("lease-expiry",
                  std::to_string(expired.size()) + " session lease(s) expired");
    }
  }
}

Status StoreServer::HandleWriteBegin(const WireFrame& frame, Session& session) {
  if (session.write_open) {
    return FailedPreconditionError("WRITE_BEGIN with a write already open");
  }
  // Reclaims a spool a failed WRITE_END left open (its CRC field did not decode, so the
  // write closed without AbandonOpenWrite): its undelivered charge must not leak.
  AbandonOpenWrite(session);
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
  UCP_ASSIGN_OR_RETURN(std::string rel, r.GetString());
  UCP_ASSIGN_OR_RETURN(uint64_t total, r.GetU64());
  UCP_ASSIGN_OR_RETURN(uint64_t resume, r.GetU64());
  if (!IsSafeStoreName(tag) || !IsSafeStoreRelPath(rel)) {
    return InvalidArgumentError("bad tag or file name in WRITE_BEGIN");
  }
  // The declared total is client-supplied, so it is validated against the operator-set
  // budget *before* anything is reserved or charged: a hostile or corrupt u64 must never
  // drive a reservation. This is a hard bound, not backpressure — kFailedPrecondition,
  // so clients surface it instead of retrying.
  if (total > options_.max_staged_bytes) {
    ServerMetrics::Get().admission_rejects.Add(1);
    DumpAnomaly("admission-reject", "WRITE_BEGIN for " + tag + "/" + rel + " declares " +
                                        std::to_string(total) + " bytes over budget");
    return FailedPreconditionError(
        "WRITE_BEGIN declares " + std::to_string(total) +
        " bytes, above the staging budget of " +
        std::to_string(options_.max_staged_bytes) + "; raise --max-staged-bytes");
  }
  if (resume > total) {
    return InvalidArgumentError("WRITE_BEGIN resume offset past declared total");
  }
  // Create the staging + spool dirs before charging the budget so a failure here leaks
  // nothing.
  UCP_RETURN_IF_ERROR(MakeDirs(StagingDirForTag(store_.root(), tag)));
  const std::string spool = PathJoin(WipDirForTag(store_.root(), tag), rel);
  UCP_RETURN_IF_ERROR(MakeDirs(ParentDir(spool)));
  // Open (and, on resume, validate) the spool before admission: the resumed prefix is
  // already on disk, so only the bytes that will newly arrive are charged below. Within
  // one daemon the prefix is still charged to this lease; after a restart it is charged to
  // no one until the save resolves.
  const int spool_fd = ::open(spool.c_str(), O_RDWR | O_CREAT, 0644);
  if (spool_fd < 0) {
    return IoError("cannot open spool " + spool + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(spool_fd, &st) != 0) {
    ::close(spool_fd);
    return IoError("cannot stat spool " + spool);
  }
  const uint64_t spooled = static_cast<uint64_t>(st.st_size);
  if (resume > spooled) {
    // The client believes the server acked more than the spool holds (stale WRITE_RESUME
    // answer or a swept spool). Typed so the client restarts the file from zero.
    ::close(spool_fd);
    return FailedPreconditionError(
        "WRITE_BEGIN resume offset " + std::to_string(resume) + " past spooled " +
        std::to_string(spooled) + " bytes for " + rel + "; restart the file");
  }
  if (spooled > resume && ::ftruncate(spool_fd, static_cast<off_t>(resume)) != 0) {
    ::close(spool_fd);
    return IoError("cannot truncate spool " + spool);
  }
  // Re-seed the running CRC over the prefix being kept.
  uint32_t crc = Crc32Init();
  if (resume > 0) {
    std::vector<uint8_t> buf(64 << 10);
    uint64_t off = 0;
    while (off < resume) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(buf.size(), resume - off));
      const ssize_t n = ::pread(spool_fd, buf.data(), want, static_cast<off_t>(off));
      if (n <= 0) {
        ::close(spool_fd);
        return IoError("cannot reread spool prefix of " + spool);
      }
      crc = Crc32Update(crc, buf.data(), static_cast<size_t>(n));
      off += static_cast<uint64_t>(n);
    }
    ServerMetrics::Get().resumed_write_bytes.Add(static_cast<int64_t>(resume));
  }
  const uint64_t charge = total - resume;
  // Admission control. The oldest lease holding staged bytes is always admitted: its
  // save is the one whose completion releases budget, so stalling it would livelock.
  // Lease ids are creation-ordered and survive reconnects, so a resumed session keeps
  // its seniority (a restarted daemon starts the order afresh).
  Status rejected = OkStatus();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t in_flight = staged_bytes_.load();
    if (in_flight > 0 && in_flight + charge > options_.max_staged_bytes) {
      uint64_t oldest_with_staging = 0;
      for (const auto& [id, lease] : leases_) {
        if (lease->staged_total > 0) {
          oldest_with_staging = id;
          break;  // map iterates in id order
        }
      }
      if (session.lease->id != oldest_with_staging) {
        ::close(spool_fd);
        ServerMetrics::Get().admission_rejects.Add(1);
        rejected = UnavailableError("staging budget exhausted (" +
                                    std::to_string(in_flight) +
                                    " bytes in flight); retry");
      }
    }
    if (rejected.ok()) {
      session.lease->staged_by_tag[tag] += charge;
      session.lease->staged_total += charge;
      staged_bytes_.fetch_add(charge);
      ServerMetrics::Get().staged.Set(static_cast<int64_t>(staged_bytes_.load()));
    }
  }
  if (!rejected.ok()) {
    // The dump runs outside mu_ (file I/O); the spool fd is already closed above.
    DumpAnomaly("admission-reject",
                "WRITE_BEGIN for " + tag + "/" + rel + " refused: " + rejected.ToString());
    return rejected;
  }
  session.write_open = true;
  session.write_tag = std::move(tag);
  session.write_rel = std::move(rel);
  session.spool_path = spool;
  session.write_total = total;
  session.write_spooled = resume;
  session.write_crc = crc;
  session.spool_fd = spool_fd;
  return OkStatus();
}

Status StoreServer::HandleWriteChunk(const WireFrame& frame, Session& session) {
  if (!session.write_open) {
    return FailedPreconditionError("WRITE_CHUNK without WRITE_BEGIN");
  }
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
  const uint8_t* data = frame.payload.data() + sizeof(uint64_t);
  size_t n = frame.payload.size() - sizeof(uint64_t);
  if (offset > session.write_spooled) {
    return DataLossError("write stream gap for " + session.write_rel + ": chunk at " +
                         std::to_string(offset) + ", spooled " +
                         std::to_string(session.write_spooled));
  }
  // Idempotence: a re-sent chunk overlapping the acknowledged prefix contributes only its
  // unseen tail (usually nothing).
  const uint64_t skip = session.write_spooled - offset;
  if (skip >= n) {
    return OkStatus();
  }
  data += skip;
  n -= static_cast<size_t>(skip);
  if (session.write_spooled + n > session.write_total) {
    return DataLossError("write stream overruns declared size for " + session.write_rel);
  }
  UCP_RETURN_IF_ERROR(
      PwriteAll(session.spool_fd, data, n, session.write_spooled, session.spool_path));
  // The disk drains this chunk while the client streams the next, so WRITE_END's fsync
  // waits only for the tail.
  StartWriteback(session.spool_fd, session.write_spooled, n);
  session.write_crc = Crc32Update(session.write_crc, data, n);
  session.write_spooled += n;
  return OkStatus();
}

Status StoreServer::HandleWriteEnd(const WireFrame& frame, Session& session) {
  if (!session.write_open) {
    return FailedPreconditionError("WRITE_END without WRITE_BEGIN");
  }
  session.write_open = false;
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(uint32_t want_crc, r.GetU32());
  if (session.write_spooled != session.write_total) {
    AbandonOpenWrite(session);
    return DataLossError("write stream for " + session.write_rel + " truncated: " +
                         std::to_string(session.write_spooled) + " of " +
                         std::to_string(session.write_total) + " bytes");
  }
  if (Crc32Finalize(session.write_crc) != want_crc) {
    // The spooled bytes are wrong end to end; resuming into them would re-publish the
    // corruption, so the spool dies with the error and a retry restarts from zero.
    AbandonOpenWrite(session);
    RemoveAll(session.spool_path).ok();
    ServerMetrics::Get().chunk_crc_failures.Add(1);
    return DataLossError("write stream CRC mismatch for " + session.write_rel);
  }
  if (::fsync(session.spool_fd) != 0) {
    AbandonOpenWrite(session);
    return IoError("fsync failed for spool " + session.spool_path);
  }
  AbandonOpenWrite(session);
  // Verified and durable: move the spool into the staging dir (same-filesystem rename,
  // through the fault injector like the direct-FS path's writes).
  const std::string dest = PathJoin(StagingDirForTag(store_.root(), session.write_tag),
                                    session.write_rel);
  UCP_RETURN_IF_ERROR(MakeDirs(ParentDir(dest)));
  return RenamePath(session.spool_path, dest);
}

Result<StoreServer::Reply> StoreServer::HandleWriteResume(const WireFrame& frame) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
  UCP_ASSIGN_OR_RETURN(std::string rel, r.GetString());
  if (!IsSafeStoreName(tag) || !IsSafeStoreRelPath(rel)) {
    return InvalidArgumentError("bad tag or file name in WRITE_RESUME");
  }
  uint64_t acked = 0;
  uint8_t complete = 0;
  const std::string staged = PathJoin(StagingDirForTag(store_.root(), tag), rel);
  const std::string spool = PathJoin(WipDirForTag(store_.root(), tag), rel);
  if (Result<uint64_t> size = FileSize(staged); size.ok()) {
    // WRITE_END already ran: the file is verified and staged in full.
    acked = *size;
    complete = 1;
  } else if (Result<uint64_t> spooled = FileSize(spool); spooled.ok()) {
    acked = *spooled;
  }
  ByteWriter w;
  w.PutU64(acked);
  w.PutU8(complete);
  return Reply{WireOp::kWriteResumeOk, w.TakeBuffer()};
}

Result<StoreServer::Reply> StoreServer::HandleSessionOpen(const WireFrame& frame,
                                                         Session& session) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(std::string token, r.GetString());
  UCP_ASSIGN_OR_RETURN(uint32_t ttl_ms, r.GetU32());
  if (token.empty() || token.size() > 128) {
    return InvalidArgumentError("SESSION_OPEN lease token must be 1..128 bytes");
  }
  if (draining_.load()) {
    // Typed refusal with a retry hint (attached by HandleFrame): a lease granted during
    // drain would only be killed mid-save.
    return UnavailableError("server is draining; no new session leases");
  }
  const uint32_t ttl = std::min(std::max(ttl_ms, 1u), options_.max_lease_ttl_ms);
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Lease> current = session.lease;
  if (current->named()) {
    return FailedPreconditionError("session already holds a lease");
  }
  if (current->staged_total > 0) {
    return FailedPreconditionError("SESSION_OPEN must precede staged writes");
  }
  std::shared_ptr<Lease> named;
  for (const auto& [id, lease] : leases_) {
    if (lease->token == token) {
      named = lease;
      break;
    }
  }
  uint8_t resumed = 0;
  if (named != nullptr) {
    // Re-adoption. If an older connection still claims the lease (it died without the
    // server noticing), it is stale by definition — the token holder is here. Kick it.
    if (named->bound_session != 0 && named->bound_session != session.id) {
      auto sit = sessions_.find(named->bound_session);
      if (sit != sessions_.end()) {
        // Its teardown sees bound_session != its id and leaves the lease alone.
        ::shutdown(sit->second->fd, SHUT_RDWR);
      }
    }
    resumed = 1;
    ServerMetrics::Get().leases_resumed.Add(1);
  } else {
    named = std::make_shared<Lease>();
    named->id = next_lease_id_++;
    named->token = token;
    leases_[named->id] = named;
  }
  named->ttl_ms.store(ttl);
  named->expires_at_ms.store(NowMs() + ttl);
  named->bound_session = session.id;
  leases_.erase(current->id);  // the implicit lease is subsumed (it held nothing)
  session.lease = named;
  ServerMetrics::Get().leases.Set(static_cast<int64_t>(leases_.size()));
  ByteWriter w;
  w.PutU8(resumed);
  w.PutU32(ttl);
  return Reply{WireOp::kSessionOpenOk, w.TakeBuffer()};
}

Result<StoreServer::Reply> StoreServer::HandleOpenRead(const WireFrame& frame,
                                                      Session& session) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(std::string rel, r.GetString());
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> source, store_.OpenRead(rel));
  OpenRead open;
  open.rel = rel;
  UCP_ASSIGN_OR_RETURN(open.index, ReadFileChunkIndex(*source));
  if (open.index.has_value()) {
    open.verified.resize(open.index->regions.size());
    for (size_t i = 0; i < open.index->regions.size(); ++i) {
      open.verified[i].assign(open.index->regions[i].chunk_crcs.size(), false);
    }
  }
  open.source = std::move(source);
  const uint64_t handle = session.next_handle++;
  const uint64_t size = open.source->size();
  ByteWriter w;
  w.PutU64(handle);
  w.PutU64(size);
  if (open.index.has_value()) {
    // The header prefix the index was parsed from rides along (and leaves the handle), so
    // the client opens its view without a READ_RANGE. A header too large for one frame
    // (a bundle of tens of GiB) is left for the client to read by range.
    const std::vector<uint8_t> header = std::move(open.index->header);
    if (w.size() + header.size() <= kMaxFramePayload) {
      w.PutBytes(header.data(), header.size());
    }
  }
  session.reads[handle] = std::move(open);
  return Reply{WireOp::kOpenReadOk, w.TakeBuffer()};
}

Result<size_t> StoreServer::HandleReadRange(const WireFrame& frame, Session& session) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(uint64_t handle, r.GetU64());
  UCP_ASSIGN_OR_RETURN(uint64_t offset, r.GetU64());
  UCP_ASSIGN_OR_RETURN(uint32_t len, r.GetU32());
  auto it = session.reads.find(handle);
  if (it == session.reads.end()) {
    return InvalidArgumentError("READ_RANGE on unknown handle");
  }
  OpenRead& open = it->second;
  if (len > kMaxFramePayload) {
    return InvalidArgumentError("READ_RANGE larger than max frame");
  }
  // Overflow-safe: `offset + len` can wrap for a hostile u64 offset.
  const uint64_t size = open.source->size();
  if (offset > size || len > size - offset) {
    return OutOfRangeError("READ_RANGE past end of " + open.rel);
  }
  // The payload is read straight into the outgoing frame, after the header's headroom.
  const size_t frame_bytes = kFrameHeaderBytes + len + kFrameTrailerBytes;
  if (session.reply_frame.size() < frame_bytes) {
    session.reply_frame.resize(frame_bytes);
  }
  uint8_t* out = session.reply_frame.data() + kFrameHeaderBytes;
  UCP_RETURN_IF_ERROR(open.source->ReadAt(offset, out, len));
  // Server-side verification: every chunk the range touches must pass its CRC before the
  // payload ships (each chunk checked at most once per handle). Chunks wholly inside the
  // range are checked in the frame; a partly covered edge chunk is read whole.
  if (open.index.has_value()) {
    std::vector<uint8_t> chunk_buf;
    for (size_t ri = 0; ri < open.index->regions.size(); ++ri) {
      const ChunkRegion& region = open.index->regions[ri];
      const uint64_t lo = std::max<uint64_t>(offset, region.begin);
      const uint64_t hi = std::min<uint64_t>(offset + len, region.end);
      if (lo >= hi || region.chunk_bytes == 0) {
        continue;
      }
      const uint64_t c0 = (lo - region.begin) / region.chunk_bytes;
      const uint64_t c1 = (hi - 1 - region.begin) / region.chunk_bytes;
      for (uint64_t c = c0; c <= c1; ++c) {
        if (open.verified[ri][static_cast<size_t>(c)]) {
          continue;
        }
        const uint64_t chunk_begin = region.begin + c * region.chunk_bytes;
        const uint64_t chunk_end =
            std::min<uint64_t>(chunk_begin + region.chunk_bytes, region.end);
        const size_t chunk_size = static_cast<size_t>(chunk_end - chunk_begin);
        const bool in_range = chunk_begin >= offset && chunk_end <= offset + len;
        if (!in_range) {
          chunk_buf.resize(chunk_size);
          UCP_RETURN_IF_ERROR(open.source->ReadAt(chunk_begin, chunk_buf.data(), chunk_size));
        }
        const uint8_t* chunk = in_range ? out + (chunk_begin - offset) : chunk_buf.data();
        if (Crc32(chunk, chunk_size) != region.chunk_crcs[static_cast<size_t>(c)]) {
          ServerMetrics::Get().chunk_crc_failures.Add(1);
          return DataLossError("per-tensor CRC mismatch in " + open.rel + " (chunk " +
                               std::to_string(c) + " of " +
                               std::to_string(region.chunk_crcs.size()) + ")");
        }
        open.verified[ri][static_cast<size_t>(c)] = true;
      }
    }
  }
  return static_cast<size_t>(len);
}

bool StoreServer::HandleFrame(int fd, const WireFrame& frame, Session& session) {
  // Adopt the trace context the request carried (if any) around this RPC, so the server's
  // handling span parents under the client's RPC span — one trace across both processes.
  obs::ScopedTraceContext trace_ctx(frame.trace);  // no-op when no context arrived
  const uint64_t start_ns = obs::TraceNowNs();
  bool keep_open;
  {
    UCP_TRACE_NAMED_SPAN(span, "store.server.rpc");
    if (obs::TraceEnabled()) {
      span.ArgS("op", WireOpName(frame.op));
      span.ArgI("session", static_cast<int64_t>(session.id));
      span.ArgI("lease", static_cast<int64_t>(session.lease->id));
      const std::string tag = RpcTagFor(frame, session.write_tag);
      if (!tag.empty()) {
        span.ArgS("tag", tag);
      }
    }
    keep_open = HandleFrameInner(fd, frame, session);
  }
  RpcSecondsFor(frame.op).Observe(static_cast<double>(obs::TraceNowNs() - start_ns) *
                                  1e-9);
  RpcBytesInFor(frame.op).Observe(static_cast<double>(frame.payload.size()));
  return keep_open;
}

bool StoreServer::HandleFrameInner(int fd, const WireFrame& frame, Session& session) {
  switch (frame.op) {
    case WireOp::kWriteChunk: {
      // The streaming hot path: no response frame, just append to the spool.
      const Status appended = HandleWriteChunk(frame, session);
      if (!appended.ok()) {
        AbandonOpenWrite(session);
        SendError(fd, appended).ok();
        return false;
      }
      return true;
    }
    case WireOp::kCloseRead: {
      // No response frame: the client does not wait for one.
      ByteReader r(frame.payload.data(), frame.payload.size());
      Result<uint64_t> handle = r.GetU64();
      if (!handle.ok()) {
        SendError(fd, handle.status()).ok();
        return false;
      }
      session.reads.erase(*handle);
      return true;
    }
    case WireOp::kReadRange: {
      // The reply is built in place in the session's frame buffer and sent with one send.
      Result<size_t> len = HandleReadRange(frame, session);
      if (!len.ok()) {
        return SendError(fd, len.status()).ok();
      }
      const Status sent =
          SendFrameInPlace(fd, WireOp::kBytes, session.reply_frame.data(), *len);
      ServerMetrics::Get().bytes_out.Add(kFrameHeaderBytes + *len + kFrameTrailerBytes);
      return sent.ok();
    }
    default:
      break;
  }
  Result<Reply> reply = Dispatch(frame, session);
  if (!reply.ok()) {
    // Drain-mode lease refusals carry a machine-readable retry-after hint so clients
    // back off toward another daemon (or the post-restart one) instead of spinning.
    const bool drain_refusal =
        draining_.load() && reply.status().code() == StatusCode::kUnavailable &&
        frame.op == WireOp::kSessionOpen;
    return SendError(fd, reply.status(), drain_refusal ? 1000u : 0u).ok();
  }
  const Status sent = SendFrame(fd, reply->op, reply->payload);
  ServerMetrics::Get().bytes_out.Add(kFrameHeaderBytes + reply->payload.size() +
                                     kFrameTrailerBytes);
  return sent.ok();
}

Result<StoreServer::Reply> StoreServer::Dispatch(const WireFrame& frame, Session& session) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  switch (frame.op) {
    case WireOp::kPing:
      return Reply{};
    case WireOp::kListTags: {
      UCP_ASSIGN_OR_RETURN(std::string job, r.GetString());
      UCP_ASSIGN_OR_RETURN(std::vector<std::string> tags, store_.ListTags(job));
      return Reply{WireOp::kStrList, EncodeStrList(tags)};
    }
    case WireOp::kList: {
      UCP_ASSIGN_OR_RETURN(std::string rel, r.GetString());
      UCP_ASSIGN_OR_RETURN(std::vector<std::string> entries, store_.List(rel));
      return Reply{WireOp::kStrList, EncodeStrList(entries)};
    }
    case WireOp::kReadSmall: {
      UCP_ASSIGN_OR_RETURN(std::string rel, r.GetString());
      UCP_ASSIGN_OR_RETURN(std::string text, store_.ReadSmallFile(rel));
      if (text.size() > kMaxFramePayload) {
        return OutOfRangeError("file too large for READ_SMALL: " + rel);
      }
      return Reply{WireOp::kBytes, std::vector<uint8_t>(text.begin(), text.end())};
    }
    case WireOp::kOpenRead:
      return HandleOpenRead(frame, session);
    case WireOp::kExists: {
      UCP_ASSIGN_OR_RETURN(std::string rel, r.GetString());
      UCP_ASSIGN_OR_RETURN(bool exists, store_.Exists(rel));
      return Reply{WireOp::kBool, {static_cast<uint8_t>(exists ? 1 : 0)}};
    }
    case WireOp::kResetStaging: {
      UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
      UCP_RETURN_IF_ERROR(store_.ResetTagStaging(tag));
      ReleaseStagedTag(*session.lease, tag);
      return Reply{};
    }
    case WireOp::kWriteBegin:
      UCP_RETURN_IF_ERROR(HandleWriteBegin(frame, session));
      return Reply{};
    case WireOp::kWriteEnd:
      UCP_RETURN_IF_ERROR(HandleWriteEnd(frame, session));
      return Reply{};
    case WireOp::kCommitTag: {
      UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
      UCP_ASSIGN_OR_RETURN(std::string meta, r.GetString());
      const Status committed = store_.CommitTag(tag, meta);
      if (!committed.ok()) {
        DumpAnomaly("commit-failure", "COMMIT_TAG " + tag + " failed: " + committed.ToString());
        return committed;
      }
      ReleaseStagedTag(*session.lease, tag);
      return Reply{};
    }
    case WireOp::kAbortTag: {
      UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
      UCP_RETURN_IF_ERROR(store_.AbortTag(tag));
      ReleaseStagedTag(*session.lease, tag);
      return Reply{};
    }
    case WireOp::kDeleteTag: {
      UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
      UCP_RETURN_IF_ERROR(store_.DeleteTag(tag));
      return Reply{};
    }
    case WireOp::kGc: {
      UCP_ASSIGN_OR_RETURN(std::string job, r.GetString());
      UCP_ASSIGN_OR_RETURN(uint32_t keep, r.GetU32());
      UCP_ASSIGN_OR_RETURN(uint8_t dry, r.GetU8());
      UCP_ASSIGN_OR_RETURN(GcReport report, store_.Gc(job, static_cast<int>(keep), dry != 0));
      std::vector<uint8_t> payload = EncodeStrList(report.removed);
      const std::vector<uint8_t> kept = EncodeStrList(report.kept);
      payload.insert(payload.end(), kept.begin(), kept.end());
      return Reply{WireOp::kGcReport, std::move(payload)};
    }
    case WireOp::kSweepDebris: {
      UCP_ASSIGN_OR_RETURN(std::string job, r.GetString());
      UCP_ASSIGN_OR_RETURN(int removed, store_.SweepStagingDebris(job));
      ByteWriter w;
      w.PutI64(removed);
      return Reply{WireOp::kInt, w.TakeBuffer()};
    }
    case WireOp::kSessionOpen:
      return HandleSessionOpen(frame, session);
    case WireOp::kWriteResume:
      return HandleWriteResume(frame);
    case WireOp::kServerStat: {
      ByteWriter w;
      w.PutU32(kWireVersion);
      w.PutU32(static_cast<uint32_t>(active_sessions()));
      w.PutU32(static_cast<uint32_t>(active_leases()));
      w.PutU64(staged_bytes_.load());
      w.PutU8(draining_.load() ? 1 : 0);
      return Reply{WireOp::kServerStatOk, w.TakeBuffer()};
    }
    case WireOp::kMetricsDump: {
      UCP_ASSIGN_OR_RETURN(uint8_t format, r.GetU8());
      std::string text = format == 1 ? obs::DumpMetricsPrometheus() : obs::DumpMetricsText();
      if (text.size() > kMaxFramePayload) {
        text.resize(kMaxFramePayload);  // a metrics page this large is its own anomaly
      }
      return Reply{WireOp::kBytes, std::vector<uint8_t>(text.begin(), text.end())};
    }
    default:
      return UnimplementedError("unknown wire op " +
                                std::to_string(static_cast<int>(frame.op)));
  }
}

void StoreServer::DumpAnomaly(const std::string& label, const std::string& detail) {
  {
    // Cap dossiers per label: the first few occurrences carry the forensic value, the
    // rest would only grind the disk while the anomaly repeats.
    constexpr int kMaxDumpsPerLabel = 4;
    std::lock_guard<std::mutex> lock(anomaly_mu_);
    int& count = anomaly_counts_[label];
    if (count >= kMaxDumpsPerLabel) {
      return;
    }
    ++count;
  }
  UCP_TRACE_INSTANT("store.server.anomaly",
                    obs::TraceArgs().S("label", label).S("detail", detail));
  std::string trace_path;
  std::string err;
  if (obs::DumpFlightRecord(options_.root, "serverd-" + label, &trace_path, &err)) {
    UCP_LOG(Warning) << "store server anomaly (" << label << "): " << detail
                     << "; flight record at " << trace_path;
  } else {
    UCP_LOG(Warning) << "store server anomaly (" << label << "): " << detail
                     << "; flight record failed: " << err;
  }
}

void StoreServer::HttpLoop() {
  while (!stopping_.load()) {
    const int http_fd = http_fd_.load();
    if (http_fd < 0) {
      return;
    }
    const int fd = ::accept(http_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    // One tiny blocking exchange per connection: read the request head, answer, close.
    char buf[2048];
    const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    std::string body;
    std::string code = "200 OK";
    std::string content_type = "text/plain; version=0.0.4";
    if (n > 0) {
      buf[n] = '\0';
      const std::string head(buf);
      // "GET <target> HTTP/1.1..." — split the target into path and query string.
      std::string target;
      if (head.rfind("GET ", 0) == 0) {
        const size_t end = head.find_first_of(" \r\n", 4);
        target = head.substr(4, end == std::string::npos ? std::string::npos : end - 4);
      }
      const size_t qmark = target.find('?');
      const std::string path = target.substr(0, qmark);
      const std::string query =
          qmark == std::string::npos ? std::string() : target.substr(qmark + 1);
      if (path == "/healthz") {
        // Machine-readable liveness: drain state, live leases, staged bytes — what an
        // operator (or orchestrator) needs before routing saves here.
        JsonObject h;
        h["status"] = "ok";
        h["draining"] = draining_.load();
        {
          std::lock_guard<std::mutex> lock(mu_);
          h["sessions"] = static_cast<int64_t>(sessions_.size());
          int64_t named = 0;
          for (const auto& [id, lease] : leases_) {
            named += lease->named() ? 1 : 0;
          }
          h["leases"] = named;
        }
        h["staged_bytes"] = static_cast<int64_t>(staged_bytes_.load());
        h["wire_version"] = static_cast<int64_t>(kWireVersion);
        body = Json(std::move(h)).Dump() + "\n";
        content_type = "application/json";
      } else if (path == "/metrics") {
        body = query.find("format=prometheus") != std::string::npos
                   ? obs::DumpMetricsPrometheus()
                   : obs::DumpMetricsText();
      } else {
        code = "404 Not Found";
        body = "not found\n";
      }
    } else {
      ::close(fd);
      continue;
    }
    const std::string response = "HTTP/1.1 " + code + "\r\nContent-Type: " +
                                 content_type + "\r\nContent-Length: " +
                                 std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
                                 body;
    size_t off = 0;
    while (off < response.size()) {
      const ssize_t sent = ::send(fd, response.data() + off, response.size() - off, 0);
      if (sent <= 0) {
        break;
      }
      off += static_cast<size_t>(sent);
    }
    ::close(fd);
  }
}

}  // namespace ucp

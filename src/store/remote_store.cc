#include "src/store/remote_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/tags.h"

namespace ucp {

namespace {

// The server may append a u32 retry-after hint (milliseconds) to an error frame —
// currently only on drain-mode lease refusals. Other error frames lack the suffix.
Status DecodeError(const WireFrame& frame, uint32_t* retry_after_ms = nullptr) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  UCP_ASSIGN_OR_RETURN(std::string message, r.GetString());
  if (retry_after_ms != nullptr && r.remaining() >= 4) {
    Result<uint32_t> hint = r.GetU32();
    if (hint.ok()) {
      *retry_after_ms = *hint;
    }
  }
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return DataLossError("malformed error frame (code " + std::to_string(code) + "): " +
                         message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

Result<std::vector<std::string>> DecodeStrList(const WireFrame& frame) {
  ByteReader r(frame.payload.data(), frame.payload.size());
  UCP_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  std::vector<std::string> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    UCP_ASSIGN_OR_RETURN(std::string s, r.GetString());
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<uint8_t> EncodeStr(const std::string& s) {
  ByteWriter w;
  w.PutString(s);
  return w.TakeBuffer();
}

// 128-bit hex lease token. The token is the session's identity across reconnects, so it
// must be unguessable enough that another client can't adopt (and release) our staging.
std::string RandomLeaseToken() {
  static const char kHex[] = "0123456789abcdef";
  std::random_device rd;
  std::string out;
  out.reserve(32);
  for (int i = 0; i < 4; ++i) {
    uint32_t v = rd();
    for (int j = 0; j < 8; ++j) {
      out.push_back(kHex[v & 0xF]);
      v >>= 4;
    }
  }
  return out;
}

struct HelloResult {
  int fd = -1;
  uint64_t session_id = 0;
  uint32_t max_frame = kMaxFramePayload;
};

// Dial + HELLO handshake offering [kWireVersion, kWireVersion]. On success the fd is the
// caller's to close.
Status DialAndHello(const std::string& endpoint, HelloResult* out) {
  UCP_ASSIGN_OR_RETURN(Endpoint ep, ParseEndpoint(endpoint));
  UCP_ASSIGN_OR_RETURN(int fd, DialEndpoint(ep));
  ByteWriter hello;
  hello.PutU32(kWireVersion);
  hello.PutU32(kWireVersion);
  Status sent = SendFrame(fd, WireOp::kHello, hello.buffer());
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  Result<WireFrame> reply = RecvFrame(fd);
  if (!reply.ok()) {
    ::close(fd);
    return reply.status();
  }
  if (reply->op == WireOp::kError) {
    const Status err = DecodeError(*reply);
    ::close(fd);
    return err;
  }
  if (reply->op != WireOp::kHelloOk) {
    ::close(fd);
    return DataLossError("handshake: unexpected frame type from server");
  }
  ByteReader r(reply->payload.data(), reply->payload.size());
  Result<uint32_t> version = r.GetU32();
  Result<uint64_t> session = r.GetU64();
  Result<uint32_t> max_frame = r.GetU32();
  if (!version.ok() || !session.ok() || !max_frame.ok()) {
    ::close(fd);
    return DataLossError("handshake: malformed HELLO_OK payload");
  }
  if (*version != kWireVersion) {
    ::close(fd);
    return FailedPreconditionError("server negotiated unsupported protocol version " +
                                   std::to_string(*version));
  }
  out->fd = fd;
  out->session_id = *session;
  out->max_frame = std::min(*max_frame, kMaxFramePayload);
  return OkStatus();
}

// SESSION_OPEN exchange on a raw fd (used both at Connect and inside reconnect, before
// the fd is installed as the store's connection).
Status SessionOpenOnFd(int fd, uint32_t max_frame, const std::string& token,
                       uint32_t ttl_ms, uint8_t* resumed, uint32_t* retry_after_ms) {
  ByteWriter req;
  req.PutString(token);
  req.PutU32(ttl_ms);
  UCP_RETURN_IF_ERROR(SendFrame(fd, WireOp::kSessionOpen, req.buffer()));
  UCP_ASSIGN_OR_RETURN(WireFrame reply, RecvFrame(fd, max_frame));
  if (reply.op == WireOp::kError) {
    return DecodeError(reply, retry_after_ms);
  }
  if (reply.op != WireOp::kSessionOpenOk) {
    return DataLossError("unexpected SESSION_OPEN response frame type");
  }
  ByteReader r(reply.payload.data(), reply.payload.size());
  UCP_ASSIGN_OR_RETURN(uint8_t res, r.GetU8());
  UCP_ASSIGN_OR_RETURN(uint32_t granted, r.GetU32());
  (void)granted;  // the server-clamped TTL; informational
  if (resumed != nullptr) {
    *resumed = res;
  }
  return OkStatus();
}

}  // namespace

// Keeps the connection alive (shared_ptr) past the owning Store's death, so views opened
// through a store can outlive it — mirroring how a RandomAccessFile outlives the path
// string it was opened from. Remembers its rel path so a post-reconnect read (the server-
// side handle died with the old session) can transparently reopen.
class RemoteByteSource final : public ByteSource {
 public:
  RemoteByteSource(std::shared_ptr<RemoteStore> store, uint64_t handle, uint64_t epoch,
                   uint64_t size, std::string rel, std::string name)
      : store_(std::move(store)), handle_(handle), epoch_(epoch), size_(size),
        rel_(std::move(rel)), name_(std::move(name)) {}
  ~RemoteByteSource() override { store_->CloseRead(*this); }

  uint64_t size() const override { return size_; }
  const std::string& name() const override { return name_; }
  Status ReadAt(uint64_t offset, void* out, size_t size) override {
    return store_->ReadRange(*this, offset, out, size);
  }

 private:
  friend class RemoteStore;
  std::shared_ptr<RemoteStore> store_;
  uint64_t handle_;
  uint64_t epoch_;  // conn_epoch_ the handle was opened under
  uint64_t size_;
  std::string rel_;
  std::string name_;
};

// Streams one staged file per WriteFile call: BEGIN (admission-checked, retried on
// backpressure), CHUNK*, END carrying the whole-file CRC the server verifies before the
// bytes become a staged file. Under a lease, a mid-stream transport failure reconnects
// and resumes from the server-acknowledged offset instead of failing the save.
class RemoteStoreWriter final : public StoreWriter {
 public:
  RemoteStoreWriter(std::shared_ptr<RemoteStore> store, std::string tag)
      : StoreWriter(std::move(tag)), store_(std::move(store)) {}

  Status WriteFile(const std::string& rel, const void* data, size_t size) override {
    std::lock_guard<std::mutex> lock(store_->mu_);
    return store_->WriteFileLocked(tag(), rel, data, size);
  }

 private:
  std::shared_ptr<RemoteStore> store_;
};

Result<std::shared_ptr<RemoteStore>> RemoteStore::Connect(const std::string& endpoint) {
  return Connect(endpoint, RemoteStoreOptions{});
}

Result<std::shared_ptr<RemoteStore>> RemoteStore::Connect(
    const std::string& endpoint, const RemoteStoreOptions& options) {
  HelloResult hs;
  UCP_RETURN_IF_ERROR(DialAndHello(endpoint, &hs));
  std::string token;
  if (options.lease_ttl_ms > 0) {
    token = RandomLeaseToken();
    Status opened = SessionOpenOnFd(hs.fd, hs.max_frame, token, options.lease_ttl_ms,
                                    /*resumed=*/nullptr, /*retry_after_ms=*/nullptr);
    if (!opened.ok()) {
      if (opened.code() == StatusCode::kFailedPrecondition) {
        // Leases disabled server-side: fall back to release-on-disconnect semantics.
        token.clear();
      } else {
        ::close(hs.fd);
        return opened;
      }
    }
  }
  return std::shared_ptr<RemoteStore>(new RemoteStore(hs.fd, endpoint, hs.session_id,
                                                      hs.max_frame, options,
                                                      std::move(token)));
}

RemoteStore::~RemoteStore() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

uint64_t RemoteStore::session_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_id_;
}

void RemoteStore::CloseForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  options_.reconnect = false;
  CloseFdLocked();
}

void RemoteStore::CloseFdLocked() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WireFrame> RemoteStore::ExchangeLocked(WireOp op,
                                              const std::vector<uint8_t>& payload,
                                              WireOp ok_op) {
  // The client RPC span. While it lives it is the thread context's innermost span, so the
  // TRACE_CONTEXT header below carries *its* id as parent — the server's handling span
  // becomes its child in the merged trace.
  UCP_TRACE_NAMED_SPAN(span, "store.client.rpc");
  if (obs::TraceEnabled()) {
    span.ArgS("op", WireOpName(op));
  }
  const uint64_t start_ns = obs::TraceNowNs();
  Result<WireFrame> reply = [&]() -> Result<WireFrame> {
    if (fd_ < 0) {
      return UnavailableError("connection to " + endpoint_ + " is closed");
    }
    // Ship the thread's trace context ahead of the request. Sent only when a logical
    // operation installed a context (a headerless request is simply unattributed).
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    if (ctx.valid()) {
      ByteWriter hdr;
      hdr.PutU64(ctx.trace_id);
      hdr.PutU64(ctx.span_id);
      Status hdr_sent = SendFrame(fd_, WireOp::kTraceContext, hdr.buffer());
      if (!hdr_sent.ok()) {
        CloseFdLocked();
        return hdr_sent;
      }
    }
    Status sent = SendFrame(fd_, op, payload);
    if (!sent.ok()) {
      CloseFdLocked();
      return sent;
    }
    Result<WireFrame> got = RecvFrame(fd_, max_frame_);
    if (!got.ok()) {
      CloseFdLocked();
      return got.status();
    }
    if (got->op == WireOp::kError) {
      return DecodeError(*got);
    }
    if (got->op != ok_op) {
      return DataLossError("unexpected response frame type " +
                           std::to_string(static_cast<int>(got->op)) + " from " +
                           endpoint_);
    }
    return got;
  }();
  // store.client.rpc.<op>.seconds — the client-side latency twin of the server's per-op
  // histograms (includes the send, the server's handling, and the reply).
  obs::MetricsRegistry::Global()
      .GetHistogram(std::string("store.client.rpc.") + WireOpName(op) + ".seconds")
      .Observe(static_cast<double>(obs::TraceNowNs() - start_ns) * 1e-9);
  return reply;
}

Result<WireFrame> RemoteStore::RoundtripLocked(WireOp op,
                                               const std::vector<uint8_t>& payload,
                                               WireOp ok_op) {
  Result<WireFrame> reply = ExchangeLocked(op, payload, ok_op);
  // `fd_ < 0` after a failed exchange means the transport died (a typed error *response*
  // leaves the connection healthy). These simple request/response ops are idempotent, so
  // re-running them on a freshly re-leased connection is safe.
  for (int attempt = 0; !reply.ok() && fd_ < 0 && CanReconnectLocked() && attempt < 2;
       ++attempt) {
    UCP_RETURN_IF_ERROR(ReconnectLocked());
    reply = ExchangeLocked(op, payload, ok_op);
  }
  return reply;
}

Result<WireFrame> RemoteStore::Roundtrip(WireOp op, const std::vector<uint8_t>& payload,
                                         WireOp ok_op) {
  std::lock_guard<std::mutex> lock(mu_);
  return RoundtripLocked(op, payload, ok_op);
}

Result<WireFrame> RemoteStore::RoundtripWithRetry(WireOp op,
                                                  const std::vector<uint8_t>& payload,
                                                  WireOp ok_op) {
  const IoRetryPolicy policy = GetIoRetryPolicy();
  std::chrono::milliseconds backoff = policy.base_backoff;
  static obs::Counter& transient =
      obs::MetricsRegistry::Global().GetCounter("io.retry.transient_errors");
  static obs::Counter& retries =
      obs::MetricsRegistry::Global().GetCounter("io.retry.retries");
  static obs::Counter& giveups =
      obs::MetricsRegistry::Global().GetCounter("io.retry.giveups");
  std::lock_guard<std::mutex> lock(mu_);
  for (int attempt = 1;; ++attempt) {
    Result<WireFrame> reply = RoundtripLocked(op, payload, ok_op);
    // Only *response-level* kUnavailable (server backpressure) retries here; transport
    // failures were already given their reconnect chance inside RoundtripLocked.
    if (reply.ok() || reply.status().code() != StatusCode::kUnavailable || fd_ < 0) {
      return reply;
    }
    transient.Add(1);
    if (attempt >= policy.max_attempts) {
      giveups.Add(1);
      return reply;
    }
    retries.Add(1);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

Status RemoteStore::ReconnectLocked() {
  // Joins whatever context the interrupted logical operation installed, so reconnect
  // spans carry the original save's trace_id instead of starting a fresh trace.
  UCP_TRACE_NAMED_SPAN(reconnect_span, "store.client.reconnect");
  static obs::Counter& reconnects =
      obs::MetricsRegistry::Global().GetCounter("store.client.reconnects");
  static obs::Counter& failures =
      obs::MetricsRegistry::Global().GetCounter("store.client.reconnect_failures");
  CloseFdLocked();
  const auto deadline = std::chrono::steady_clock::now() + options_.reconnect_deadline;
  const IoRetryPolicy policy = GetIoRetryPolicy();
  std::chrono::milliseconds backoff = policy.base_backoff;
  std::mt19937 rng{std::random_device{}()};
  Status last = UnavailableError("reconnect not attempted");
  for (;;) {
    HelloResult hs;
    Status s = DialAndHello(endpoint_, &hs);
    if (s.ok()) {
      uint32_t retry_after_ms = 0;
      s = SessionOpenOnFd(hs.fd, hs.max_frame, lease_token_, options_.lease_ttl_ms,
                          /*resumed=*/nullptr, &retry_after_ms);
      if (s.ok()) {
        fd_ = hs.fd;
        session_id_ = hs.session_id;
        max_frame_ = hs.max_frame;
        ++conn_epoch_;
        reconnects.Add(1);
        return OkStatus();
      }
      ::close(hs.fd);
      if (s.code() == StatusCode::kFailedPrecondition) {
        // Leases disabled or the token was refused outright — retrying cannot help.
        failures.Add(1);
        return s;
      }
      if (retry_after_ms > 0) {
        // Draining server told us when to come back; treat it as the backoff floor.
        backoff = std::max(backoff, std::chrono::milliseconds(retry_after_ms));
      }
    }
    last = s;
    // Jitter on the upper half spreads the reconnect stampede when many ranks lose the
    // same daemon at once.
    const int64_t cap = std::min(backoff, policy.max_backoff).count();
    std::uniform_int_distribution<int64_t> dist(std::max<int64_t>(1, cap / 2), cap);
    const std::chrono::milliseconds sleep{dist(rng)};
    if (std::chrono::steady_clock::now() + sleep >= deadline) {
      failures.Add(1);
      return UnavailableError("reconnect to " + endpoint_ + " exceeded deadline: " +
                              last.message());
    }
    std::this_thread::sleep_for(sleep);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
}

Status RemoteStore::WriteFileOnceLocked(const std::string& tag, const std::string& rel,
                                        const void* data, size_t size, uint64_t resume,
                                        uint64_t* sent_high) {
  ByteWriter begin;
  begin.PutString(tag);
  begin.PutString(rel);
  begin.PutU64(size);
  begin.PutU64(resume);
  // Admission control happens at BEGIN: a kUnavailable *response* means the daemon's
  // staged-bytes budget is full and this session is not the oldest — back off and retry
  // (nothing was staged). Transport failures return to the caller's resume loop.
  const IoRetryPolicy policy = GetIoRetryPolicy();
  std::chrono::milliseconds backoff = policy.base_backoff;
  static obs::Counter& transient =
      obs::MetricsRegistry::Global().GetCounter("io.retry.transient_errors");
  static obs::Counter& retries =
      obs::MetricsRegistry::Global().GetCounter("io.retry.retries");
  static obs::Counter& giveups =
      obs::MetricsRegistry::Global().GetCounter("io.retry.giveups");
  for (int attempt = 1;; ++attempt) {
    Result<WireFrame> opened =
        ExchangeLocked(WireOp::kWriteBegin, begin.buffer(), WireOp::kOk);
    if (opened.ok()) {
      break;
    }
    if (opened.status().code() != StatusCode::kUnavailable || fd_ < 0) {
      return opened.status();
    }
    transient.Add(1);
    if (attempt >= policy.max_attempts) {
      giveups.Add(1);
      return opened.status();
    }
    retries.Add(1);
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, policy.max_backoff);
  }
  const uint8_t* p = static_cast<const uint8_t*>(data) + resume;
  uint64_t offset = resume;
  size_t left = size - resume;
  while (left > 0) {
    const size_t n = std::min<size_t>(left, kWireChunkBytes);
    // Chunks are offset-addressed: a resent frame the server already holds is skipped
    // (idempotent), which is what makes resume-after-reconnect safe.
    ByteWriter prefix;
    prefix.PutU64(offset);
    const Status sent = SendFrame(fd_, WireOp::kWriteChunk, prefix.buffer().data(),
                                  prefix.buffer().size(), p, n);
    if (!sent.ok()) {
      CloseFdLocked();
      return sent;
    }
    p += n;
    offset += n;
    left -= n;
    *sent_high = std::max(*sent_high, offset);
  }
  ByteWriter end;
  end.PutU32(Crc32(data, size));
  return ExchangeLocked(WireOp::kWriteEnd, end.buffer(), WireOp::kOk).status();
}

Status RemoteStore::WriteFileLocked(const std::string& tag, const std::string& rel,
                                    const void* data, size_t size) {
  static obs::Counter& resumed_bytes =
      obs::MetricsRegistry::Global().GetCounter("store.client.resumed_bytes");
  static obs::Counter& restarted_bytes =
      obs::MetricsRegistry::Global().GetCounter("store.client.restarted_bytes");
  // One streamed file = one trace. The context installed here outlives every reconnect
  // and resume round below, so a resumed WRITE exports as one logical operation (every
  // RPC span — pre-drop, reconnect, post-resume — shares this trace_id), not two roots.
  obs::ScopedTraceContext trace_root;
  UCP_TRACE_NAMED_SPAN(file_span, "store.client.write_file");
  if (obs::TraceEnabled()) {
    file_span.ArgS("tag", tag);
    file_span.ArgS("rel", rel);
    file_span.ArgI("bytes", static_cast<int64_t>(size));
  }
  uint64_t resume = 0;
  uint64_t sent_high = 0;
  for (int reconnect_round = 0;; ++reconnect_round) {
    Status s = WriteFileOnceLocked(tag, rel, data, size, resume, &sent_high);
    if (s.ok()) {
      return s;
    }
    // A healthy-connection error (typed response) or a lease-less transport death is
    // final; only a leased session gets to reconnect and resume the stream.
    if (fd_ >= 0 || !CanReconnectLocked() || reconnect_round >= 4) {
      return s;
    }
    UCP_RETURN_IF_ERROR(ReconnectLocked());
    ByteWriter q;
    q.PutString(tag);
    q.PutString(rel);
    UCP_ASSIGN_OR_RETURN(
        WireFrame r, ExchangeLocked(WireOp::kWriteResume, q.buffer(),
                                    WireOp::kWriteResumeOk));
    ByteReader br(r.payload.data(), r.payload.size());
    UCP_ASSIGN_OR_RETURN(uint64_t acked, br.GetU64());
    UCP_ASSIGN_OR_RETURN(uint8_t complete, br.GetU8());
    if (complete != 0) {
      // The drop raced WRITE_END's reply: the file is fully staged and CRC-verified.
      resumed_bytes.Add(size);
      return OkStatus();
    }
    if (acked > size) {
      return DataLossError("server acknowledges " + std::to_string(acked) + " bytes of " +
                           rel + ", more than the file holds");
    }
    resumed_bytes.Add(acked);
    restarted_bytes.Add(sent_high > acked ? sent_high - acked : 0);
    UCP_TRACE_INSTANT("store.client.write_resume",
                      obs::TraceArgs()
                          .S("rel", rel)
                          .I("acked_bytes", static_cast<int64_t>(acked))
                          .I("round", reconnect_round + 1));
    resume = acked;
  }
}

Result<std::unique_ptr<ByteSource>> RemoteStore::OpenRead(const std::string& rel) {
  std::lock_guard<std::mutex> lock(mu_);
  UCP_ASSIGN_OR_RETURN(
      WireFrame reply, RoundtripLocked(WireOp::kOpenRead, EncodeStr(rel),
                                       WireOp::kOpenReadOk));
  ByteReader r(reply.payload.data(), reply.payload.size());
  UCP_ASSIGN_OR_RETURN(uint64_t handle, r.GetU64());
  UCP_ASSIGN_OR_RETURN(uint64_t size, r.GetU64());
  return std::unique_ptr<ByteSource>(new RemoteByteSource(
      shared_from_this(), handle, conn_epoch_, size, rel, CacheKey(rel)));
}

Status RemoteStore::ReadRange(RemoteByteSource& src, uint64_t offset, void* out,
                              size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  uint8_t* p = static_cast<uint8_t*>(out);
  size_t left = size;
  int reconnects_left = 2;
  while (left > 0) {
    if (src.epoch_ != conn_epoch_) {
      // The server-side read handle died with the old session: reopen by path.
      Result<WireFrame> reply =
          ExchangeLocked(WireOp::kOpenRead, EncodeStr(src.rel_), WireOp::kOpenReadOk);
      if (!reply.ok()) {
        if (fd_ < 0 && CanReconnectLocked() && reconnects_left-- > 0 &&
            ReconnectLocked().ok()) {
          continue;
        }
        return reply.status();
      }
      ByteReader r(reply->payload.data(), reply->payload.size());
      UCP_ASSIGN_OR_RETURN(uint64_t handle, r.GetU64());
      UCP_ASSIGN_OR_RETURN(uint64_t new_size, r.GetU64());
      if (new_size != src.size_) {
        return DataLossError(src.rel_ + " changed size across reconnect (" +
                             std::to_string(src.size_) + " -> " +
                             std::to_string(new_size) + ")");
      }
      src.handle_ = handle;
      src.epoch_ = conn_epoch_;
      continue;
    }
    const size_t n = std::min<size_t>(left, kWireChunkBytes);
    ByteWriter req;
    req.PutU64(src.handle_);
    req.PutU64(offset);
    req.PutU32(static_cast<uint32_t>(n));
    Result<WireFrame> reply = ExchangeLocked(WireOp::kReadRange, req.buffer(),
                                             WireOp::kBytes);
    if (!reply.ok()) {
      if (fd_ < 0 && CanReconnectLocked() && reconnects_left-- > 0 &&
          ReconnectLocked().ok()) {
        continue;  // conn_epoch_ advanced; the next iteration reopens the handle
      }
      return reply.status();
    }
    if (reply->payload.size() != n) {
      return DataLossError("short READ_RANGE response from " + endpoint_);
    }
    std::memcpy(p, reply->payload.data(), n);
    p += n;
    offset += n;
    left -= n;
  }
  return OkStatus();
}

void RemoteStore::CloseRead(RemoteByteSource& src) {
  std::lock_guard<std::mutex> lock(mu_);
  if (src.epoch_ != conn_epoch_) {
    return;  // the handle died with its session; nothing to close server-side
  }
  ByteWriter req;
  req.PutU64(src.handle_);
  ExchangeLocked(WireOp::kCloseRead, req.buffer(), WireOp::kOk).ok();  // best effort
}

Result<std::string> RemoteStore::ReadSmallFile(const std::string& rel) {
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kReadSmall, EncodeStr(rel), WireOp::kBytes));
  return std::string(reply.payload.begin(), reply.payload.end());
}

Result<bool> RemoteStore::Exists(const std::string& rel) {
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kExists, EncodeStr(rel), WireOp::kBool));
  ByteReader r(reply.payload.data(), reply.payload.size());
  UCP_ASSIGN_OR_RETURN(uint8_t v, r.GetU8());
  return v != 0;
}

Result<std::vector<std::string>> RemoteStore::List(const std::string& rel) {
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kList, EncodeStr(rel), WireOp::kStrList));
  return DecodeStrList(reply);
}

Result<std::vector<std::string>> RemoteStore::ListTags(const std::string& job) {
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kListTags, EncodeStr(job), WireOp::kStrList));
  return DecodeStrList(reply);
}

Result<std::unique_ptr<StoreWriter>> RemoteStore::OpenTagForWrite(const std::string& tag) {
  if (!IsSafeStoreName(tag)) {
    return InvalidArgumentError("bad checkpoint tag: " + tag);
  }
  return std::unique_ptr<StoreWriter>(new RemoteStoreWriter(shared_from_this(), tag));
}

Status RemoteStore::ResetTagStaging(const std::string& tag) {
  return RoundtripWithRetry(WireOp::kResetStaging, EncodeStr(tag), WireOp::kOk).status();
}

Status RemoteStore::CommitTag(const std::string& tag, const std::string& meta_json) {
  ByteWriter req;
  req.PutString(tag);
  req.PutString(meta_json);
  std::lock_guard<std::mutex> lock(mu_);
  // The commit (and its possible reconnect + already-landed probe + retry) is one
  // logical operation — one trace.
  obs::ScopedTraceContext trace_root;
  UCP_TRACE_NAMED_SPAN(commit_span, "store.client.commit_tag");
  if (obs::TraceEnabled()) {
    commit_span.ArgS("tag", tag);
  }
  Result<WireFrame> reply = ExchangeLocked(WireOp::kCommitTag, req.buffer(), WireOp::kOk);
  if (reply.ok()) {
    return OkStatus();
  }
  if (fd_ >= 0 || !CanReconnectLocked()) {
    return reply.status();
  }
  UCP_RETURN_IF_ERROR(ReconnectLocked());
  // COMMIT_TAG is not idempotent (the staging dir is consumed by the rename), and the
  // drop may have raced the reply: check whether the commit already landed before
  // retrying, so a committed tag is never reported as failed.
  Result<WireFrame> probe =
      ExchangeLocked(WireOp::kExists,
                     EncodeStr(tag + "/" + kCompleteMarker), WireOp::kBool);
  if (probe.ok()) {
    ByteReader r(probe->payload.data(), probe->payload.size());
    Result<uint8_t> committed = r.GetU8();
    if (committed.ok() && *committed != 0) {
      return OkStatus();
    }
  }
  return ExchangeLocked(WireOp::kCommitTag, req.buffer(), WireOp::kOk).status();
}

Status RemoteStore::AbortTag(const std::string& tag) {
  return RoundtripWithRetry(WireOp::kAbortTag, EncodeStr(tag), WireOp::kOk).status();
}

Status RemoteStore::DeleteTag(const std::string& tag) {
  return RoundtripWithRetry(WireOp::kDeleteTag, EncodeStr(tag), WireOp::kOk).status();
}

Result<GcReport> RemoteStore::Gc(const std::string& job, int keep_last, bool dry_run) {
  if (keep_last < 1) {
    return InvalidArgumentError("keep_last must be >= 1");
  }
  ByteWriter req;
  req.PutString(job);
  req.PutU32(static_cast<uint32_t>(keep_last));
  req.PutU8(dry_run ? 1 : 0);
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kGc, req.buffer(), WireOp::kGcReport));
  ByteReader r(reply.payload.data(), reply.payload.size());
  GcReport report;
  UCP_ASSIGN_OR_RETURN(uint32_t n_removed, r.GetU32());
  for (uint32_t i = 0; i < n_removed; ++i) {
    UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
    report.removed.push_back(std::move(tag));
  }
  UCP_ASSIGN_OR_RETURN(uint32_t n_kept, r.GetU32());
  for (uint32_t i = 0; i < n_kept; ++i) {
    UCP_ASSIGN_OR_RETURN(std::string tag, r.GetString());
    report.kept.push_back(std::move(tag));
  }
  return report;
}

Result<int> RemoteStore::SweepStagingDebris(const std::string& job) {
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kSweepDebris, EncodeStr(job), WireOp::kInt));
  ByteReader r(reply.payload.data(), reply.payload.size());
  UCP_ASSIGN_OR_RETURN(int64_t v, r.GetI64());
  return static_cast<int>(v);
}

Status RemoteStore::Ping() {
  return Roundtrip(WireOp::kPing, {}, WireOp::kOk).status();
}

Result<std::string> RemoteStore::MetricsDump(bool prometheus) {
  ByteWriter req;
  req.PutU8(prometheus ? 1 : 0);
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kMetricsDump, req.buffer(), WireOp::kBytes));
  return std::string(reply.payload.begin(), reply.payload.end());
}

Result<RemoteServerStat> RemoteStore::ServerStat() {
  UCP_ASSIGN_OR_RETURN(WireFrame reply,
                       Roundtrip(WireOp::kServerStat, {}, WireOp::kServerStatOk));
  ByteReader r(reply.payload.data(), reply.payload.size());
  RemoteServerStat stat;
  UCP_ASSIGN_OR_RETURN(stat.wire_version, r.GetU32());
  UCP_ASSIGN_OR_RETURN(stat.sessions, r.GetU32());
  UCP_ASSIGN_OR_RETURN(stat.leases, r.GetU32());
  UCP_ASSIGN_OR_RETURN(stat.staged_bytes, r.GetU64());
  UCP_ASSIGN_OR_RETURN(uint8_t draining, r.GetU8());
  stat.draining = draining != 0;
  return stat;
}

}  // namespace ucp

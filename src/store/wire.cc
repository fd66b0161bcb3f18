#include "src/store/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace ucp {

const char* WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kHello: return "hello";
    case WireOp::kListTags: return "list_tags";
    case WireOp::kList: return "list";
    case WireOp::kReadSmall: return "read_small";
    case WireOp::kOpenRead: return "open_read";
    case WireOp::kReadRange: return "read_range";
    case WireOp::kCloseRead: return "close_read";
    case WireOp::kExists: return "exists";
    case WireOp::kResetStaging: return "reset_staging";
    case WireOp::kWriteBegin: return "write_begin";
    case WireOp::kWriteChunk: return "write_chunk";
    case WireOp::kWriteEnd: return "write_end";
    case WireOp::kCommitTag: return "commit_tag";
    case WireOp::kAbortTag: return "abort_tag";
    case WireOp::kDeleteTag: return "delete_tag";
    case WireOp::kGc: return "gc";
    case WireOp::kSweepDebris: return "sweep_debris";
    case WireOp::kPing: return "ping";
    case WireOp::kSessionOpen: return "session_open";
    case WireOp::kWriteResume: return "write_resume";
    case WireOp::kServerStat: return "server_stat";
    case WireOp::kMetricsDump: return "metrics_dump";
    case WireOp::kOk: return "ok";
    case WireOp::kError: return "error";
    case WireOp::kHelloOk: return "hello_ok";
    case WireOp::kStrList: return "str_list";
    case WireOp::kBytes: return "bytes";
    case WireOp::kOpenReadOk: return "open_read_ok";
    case WireOp::kBool: return "bool";
    case WireOp::kGcReport: return "gc_report";
    case WireOp::kInt: return "int";
    case WireOp::kSessionOpenOk: return "session_open_ok";
    case WireOp::kWriteResumeOk: return "write_resume_ok";
    case WireOp::kServerStatOk: return "server_stat_ok";
  }
  return "op_unknown";
}

namespace {

// ---- io.retry.* metrics (the remote-path twin of fs.retry.*) -----------------------------

obs::Counter& TransientCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("io.retry.transient_errors");
  return c;
}
obs::Counter& RetryCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("io.retry.retries");
  return c;
}
obs::Counter& GiveupCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("io.retry.giveups");
  return c;
}

// ---- Fault injection ----------------------------------------------------------------------

std::mutex g_fault_mu;
std::vector<SocketFault> g_faults;
int g_send_calls = 0;
int g_recv_calls = 0;

// Returns the armed fault matching this syscall, if any, and disarms it.
bool TakeFault(SocketFault::Op op, SocketFault* out) {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  int& counter = op == SocketFault::Op::kSend ? g_send_calls : g_recv_calls;
  const int call = counter++;
  for (size_t i = 0; i < g_faults.size(); ++i) {
    if (g_faults[i].op == op && g_faults[i].nth == call) {
      *out = g_faults[i];
      g_faults.erase(g_faults.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

// The errno kinds drop the connection for real (shutdown() makes the peer see EOF and
// later local syscalls fail), so a chaos-injected ECONNRESET behaves like the genuine
// article on both ends of the socket.
ssize_t InjectErrnoDrop(int fd, int err) {
  ::shutdown(fd, SHUT_RDWR);
  errno = err;
  return -1;
}

ssize_t SendSyscall(int fd, const void* buf, size_t len) {
  SocketFault fault;
  if (TakeFault(SocketFault::Op::kSend, &fault)) {
    switch (fault.kind) {
      case SocketFault::Kind::kEintr:
        errno = EINTR;
        return -1;
      case SocketFault::Kind::kEagain:
        errno = EAGAIN;
        return -1;
      case SocketFault::Kind::kShort:
        len = len > 1 ? 1 : len;
        break;
      case SocketFault::Kind::kEpipe:
        return InjectErrnoDrop(fd, EPIPE);
      case SocketFault::Kind::kEconnreset:
        return InjectErrnoDrop(fd, ECONNRESET);
      case SocketFault::Kind::kEtimedout:
        return InjectErrnoDrop(fd, ETIMEDOUT);
      case SocketFault::Kind::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        break;
      case SocketFault::Kind::kBlackhole:
        // One-way partition: the bytes vanish but the sender believes they went out.
        return static_cast<ssize_t>(len);
    }
  }
#ifdef MSG_NOSIGNAL
  return ::send(fd, buf, len, MSG_NOSIGNAL);
#else
  return ::send(fd, buf, len, 0);
#endif
}

ssize_t RecvSyscall(int fd, void* buf, size_t len) {
  SocketFault fault;
  if (TakeFault(SocketFault::Op::kRecv, &fault)) {
    switch (fault.kind) {
      case SocketFault::Kind::kEintr:
        errno = EINTR;
        return -1;
      case SocketFault::Kind::kEagain:
        errno = EAGAIN;
        return -1;
      case SocketFault::Kind::kShort:
        len = len > 1 ? 1 : len;
        break;
      case SocketFault::Kind::kEpipe:
        return InjectErrnoDrop(fd, EPIPE);
      case SocketFault::Kind::kEconnreset:
        return InjectErrnoDrop(fd, ECONNRESET);
      case SocketFault::Kind::kEtimedout:
        return InjectErrnoDrop(fd, ETIMEDOUT);
      case SocketFault::Kind::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        break;
      case SocketFault::Kind::kBlackhole:
        // The reply never arrives: model the read-side of a one-way partition as a
        // timeout after the injected delay.
        std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
        return InjectErrnoDrop(fd, ETIMEDOUT);
    }
  }
  return ::recv(fd, buf, len, 0);
}

// ---- Transfer loops -----------------------------------------------------------------------
//
// Partial progress restarts the transient budget: only *consecutive* EINTR/EAGAIN hits
// count against max_attempts, matching the fs-side retry semantics (an operation that
// keeps moving is not failing).

Status SendAll(int fd, const void* data, size_t size) {
  const IoRetryPolicy policy = GetIoRetryPolicy();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = size;
  int attempt = 0;
  std::chrono::milliseconds backoff = policy.base_backoff;
  while (left > 0) {
    const ssize_t n = SendSyscall(fd, p, left);
    if (n > 0) {
      p += n;
      left -= static_cast<size_t>(n);
      attempt = 0;
      backoff = policy.base_backoff;
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      TransientCounter().Add(1);
      if (++attempt >= policy.max_attempts) {
        GiveupCounter().Add(1);
        return UnavailableError("socket send: transient errors exhausted retries");
      }
      RetryCounter().Add(1);
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, policy.max_backoff);
      continue;
    }
    if (n == 0) {
      return UnavailableError("socket send failed: peer closed");
    }
    return StatusFromSocketErrno("socket send", errno);
  }
  return OkStatus();
}

// `eof_ok` distinguishes "peer hung up between frames" (clean close) from "peer died
// mid-frame" — both kUnavailable, but the message matters for diagnosing kills.
Status RecvAll(int fd, void* data, size_t size, bool at_frame_boundary) {
  const IoRetryPolicy policy = GetIoRetryPolicy();
  uint8_t* p = static_cast<uint8_t*>(data);
  size_t left = size;
  int attempt = 0;
  std::chrono::milliseconds backoff = policy.base_backoff;
  while (left > 0) {
    const ssize_t n = RecvSyscall(fd, p, left);
    if (n > 0) {
      p += n;
      left -= static_cast<size_t>(n);
      attempt = 0;
      backoff = policy.base_backoff;
      continue;
    }
    if (n == 0) {
      if (at_frame_boundary && left == size) {
        return UnavailableError("connection closed by peer");
      }
      return UnavailableError("connection closed mid-frame");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      TransientCounter().Add(1);
      if (++attempt >= policy.max_attempts) {
        GiveupCounter().Add(1);
        return UnavailableError("socket recv: transient errors exhausted retries");
      }
      RetryCounter().Add(1);
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, policy.max_backoff);
      continue;
    }
    return StatusFromSocketErrno("socket recv", errno);
  }
  return OkStatus();
}

void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Status StatusFromSocketErrno(const std::string& op, int err) {
  const std::string msg = op + " failed: " + std::strerror(err);
  switch (err) {
    case EPIPE:
    case ECONNRESET:
    case ETIMEDOUT:
    case ECONNREFUSED:
    case ECONNABORTED:
    case ENETUNREACH:
    case EHOSTUNREACH:
    case ENETDOWN:
    case ENOTCONN:
      // Connection-level: the peer (or the path to it) went away. Retryable — the daemon
      // may come back, the client may reconnect.
      return UnavailableError(msg);
    default:
      return IoError(msg);
  }
}

void ArmSocketFault(const SocketFault& fault) {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  SocketFault f = fault;
  // `nth` is relative to the calls made after arming.
  f.nth += f.op == SocketFault::Op::kSend ? g_send_calls : g_recv_calls;
  g_faults.push_back(f);
}

void ClearSocketFaults() {
  std::lock_guard<std::mutex> lock(g_fault_mu);
  g_faults.clear();
}

Status SendFrameInPlace(int fd, WireOp op, uint8_t* frame, size_t len) {
  if (len > kMaxFramePayload) {
    return InvalidArgumentError("wire frame payload too large: " + std::to_string(len));
  }
  StoreU32(frame, kWireMagic);
  frame[4] = static_cast<uint8_t>(op);
  StoreU32(frame + 5, static_cast<uint32_t>(len));
  // CRC covers the type byte + payload (not the length field), matching RecvFrame.
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, frame + 4, 1);
  crc = Crc32Update(crc, frame + kFrameHeaderBytes, len);
  StoreU32(frame + kFrameHeaderBytes + len, Crc32Finalize(crc));
  return SendAll(fd, frame, kFrameHeaderBytes + len + kFrameTrailerBytes);
}

Status SendFrame(int fd, WireOp op, const void* prefix, size_t prefix_len,
                 const void* payload, size_t len, obs::TraceContext trace) {
  const size_t context_len = trace.valid() ? kTraceContextBytes : 0;
  const size_t total = context_len + prefix_len + len;
  if (total > kMaxFramePayload) {
    return InvalidArgumentError("wire frame payload too large: " + std::to_string(total));
  }
  std::vector<uint8_t> buf(kFrameHeaderBytes + total + kFrameTrailerBytes);
  uint8_t* p = buf.data() + kFrameHeaderBytes;
  if (context_len > 0) {
    std::memcpy(p, &trace.trace_id, sizeof(trace.trace_id));
    std::memcpy(p + sizeof(trace.trace_id), &trace.span_id, sizeof(trace.span_id));
    p += context_len;
  }
  if (prefix_len > 0) {
    std::memcpy(p, prefix, prefix_len);
  }
  if (len > 0) {
    std::memcpy(p + prefix_len, payload, len);
  }
  // A traced request's type byte is its op with kTracedFrame set.
  const uint8_t type = static_cast<uint8_t>(op) | (context_len > 0 ? kTracedFrame : 0);
  return SendFrameInPlace(fd, static_cast<WireOp>(type), buf.data(), total);
}

Result<WireFrame> RecvFrame(int fd, uint32_t max_payload, const FrameDest* dest) {
  uint8_t header[kFrameHeaderBytes];
  UCP_RETURN_IF_ERROR(RecvAll(fd, header, sizeof(header), /*at_frame_boundary=*/true));
  if (LoadU32(header) != kWireMagic) {
    return DataLossError("torn wire frame: bad magic");
  }
  WireFrame frame;
  const bool traced = (header[4] & kTracedFrame) != 0;
  frame.op = static_cast<WireOp>(header[4] & ~kTracedFrame);
  const uint32_t len = LoadU32(header + 5);
  if (len > max_payload) {
    return DataLossError("torn wire frame: oversized payload (" + std::to_string(len) +
                         " bytes)");
  }
  if (traced && len < kTraceContextBytes) {
    return DataLossError("torn wire frame: traced frame shorter than its trace context");
  }
  frame.in_dest = !traced && dest != nullptr && frame.op == dest->op && len == dest->size;
  uint8_t* payload = frame.in_dest ? static_cast<uint8_t*>(dest->data) : nullptr;
  if (!frame.in_dest) {
    frame.payload.resize(len);
    payload = frame.payload.data();
  }
  if (len > 0) {
    UCP_RETURN_IF_ERROR(RecvAll(fd, payload, len, /*at_frame_boundary=*/false));
  }
  uint8_t crc_buf[kFrameTrailerBytes];
  UCP_RETURN_IF_ERROR(RecvAll(fd, crc_buf, sizeof(crc_buf), /*at_frame_boundary=*/false));
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, header + 4, 1);
  crc = Crc32Update(crc, payload, len);
  if (LoadU32(crc_buf) != Crc32Finalize(crc)) {
    return DataLossError("torn wire frame: CRC mismatch");
  }
  if (traced) {
    // The context arrived with the payload in one receive; strip it off the front.
    std::memcpy(&frame.trace.trace_id, payload, sizeof(frame.trace.trace_id));
    std::memcpy(&frame.trace.span_id, payload + sizeof(frame.trace.trace_id),
                sizeof(frame.trace.span_id));
    frame.payload.erase(frame.payload.begin(),
                        frame.payload.begin() + static_cast<long>(kTraceContextBytes));
  }
  return frame;
}

// ---- Endpoints ---------------------------------------------------------------------------

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  Endpoint ep;
  if (StartsWith(spec, "unix:")) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      return InvalidArgumentError("empty unix socket path in endpoint: " + spec);
    }
    if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return InvalidArgumentError("unix socket path too long: " + ep.path);
    }
    return ep;
  }
  if (StartsWith(spec, "tcp:")) {
    ep.is_unix = false;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      return InvalidArgumentError("expected tcp:host:port, got: " + spec);
    }
    ep.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    char* end = nullptr;
    errno = 0;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      return InvalidArgumentError("bad tcp port in endpoint: " + spec);
    }
    ep.port = static_cast<int>(port);
    return ep;
  }
  return InvalidArgumentError("endpoint must start with unix: or tcp:, got: " + spec);
}

std::string EndpointToString(const Endpoint& ep) {
  return ep.is_unix ? "unix:" + ep.path : "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

namespace {

Result<int> NewSocket(const Endpoint& ep) {
  const int fd = ::socket(ep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError("socket() failed: " + std::string(std::strerror(errno)));
  }
  if (!ep.is_unix) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Result<sockaddr_in> TcpAddr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(ep.port));
  const std::string host = ep.host == "localhost" ? "127.0.0.1" : ep.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgumentError("cannot parse IPv4 host: " + ep.host);
  }
  return addr;
}

}  // namespace

Result<int> DialEndpoint(const Endpoint& ep) {
  UCP_ASSIGN_OR_RETURN(int fd, NewSocket(ep));
  int rc;
  if (ep.is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    Result<sockaddr_in> addr = TcpAddr(ep);
    if (!addr.ok()) {
      ::close(fd);
      return addr.status();
    }
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr));
  }
  if (rc != 0) {
    // ENOENT (no such unix socket yet) is "the daemon isn't up" — just as retryable as a
    // refused TCP connect, so it joins the kUnavailable family rather than kIoError.
    const Status err =
        errno == ENOENT
            ? UnavailableError("cannot connect to " + EndpointToString(ep) + ": " +
                               std::strerror(ENOENT))
            : StatusFromSocketErrno("cannot connect to " + EndpointToString(ep), errno);
    ::close(fd);
    return err;
  }
  return fd;
}

Result<int> ListenEndpoint(const Endpoint& ep) {
  UCP_ASSIGN_OR_RETURN(int fd, NewSocket(ep));
  int rc;
  if (ep.is_unix) {
    ::unlink(ep.path.c_str());  // stale socket file from a previous daemon
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    Result<sockaddr_in> addr = TcpAddr(ep);
    if (!addr.ok()) {
      ::close(fd);
      return addr.status();
    }
    rc = ::bind(fd, reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr));
  }
  if (rc != 0 || ::listen(fd, 64) != 0) {
    const Status err = IoError("cannot listen on " + EndpointToString(ep) + ": " +
                               std::strerror(errno));
    ::close(fd);
    return err;
  }
  return fd;
}

Result<int> BoundSocketPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return IoError("getsockname failed");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

}  // namespace ucp

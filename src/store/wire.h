// The ucp_serverd wire protocol: length-prefixed, CRC32-covered binary frames over a
// Unix-domain or TCP stream socket.
//
// Frame layout (all integers little-endian):
//
//   u32 magic    'UCPW' (0x57504355)
//   u8  type     frame type (below)
//   u32 len      payload byte count, <= kMaxFramePayload
//   ...          payload
//   u32 crc      CRC32 over the type byte followed by the payload
//
// A frame whose magic, length bound, or CRC fails is a *torn frame*: the receiver reports
// kDataLoss and the connection is unusable (stream framing is lost). The first exchange is
// the handshake: HELLO carries the client's [min,max] supported versions and HELLO_OK
// names the one the server speaks, so a peer outside the window fails closed with a typed
// kFailedPrecondition instead of misparsing later frames.
//
// Transport-level transient errors (EINTR/EAGAIN, partial send/recv progress) are retried
// inside SendAll/RecvAll with IoRetryPolicy backoff and surfaced in the io.retry.*
// metrics; a peer that goes away mid-frame surfaces as kUnavailable (connection-level,
// maybe the daemon restarts) while torn payloads surface as kDataLoss.

#ifndef UCP_SRC_STORE_WIRE_H_
#define UCP_SRC_STORE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace ucp {

inline constexpr uint32_t kWireMagic = 0x57504355;  // "UCPW" little-endian
// Wire version: v4 only. It carries session leases (SESSION_OPEN binds one; every later
// frame on the connection refreshes its expiry), offset-addressed WRITE_BEGIN / WRITE_CHUNK
// frames and the WRITE_RESUME query that make interrupted uploads resumable, and the
// TRACE_CONTEXT prefix frame and METRICS_DUMP op for observability. (v1 and v2 had no
// leases or resumable writes and v3 lacked the two observability ops; none of them is
// spoken any more.)
inline constexpr uint32_t kWireVersion = 4;
// Bound on one frame's payload; larger files stream as multiple WRITE_CHUNK / READ_RANGE
// exchanges. Also the admission unit for the server's torn-frame defense: a corrupt length
// field can never make the server allocate more than this.
inline constexpr uint32_t kMaxFramePayload = 4u << 20;
// Chunk size the clients use for streaming writes and large range reads.
inline constexpr uint32_t kWireChunkBytes = 1u << 20;

// Frame types. Requests < 64, responses >= 64.
enum class WireOp : uint8_t {
  kHello = 1,         // u32 min_version | u32 max_version
  kListTags = 2,      // str job
  kList = 3,          // str rel ("" = root)
  kReadSmall = 4,     // str rel
  kOpenRead = 5,      // str rel
  kReadRange = 6,     // u64 handle | u64 offset | u32 len
  kCloseRead = 7,     // u64 handle
  kExists = 8,        // str rel
  kResetStaging = 9,  // str tag
  kWriteBegin = 10,   // str tag | str rel | u64 total_bytes | u64 resume_offset
                      // (0 = fresh write; > 0 continues a spooled upload whose first
                      // resume_offset bytes the server already acknowledged via
                      // WRITE_RESUME)
  kWriteChunk = 11,   // u64 offset | raw bytes — idempotent: a chunk whose byte range is
                      // already spooled is skipped, a gap is kDataLoss
  kWriteEnd = 12,     // u32 crc32 of the whole file body
  kCommitTag = 13,    // str tag | str meta_json
  kAbortTag = 14,     // str tag
  kDeleteTag = 15,    // str tag
  kGc = 16,           // str job | u32 keep_last | u8 dry_run
  kSweepDebris = 17,  // str job
  kPing = 18,         // empty
  // 19 and 20 (and the 73 reply) were the retired chunk-dedup ops; never reuse them.
  kSessionOpen = 21,  // str lease_token | u32 ttl_ms — bind (or re-adopt) a lease
  // 22 was SESSION_RENEW, which no client sent (any frame refreshes the lease); never
  // reuse it.
  kWriteResume = 23,  // str tag | str rel — how many bytes the server already has
  kServerStat = 24,   // empty — sessions/leases/staged/draining snapshot
  kTraceContext = 25, // u64 trace_id | u64 parent_span_id — no response; annotates the
                      // *next* request frame on this connection with the client's trace
                      // context so the server's handling span joins the client's trace
  kMetricsDump = 26,  // u8 format (0 = text table, 1 = Prometheus) -> kBytes

  kOk = 64,           // empty
  kError = 65,        // u8 status_code | str message
                      // | optional trailing u32 retry_after_ms hint (attached to
                      // drain-mode lease refusals)
  kHelloOk = 66,      // u32 version | u64 session_id | u32 max_frame
  kStrList = 67,      // u32 count | count * str
  kBytes = 68,        // raw bytes
  kOpenReadOk = 69,   // u64 handle | u64 file_size
  kBool = 70,         // u8
  kGcReport = 71,     // u32 n_removed | n * str | u32 n_kept | n * str
  kInt = 72,          // i64
  kSessionOpenOk = 74,  // u8 resumed | u32 granted_ttl_ms
  kWriteResumeOk = 75,  // u64 acked_bytes | u8 complete (file already fully staged)
  kServerStatOk = 76,   // u32 server_version | u32 sessions | u32 leases |
                        // u64 staged_bytes | u8 draining
};

struct WireFrame {
  WireOp op = WireOp::kPing;
  std::vector<uint8_t> payload;
};

// Stable lowercase name for an op ("write_begin", "commit_tag", ...; "op_unknown" for
// values outside the enum) — the key under which per-RPC metrics and spans are recorded.
const char* WireOpName(WireOp op);

// Sends one complete frame. kUnavailable when the peer is gone (EPIPE/ECONNRESET) or
// transient retries exhaust.
Status SendFrame(int fd, WireOp op, const void* payload, size_t len);
// Two-part payload (prefix ++ body in one frame): the WRITE_CHUNK path prepends the
// u64 offset to a chunk that lives in the caller's tensor buffer without an extra copy.
Status SendFrame(int fd, WireOp op, const void* prefix, size_t prefix_len,
                 const void* payload, size_t len);
inline Status SendFrame(int fd, WireOp op, const std::vector<uint8_t>& payload) {
  return SendFrame(fd, op, payload.data(), payload.size());
}

// Receives one complete frame. kUnavailable on clean EOF before any byte (idle peer went
// away) and on mid-frame disconnect; kDataLoss on bad magic / oversized length / CRC
// mismatch (torn frame).
Result<WireFrame> RecvFrame(int fd, uint32_t max_payload = kMaxFramePayload);

// ---- Endpoints ---------------------------------------------------------------------------

// "unix:/path/to.sock" or "tcp:host:port".
struct Endpoint {
  bool is_unix = true;
  std::string path;  // unix
  std::string host;  // tcp
  int port = 0;      // tcp; 0 asks the kernel for an ephemeral port (server side)
};

Result<Endpoint> ParseEndpoint(const std::string& spec);
std::string EndpointToString(const Endpoint& ep);

// Client connect / server listen. Both return an owned fd.
Result<int> DialEndpoint(const Endpoint& ep);
Result<int> ListenEndpoint(const Endpoint& ep);
// The locally-bound port of a listening TCP socket (after port-0 resolution).
Result<int> BoundSocketPort(int fd);

// Maps a socket-level errno to the typed status the store contract promises: peer-gone /
// network conditions (EPIPE, ECONNRESET, ETIMEDOUT, ECONNREFUSED, unreachable, ENOTCONN)
// are kUnavailable — retryable, maybe the daemon restarts — everything else is kIoError.
// `op` names the failing operation for the message ("socket send", "connect", ...).
Status StatusFromSocketErrno(const std::string& op, int err);

// ---- Test-only socket fault injection ----------------------------------------------------
//
// Arms a one-shot fault on the Nth send/recv syscall (process-wide, counted from arming).
// The retry unit test uses this with a socketpair to prove EINTR/EAGAIN and short
// transfers are absorbed by the IoRetryPolicy and surfaced in io.retry.*; the chaos tests
// use the errno/drop kinds to model connection loss, slow links, and one-way partitions.
struct SocketFault {
  enum class Op { kSend, kRecv };
  enum class Kind {
    kEintr,      // syscall returns -1/EINTR
    kEagain,     // syscall returns -1/EAGAIN
    kShort,      // syscall transfers at most 1 byte (exercises the partial-progress loop)
    // Chaos kinds. The errno kinds also shutdown() the socket so the *peer* observes a
    // real connection drop (EOF), not just a local error — "connection drop after N
    // frames" is ArmSocketFault({kSend, kEconnreset, N}).
    kEpipe,      // syscall returns -1/EPIPE and drops the connection
    kEconnreset, // syscall returns -1/ECONNRESET and drops the connection
    kEtimedout,  // syscall returns -1/ETIMEDOUT and drops the connection
    kDelay,      // sleep delay_ms, then proceed normally (slow network)
    kBlackhole,  // send: claim success but drop the bytes (one-way partition);
                 // recv: sleep delay_ms then -1/ETIMEDOUT (the reply never arrives)
  };
  Op op = Op::kRecv;
  Kind kind = Kind::kEintr;
  int nth = 0;       // 0 = next matching syscall
  int delay_ms = 0;  // kDelay / kBlackhole
};
void ArmSocketFault(const SocketFault& fault);
void ClearSocketFaults();

}  // namespace ucp

#endif  // UCP_SRC_STORE_WIRE_H_

// Per-rank span tracer with Chrome trace_event export, doubling as a crash flight recorder.
//
// Every instrumented scope — `UCP_TRACE_SPAN("save.flush")` — records one complete event
// (name, start, duration, nesting depth, optional args) into a ring buffer owned by the
// recording thread. Each thread writes only its own ring, and the ring's mutex is taken
// elsewhere only by the (rare) exporter, so a span costs two clock reads, an uncontended
// lock and one relaxed add to a shared counter. Rings are fixed-capacity and overwrite
// oldest-first, which is exactly the flight-recorder property: at any moment every thread
// holds its most recent history, ready to be dumped when a rank failure or integrity error
// needs a post-mortem (src/obs/flight_recorder.h).
//
// The shared counter is the registry's monotonic `obs.trace.events_recorded`, bumped once
// per recorded event, kept or not. Count the spans of an operation by its delta: a census
// of the rings misses whatever the orphaned rings of exited threads have shed.
//
// Export produces Chrome trace_event JSON ("X" complete events) loadable in
// chrome://tracing or https://ui.perfetto.dev. Simulated ranks map to trace *processes*
// (pid = rank + 1, named "rank N") so a TP·PP·DP run renders as one track group per rank;
// threads without a rank (the launcher, thread pools, checkpoint flushers) share pid 0
// ("runtime"). RunSpmd tags each rank thread via SetThreadRank.
//
// Tracing is toggled at runtime with SetTraceEnabled; a disabled span is one relaxed atomic
// load (fig11 bounds what an enabled one costs a save).
//
// Dependency note: like metrics.h this sits below src/common — standard library only. The
// Chrome JSON is serialized by hand here and parsed back with src/common/json in tests.

#ifndef UCP_SRC_OBS_TRACE_H_
#define UCP_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ucp {
namespace obs {

// ---- Thread identity -------------------------------------------------------------------

// Tags the calling thread as simulated rank `rank` (>= 0) for every event it records from
// now on; -1 reverts to the shared "runtime" process. RunSpmd/RunSpmdFallible call this at
// rank-thread start; thread pools stay untagged.
void SetThreadRank(int rank);
int CurrentThreadRank();

// SetThreadRank's analogue for processes that are not simulated ranks: tags the calling
// thread as belonging to the named process track (e.g. "ucp_serverd"), so its events
// export under their own pid/process_name instead of the shared "runtime" pid 0. The
// daemon's session threads use this so a merged client+server trace renders the daemon as
// a distinct process. Empty reverts to the default track. Rank, when set, wins.
void SetThreadTrackName(const std::string& name);

// ---- Distributed trace context ---------------------------------------------------------
//
// A (trace_id, span_id) pair identifying one logical operation and the innermost open
// span within it. RemoteStore installs a context per logical operation (one save keeps
// one trace_id across reconnects and resumed writes), ships it to the daemon as a wire v4
// header, and the daemon adopts it around its per-RPC handling span — so spans recorded
// in two processes share a trace_id and parent/child span ids, and trace_merge can stitch
// their exports into one Chrome trace with flow events.
//
// While a thread holds a valid context, every span it records is assigned its own span_id,
// parented under the context's span_id, and annotated with hex "trace_id" / "span_id" /
// "parent_span_id" args in the export.

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no context
  uint64_t span_id = 0;   // innermost open span (parent for new spans); 0 = root
  bool valid() const { return trace_id != 0; }
};

// Fresh non-zero 64-bit id (thread-local PRNG seeded from std::random_device).
uint64_t NewTraceId();

// 16-digit lowercase hex — the on-trace serialization of trace/span ids.
std::string TraceIdHex(uint64_t id);

// The calling thread's current context ({0,0} when none is installed).
TraceContext CurrentTraceContext();

// RAII installer for the thread context; the previous context is restored on destruction.
// The default constructor *joins or roots*: it keeps an already-installed context (nested
// logical ops stay in the outer trace) and otherwise installs a fresh root trace_id. The
// adopting constructor installs `ctx` verbatim (wire-propagated contexts). Both are no-ops
// when tracing is runtime-disabled, so headers are only emitted for traces that exist.
class ScopedTraceContext {
 public:
  ScopedTraceContext();
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
  bool installed_ = false;
};

// ---- Runtime control -------------------------------------------------------------------

void SetTraceEnabled(bool enabled);
bool TraceEnabled();

// Ring capacity (events per thread) for buffers created after the call; ResetTrace()
// re-sizes existing buffers too. Default 8192.
void SetTraceRingCapacity(size_t capacity);

// Rings outlive their recording thread so a post-failure dump can show what the (joined)
// rank threads were doing — but a long-lived process that rebuilds its world many times
// (elastic recovery, the soak driver) would otherwise accumulate one ring per exited
// thread forever. At each thread exit the registry drops orphaned rings that never
// recorded, and keeps at most `limit` non-empty orphaned rings (newest first).
// Default 512 — comfortably above one full rebuilt world, bounded across hundreds.
void SetTraceOrphanRingLimit(size_t limit);

// Rings currently registered (live threads + retained orphans). The soak stress mode
// asserts this stays flat while worlds are rebuilt.
size_t TraceRingCount();

// Drops every recorded event (all threads). Buffers and thread registrations survive.
void ResetTrace();

// ---- Recorded data ---------------------------------------------------------------------

struct TraceEvent {
  std::string name;
  std::string args_json;  // pre-serialized JSON object body ("\"k\":1,\"s\":\"v\"") or empty
  uint64_t start_ns = 0;  // monotonic, relative to process trace epoch
  uint64_t dur_ns = 0;    // 0 for instant events
  int rank = -1;
  int depth = 0;          // span nesting depth on the recording thread (0 = top level)
  uint64_t seq = 0;       // per-thread record sequence number (monotonic, gap-free)
  bool instant = false;
};

struct ThreadTrace {
  int tid = 0;            // small sequential id assigned at first event
  int rank = -1;          // rank the thread last recorded under
  std::string track;      // process track name (SetThreadTrackName); empty = default
  uint64_t dropped = 0;   // events overwritten by ring wraparound
  std::vector<TraceEvent> events;  // oldest first
};

// Copies out every thread's ring (oldest-first), optionally truncated to the newest
// `max_events_per_thread` events (0 = all). Safe to call while other threads trace.
std::vector<ThreadTrace> CollectThreadTraces(size_t max_events_per_thread = 0);

// Chrome trace_event JSON for the current rings: {"traceEvents":[...]} with process/thread
// metadata. `max_events_per_thread` as above.
std::string ExportChromeTraceJson(size_t max_events_per_thread = 0);

// ---- Recording primitives (prefer the UCP_TRACE_* macros) ------------------------------

// Cheap streaming builder for span/instant args; converts to the serialized object body.
// TraceArgs().I("bytes", n).S("op", "sum") -> "\"bytes\":123,\"op\":\"sum\""
class TraceArgs {
 public:
  TraceArgs& I(const char* key, int64_t value);
  TraceArgs& D(const char* key, double value);
  TraceArgs& S(const char* key, const std::string& value);
  // Moves the body out: builders are one-shot temporaries, chained calls yield lvalues.
  std::string Str() { return std::move(body_); }
  operator std::string() { return std::move(body_); }  // NOLINT: implicit by design

 private:
  std::string body_;
};

// RAII span. Construction snapshots the clock; destruction records one complete event.
// When tracing is disabled (runtime) the whole object is inert.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::string args_json);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  // Appends args after construction (e.g. a wait time measured mid-span). No-op when inert.
  void ArgI(const char* key, int64_t value);
  void ArgD(const char* key, double value);
  void ArgS(const char* key, const std::string& value);
  // Seconds since construction — lets callers reuse the span's clock for their own stats.
  double ElapsedSeconds() const;
  // The span's own id within the thread's trace context; 0 when the span opened with no
  // context installed (or inert). Children opened while this span lives parent under it.
  uint64_t span_id() const { return own_span_id_; }

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
  std::string args_;
  bool active_ = false;
  uint64_t trace_id_ = 0;
  uint64_t own_span_id_ = 0;
  uint64_t parent_span_id_ = 0;
};

// Records a zero-duration event (markers: rank failure detected, commit landed, ...).
void TraceInstant(const char* name, std::string args_json = std::string());

// Monotonic nanoseconds since the process trace epoch (exposed for tests).
uint64_t TraceNowNs();

}  // namespace obs
}  // namespace ucp

// ---- Macros ----------------------------------------------------------------------------
//
//   UCP_TRACE_SPAN("ucp.extract");                       // span for the enclosing scope
//   UCP_TRACE_SPAN_ARGS("comm.p2p.send",                 // args built only when enabled
//                       ::ucp::obs::TraceArgs().I("bytes", n));
//   UCP_TRACE_NAMED_SPAN(span, "comm.allreduce");        // span you can append args to
//   UCP_TRACE_SPAN_ARG_D(span, "wait_ms", wait * 1e3);
//   UCP_TRACE_INSTANT("recovery.detected", ::ucp::obs::TraceArgs().S("rank", "3"));

#define UCP_OBS_CONCAT_INNER(a, b) a##b
#define UCP_OBS_CONCAT(a, b) UCP_OBS_CONCAT_INNER(a, b)

#define UCP_TRACE_SPAN(name) \
  ::ucp::obs::ScopedSpan UCP_OBS_CONCAT(ucp_trace_span_, __COUNTER__)(name)
#define UCP_TRACE_SPAN_ARGS(name, args_expr)                         \
  ::ucp::obs::ScopedSpan UCP_OBS_CONCAT(ucp_trace_span_, __COUNTER__)( \
      name, ::ucp::obs::TraceEnabled() ? std::string(args_expr) : std::string())
#define UCP_TRACE_NAMED_SPAN(var, name) ::ucp::obs::ScopedSpan var(name)
#define UCP_TRACE_SPAN_ARG_I(var, key, value) var.ArgI(key, value)
#define UCP_TRACE_SPAN_ARG_D(var, key, value) var.ArgD(key, value)
#define UCP_TRACE_SPAN_ARG_S(var, key, value) var.ArgS(key, value)
#define UCP_TRACE_INSTANT(name, ...) ::ucp::obs::TraceInstant(name, ##__VA_ARGS__)

#endif  // UCP_SRC_OBS_TRACE_H_

#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>

#include "src/obs/metrics.h"

namespace ucp {
namespace obs {

namespace {

std::atomic<bool> g_trace_enabled{true};
std::atomic<size_t> g_ring_capacity{8192};
std::atomic<size_t> g_orphan_ring_limit{512};

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t TraceEpochNs() {
  static const uint64_t epoch = MonotonicNs();
  return epoch;
}

// One thread's ring. The owning thread appends under `mu`; exporters copy under `mu`.
// The lock is uncontended in steady state (the exporter runs once per dump), so the hot
// path is a lock/unlock of an unowned mutex plus a vector slot write.
struct Ring {
  std::mutex mu;
  std::vector<TraceEvent> slots;  // circular once full
  size_t head = 0;                // next write position
  size_t size = 0;                // valid slots
  uint64_t dropped = 0;           // overwritten events
  uint64_t next_seq = 0;
  int tid = 0;
  int rank = -1;       // last rank this thread recorded under
  std::string track;   // process track name (SetThreadTrackName)
  bool orphaned = false;  // recording thread has exited
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;  // shared_ptr: events survive thread exit
  int next_tid = 0;
};

RingRegistry& Registry() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

struct ThreadState {
  std::shared_ptr<Ring> ring;
  int rank = -1;
  int depth = 0;
  TraceContext ctx;  // distributed trace context (installed by ScopedTraceContext)

  ThreadState() {
    ring = std::make_shared<Ring>();
    ring->slots.reserve(std::min<size_t>(g_ring_capacity.load(std::memory_order_relaxed),
                                         size_t{1024}));
    RingRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    ring->tid = reg.next_tid++;
    reg.rings.push_back(ring);
  }

  // Thread exit: the ring stays registered (its events feed post-mortem dumps) but is
  // marked orphaned, and the registry sheds orphans beyond the retention limit — without
  // this, every rebuilt world would leak world_size rings for the life of the process.
  ~ThreadState() {
    {
      std::lock_guard<std::mutex> lock(ring->mu);
      ring->orphaned = true;
    }
    const size_t limit = g_orphan_ring_limit.load(std::memory_order_relaxed);
    RingRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::vector<std::shared_ptr<Ring>> live;
    std::vector<std::shared_ptr<Ring>> orphans;  // registration (= tid) order
    live.reserve(reg.rings.size());
    for (auto& r : reg.rings) {
      bool orphaned;
      bool empty;
      {
        std::lock_guard<std::mutex> ring_lock(r->mu);
        orphaned = r->orphaned;
        empty = r->size == 0 && r->dropped == 0;
      }
      if (!orphaned) {
        live.push_back(r);
      } else if (!empty) {
        orphans.push_back(r);  // never-recorded orphans are dropped outright
      }
    }
    if (orphans.size() > limit) {
      orphans.erase(orphans.begin(),
                    orphans.end() - static_cast<ptrdiff_t>(limit));
    }
    reg.rings = std::move(orphans);
    reg.rings.insert(reg.rings.end(), live.begin(), live.end());
  }
};

ThreadState& LocalState() {
  thread_local ThreadState state;
  return state;
}

// Linearizes `ring`'s events oldest-first. Caller holds ring.mu.
std::vector<TraceEvent> LinearizeLocked(Ring& ring) {
  std::vector<TraceEvent> out;
  out.reserve(ring.size);
  const size_t cap = ring.slots.size();
  const size_t start = ring.size == cap ? ring.head : 0;
  for (size_t i = 0; i < ring.size; ++i) {
    out.push_back(ring.slots[(start + i) % cap]);
  }
  return out;
}

void Record(ThreadState& state, TraceEvent&& ev) {
  // Counted before the ring sees the event, so events a full ring overwrites, a
  // zero-capacity ring drops, or the registry later sheds with an orphaned ring all count.
  static Counter& recorded = MetricsRegistry::Global().GetCounter("obs.trace.events_recorded");
  recorded.Add(1);
  Ring& ring = *state.ring;
  const size_t capacity = g_ring_capacity.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.rank = state.rank;
  ev.rank = state.rank;
  ev.seq = ring.next_seq++;
  if (capacity == 0) {
    ring.dropped++;
    return;
  }
  if (ring.slots.size() > capacity) {
    // Capacity was lowered since this ring filled: keep only the newest events.
    std::vector<TraceEvent> kept = LinearizeLocked(ring);
    if (kept.size() > capacity - 1) {
      ring.dropped += kept.size() - (capacity - 1);
      kept.erase(kept.begin(), kept.end() - static_cast<ptrdiff_t>(capacity - 1));
    }
    ring.slots = std::move(kept);
    ring.head = ring.slots.size() % capacity;
    ring.size = ring.slots.size();
  }
  if (ring.slots.size() < capacity) {
    ring.slots.push_back(std::move(ev));
    ring.head = ring.slots.size() % capacity;
    ring.size = ring.slots.size();
    return;
  }
  ring.slots[ring.head] = std::move(ev);
  ring.head = (ring.head + 1) % capacity;
  ring.dropped++;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendKV(std::string& body, const char* key, const std::string& json_value) {
  if (!body.empty()) {
    body += ',';
  }
  body += '"';
  body += key;  // keys are literals, no escaping needed
  body += "\":";
  body += json_value;
}

// Appends a trace or span id as a JSON string (TraceIdHex's 16 hex digits).
void AppendIdKV(std::string& body, const char* key, uint64_t id) {
  std::string quoted = "\"";
  quoted += TraceIdHex(id);
  quoted += '"';
  AppendKV(body, key, quoted);
}

}  // namespace

void SetThreadRank(int rank) { LocalState().rank = rank; }

int CurrentThreadRank() { return LocalState().rank; }

void SetThreadTrackName(const std::string& name) {
  ThreadState& state = LocalState();
  std::lock_guard<std::mutex> lock(state.ring->mu);
  state.ring->track = name;
}

uint64_t NewTraceId() {
  // splitmix64 over a per-thread counter seeded once from the OS entropy pool: cheap,
  // lock-free, and ids never collide within a thread while staying unguessable enough
  // for correlation across processes.
  thread_local uint64_t state = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^ 0x9e3779b97f4a7c15ull;
  }();
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

std::string TraceIdHex(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return buf;
}

TraceContext CurrentTraceContext() { return LocalState().ctx; }

ScopedTraceContext::ScopedTraceContext() {
  if (!TraceEnabled()) {
    return;
  }
  ThreadState& state = LocalState();
  prev_ = state.ctx;
  if (!state.ctx.valid()) {
    state.ctx = TraceContext{NewTraceId(), 0};
  }
  installed_ = true;
}

ScopedTraceContext::ScopedTraceContext(TraceContext ctx) {
  if (!TraceEnabled() || !ctx.valid()) {
    return;
  }
  ThreadState& state = LocalState();
  prev_ = state.ctx;
  state.ctx = ctx;
  installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (installed_) {
    LocalState().ctx = prev_;
  }
}

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

bool TraceEnabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

void SetTraceRingCapacity(size_t capacity) {
  g_ring_capacity.store(capacity, std::memory_order_relaxed);
}

void SetTraceOrphanRingLimit(size_t limit) {
  g_orphan_ring_limit.store(limit, std::memory_order_relaxed);
}

size_t TraceRingCount() {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.rings.size();
}

void ResetTrace() {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& ring : reg.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->slots.clear();
    ring->head = 0;
    ring->size = 0;
    ring->dropped = 0;
  }
}

uint64_t TraceNowNs() {
  // Read the epoch first: on the process's very first span the lazy epoch init must not
  // land between the two clock reads (unsequenced operands would allow now < epoch).
  const uint64_t epoch = TraceEpochNs();
  const uint64_t now = MonotonicNs();
  return now >= epoch ? now - epoch : 0;
}

std::vector<ThreadTrace> CollectThreadTraces(size_t max_events_per_thread) {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& reg = Registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<ThreadTrace> out;
  out.reserve(rings.size());
  for (auto& ring : rings) {
    ThreadTrace t;
    std::lock_guard<std::mutex> lock(ring->mu);
    t.tid = ring->tid;
    t.rank = ring->rank;
    t.track = ring->track;
    t.dropped = ring->dropped;
    if (ring->size == 0) {
      continue;  // never-used or reset ring: skip empty tracks
    }
    t.events = LinearizeLocked(*ring);
    if (max_events_per_thread > 0 && t.events.size() > max_events_per_thread) {
      t.events.erase(t.events.begin(),
                     t.events.end() - static_cast<ptrdiff_t>(max_events_per_thread));
    }
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadTrace& a, const ThreadTrace& b) { return a.tid < b.tid; });
  return out;
}

std::string ExportChromeTraceJson(size_t max_events_per_thread) {
  const std::vector<ThreadTrace> threads = CollectThreadTraces(max_events_per_thread);
  std::string out;
  out.reserve(4096);
  out += "{\"traceEvents\":[";
  bool first = true;
  char buf[192];

  auto emit = [&out, &first](const std::string& ev) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += ev;
  };

  // Metadata: one "process" per rank, one per named track (pids from 1000 in order of
  // first appearance), plus pid 0 for untagged runtime threads.
  std::vector<int> pids_named;
  auto name_pid = [&](int pid, const std::string& name) {
    if (std::find(pids_named.begin(), pids_named.end(), pid) != pids_named.end()) {
      return;
    }
    pids_named.push_back(pid);
    std::string ev = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    ev += std::to_string(pid);
    ev += ",\"tid\":0,\"args\":{\"name\":\"";
    AppendEscaped(ev, name);
    ev += "\"}}";
    emit(ev);
  };
  std::vector<std::string> tracks_seen;
  auto track_pid = [&tracks_seen](const std::string& track) {
    auto it = std::find(tracks_seen.begin(), tracks_seen.end(), track);
    if (it == tracks_seen.end()) {
      tracks_seen.push_back(track);
      return 1000 + static_cast<int>(tracks_seen.size()) - 1;
    }
    return 1000 + static_cast<int>(it - tracks_seen.begin());
  };

  for (const ThreadTrace& t : threads) {
    int pid = 0;
    std::string pname = "runtime";
    if (t.rank >= 0) {
      pid = t.rank + 1;
      pname = "rank " + std::to_string(t.rank);
    } else if (!t.track.empty()) {
      pid = track_pid(t.track);
      pname = t.track;
    }
    name_pid(pid, pname);
    {
      std::string ev = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      ev += std::to_string(pid);
      ev += ",\"tid\":";
      ev += std::to_string(t.tid);
      ev += ",\"args\":{\"name\":\"thread ";
      ev += std::to_string(t.tid);
      ev += "\"}}";
      emit(ev);
    }
    for (const TraceEvent& e : t.events) {
      // Events carry the rank they were recorded under (a pool thread may serve several);
      // rank-less events on a tracked thread stay on the thread's track pid.
      const int ev_pid =
          e.rank >= 0 ? e.rank + 1 : (t.track.empty() ? 0 : track_pid(t.track));
      if (ev_pid != pid) {
        name_pid(ev_pid, e.rank >= 0 ? "rank " + std::to_string(e.rank)
                                     : (t.track.empty() ? std::string("runtime")
                                                        : t.track));
      }
      std::string ev = "{\"name\":\"";
      AppendEscaped(ev, e.name);
      ev += "\",\"cat\":\"ucp\",\"ph\":\"";
      ev += e.instant ? 'i' : 'X';
      ev += '"';
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", static_cast<double>(e.start_ns) / 1e3);
      ev += buf;
      if (!e.instant) {
        std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", static_cast<double>(e.dur_ns) / 1e3);
        ev += buf;
      } else {
        ev += ",\"s\":\"t\"";
      }
      std::snprintf(buf, sizeof(buf), ",\"pid\":%d,\"tid\":%d", ev_pid, t.tid);
      ev += buf;
      ev += ",\"args\":{";
      if (!e.args_json.empty()) {
        ev += e.args_json;
        ev += ',';
      }
      std::snprintf(buf, sizeof(buf), "\"depth\":%d,\"seq\":%" PRIu64 "}}", e.depth, e.seq);
      ev += buf;
      emit(ev);
    }
  }
  out += "]}";
  return out;
}

TraceArgs& TraceArgs::I(const char* key, int64_t value) {
  AppendKV(body_, key, std::to_string(value));
  return *this;
}

TraceArgs& TraceArgs::D(const char* key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  AppendKV(body_, key, buf);
  return *this;
}

TraceArgs& TraceArgs::S(const char* key, const std::string& value) {
  std::string quoted = "\"";
  AppendEscaped(quoted, value);
  quoted += '"';
  AppendKV(body_, key, quoted);
  return *this;
}

namespace {

struct ScopedSpanIds {
  uint64_t trace_id = 0;
  uint64_t own_span_id = 0;
  uint64_t parent_span_id = 0;
};

// Shared open-span bookkeeping: bump depth, and — under a distributed trace context —
// allocate this span's id and make it the parent for spans opened while it lives.
void OpenSpan(ScopedSpanIds* ids) {
  ThreadState& state = LocalState();
  state.depth++;
  if (state.ctx.valid()) {
    ids->trace_id = state.ctx.trace_id;
    ids->parent_span_id = state.ctx.span_id;
    ids->own_span_id = NewTraceId();
    state.ctx.span_id = ids->own_span_id;
  }
}

}  // namespace

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!TraceEnabled()) {
    return;
  }
  active_ = true;
  ScopedSpanIds ids;
  OpenSpan(&ids);
  trace_id_ = ids.trace_id;
  own_span_id_ = ids.own_span_id;
  parent_span_id_ = ids.parent_span_id;
  start_ns_ = TraceNowNs();
}

ScopedSpan::ScopedSpan(const char* name, std::string args_json)
    : name_(name), args_(std::move(args_json)) {
  if (!TraceEnabled()) {
    return;
  }
  active_ = true;
  ScopedSpanIds ids;
  OpenSpan(&ids);
  trace_id_ = ids.trace_id;
  own_span_id_ = ids.own_span_id;
  parent_span_id_ = ids.parent_span_id;
  start_ns_ = TraceNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  const uint64_t end_ns = TraceNowNs();
  ThreadState& state = LocalState();
  state.depth--;
  if (own_span_id_ != 0 && state.ctx.trace_id == trace_id_ &&
      state.ctx.span_id == own_span_id_) {
    state.ctx.span_id = parent_span_id_;  // reparent siblings opened after us
  }
  TraceEvent ev;
  ev.name = name_;
  ev.args_json = std::move(args_);
  if (own_span_id_ != 0) {
    AppendIdKV(ev.args_json, "trace_id", trace_id_);
    AppendIdKV(ev.args_json, "span_id", own_span_id_);
    if (parent_span_id_ != 0) {
      AppendIdKV(ev.args_json, "parent_span_id", parent_span_id_);
    }
  }
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  ev.depth = state.depth;
  Record(state, std::move(ev));
}

void ScopedSpan::ArgI(const char* key, int64_t value) {
  if (active_) {
    AppendKV(args_, key, std::to_string(value));
  }
}

void ScopedSpan::ArgD(const char* key, double value) {
  if (active_) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    AppendKV(args_, key, buf);
  }
}

void ScopedSpan::ArgS(const char* key, const std::string& value) {
  if (active_) {
    std::string quoted = "\"";
    AppendEscaped(quoted, value);
    quoted += '"';
    AppendKV(args_, key, quoted);
  }
}

double ScopedSpan::ElapsedSeconds() const {
  if (!active_) {
    return 0.0;
  }
  return static_cast<double>(TraceNowNs() - start_ns_) * 1e-9;
}

void TraceInstant(const char* name, std::string args_json) {
  if (!TraceEnabled()) {
    return;
  }
  ThreadState& state = LocalState();
  TraceEvent ev;
  ev.name = name;
  ev.args_json = std::move(args_json);
  if (state.ctx.valid()) {
    AppendIdKV(ev.args_json, "trace_id", state.ctx.trace_id);
    if (state.ctx.span_id != 0) {
      AppendIdKV(ev.args_json, "parent_span_id", state.ctx.span_id);
    }
  }
  ev.start_ns = TraceNowNs();
  ev.depth = state.depth;
  ev.instant = true;
  Record(state, std::move(ev));
}

}  // namespace obs
}  // namespace ucp

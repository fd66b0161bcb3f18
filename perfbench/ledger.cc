#include "perfbench/ledger.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <set>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"

namespace perfbench {

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {
thread_local Context t_context;
}  // namespace

Context CurrentContext() { return t_context; }

ScopedContext::ScopedContext(Context context) : previous_(t_context) { t_context = context; }
ScopedContext::~ScopedContext() { t_context = previous_; }

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

bool SpanLog::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

int64_t SpanLog::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanLog::ChromeJson(const std::vector<Span>& spans) const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  std::set<int> pids;
  bool first = true;
  for (const Span& s : spans) {
    const int pid = s.rank + 1;
    pids.insert(pid);
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << ",\"rank\":" << s.rank
        << ",\"track\":" << s.track << ",\"bytes\":" << s.bytes << "}}";
    first = false;
  }
  for (int pid : pids) {
    out << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":\""
        << (pid == 0 ? std::string("main") : "rank " + std::to_string(pid - 1)) << "\"}}";
  }
  out << "]}\n";
  return out.str();
}

TimedSpan::TimedSpan(const char* name, int64_t bytes)
    : TimedSpan(name, CurrentContext(), bytes) {}

TimedSpan::TimedSpan(const char* name, Context context, int64_t bytes) {
  if (!SpanLog::Get().enabled()) {
    return;
  }
  active_ = true;
  span_.name = name;
  span_.id = SpanLog::Get().NextId();
  span_.parent = context.parent;
  span_.op = context.op;
  span_.rank = context.rank;
  span_.bytes = bytes;
  previous_ = t_context;
  t_context = Context{context.op, span_.id, context.rank};
  span_.start_ns = NowNs();
}

TimedSpan::~TimedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  t_context = previous_;
  SpanLog::Get().Add(std::move(span_));
}

SpanTotal TotalFor(const std::vector<Span>& spans, const std::vector<std::string>& names,
                   const std::vector<Op>& ops) {
  std::set<int64_t> ids;
  for (const Op& op : ops) {
    ids.insert(op.id);
  }
  const std::set<std::string> wanted(names.begin(), names.end());
  SpanTotal total;
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> by_track;
  for (const Span& s : spans) {
    if (wanted.count(s.name) > 0 && ids.count(s.op) > 0) {
      total.ms += s.ms();
      total.calls += 1;
      total.bytes += s.bytes;
      by_track[s.track].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (auto& [track, intervals] : by_track) {
    std::sort(intervals.begin(), intervals.end());
    int64_t end = intervals.front().first;
    for (const auto& [start, stop] : intervals) {
      if (stop > end) {
        total.busy_ms += MsBetween(std::max(start, end), stop);
        end = stop;
      }
    }
  }
  return total;
}

Counters ReadCounters() {
  Counters out;
  for (const ucp::obs::MetricValue& m : ucp::obs::SnapshotMetrics()) {
    switch (m.kind) {
      case ucp::obs::MetricValue::Kind::kCounter:
        out[m.name] = static_cast<double>(m.counter);
        break;
      case ucp::obs::MetricValue::Kind::kGauge:
        break;
      case ucp::obs::MetricValue::Kind::kHistogram:
        out[m.name + ".sum"] = m.sum;
        out[m.name + ".count"] = static_cast<double>(m.count);
        break;
    }
  }
  const FsyncTotals fsyncs = ReadFsyncTotals();
  out["probe.fsync.calls"] = fsyncs.calls;
  out["probe.fsync.ms"] = fsyncs.ms;
  return out;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    out[name] = value - Get(before, name);
  }
  return out;
}

double SumMatching(const Counters& counters, const std::string& prefix,
                   const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : counters) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

double Get(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  s.p50 = Median(values);
  // Ten samples above index i means i = n - 11. Below 21 samples that index falls under the
  // median, so the maximum stands in and the printed percentile (p100) says so.
  const size_t i = s.n > 20 ? s.n - 11 : s.n - 1;
  s.tail = values[i];
  s.tail_percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(s.n);
  return s;
}

double HostStealMs() {
  static const double ms_per_tick = 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0.0;
  }
  unsigned long long user, nice, system, idle, iowait, irq, softirq, steal = 0;
  const int fields = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                                 &nice, &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(f);
  return fields == 8 ? static_cast<double>(steal) * ms_per_tick : 0.0;
}

NetOfSteal SubtractSteal(const std::vector<double>& ms, const std::vector<double>& steal_ms) {
  NetOfSteal out;
  const size_t n = std::min(ms.size(), steal_ms.size());
  std::vector<double> slopes;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (steal_ms[j] != steal_ms[i]) {
        slopes.push_back((ms[j] - ms[i]) / (steal_ms[j] - steal_ms[i]));
      }
    }
  }
  out.slope = std::max(0.0, Median(std::move(slopes)));
  for (size_t i = 0; i < n; ++i) {
    out.ms.push_back(ms[i] - out.slope * steal_ms[i]);
    out.mean_steal += steal_ms[i] / static_cast<double>(n);
  }
  return out;
}

std::vector<std::string> ZeroReadings(const std::vector<Reading>& readings) {
  std::vector<std::string> out;
  for (const Reading& r : readings) {
    if (!(r.value > 0.0)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "instrument %s read %g where work happened",
                    r.name.c_str(), r.value);
      out.emplace_back(buf);
    }
  }
  return out;
}

std::vector<std::string> NegativeResiduals(const std::vector<Reading>& residuals) {
  std::vector<std::string> out;
  for (const Reading& r : residuals) {
    if (!(r.value >= 0.0)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "residual %s is %g ms: layer spans exceed the operation",
                    r.name.c_str(), r.value);
      out.emplace_back(buf);
    }
  }
  return out;
}

}  // namespace perfbench

// Observability suite: the span tracer (nesting, ring wraparound, Chrome JSON schema),
// the metrics registry under concurrency (run under -DUCP_SANITIZE=thread to prove the
// hot-path atomics race-free), and the flight recorder — both called directly and
// triggered end-to-end by a rank-kill under the elastic supervisor.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_merge.h"
#include "src/runtime/supervisor.h"

namespace ucp {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(true);
    obs::SetTraceRingCapacity(8192);
    obs::ResetTrace();
  }
  void TearDown() override {
    DisarmRankFaults();
    obs::SetTraceEnabled(true);
    obs::SetTraceRingCapacity(8192);
    obs::ResetTrace();
  }
};

// Every event named `name` across all thread rings (tests run their spans on dedicated
// threads so other suites' residue never collides on names).
std::vector<obs::TraceEvent> EventsNamed(const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::ThreadTrace& t : obs::CollectThreadTraces()) {
    for (const obs::TraceEvent& e : t.events) {
      if (e.name == name) {
        out.push_back(e);
      }
    }
  }
  return out;
}

TEST_F(ObsTest, SpanNestingRecordsDepthAndContainment) {
  std::thread([] {
    UCP_TRACE_NAMED_SPAN(outer, "obs_test.outer");
    UCP_TRACE_SPAN_ARG_I(outer, "level", 0);
    {
      UCP_TRACE_SPAN("obs_test.middle");
      { UCP_TRACE_SPAN_ARGS("obs_test.inner", ::ucp::obs::TraceArgs().S("leaf", "yes")); }
    }
  }).join();

  std::vector<obs::TraceEvent> outer = EventsNamed("obs_test.outer");
  std::vector<obs::TraceEvent> middle = EventsNamed("obs_test.middle");
  std::vector<obs::TraceEvent> inner = EventsNamed("obs_test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(middle.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0);
  EXPECT_EQ(middle[0].depth, 1);
  EXPECT_EQ(inner[0].depth, 2);
  // Inner spans close first (destruction order), so sequence numbers run inside-out...
  EXPECT_LT(inner[0].seq, middle[0].seq);
  EXPECT_LT(middle[0].seq, outer[0].seq);
  // ...and each child's interval nests inside its parent's.
  EXPECT_GE(inner[0].start_ns, middle[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].dur_ns, middle[0].start_ns + middle[0].dur_ns);
  EXPECT_GE(middle[0].start_ns, outer[0].start_ns);
  EXPECT_LE(middle[0].start_ns + middle[0].dur_ns, outer[0].start_ns + outer[0].dur_ns);
  EXPECT_EQ(outer[0].args_json, "\"level\":0");
  EXPECT_EQ(inner[0].args_json, "\"leaf\":\"yes\"");
}

TEST_F(ObsTest, SpansOnPoolThreadsLandInSeparateRings) {
  constexpr size_t kTasks = 16;
  {
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [](size_t i) {
      UCP_TRACE_SPAN_ARGS("obs_test.pool_task",
                          ::ucp::obs::TraceArgs().I("task", static_cast<int64_t>(i)));
      // Nested work on the same pool thread must stack, not cross-talk between threads.
      UCP_TRACE_SPAN("obs_test.pool_nested");
    });
  }
  std::vector<obs::TraceEvent> tasks = EventsNamed("obs_test.pool_task");
  std::vector<obs::TraceEvent> nested = EventsNamed("obs_test.pool_nested");
  EXPECT_EQ(tasks.size(), kTasks);
  EXPECT_EQ(nested.size(), kTasks);
  for (const obs::TraceEvent& e : tasks) {
    EXPECT_EQ(e.depth, 0);
  }
  for (const obs::TraceEvent& e : nested) {
    EXPECT_EQ(e.depth, 1);
  }
}

TEST_F(ObsTest, RingWrapsOldestFirstAndCountsDropped) {
  obs::SetTraceRingCapacity(8);
  obs::ResetTrace();
  std::thread([] {
    for (int i = 0; i < 20; ++i) {
      UCP_TRACE_SPAN_ARGS("obs_test.wrap", ::ucp::obs::TraceArgs().I("i", i));
    }
  }).join();

  bool found = false;
  for (const obs::ThreadTrace& t : obs::CollectThreadTraces()) {
    if (t.events.empty() || t.events[0].name != "obs_test.wrap") {
      continue;
    }
    found = true;
    EXPECT_EQ(t.events.size(), 8u);
    EXPECT_EQ(t.dropped, 12u);
    // Oldest-first linearization: the survivors are the newest 8, in order.
    for (size_t i = 0; i < t.events.size(); ++i) {
      EXPECT_EQ(t.events[i].args_json, "\"i\":" + std::to_string(12 + i));
      if (i > 0) {
        EXPECT_EQ(t.events[i].seq, t.events[i - 1].seq + 1);
      }
    }
  }
  EXPECT_TRUE(found);
}

// A census of the rings undercounts once threads exit: each exiting thread orphans its
// ring and the registry sheds the oldest orphans past the limit. The registry counter
// `obs.trace.events_recorded` still counts every span, so benches count spans by its delta.
TEST_F(ObsTest, EventsRecordedCounterCountsSpansOfShedOrphanRings) {
  constexpr int kThreads = 12;
  constexpr int kSpansPerThread = 5;
  constexpr uint64_t kSpans = kThreads * kSpansPerThread;
  obs::Counter& recorded =
      obs::MetricsRegistry::Global().GetCounter("obs.trace.events_recorded");
  obs::SetTraceOrphanRingLimit(2);
  const uint64_t before = recorded.Value();
  for (int t = 0; t < kThreads; ++t) {
    std::thread([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        UCP_TRACE_SPAN("obs_test.orphaned");
      }
    }).join();
  }
  const uint64_t counted = recorded.Value() - before;
  const size_t retained = EventsNamed("obs_test.orphaned").size();
  obs::SetTraceOrphanRingLimit(512);  // restore the default

  EXPECT_EQ(counted, kSpans);
  EXPECT_LT(retained, kSpans) << "the orphan limit shed no ring, so the test proves nothing";
}

TEST_F(ObsTest, ChromeJsonParsesAndMapsRanksToProcesses) {
  std::thread([] {
    obs::SetThreadRank(0);
    UCP_TRACE_SPAN_ARGS("obs_test.rank_span", ::ucp::obs::TraceArgs().S("who", "r0"));
    UCP_TRACE_INSTANT("obs_test.marker", ::ucp::obs::TraceArgs().I("at", 1));
  }).join();
  std::thread([] {
    obs::SetThreadRank(3);
    UCP_TRACE_SPAN("obs_test.rank_span");
  }).join();

  Result<Json> parsed = Json::Parse(obs::ExportChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  ASSERT_TRUE(events.ok()) << events.status();

  std::set<int64_t> span_pids;
  std::set<std::string> process_names;
  bool saw_instant = false;
  for (const Json& e : **events) {
    ASSERT_TRUE(e.is_object());
    Result<std::string> ph = e.GetString("ph");
    ASSERT_TRUE(ph.ok());
    ASSERT_TRUE(e.GetInt("pid").ok());
    ASSERT_TRUE(e.GetInt("tid").ok());
    ASSERT_TRUE(e.GetString("name").ok());
    if (*ph == "M") {
      if (*e.GetString("name") == "process_name") {
        process_names.insert(*e.AsObject().at("args").GetString("name"));
      }
      continue;
    }
    ASSERT_TRUE(e.GetDouble("ts").ok());  // microseconds
    if (*ph == "X") {
      ASSERT_TRUE(e.GetDouble("dur").ok());
      if (*e.GetString("name") == "obs_test.rank_span") {
        span_pids.insert(*e.GetInt("pid"));
      }
    } else if (*ph == "i") {
      EXPECT_EQ(*e.GetString("s"), "t");
      if (*e.GetString("name") == "obs_test.marker") {
        saw_instant = true;
      }
    }
  }
  // pid = rank + 1: the two tagged threads render as separate Perfetto process tracks.
  EXPECT_TRUE(span_pids.count(1)) << "rank 0 span missing pid 1";
  EXPECT_TRUE(span_pids.count(4)) << "rank 3 span missing pid 4";
  EXPECT_TRUE(process_names.count("rank 0"));
  EXPECT_TRUE(process_names.count("rank 3"));
  EXPECT_TRUE(saw_instant);
}

// Pulls a named arg ("trace_id", "span_id", "parent_span_id") out of an exported event.
std::string EventArg(const Json& event, const char* key) {
  if (!event.Has("args")) {
    return std::string();
  }
  Result<std::string> v = event.AsObject().at("args").GetString(key);
  return v.ok() ? *v : std::string();
}

TEST_F(ObsTest, TraceContextParentsSpansAndAnnotatesExport) {
  uint64_t trace_id = 0;
  uint64_t outer_id = 0;
  std::thread([&] {
    obs::ScopedTraceContext root;  // fresh root: no context was installed
    trace_id = obs::CurrentTraceContext().trace_id;
    UCP_TRACE_NAMED_SPAN(outer, "obs_test.ctx_outer");
    outer_id = outer.span_id();
    { UCP_TRACE_SPAN("obs_test.ctx_inner"); }
  }).join();
  ASSERT_NE(trace_id, 0u);
  ASSERT_NE(outer_id, 0u);

  Result<Json> parsed = Json::Parse(obs::ExportChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  ASSERT_TRUE(events.ok());
  bool saw_outer = false;
  bool saw_inner = false;
  for (const Json& e : **events) {
    Result<std::string> name = e.GetString("name");
    if (!name.ok()) {
      continue;
    }
    if (*name == "obs_test.ctx_outer") {
      saw_outer = true;
      EXPECT_EQ(EventArg(e, "trace_id"), obs::TraceIdHex(trace_id));
      EXPECT_EQ(EventArg(e, "span_id"), obs::TraceIdHex(outer_id));
      // The root context has span_id 0, so the outermost span has no parent arg.
      EXPECT_TRUE(EventArg(e, "parent_span_id").empty());
    } else if (*name == "obs_test.ctx_inner") {
      saw_inner = true;
      EXPECT_EQ(EventArg(e, "trace_id"), obs::TraceIdHex(trace_id));
      EXPECT_EQ(EventArg(e, "parent_span_id"), obs::TraceIdHex(outer_id));
      EXPECT_NE(EventArg(e, "span_id"), obs::TraceIdHex(outer_id));
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

TEST_F(ObsTest, AdoptedContextParentsUnderRemoteSpan) {
  // Simulates the daemon side: a wire-propagated (trace_id, span_id) is adopted verbatim
  // and the handling span parents under the remote client span.
  const uint64_t trace_id = obs::NewTraceId();
  const uint64_t client_span = obs::NewTraceId();
  std::thread([&] {
    obs::TraceContext ctx;
    ctx.trace_id = trace_id;
    ctx.span_id = client_span;
    obs::ScopedTraceContext adopt(ctx);
    UCP_TRACE_SPAN("obs_test.adopted");
  }).join();

  Result<Json> parsed = Json::Parse(obs::ExportChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  bool saw = false;
  for (const Json& e : **parsed->GetArray("traceEvents")) {
    Result<std::string> name = e.GetString("name");
    if (name.ok() && *name == "obs_test.adopted") {
      saw = true;
      EXPECT_EQ(EventArg(e, "trace_id"), obs::TraceIdHex(trace_id));
      EXPECT_EQ(EventArg(e, "parent_span_id"), obs::TraceIdHex(client_span));
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(ObsTest, MergeChromeTracesLinksClientAndServerWithFlowEvents) {
  // Client half: one RPC span under a root context.
  uint64_t trace_id = 0;
  uint64_t rpc_span = 0;
  std::thread([&] {
    obs::ScopedTraceContext root;
    trace_id = obs::CurrentTraceContext().trace_id;
    UCP_TRACE_NAMED_SPAN(rpc, "store.client.rpc");
    rpc_span = rpc.span_id();
  }).join();
  const std::string client_json = obs::ExportChromeTraceJson();
  obs::ResetTrace();

  // Server half: the daemon adopts the wire context around its handling span, on a thread
  // tagged with the daemon's process track.
  std::thread([&] {
    obs::SetThreadTrackName("ucp_serverd");
    obs::TraceContext ctx;
    ctx.trace_id = trace_id;
    ctx.span_id = rpc_span;
    obs::ScopedTraceContext adopt(ctx);
    UCP_TRACE_SPAN("store.server.rpc");
  }).join();
  const std::string server_json = obs::ExportChromeTraceJson();

  obs::TraceMergeStats stats;
  Result<std::string> merged = obs::MergeChromeTraces(client_json, server_json, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_GE(stats.client_events, 1u);
  EXPECT_GE(stats.server_events, 1u);
  EXPECT_EQ(stats.flow_links, 1u);

  Result<Json> parsed = Json::Parse(*merged);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  ASSERT_TRUE(events.ok());

  int64_t client_pid = -1;
  int64_t server_pid = -1;
  std::set<std::string> phases;
  std::set<std::string> process_names;
  for (const Json& e : **events) {
    Result<std::string> ph = e.GetString("ph");
    Result<std::string> name = e.GetString("name");
    if (!ph.ok() || !name.ok()) {
      continue;
    }
    if (*ph == "M" && *name == "process_name") {
      process_names.insert(EventArg(e, "name"));
    }
    if (*ph == "X" && *name == "store.client.rpc") {
      client_pid = *e.GetInt("pid");
    }
    if (*ph == "X" && *name == "store.server.rpc") {
      server_pid = *e.GetInt("pid");
    }
    if (*name == "rpc") {
      phases.insert(*ph);
    }
  }
  // Distinct process tracks, prefixed metadata, and the s/t/f flow triple.
  ASSERT_GE(client_pid, 0);
  ASSERT_GE(server_pid, 0);
  EXPECT_NE(client_pid, server_pid);
  EXPECT_TRUE(process_names.count("server: ucp_serverd")) << *merged;
  EXPECT_TRUE(phases.count("s"));
  EXPECT_TRUE(phases.count("t"));
  EXPECT_TRUE(phases.count("f"));
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  obs::SetTraceEnabled(false);
  std::thread([] {
    UCP_TRACE_SPAN("obs_test.disabled");
    UCP_TRACE_INSTANT("obs_test.disabled_marker");
  }).join();
  obs::SetTraceEnabled(true);
  EXPECT_TRUE(EventsNamed("obs_test.disabled").empty());
  EXPECT_TRUE(EventsNamed("obs_test.disabled_marker").empty());
}

TEST_F(ObsTest, MetricsAreConsistentUnderConcurrentUpdates) {
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter("obs_test.counter");
  obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge("obs_test.gauge");
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.histogram");
  counter.Reset();
  gauge.Set(0);
  histogram.Reset();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        gauge.Max(t * kPerThread + i);
        histogram.Observe(0.001 * (t + 1));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge.Value(), static_cast<int64_t>(kThreads) * kPerThread - 1);

  bool found = false;
  for (const obs::MetricValue& m : obs::SnapshotMetrics()) {
    if (m.name != "obs_test.histogram") {
      continue;
    }
    found = true;
    EXPECT_EQ(m.kind, obs::MetricValue::Kind::kHistogram);
    EXPECT_EQ(m.count, static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_NEAR(m.max, 0.001 * kThreads, 0.001 * kThreads * 0.5);
    EXPECT_GT(m.sum, 0.0);
  }
  EXPECT_TRUE(found);

  const std::string dump = obs::DumpMetricsText();
  EXPECT_NE(dump.find("obs_test.counter"), std::string::npos);
  EXPECT_NE(dump.find("obs_test.histogram"), std::string::npos);
}

TEST_F(ObsTest, PrometheusExpositionManglesNamesAndEmitsCumulativeBuckets) {
  obs::MetricsRegistry::Global().GetCounter("obs_test.prom.counter").Reset();
  obs::MetricsRegistry::Global().GetCounter("obs_test.prom.counter").Add(5);
  obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.prom.seconds");
  histogram.Reset();
  histogram.Observe(0.0000005);  // sub-micro: lands in bucket 0
  histogram.Observe(0.003);
  histogram.Observe(0.003);
  histogram.Observe(1.5);

  const std::string dump = obs::DumpMetricsPrometheus();
  // Dotted registry names mangle to Prometheus-safe underscores, with TYPE lines.
  EXPECT_NE(dump.find("# TYPE obs_test_prom_counter counter"), std::string::npos) << dump;
  EXPECT_NE(dump.find("obs_test_prom_counter 5"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE obs_test_prom_seconds histogram"), std::string::npos);
  EXPECT_NE(dump.find("obs_test_prom_seconds_count 4"), std::string::npos);
  EXPECT_NE(dump.find("obs_test_prom_seconds_sum"), std::string::npos);
  EXPECT_NE(dump.find("obs_test_prom_seconds_bucket{le=\"+Inf\"} 4"), std::string::npos);

  // Bucket counts must be cumulative and monotonically non-decreasing up to +Inf.
  uint64_t prev = 0;
  size_t buckets = 0;
  size_t pos = 0;
  const std::string needle = "obs_test_prom_seconds_bucket{le=\"";
  while ((pos = dump.find(needle, pos)) != std::string::npos) {
    const size_t count_at = dump.find("} ", pos);
    ASSERT_NE(count_at, std::string::npos);
    const uint64_t count = std::strtoull(dump.c_str() + count_at + 2, nullptr, 10);
    EXPECT_GE(count, prev) << dump;
    prev = count;
    ++buckets;
    pos = count_at;
  }
  EXPECT_GE(buckets, 2u);   // at least one finite bucket plus +Inf
  EXPECT_EQ(prev, 4u);      // the +Inf bucket equals _count
}

TEST_F(ObsTest, FlightRecorderWritesDossier) {
  const std::string dir = *MakeTempDir("ucp_obs_flightrec");
  std::thread([] { UCP_TRACE_SPAN("obs_test.before_crash"); }).join();
  obs::MetricsRegistry::Global().GetCounter("obs_test.dossier").Add(7);

  std::string trace_path;
  std::string err;
  ASSERT_TRUE(obs::DumpFlightRecord(dir, "unit test/label", &trace_path, &err)) << err;
  // The dump lands under <dir>/flightrec/ with the label sanitized into the file name
  // (space and '/' become '-').
  EXPECT_NE(trace_path.find(PathJoin(dir, "flightrec")), std::string::npos);
  EXPECT_NE(trace_path.find("unit-test-label"), std::string::npos) << trace_path;

  Result<std::string> trace_text = ReadFileToString(trace_path);
  ASSERT_TRUE(trace_text.ok()) << trace_text.status();
  Result<Json> parsed = Json::Parse(*trace_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->GetArray("traceEvents").ok());

  const std::string metrics_path =
      trace_path.substr(0, trace_path.size() - std::string(".trace.json").size()) +
      ".metrics.txt";
  Result<std::string> metrics_text = ReadFileToString(metrics_path);
  ASSERT_TRUE(metrics_text.ok()) << metrics_text.status();
  EXPECT_NE(metrics_text->find("obs_test.dossier"), std::string::npos);

  ASSERT_TRUE(RemoveAll(dir).ok());
}

// End-to-end: a rank kill under the supervisor leaves a flight-recorder dossier beside the
// checkpoints, and (with tracing compiled in) the dumped Chrome trace carries per-rank
// process tracks from the doomed run.
TEST_F(ObsTest, RankKillLeavesFlightRecorderDump) {
  const std::string dir = *MakeTempDir("ucp_obs_kill");
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = {2, 1, 2, 1, 0, 1};
  cfg.global_batch = 8;

  SupervisorOptions options;
  options.ckpt_dir = PathJoin(dir, "ckpt");
  options.checkpoint_every = 2;
  options.watchdog_timeout = std::chrono::milliseconds(1500);
  Supervisor supervisor(cfg, options);

  SupervisorReport report;
  {
    ScopedRankFault kill({/*rank=*/3, /*iteration=*/3, FaultSite::kAllReduce, /*nth=*/1});
    report = supervisor.Train(1, 4);
    EXPECT_TRUE(RankFaultFired());
  }
  ASSERT_TRUE(report.ok) << report.status.ToString();
  ASSERT_EQ(report.recoveries, 1);

  Result<std::vector<std::string>> files =
      ListDir(PathJoin(options.ckpt_dir, "flightrec"));
  ASSERT_TRUE(files.ok()) << files.status();
  std::string trace_file;
  std::string metrics_file;
  for (const std::string& f : *files) {
    if (f.find("rank-failure") == std::string::npos) {
      continue;
    }
    if (f.size() > 11 && f.substr(f.size() - 11) == ".trace.json") {
      trace_file = f;
    }
    if (f.size() > 12 && f.substr(f.size() - 12) == ".metrics.txt") {
      metrics_file = f;
    }
  }
  ASSERT_FALSE(trace_file.empty()) << "no rank-failure trace in flightrec/";
  ASSERT_FALSE(metrics_file.empty()) << "no rank-failure metrics in flightrec/";

  Result<std::string> text =
      ReadFileToString(PathJoin(PathJoin(options.ckpt_dir, "flightrec"), trace_file));
  ASSERT_TRUE(text.ok()) << text.status();
  Result<Json> parsed = Json::Parse(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // The doomed TP2.DP2 world traced under ranks 0..3; at least one rank track must have
  // made it into the dossier.
  Result<const JsonArray*> events = parsed->GetArray("traceEvents");
  ASSERT_TRUE(events.ok());
  bool saw_rank_pid = false;
  for (const Json& e : **events) {
    Result<int64_t> pid = e.GetInt("pid");
    if (pid.ok() && *pid >= 1) {
      saw_rank_pid = true;
      break;
    }
  }
  EXPECT_TRUE(saw_rank_pid);

  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(ObsLoggingTest, LevelRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

}  // namespace
}  // namespace ucp

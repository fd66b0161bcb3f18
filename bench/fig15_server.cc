// Checkpoint-server characterization: save/load throughput and latency through the Store
// abstraction, local (direct FS) vs remote (ucp_serverd wire protocol), at 1 / 4 / 16
// concurrent clients.
//
// Arm grid: {save, load} x {local, remote} x {1, 4, 16 clients}. Every client runs the
// same op loop in its own namespace — a save op is the full staged-commit cycle
// (ResetTagStaging / WriteFile / CommitTag), a load op reads one committed payload back
// through OpenRead/ReadAt in wire-chunk-sized pieces. Per-op latencies aggregate to
// p50/p99; throughput is payload bytes moved over the arm's wall time. Every save and load
// arm runs kRepeats times; the file records the median p50, p99 and throughput over the
// repeats and p50's IQR / median, because one run's p99 can swing by an order of magnitude.
// The remote arms all talk to one in-process daemon over a Unix socket, so the numbers
// measure the wire protocol + session/admission machinery against the direct-FS baseline
// it wraps. The chaos arm runs once.
//
// BENCH_server.json carries every arm plus the process metrics (store.server.*,
// io.retry.*) that produced it.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/store/tags.h"

namespace ucp {
namespace {

constexpr size_t kPayloadBytes = 1u << 20;  // one wire chunk per shard file
constexpr int kSaveOpsPerClient = 6;
constexpr int kLoadOpsPerClient = 12;
constexpr int kRepeats = 5;

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) {
    return 0.0;
  }
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const size_t idx = std::min(sorted_ms.size() - 1,
                              static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

std::string BenchMetaJson() {
  CheckpointMeta meta;
  meta.model = TinyGpt();
  meta.strategy = ParallelConfig{1, 1, 1, 1, 0, 1};
  meta.iteration = 1;
  meta.global_batch = bench::kGlobalBatch;
  return meta.ToJson().Dump(2);
}

// One store handle per client: local clients each wrap the dir, remote clients each dial
// their own connection (one session per client, like one training job per rank).
std::shared_ptr<Store> ClientStore(const std::string& backend, const std::string& dir,
                                   const StoreServer* server) {
  if (backend == "remote") {
    Result<std::shared_ptr<RemoteStore>> store = RemoteStore::Connect(server->endpoint());
    UCP_CHECK(store.ok()) << store.status();
    return *store;
  }
  return std::make_shared<LocalStore>(dir);
}

struct ArmResult {
  double seconds = 0.0;
  double throughput_mib_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t ops = 0;
};

ArmResult RunSaveArm(const std::string& backend, const std::string& dir,
                     const StoreServer* server, int clients) {
  const std::string meta_json = BenchMetaJson();
  std::vector<uint8_t> payload(kPayloadBytes);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 167) & 0xff);
  }

  std::vector<std::vector<double>> latencies(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::shared_ptr<Store> store = ClientStore(backend, dir, server);
      const std::string job = "c" + std::to_string(c);
      for (int op = 0; op < kSaveOpsPerClient; ++op) {
        const std::string tag = job + ".global_step" + std::to_string(op + 1);
        const auto t0 = std::chrono::steady_clock::now();
        UCP_CHECK(store->ResetTagStaging(tag).ok());
        Result<std::unique_ptr<StoreWriter>> writer = store->OpenTagForWrite(tag);
        UCP_CHECK(writer.ok()) << writer.status();
        UCP_CHECK((*writer)->WriteFile("shard", payload).ok());
        UCP_CHECK(store->CommitTag(tag, meta_json).ok());
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  ArmResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.ops = static_cast<int64_t>(all.size());
  result.throughput_mib_s =
      result.seconds > 0.0
          ? static_cast<double>(result.ops) * static_cast<double>(kPayloadBytes) /
                (1024.0 * 1024.0) / result.seconds
          : 0.0;
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  return result;
}

ArmResult RunLoadArm(const std::string& backend, const std::string& dir,
                     const StoreServer* server, int clients) {
  std::vector<std::vector<double>> latencies(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::shared_ptr<Store> store = ClientStore(backend, dir, server);
      // Spread readers across the tags the save arms committed for this client count.
      const std::string rel =
          "c" + std::to_string(c) + ".global_step" + std::to_string(kSaveOpsPerClient) +
          "/shard";
      std::vector<uint8_t> buf(kWireChunkBytes);
      for (int op = 0; op < kLoadOpsPerClient; ++op) {
        const auto t0 = std::chrono::steady_clock::now();
        Result<std::unique_ptr<ByteSource>> source = store->OpenRead(rel);
        UCP_CHECK(source.ok()) << source.status();
        uint64_t offset = 0;
        while (offset < (*source)->size()) {
          const size_t n =
              std::min<uint64_t>(buf.size(), (*source)->size() - offset);
          UCP_CHECK((*source)->ReadAt(offset, buf.data(), n).ok());
          offset += n;
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  ArmResult result;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.ops = static_cast<int64_t>(all.size());
  result.throughput_mib_s =
      result.seconds > 0.0
          ? static_cast<double>(result.ops) * static_cast<double>(kPayloadBytes) /
                (1024.0 * 1024.0) / result.seconds
          : 0.0;
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  return result;
}

// Chaos arm: one client streaming multi-chunk saves through the daemon, which is killed
// and restarted in the middle of every upload while bytes the client has already sent
// sit unread in the daemon's socket. What the arm measures is the *resume economics* of
// the protocol: after each restart the client redials under a fresh lease, asks
// WRITE_RESUME how much of the file the spool on disk holds, and re-sends only the rest.
// The store.client metric deltas split the traffic into resumed (acknowledged, not
// re-sent) vs restarted (sent before the kill, then sent again) bytes — the acceptance
// bound is restarted < 50% of resumed, and a run that resumed or re-sent nothing fails it.
//
// Each op is a file of 4 full wire chunks and a 64 KiB tail, which fits in a unix socket's
// buffer whole. The client is parked just before it sends the tail. A killer thread waits
// until the spool holds the 4 full chunks, makes the daemon's next receive drop the
// connection after a delay (the tail is then in the socket, sent but never read), kills
// the daemon without draining while that receive waits, and starts a new one on the same
// root and socket path.
constexpr double kMaxRestartFraction = 0.5;

struct ChaosResult {
  ArmResult arm;
  int64_t reconnects = 0;
  uint64_t resumed_bytes = 0;
  uint64_t restarted_bytes = 0;
};

ChaosResult RunChaosSaveArm(std::unique_ptr<StoreServer>& server,
                            const StoreServerOptions& server_options) {
  constexpr size_t kFullChunkBytes = 4u * kWireChunkBytes;
  constexpr size_t kChaosPayloadBytes = kFullChunkBytes + (64u << 10);
  constexpr int kChaosOps = 8;
  // Sends after arming, from 0: RESET_STAGING, its OK, WRITE_BEGIN (carrying its trace
  // context when tracing is on), its OK, the four full chunks (a blocking send moves a
  // whole frame), then the tail chunk.
  constexpr int kTailSend = 8;
  constexpr int kParkMs = 50;        // the client waits this long before sending the tail
  constexpr int kKillAfterMs = 100;  // the kill, counted from the full chunks' arrival
  constexpr int kDropMs = 200;       // the daemon's receive waits this long, then drops
  const std::string meta_json = BenchMetaJson();
  std::vector<uint8_t> payload(kChaosPayloadBytes);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& reconnects = metrics.GetCounter("store.client.reconnects");
  obs::Counter& resumed = metrics.GetCounter("store.client.resumed_bytes");
  obs::Counter& restarted = metrics.GetCounter("store.client.restarted_bytes");
  const uint64_t reconnects0 = reconnects.Value();
  const uint64_t resumed0 = resumed.Value();
  const uint64_t restarted0 = restarted.Value();

  Result<std::shared_ptr<RemoteStore>> store = RemoteStore::Connect(server->endpoint());
  UCP_CHECK(store.ok()) << store.status();

  ChaosResult result;
  std::vector<double> latencies;
  const auto start = std::chrono::steady_clock::now();
  for (int op = 0; op < kChaosOps; ++op) {
    const std::string tag = "chaos.global_step" + std::to_string(op + 1);
    const std::string spool = PathJoin(WipDirForTag(server_options.root, tag), "shard");
    ArmSocketFault({SocketFault::Op::kSend, SocketFault::Kind::kDelay, kTailSend, kParkMs});
    std::thread killer([&] {
      auto full_chunks_spooled = [&] {
        Result<uint64_t> size = FileSize(spool);
        return size.ok() && *size >= kFullChunkBytes;
      };
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!full_chunks_spooled() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const auto full = std::chrono::steady_clock::now();
      // Two receives: the daemon's and the client's wait for WRITE_END's reply may come in
      // either order, and the daemon's must not read the tail.
      for (int nth : {0, 1}) {
        ArmSocketFault({SocketFault::Op::kRecv, SocketFault::Kind::kBlackhole, nth, kDropMs});
      }
      std::this_thread::sleep_until(full + std::chrono::milliseconds(kKillAfterMs));
      server->Shutdown(/*drain=*/false);
      server.reset();
      Result<std::unique_ptr<StoreServer>> restarted_server =
          StoreServer::Start(server_options);
      UCP_CHECK(restarted_server.ok()) << restarted_server.status();
      server = std::move(*restarted_server);
    });
    const auto t0 = std::chrono::steady_clock::now();
    UCP_CHECK((*store)->ResetTagStaging(tag).ok());
    Result<std::unique_ptr<StoreWriter>> writer = (*store)->OpenTagForWrite(tag);
    UCP_CHECK(writer.ok()) << writer.status();
    UCP_CHECK((*writer)->WriteFile("shard", payload).ok());
    UCP_CHECK((*store)->CommitTag(tag, meta_json).ok());
    latencies.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
    killer.join();
    ClearSocketFaults();
  }
  result.arm.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.arm.ops = static_cast<int64_t>(latencies.size());
  result.arm.throughput_mib_s =
      result.arm.seconds > 0.0
          ? static_cast<double>(result.arm.ops) * static_cast<double>(kChaosPayloadBytes) /
                (1024.0 * 1024.0) / result.arm.seconds
          : 0.0;
  result.arm.p50_ms = Percentile(latencies, 0.50);
  result.arm.p99_ms = Percentile(latencies, 0.99);
  result.reconnects = static_cast<int64_t>(reconnects.Value() - reconnects0);
  result.resumed_bytes = resumed.Value() - resumed0;
  result.restarted_bytes = restarted.Value() - restarted0;
  return result;
}

Json ChaosArmJson(const ChaosResult& r) {
  const double resumed_mib = static_cast<double>(r.resumed_bytes) / (1024.0 * 1024.0);
  const double restarted_mib = static_cast<double>(r.restarted_bytes) / (1024.0 * 1024.0);
  const double restart_fraction =
      r.resumed_bytes > 0
          ? static_cast<double>(r.restarted_bytes) / static_cast<double>(r.resumed_bytes)
          : 0.0;
  const bool within = r.resumed_bytes > 0 && r.restarted_bytes > 0 &&
                      static_cast<double>(r.restarted_bytes) <
                          kMaxRestartFraction * static_cast<double>(r.resumed_bytes);
  std::printf(
      "fig15/save-chaos/remote/1: %.3fs, %.1f MiB/s, %lld daemon restarts, %lld reconnects, "
      "resumed %.2f MiB, re-sent %.3f MiB (%.1f%% of acked, bound %.0f%%, must be > 0) %s\n",
      r.arm.seconds, r.arm.throughput_mib_s, static_cast<long long>(r.arm.ops),
      static_cast<long long>(r.reconnects), resumed_mib, restarted_mib,
      restart_fraction * 100.0, kMaxRestartFraction * 100.0, within ? "OK" : "FAIL");
  JsonObject arm;
  arm["arm"] = std::string("save-chaos/remote/1");
  arm["workload"] = std::string("save-chaos");
  arm["backend"] = std::string("remote");
  arm["clients"] = static_cast<int64_t>(1);
  arm["ops"] = r.arm.ops;
  arm["seconds"] = r.arm.seconds;
  arm["throughput_mib_s"] = r.arm.throughput_mib_s;
  arm["p50_ms"] = r.arm.p50_ms;
  arm["p99_ms"] = r.arm.p99_ms;
  arm["daemon_restarts"] = r.arm.ops;  // one per op
  arm["reconnects"] = r.reconnects;
  arm["resumed_bytes"] = static_cast<int64_t>(r.resumed_bytes);
  arm["restarted_bytes"] = static_cast<int64_t>(r.restarted_bytes);
  arm["restart_fraction_of_acked"] = restart_fraction;
  arm["restart_bound_fraction"] = kMaxRestartFraction;
  arm["within_bound"] = within;
  return Json(std::move(arm));
}

// Guardrail: wire v6 trace propagation (client RPC spans, the trace context in each request
// frame, and the daemon's per-request handling spans) must stay invisible on the remote save path.
// Same deterministic method as fig11's check — a wall-clock A/B at this scale reads
// socket and fsync jitter, not the tracer:
//
//   1. per-span cost  — tight trivial-span loop, traced minus runtime-disabled, min over
//                       batches;
//   2. spans per save — `obs.trace.events_recorded` delta around one traced remote save
//                       (counts BOTH sides: the daemon is in-process, so its handling
//                       spans bump the same counter);
//   3. overhead       = spans_per_save * per_span_cost / untraced remote-save floor.
//
// Bound: 2%, matching fig11. Real checkpoints only grow the denominator.
Json RunRemoteTracerOverheadCheck(const StoreServer* server) {
  using Clock = std::chrono::steady_clock;
  constexpr double kRelativeBound = 0.02;
  constexpr int kSpansPerBatch = 20000;
  constexpr int kBatches = 5;

  const std::string meta_json = BenchMetaJson();
  std::vector<uint8_t> payload(kPayloadBytes);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>((i * 193) & 0xff);
  }
  Result<std::shared_ptr<RemoteStore>> store = RemoteStore::Connect(server->endpoint());
  UCP_CHECK(store.ok()) << store.status();

  auto save_seconds = [&](int op) {
    const std::string tag = "overhead.global_step" + std::to_string(op);
    const auto t0 = Clock::now();
    UCP_CHECK((*store)->ResetTagStaging(tag).ok());
    Result<std::unique_ptr<StoreWriter>> writer = (*store)->OpenTagForWrite(tag);
    UCP_CHECK(writer.ok()) << writer.status();
    UCP_CHECK((*writer)->WriteFile("shard", payload).ok());
    UCP_CHECK((*store)->CommitTag(tag, meta_json).ok());
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto span_batch_seconds = [] {
    double best = std::numeric_limits<double>::infinity();
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kSpansPerBatch; ++i) {
        UCP_TRACE_SPAN("fig15.overhead_probe");
      }
      best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };

  const bool was_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  const double traced_batch = span_batch_seconds();
  obs::SetTraceEnabled(false);
  const double disabled_batch = span_batch_seconds();
  save_seconds(1);  // warm the daemon-side page cache and the session
  double untraced_save = std::numeric_limits<double>::infinity();
  for (int op = 2; op <= 4; ++op) {
    untraced_save = std::min(untraced_save, save_seconds(op));
  }

  obs::SetTraceEnabled(true);
  const uint64_t before = bench::TraceEventsRecorded();
  const double traced_save = save_seconds(5);
  const uint64_t spans_per_save = bench::TraceEventsRecorded() - before;
  obs::SetTraceEnabled(was_enabled);

  const double per_span =
      std::max(0.0, (traced_batch - disabled_batch) / kSpansPerBatch);
  const double tracer_seconds = static_cast<double>(spans_per_save) * per_span;
  const double overhead = untraced_save > 0.0 ? tracer_seconds / untraced_save : 0.0;
  const bool within = overhead < kRelativeBound;
  std::printf(
      "fig15/tracer_overhead/remote span=%.0fns spans/save=%llu tracer=%.3fms "
      "save=%.3fms overhead=%.3f%% %s\n",
      per_span * 1e9, static_cast<unsigned long long>(spans_per_save),
      tracer_seconds * 1e3, untraced_save * 1e3, overhead * 100.0,
      within ? "OK" : "FAIL");

  JsonObject doc;
  doc["backend"] = std::string("remote");
  doc["per_span_seconds"] = per_span;
  doc["spans_per_save"] = spans_per_save;
  doc["tracer_seconds_per_save"] = tracer_seconds;
  doc["untraced_save_seconds"] = untraced_save;
  doc["traced_save_seconds"] = traced_save;
  doc["overhead_fraction"] = overhead;
  doc["bound_fraction"] = kRelativeBound;
  doc["within_bound"] = within;
  return Json(std::move(doc));
}

// One arm's repeats: the median of each figure over the runs, and p50's IQR / median.
Json ArmJson(const std::string& workload, const std::string& backend, int clients,
             const std::vector<ArmResult>& runs) {
  std::vector<double> seconds, throughput, p50, p99;
  for (const ArmResult& r : runs) {
    seconds.push_back(r.seconds);
    throughput.push_back(r.throughput_mib_s);
    p50.push_back(r.p50_ms);
    p99.push_back(r.p99_ms);
  }
  const bench::MedianSpread p50_summary = bench::Summarize(p50);
  const double p99_median = bench::Summarize(p99).median;
  const double throughput_median = bench::Summarize(throughput).median;
  std::printf(
      "fig15/%s/%s/%d: %.1f MiB/s, p50 %.2f ms (iqr/median %.2f), p99 %.2f ms "
      "(medians of %zu runs of %lld ops)\n",
      workload.c_str(), backend.c_str(), clients, throughput_median, p50_summary.median,
      p50_summary.iqr_over_median, p99_median, runs.size(),
      static_cast<long long>(runs.front().ops));
  JsonObject arm;
  arm["arm"] = workload + "/" + backend + "/" + std::to_string(clients);
  arm["workload"] = workload;
  arm["backend"] = backend;
  arm["clients"] = static_cast<int64_t>(clients);
  arm["payload_bytes"] = static_cast<int64_t>(kPayloadBytes);
  arm["repeats"] = static_cast<int64_t>(runs.size());
  arm["ops"] = runs.front().ops;
  arm["seconds"] = bench::Summarize(seconds).median;
  arm["throughput_mib_s"] = throughput_median;
  arm["p50_ms"] = p50_summary.median;
  arm["p50_iqr_over_median"] = p50_summary.iqr_over_median;
  arm["p99_ms"] = p99_median;
  return Json(std::move(arm));
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);

  ucp::JsonArray arms;
  ucp::Json tracer_overhead;
  bool chaos_within_bound = false;
  for (const char* backend : {"local", "remote"}) {
    const std::string dir =
        ucp::bench::FreshDir(std::string("fig15_server_") + backend);
    std::unique_ptr<ucp::StoreServer> server;
    ucp::StoreServerOptions options;
    options.root = dir;
    options.listen = "unix:" + dir + ".sock";
    if (std::string(backend) == "remote") {
      ucp::Result<std::unique_ptr<ucp::StoreServer>> started =
          ucp::StoreServer::Start(options);
      UCP_CHECK(started.ok()) << started.status();
      server = std::move(*started);
    }
    for (int clients : {1, 4, 16}) {
      // Saves and loads alternate; each load reads the tags the save before it committed.
      std::vector<ucp::ArmResult> saves, loads;
      for (int rep = 0; rep < ucp::kRepeats; ++rep) {
        saves.push_back(ucp::RunSaveArm(backend, dir, server.get(), clients));
        loads.push_back(ucp::RunLoadArm(backend, dir, server.get(), clients));
      }
      arms.emplace_back(ucp::ArmJson("save", backend, clients, saves));
      arms.emplace_back(ucp::ArmJson("load", backend, clients, loads));
    }
    if (server != nullptr) {
      ucp::Json chaos = ucp::ChaosArmJson(ucp::RunChaosSaveArm(server, options));
      chaos_within_bound = *chaos.GetBool("within_bound");
      arms.emplace_back(std::move(chaos));
      tracer_overhead = ucp::RunRemoteTracerOverheadCheck(server.get());
      server->Shutdown();
    }
  }

  const bool within_bound = *tracer_overhead.GetBool("within_bound") && chaos_within_bound;
  ucp::JsonObject doc;
  doc["benchmark"] = "fig15_server";
  doc["arms"] = std::move(arms);
  doc["tracer_overhead"] = std::move(tracer_overhead);
  ucp::bench::WriteBenchReport("BENCH_server.json", std::move(doc));
  ucp::bench::WriteTraceIfRequested(trace_file);
  // A tripped bound, tracer overhead or chaos re-send, fails the run.
  return within_bound ? 0 : 1;
}

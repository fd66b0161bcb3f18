// Checkpoint-server characterization: save/load throughput and latency through the Store
// abstraction, local (direct FS) vs remote (ucp_serverd wire protocol), at 1 / 4 / 16
// concurrent clients.
//
// Arm grid: {save, load} x {local, remote} x {1, 4, 16 clients}. Every client runs the
// same op loop in its own namespace — a save op is the full staged-commit cycle
// (ResetTagStaging / WriteFile / CommitTag), a load op reads one committed payload back
// through OpenRead/ReadAt in wire-chunk-sized pieces. Per-op latencies aggregate to
// p50/p99; throughput is payload bytes moved over the arm's wall time. The remote arms
// all talk to one in-process daemon over a Unix socket, so the numbers measure the wire
// protocol + session/admission machinery against the direct-FS baseline it wraps.
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
#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"

namespace ucp {
namespace {

constexpr size_t kPayloadBytes = 1u << 20;  // one wire chunk per shard file
constexpr int kSaveOpsPerClient = 6;
constexpr int kLoadOpsPerClient = 12;

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

// Chaos arm: one client streaming multi-chunk saves through the daemon while the socket
// injector drops the connection mid-WRITE every op. What the arm measures is the
// *resume economics* of the v3 protocol: after each drop the client reconnects under its
// lease, asks WRITE_RESUME how far the server got, and re-sends only the tail. The
// store.client metric deltas split the traffic into resumed (acknowledged, not re-sent)
// vs restarted (sent before the drop, then sent again) bytes — the survivability
// acceptance bound is restarted < 50% of resumed, and a run that resumed nothing fails it.
constexpr double kMaxRestartFraction = 0.5;

struct ChaosResult {
  ArmResult arm;
  int64_t reconnects = 0;
  uint64_t resumed_bytes = 0;
  uint64_t restarted_bytes = 0;
};

ChaosResult RunChaosSaveArm(const StoreServer* server) {
  constexpr size_t kChaosPayloadBytes = 4u << 20;  // 4 wire chunks: drops land mid-file
  constexpr int kChaosOps = 8;
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
    // Drop the connection partway into the op's chunk stream; cycling nth moves the cut
    // point across the file so resumes see varying acked prefixes. (nth counts send
    // *syscalls* — a 1 MiB chunk takes several against a default unix socket buffer.)
    SocketFault fault;
    fault.op = SocketFault::Op::kSend;
    fault.kind = SocketFault::Kind::kEconnreset;
    fault.nth = 5 + 2 * (op % 4);
    ArmSocketFault(fault);
    const auto t0 = std::chrono::steady_clock::now();
    UCP_CHECK((*store)->ResetTagStaging(tag).ok());
    Result<std::unique_ptr<StoreWriter>> writer = (*store)->OpenTagForWrite(tag);
    UCP_CHECK(writer.ok()) << writer.status();
    UCP_CHECK((*writer)->WriteFile("shard", payload).ok());
    UCP_CHECK((*store)->CommitTag(tag, meta_json).ok());
    latencies.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
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
  const bool within = r.resumed_bytes > 0 &&
                      static_cast<double>(r.restarted_bytes) <
                          kMaxRestartFraction * static_cast<double>(r.resumed_bytes);
  std::printf(
      "fig15/save-chaos/remote/1: %.3fs, %.1f MiB/s, %lld reconnects, resumed %.1f MiB, "
      "re-sent %.1f MiB (%.0f%% of acked, bound %.0f%%) %s\n",
      r.arm.seconds, r.arm.throughput_mib_s, static_cast<long long>(r.reconnects),
      resumed_mib, restarted_mib, restart_fraction * 100.0, kMaxRestartFraction * 100.0,
      within ? "OK" : "FAIL");
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
  arm["reconnects"] = r.reconnects;
  arm["resumed_bytes"] = static_cast<int64_t>(r.resumed_bytes);
  arm["restarted_bytes"] = static_cast<int64_t>(r.restarted_bytes);
  arm["restart_fraction_of_acked"] = restart_fraction;
  arm["restart_bound_fraction"] = kMaxRestartFraction;
  arm["within_bound"] = within;
  return Json(std::move(arm));
}

// Guardrail: wire v4 trace propagation (client RPC spans, the TRACE_CONTEXT header, and
// the daemon's per-request handling spans) must stay invisible on the remote save path.
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

Json ArmJson(const std::string& workload, const std::string& backend, int clients,
             const ArmResult& r) {
  std::printf("fig15/%s/%s/%d: %.3fs, %.1f MiB/s, p50 %.2f ms, p99 %.2f ms (%lld ops)\n",
              workload.c_str(), backend.c_str(), clients, r.seconds, r.throughput_mib_s,
              r.p50_ms, r.p99_ms, static_cast<long long>(r.ops));
  JsonObject arm;
  arm["arm"] = workload + "/" + backend + "/" + std::to_string(clients);
  arm["workload"] = workload;
  arm["backend"] = backend;
  arm["clients"] = static_cast<int64_t>(clients);
  arm["payload_bytes"] = static_cast<int64_t>(kPayloadBytes);
  arm["ops"] = r.ops;
  arm["seconds"] = r.seconds;
  arm["throughput_mib_s"] = r.throughput_mib_s;
  arm["p50_ms"] = r.p50_ms;
  arm["p99_ms"] = r.p99_ms;
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
    if (std::string(backend) == "remote") {
      ucp::StoreServerOptions options;
      options.root = dir;
      options.listen = "unix:" + dir + ".sock";
      ucp::Result<std::unique_ptr<ucp::StoreServer>> started =
          ucp::StoreServer::Start(std::move(options));
      UCP_CHECK(started.ok()) << started.status();
      server = std::move(*started);
    }
    for (int clients : {1, 4, 16}) {
      arms.emplace_back(ucp::ArmJson(
          "save", backend, clients,
          ucp::RunSaveArm(backend, dir, server.get(), clients)));
      arms.emplace_back(ucp::ArmJson(
          "load", backend, clients,
          ucp::RunLoadArm(backend, dir, server.get(), clients)));
    }
    if (server != nullptr) {
      ucp::Json chaos = ucp::ChaosArmJson(ucp::RunChaosSaveArm(server.get()));
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

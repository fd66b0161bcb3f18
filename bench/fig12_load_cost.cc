// Reproduces Figure 12: time to load a normal distributed checkpoint (standard resume, same
// strategy) vs. converting that checkpoint to UCP and then loading the UCP checkpoint,
// across three model sizes. The paper reports the UCP path at 1.14x-1.37x of standard
// loading; the *shape* to reproduce is a small constant-factor overhead, dominated by the
// one-time Extract/Union pass.
//
// Both arms use the same GPU count and strategy (TP2 PP2 DP2 ZeRO-1), exactly as in the
// paper ("standard distributed checkpoints cannot be loaded when there are changes in GPU
// counts or parallelism strategies").
//
// A second comparison isolates the UCP load executor itself — serial whole-file assembly
// vs the sliced path (each rank preads only the atom ranges inside its partition, inline on
// its own thread) — and emits BENCH_load_cost.json with wall-clock and bytes-read-per-rank
// for both arms. It runs kRounds rounds of one timed load per arm, alternating which arm
// goes first, and records each arm's median and IQR / median.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "src/tensor/tensor_file.h"

namespace ucp {
namespace {

ModelConfig SizedGpt(int num_layers, int hidden) {
  ModelConfig model = Gpt3Scaled();
  model.num_layers = num_layers;
  model.hidden = hidden;
  model.ffn_hidden = 4 * hidden;
  return model;
}

struct Arm {
  const char* size_label;
  ModelConfig model;
};

const std::vector<Arm>& Arms() {
  static const std::vector<Arm> arms = {
      {"gpt-S", SizedGpt(2, 32)},
      {"gpt-M", SizedGpt(4, 64)},
      {"gpt-L", SizedGpt(6, 128)},
  };
  return arms;
}

const ParallelConfig kStrategy{2, 2, 2, 1, 1, 1};

struct Fixture {
  std::string ckpt_dir;
  std::unique_ptr<TrainingRun> run;  // the target run that loads
};

Fixture& FixtureFor(const Arm& arm) {
  static std::map<std::string, Fixture> fixtures;
  auto it = fixtures.find(arm.size_label);
  if (it == fixtures.end()) {
    Fixture f;
    f.ckpt_dir = bench::FreshDir(std::string("fig12_") + arm.size_label);
    TrainingRun source(bench::MakeConfig(arm.model, kStrategy));
    source.Train(1, 2);
    bench::SaveAll(source, f.ckpt_dir, 2);
    f.run = std::make_unique<TrainingRun>(bench::MakeConfig(arm.model, kStrategy));
    it = fixtures.emplace(arm.size_label, std::move(f)).first;
  }
  return it->second;
}

void BM_LoadStandard(benchmark::State& state, const Arm& arm) {
  Fixture& f = FixtureFor(arm);
  for (auto _ : state) {
    f.run->Run([&](RankTrainer& t) {
      Status s = LoadDistributedCheckpoint(f.ckpt_dir, TagForIteration(2), t);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }
}

void BM_ConvertAndLoadUcp(benchmark::State& state, const Arm& arm) {
  Fixture& f = FixtureFor(arm);
  const std::string ucp_dir = "/tmp/ucp_bench/fig12_ucp_" + std::string(arm.size_label);
  for (auto _ : state) {
    state.PauseTiming();
    UCP_CHECK(RemoveAll(ucp_dir).ok());
    state.ResumeTiming();
    // The measured quantity: lazy conversion (the cost paid only when the strategy
    // changes) + UCP load.
    Result<ConvertStats> stats =
        ConvertToUcp(f.ckpt_dir, TagForIteration(2), ucp_dir, {.num_threads = 4});
    UCP_CHECK(stats.ok()) << stats.status().ToString();
    bench::LoadUcpAll(*f.run, ucp_dir);
  }
}

void run_with_options(TrainingRun& run, const std::string& ucp_dir,
                      const UcpLoadOptions& options) {
  run.Run([&](RankTrainer& t) {
    Status s = LoadUcpCheckpoint(ucp_dir, t, options);
    UCP_CHECK(s.ok()) << s.ToString();
  });
}

// Serial whole-file assembly vs the sliced executor, on an already-converted UCP
// checkpoint (the one-time conversion cost is fig12's other comparison, above). Reports
// wall-clock and bytes-read-per-rank for both arms into BENCH_load_cost.json.
JsonObject RunLoadComparison() {
  using Clock = std::chrono::steady_clock;
  constexpr int kRounds = 9;
  const int world = kStrategy.world_size();

  JsonArray arms;
  for (const Arm& arm : Arms()) {
    Fixture& f = FixtureFor(arm);
    const std::string ucp_dir =
        "/tmp/ucp_bench/fig12_loadcmp_ucp_" + std::string(arm.size_label);
    UCP_CHECK(RemoveAll(ucp_dir).ok());
    Result<ConvertStats> stats =
        ConvertToUcp(f.ckpt_dir, TagForIteration(2), ucp_dir, {.num_threads = 4});
    UCP_CHECK(stats.ok()) << stats.status().ToString();

    // One timed load; returns its wall time and sets the bytes it read per rank.
    auto load_once = [&](bool sliced, uint64_t* bytes_per_rank) {
      ResetTensorIoStats();
      const auto t0 = Clock::now();
      run_with_options(*f.run, ucp_dir, {.sliced = sliced});
      const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      *bytes_per_rank = GetTensorIoStats().bytes_read / static_cast<uint64_t>(world);
      return seconds;
    };

    // One untimed load per arm first: the first touch pays page-cache population.
    uint64_t serial_bytes = 0, sliced_bytes = 0;
    load_once(false, &serial_bytes);
    load_once(true, &sliced_bytes);
    std::vector<double> serial_samples, sliced_samples;
    for (int round = 0; round < kRounds; ++round) {
      // Alternate which arm goes first, so neither always follows the other.
      for (const bool sliced : {round % 2 == 1, round % 2 == 0}) {
        (sliced ? sliced_samples : serial_samples)
            .push_back(load_once(sliced, sliced ? &sliced_bytes : &serial_bytes));
      }
    }
    const bench::MedianSpread serial = bench::Summarize(serial_samples);
    const bench::MedianSpread sliced = bench::Summarize(sliced_samples);

    const double fraction =
        static_cast<double>(sliced_bytes) / static_cast<double>(serial_bytes);
    const double speedup = serial.median / sliced.median;
    std::printf(
        "fig12/ucp_load/%s serial=%.3fms (iqr/median %.2f) sliced=%.3fms (iqr/median %.2f) "
        "speedup=%.2fx bytes/rank %llu -> %llu (%.1f%%), %d rounds\n",
        arm.size_label, serial.median * 1e3, serial.iqr_over_median, sliced.median * 1e3,
        sliced.iqr_over_median, speedup, static_cast<unsigned long long>(serial_bytes),
        static_cast<unsigned long long>(sliced_bytes), fraction * 100.0, kRounds);

    JsonObject entry;
    entry["model"] = arm.size_label;
    entry["runs"] = kRounds;
    entry["serial_whole_file_seconds"] = serial.median;
    entry["serial_whole_file_iqr_over_median"] = serial.iqr_over_median;
    entry["sliced_seconds"] = sliced.median;
    entry["sliced_iqr_over_median"] = sliced.iqr_over_median;
    entry["speedup"] = speedup;
    entry["serial_bytes_read_per_rank"] = static_cast<int64_t>(serial_bytes);
    entry["sliced_bytes_read_per_rank"] = static_cast<int64_t>(sliced_bytes);
    entry["sliced_bytes_fraction_of_serial"] = fraction;
    arms.emplace_back(std::move(entry));
  }

  JsonObject doc;
  doc["benchmark"] = "fig12_ucp_load_serial_vs_sliced";
  doc["strategy"] = kStrategy.ToString();
  doc["world_size"] = world;
  doc["arms"] = std::move(arms);
  return doc;
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  // UseRealTime: the ranks load on their own threads, so main-thread CPU time undercounts a
  // load and sized the loops at thousands of iterations.
  for (const auto& arm : ucp::Arms()) {
    benchmark::RegisterBenchmark(
        (std::string("fig12/load_standard/") + arm.size_label).c_str(),
        [&arm](benchmark::State& s) { ucp::BM_LoadStandard(s, arm); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.5)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        (std::string("fig12/convert_and_load_ucp/") + arm.size_label).c_str(),
        [&arm](benchmark::State& s) { ucp::BM_ConvertAndLoadUcp(s, arm); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.5)
        ->UseRealTime();
  }
  benchmark::RunSpecifiedBenchmarks();

  ucp::bench::WriteBenchReport("BENCH_load_cost.json", ucp::RunLoadComparison());
  ucp::bench::WriteTraceIfRequested(trace_file);
  return 0;
}

// Ablation (paper Table 2, Union): "The Union operation can execute in parallel at
// individual parameter level. More parallelism leads to faster speed but is also more
// memory intensive." This bench sweeps the converter's worker-thread count over a
// larger-than-default checkpoint and reports conversion time per phase.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace ucp {
namespace {

struct Fixture {
  std::string ckpt_dir;
  ModelConfig model;
};

Fixture& GetFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    f->model = Gpt3Scaled();
    f->model.num_layers = 8;
    f->model.hidden = 128;
    f->model.ffn_hidden = 512;
    f->ckpt_dir = bench::FreshDir("ablation_threads");
    TrainingRun run(bench::MakeConfig(f->model, {2, 2, 2, 1, 1, 1}));
    run.Train(1, 2);
    bench::SaveAll(run, f->ckpt_dir, 2);
    return f;
  }();
  return *fixture;
}

void BM_Convert(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int threads = static_cast<int>(state.range(0));
  const std::string ucp_dir = "/tmp/ucp_bench/ablation_threads_out";
  double extract_seconds = 0.0;
  double union_seconds = 0.0;
  int atoms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    UCP_CHECK(RemoveAll(ucp_dir).ok());
    state.ResumeTiming();
    Result<ConvertStats> stats =
        ConvertToUcp(f.ckpt_dir, TagForIteration(2), ucp_dir, {.num_threads = threads});
    UCP_CHECK(stats.ok()) << stats.status().ToString();
    extract_seconds += stats->extract_seconds;
    union_seconds += stats->union_seconds;
    atoms = stats->atoms_written;
  }
  state.counters["extract_ms"] =
      benchmark::Counter(extract_seconds * 1e3 / static_cast<double>(state.iterations()));
  state.counters["union_ms"] =
      benchmark::Counter(union_seconds * 1e3 / static_cast<double>(state.iterations()));
  state.counters["atoms"] = benchmark::Counter(atoms);
}

}  // namespace
}  // namespace ucp

int main(int argc, char** argv) {
  const std::string trace_file = ucp::bench::ExtractTraceFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("ablation/convert_threads", ucp::BM_Convert)
      ->Arg(0)   // inline (memory-minimal)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.3);
  benchmark::RunSpecifiedBenchmarks();
  ucp::bench::WriteTraceIfRequested(trace_file);
  return 0;
}

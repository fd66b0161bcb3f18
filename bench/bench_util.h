// Shared helpers for the evaluation-reproduction harnesses (one binary per paper
// table/figure; see EXPERIMENTS.md for the index).

#ifndef UCP_BENCH_BENCH_UTIL_H_
#define UCP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/common/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/trainer.h"
#include "src/ucp/converter.h"
#include "src/ucp/loader.h"

namespace ucp {
namespace bench {

// The evaluation workload scale: a compromise between visible convergence and wall time.
inline constexpr int kGlobalBatch = 8;

inline TrainerConfig MakeConfig(const ModelConfig& model, const ParallelConfig& strategy,
                                int decay_iters = 200) {
  TrainerConfig cfg;
  cfg.model = model;
  cfg.strategy = strategy;
  cfg.global_batch = kGlobalBatch;
  cfg.lr.max_lr = 1e-3f;
  cfg.lr.min_lr = 1e-5f;
  cfg.lr.warmup_iters = 10;
  cfg.lr.decay_iters = decay_iters;
  return cfg;
}

inline void SaveAll(TrainingRun& run, const std::string& dir, int64_t iteration) {
  run.Run([&](RankTrainer& t) {
    Status s = SaveDistributedCheckpoint(dir, t, iteration);
    UCP_CHECK(s.ok()) << s.ToString();
  });
}

inline void LoadUcpAll(TrainingRun& run, const std::string& ucp_dir) {
  run.Run([&](RankTrainer& t) {
    Status s = LoadUcpCheckpoint(ucp_dir, t);
    UCP_CHECK(s.ok()) << s.ToString();
  });
}

// The median of repeated timing samples and their spread, IQR / median (quartiles
// interpolate linearly between neighbouring samples). Every repeated arm records both.
struct MedianSpread {
  double median = 0.0;
  double iqr_over_median = 0.0;
};

inline MedianSpread Summarize(std::vector<double> samples) {
  UCP_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double q) {
    const double at = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(at);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (at - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  MedianSpread out;
  out.median = quantile(0.5);
  out.iqr_over_median = out.median > 0.0 ? (quantile(0.75) - quantile(0.25)) / out.median : 0.0;
  return out;
}

inline std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/ucp_bench/" + name;
  UCP_CHECK(RemoveAll(dir).ok());
  UCP_CHECK(MakeDirs(dir).ok());
  return dir;
}

// The metrics registry as a JSON object: metric name -> value (counters/gauges) or
// {count, sum, mean, max, p50, p99} (histograms). Embedded into every BENCH_*.json so a
// result file carries the io/comm/save counters that produced it.
inline Json MetricsJson() {
  JsonObject doc;
  for (const obs::MetricValue& m : obs::SnapshotMetrics()) {
    switch (m.kind) {
      case obs::MetricValue::Kind::kCounter:
        doc[m.name] = m.counter;
        break;
      case obs::MetricValue::Kind::kGauge:
        doc[m.name] = m.gauge;
        break;
      case obs::MetricValue::Kind::kHistogram: {
        JsonObject h;
        h["count"] = m.count;
        h["sum"] = m.sum;
        h["mean"] = m.mean;
        h["max"] = m.max;
        h["p50"] = m.p50;
        h["p99"] = m.p99;
        doc[m.name] = std::move(h);
        break;
      }
    }
  }
  return Json(std::move(doc));
}

// Stamps the process metrics snapshot into `doc` and writes it atomically. Every bench
// report goes through here so BENCH_*.json files share the metrics embed.
inline void WriteBenchReport(const std::string& path, JsonObject doc) {
  doc["metrics"] = MetricsJson();
  UCP_CHECK(WriteFileAtomic(path, Json(std::move(doc)).Dump(2)).ok());
  std::printf("wrote %s\n", path.c_str());
}

// Events the span tracer has recorded so far; take the delta around an operation to count
// its spans. This reads the registry's monotonic `obs.trace.events_recorded`, not a census
// of the rings: an operation's exiting rank threads orphan their rings, and shedding old
// orphans can evict as many events as the operation adds.
inline uint64_t TraceEventsRecorded() {
  static obs::Counter& recorded =
      obs::MetricsRegistry::Global().GetCounter("obs.trace.events_recorded");
  return recorded.Value();
}

// Strips a `--trace=FILE` argument (call before benchmark::Initialize, which rejects
// unknown flags). Returns the FILE, or "" when absent.
inline std::string ExtractTraceFlag(int* argc, char** argv) {
  std::string path;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strncmp(argv[r], "--trace=", 8) == 0) {
      path = argv[r] + 8;
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  return path;
}

// Writes the process Chrome trace to `path` when non-empty (call once, at process end).
inline void WriteTraceIfRequested(const std::string& path) {
  if (path.empty()) {
    return;
  }
  UCP_CHECK(WriteFileAtomic(path, obs::ExportChromeTraceJson()).ok());
  std::printf("wrote %s\n", path.c_str());
}

// Prints a loss series as CSV rows: <series>,<iteration>,<loss>.
inline void PrintSeries(const std::string& series, int64_t first_iteration,
                        const std::vector<double>& losses) {
  for (size_t i = 0; i < losses.size(); ++i) {
    std::printf("%s,%lld,%.4f\n", series.c_str(),
                static_cast<long long>(first_iteration + static_cast<int64_t>(i)),
                losses[i]);
  }
}

// Loss at a 1-based iteration from a series starting at first_iteration.
inline double LossAt(const std::vector<double>& losses, int64_t first_iteration,
                     int64_t iteration) {
  return losses[static_cast<size_t>(iteration - first_iteration)];
}

// Shared driver for the architecture figures (Figs. 8-10): train `model` under `source`,
// checkpoint at `resume_at`, convert to UCP, resume under each target, and verify every
// resumed curve tracks the continued source within `tolerance`. Returns the number of
// targets that failed the bound.
inline int RunArchFigure(const std::string& figure, const ModelConfig& model,
                         const ParallelConfig& source_strategy,
                         const std::vector<ParallelConfig>& targets, int64_t resume_at,
                         int64_t last_iteration, double tolerance = 0.02) {
  const std::string dir = FreshDir(figure);
  std::printf("# %s: arch=%s source=%s resume@%lld\n", figure.c_str(),
              ArchKindName(model.arch), source_strategy.ToString().c_str(),
              static_cast<long long>(resume_at));
  std::printf("series,iteration,lm_loss\n");

  TrainingRun source(MakeConfig(model, source_strategy,
                                static_cast<int>(last_iteration)));
  std::vector<double> source_losses = source.Train(1, resume_at);
  SaveAll(source, dir + "/ckpt", resume_at);
  std::vector<double> tail = source.Train(resume_at + 1, last_iteration);
  source_losses.insert(source_losses.end(), tail.begin(), tail.end());
  PrintSeries("source_" + source_strategy.ToString(), 1, source_losses);

  Result<ConvertStats> stats = ConvertToUcp(dir + "/ckpt", TagForIteration(resume_at),
                                            dir + "/ucp", {.num_threads = 4});
  UCP_CHECK(stats.ok()) << stats.status().ToString();
  std::printf("# UCP conversion: %d atoms\n", stats->atoms_written);

  int failures = 0;
  for (const ParallelConfig& target : targets) {
    TrainingRun run(MakeConfig(model, target, static_cast<int>(last_iteration)));
    LoadUcpAll(run, dir + "/ucp");
    std::vector<double> losses = run.Train(resume_at + 1, last_iteration);
    PrintSeries("target_" + target.ToString(), resume_at + 1, losses);
    double max_delta = 0.0;
    for (size_t i = 0; i < losses.size(); ++i) {
      max_delta = std::max(
          max_delta,
          std::fabs(losses[i] - source_losses[static_cast<size_t>(resume_at) + i]));
    }
    std::printf("# target %-18s max|resumed - continued| = %.4f %s\n",
                target.ToString().c_str(), max_delta,
                max_delta < tolerance ? "OK" : "FAIL");
    failures += max_delta < tolerance ? 0 : 1;
  }
  if (failures == 0) {
    std::printf("# PASS: %s resumes consistently under all targets\n", figure.c_str());
  }
  return failures;
}

}  // namespace bench
}  // namespace ucp

#endif  // UCP_BENCH_BENCH_UTIL_H_

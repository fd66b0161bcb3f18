// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <train_ckpt|reshard_resume|remote_mixed> --seed N --seconds S
//             --trace <0|1> [--workdir DIR] [--trace-out FILE]
//             [--inject zero_counter|wrong_digest]
//
// --trace 0: sets the workload up three times (setup_s is the median), then runs its
// closed loop for S seconds with every instrument off and prints the end-to-end metrics.
// --trace 1: for every workload in turn, an untraced pass and a traced pass of S/4 seconds
// each; prints the per-layer metrics next to the end-to-end metric each should move, the
// tracing overhead (traced minus untraced), and writes the benchmark's spans as a Chrome
// trace. The last line on stdout is one JSON object: correct, attempted, failed, metrics.
// Exits non-zero when an operation failed its check or a guardrail tripped.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/ledger.h"
#include "perfbench/workloads.h"
#include "src/common/fs.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_work";
  std::string trace_out = "perfbench.trace.json";
  std::string inject;
};

bool Parse(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (!key.starts_with("--")) {
      return false;
    }
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    kv[key.substr(2)] = value;
  }
  for (const auto& [key, value] : kv) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (key == "workdir") {
      args->workdir = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else if (key == "inject" && (value == "zero_counter" || value == "wrong_digest")) {
      args->inject = value;
    } else {
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return false;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  return std::find(names.begin(), names.end(), args->workload) != names.end() &&
         args->seconds > 0;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintMetric(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  std::printf("  %-40s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, Metric>> json;  // JSON name -> metric

  void Absorb(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    violations.insert(violations.end(), r.violations.begin(), r.violations.end());
  }
};

PassResult RunPass(const std::string& workload, const Args& args, int instance, bool traced,
                   double seconds, double* setup_s) {
  BenchOptions options{args.seed, args.workdir, args.inject};
  const int64_t t0 = NowNs();
  std::unique_ptr<Workload> w = MakeWorkload(workload, options, instance);
  w->Setup(traced);
  if (setup_s != nullptr) {
    *setup_s = MsBetween(t0, NowNs()) * 1e-3;
  }
  SpanLog::Get().set_enabled(traced);
  PassResult result = w->Run(seconds, traced);
  SpanLog::Get().set_enabled(false);
  return result;
}

void PrintFacts(const PassResult& r) {
  for (const std::string& fact : r.facts) {
    std::printf("  # %s\n", fact.c_str());
  }
}

Outcome Untraced(const Args& args) {
  Outcome out;
  std::printf("== %s  seed %llu  %.0f s  untraced\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds);
  // Set up kSetups times; the last set-up's instance runs the timed loop.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  const BenchOptions options{args.seed, args.workdir, args.inject};
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    const int64_t t0 = NowNs();
    w = MakeWorkload(args.workload, options, k);
    w->Setup(false);
    setups.push_back(MsBetween(t0, NowNs()) * 1e-3);
  }
  const double first_op_s = static_cast<double>(NowNs()) * 1e-9;
  const PassResult r = w->Run(args.seconds, false);
  w.reset();
  out.Absorb(r);

  std::string detail = "median of " + std::to_string(kSetups) + " set-ups:";
  for (double s : setups) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    detail += buf;
  }
  char first_op[64];
  std::snprintf(first_op, sizeof(first_op), "; process start to first timed op %.3f s",
                first_op_s);
  const Metric setup{"setup_s", Median(setups), "s", "", detail + first_op, "setup_s"};
  const Metric rss{"peak_rss_mib", PeakRssMib(), "MiB", "", "whole process", "peak_rss_mib"};
  for (const Metric& m : {setup, rss}) {
    PrintMetric(m.name, m.value, m.unit, m.detail);
    out.json.emplace_back(m.json, m);
  }
  for (const Metric& m : r.e2e) {
    PrintMetric(m.name, m.value, m.unit,
                m.detail + (m.json.empty() ? "  [printed only]" : "  [" + m.json + "]"));
    if (!m.json.empty()) {
      out.json.emplace_back(m.json, m);
    }
  }
  PrintFacts(r);
  return out;
}

Outcome Traced(const Args& args) {
  Outcome out;
  // Six passes (two per workload) must fit the run's time limit next to their set-ups and
  // probes; medians of a quarter of the run are enough for per-layer figures.
  const double seconds = args.seconds / 4;
  int instance = 100;
  for (const std::string& workload : WorkloadNames()) {
    std::printf("== %s  seed %llu  untraced and traced passes of %.1f s\n", workload.c_str(),
                static_cast<unsigned long long>(args.seed), seconds);
    double plain_setup = 0.0, traced_setup = 0.0;
    const PassResult plain =
        RunPass(workload, args, instance++, false, seconds, &plain_setup);
    const PassResult traced = RunPass(workload, args, instance++, true, seconds, &traced_setup);
    out.Absorb(plain);
    out.Absorb(traced);
    std::printf("  per-layer metric (traced)                         value unit   -> "
                "end-to-end metric it should move\n");
    for (const Metric& m : traced.layers) {
      PrintMetric(m.name, m.value, m.unit,
                  "-> " + m.moves + (m.detail.empty() ? "" : "  [" + m.detail + "]"));
      out.json.emplace_back(workload + "." + m.name, m);
    }
    std::printf("  tracing overhead (traced - untraced)\n");
    PrintMetric("setup_s", traced_setup - plain_setup, "s", "");
    for (size_t i = 0; i < traced.e2e.size() && i < plain.e2e.size(); ++i) {
      PrintMetric(traced.e2e[i].name, traced.e2e[i].value - plain.e2e[i].value,
                  traced.e2e[i].unit, "");
    }
    PrintFacts(traced);
  }
  const std::vector<Span> spans = SpanLog::Get().Snapshot();
  if (ucp::WriteFileAtomic(args.trace_out, SpanLog::Get().ChromeJson(spans)).ok()) {
    std::printf("  wrote %zu spans to %s\n", spans.size(), args.trace_out.c_str());
  }
  return out;
}

int Main(int argc, char** argv) {
  NowNs();  // starts the clock setup_s's "process start" refers to
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <train_ckpt|reshard_resume|remote_mixed> "
                 "--seed N --seconds S --trace <0|1> [--workdir DIR] [--trace-out FILE] "
                 "[--inject zero_counter|wrong_digest]\n");
    return 2;
  }
  // Two malloc arenas, before any thread starts: the simulator spawns fresh rank and
  // loader threads on every call, and with glibc's default of 8 arenas per core the peak
  // resident set depends on which arena each short-lived thread lands in, not on what the
  // program keeps live.
  mallopt(M_ARENA_MAX, 2);
  // The program's own span tracer stays off; the benchmark times from outside.
  ucp::obs::SetTraceEnabled(false);
  ucp::SetLogLevel(ucp::LogLevel::kWarning);
  if (!ucp::MakeDirs(args.workdir).ok()) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.workdir.c_str());
    return 2;
  }

  Outcome out = args.trace ? Traced(args) : Untraced(args);
  for (auto& [name, m] : out.json) {
    if (!std::isfinite(m.value)) {
      out.violations.push_back("metric " + name + " is not a finite number");
      m.value = 0.0;
    }
  }
  for (const std::string& v : out.violations) {
    std::printf("  GUARDRAIL: %s\n", v.c_str());
  }
  const bool correct = out.failed == 0 && out.violations.empty();
  std::printf("  attempted %lld operations, %lld failed\n",
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed));
  std::string metrics;
  for (const auto& [name, m] : out.json) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// The benchmark's own test: every check it relies on must be able to fail.
//
//   perfbench_test [path/to/perfbench]
//
// Unit part: the guardrail functions flag a zero instrument and a negative residual, and
// the order statistics, steal fit and busy-time union compute what the report says they
// do. With the benchmark binary's path, it also runs the binary with a zeroed counter and
// with a wrong reference digest and expects each run to fail, next to a control run that
// passes.

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/ledger.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s: %s\n", condition ? "ok  " : "FAIL", what.c_str());
  g_failures += condition ? 0 : 1;
}

void UnitChecks() {
  Expect(!ZeroReadings({{"writes_per_save", 0.0}}).empty(), "a zero reading trips");
  Expect(!ZeroReadings({{"writes_per_save", std::nan("")}}).empty(), "a NaN reading trips");
  Expect(ZeroReadings({{"writes_per_save", 6.0}}).empty(), "a positive reading passes");
  Expect(!NegativeResiduals({{"save#0", -0.01}}).empty(), "a negative residual trips");
  Expect(NegativeResiduals({{"save#0", 0.0}, {"save#1", 3.5}}).empty(),
         "non-negative residuals pass");

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);
  }
  const Summary s = Summarize(values);
  Expect(s.n == 100 && s.p50 == 50.5, "p50 of 1..100 is 50.5");
  Expect(s.tail == 90.0 && s.tail_percentile == 90.0,
         "the tail of 100 samples is p90, with ten samples above it");
  Expect(Summarize({1, 2, 3}).tail == 3.0 && Summarize(std::vector<double>(20, 1.0)).tail == 1.0,
         "with under 21 samples the tail is the max");
  std::vector<double> twelve = {12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  Expect(Summarize(twelve).tail == 12.0 && Summarize(twelve).tail_percentile == 100.0,
         "a 12-sample tail is the max, not a value under the median");

  // 100 ms of work plus 0.5 ms per ms of steal, and one burst the steal counter missed.
  std::vector<double> ms, steal;
  for (int i = 0; i < 20; ++i) {
    steal.push_back(10.0 * i);
    ms.push_back(100.0 + 5.0 * i);
  }
  ms[3] += 400.0;
  const NetOfSteal net = SubtractSteal(ms, steal);
  Expect(net.slope == 0.5 && Median(net.ms) == 100.0 && net.ms[3] == 500.0,
         "the steal fit takes out steal, not the burst");
  Expect(SubtractSteal({5, 7, 6}, {0, 0, 0}).ms == std::vector<double>({5, 7, 6}),
         "without steal the times stay raw");
  Expect(SubtractSteal({100, 90, 80}, {0, 10, 20}).slope == 0.0, "the slope is floored at 0");

  const std::vector<Op> ops = {Op{7, "load", 0, 100, true}};
  const std::vector<Span> spans = {
      {"store.read_at", 0, 4'000'000, 1, 0, 7, 0, 0, 10},
      {"store.read_at", 1'000'000, 3'000'000, 2, 0, 7, 1, 0, 10},  // queued on track 0
      {"store.read_at", 0, 2'000'000, 3, 0, 7, 2, 1, 10},
      {"store.read_at", 0, 9'000'000, 4, 0, 8, 2, 1, 10},  // another operation
  };
  const SpanTotal total = TotalFor(spans, {"store.read_at"}, ops);
  Expect(total.calls == 3 && total.bytes == 30, "totals keep only the operation's spans");
  Expect(std::fabs(total.ms - 8.0) < 1e-9, "summed time counts overlapping calls twice");
  Expect(std::fabs(total.busy_ms - 6.0) < 1e-9, "busy time counts overlap on a track once");

  Counters before = {{"fs.fsync.calls", 3}, {"comm.allreduce.calls", 10}};
  Counters after = {{"fs.fsync.calls", 9}, {"comm.allreduce.calls", 14},
                    {"comm.barrier.calls", 2}};
  const Counters d = Delta(after, before);
  Expect(Get(d, "fs.fsync.calls") == 6 && SumMatching(d, "comm.", ".calls") == 6,
         "counter deltas and prefix sums");
}

// Runs the benchmark binary; returns its exit status and captures stdout.
int RunBinary(const std::string& command, std::string* output) {
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void BinaryChecks(const std::string& binary) {
  const std::string base = binary + " --seed 3 --seconds 1 --workdir .bench_work_test";
  std::string out;
  int rc = RunBinary(base + " --workload reshard_resume --trace 0", &out);
  Expect(rc == 0 && out.find("\"correct\": true, ") != std::string::npos &&
             out.find("\"failed\": 0,") != std::string::npos,
         "control run passes with every operation checked");

  out.clear();
  rc = RunBinary(base + " --workload reshard_resume --trace 0 --inject wrong_digest", &out);
  Expect(rc == 1 && out.find("\"correct\": false") != std::string::npos &&
             out.find("\"failed\": 0,") == std::string::npos,
         "a wrong reference digest fails the operations and the run");

  out.clear();
  rc = RunBinary(base + " --workload remote_mixed --trace 0 --inject wrong_digest", &out);
  Expect(rc == 1 && out.find("\"correct\": false") != std::string::npos,
         "a wrong digest fails the remote loads and the final native check");

  out.clear();
  rc = RunBinary(base + " --workload train_ckpt --trace 1 --inject zero_counter", &out);
  Expect(rc == 1 && out.find("GUARDRAIL: instrument train_ckpt.common.fsync_calls_per_save") !=
                        std::string::npos &&
             out.find("GUARDRAIL: instrument remote_mixed.store.server.rpcs") !=
                 std::string::npos,
         "a zeroed counter trips the traced run's guardrails");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::UnitChecks();
  if (argc > 1) {
    perfbench::BinaryChecks(argv[1]);
  }
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}

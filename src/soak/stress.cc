#include "src/soak/stress.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/comm/comm.h"
#include "src/obs/trace.h"
#include "src/tensor/tensor.h"

namespace ucp {
namespace {

int64_t ReadProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  int64_t value = 0;
  const size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      long long kb = 0;
      if (std::sscanf(line + field_len + 1, " %lld", &kb) == 1) {
        value = static_cast<int64_t>(kb);
      }
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

int64_t CurrentRssKb() { return ReadProcStatusKb("VmRSS"); }
int64_t PeakRssKb() { return ReadProcStatusKb("VmHWM"); }

StressReport RunLargeWorldStress(const StressOptions& options) {
  StressReport report;
  report.ranks = options.ranks;
  report.rounds = options.rounds;

  const bool trace_was_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < options.rounds; ++round) {
    World world(options.ranks);
    std::vector<int> all_ranks(static_cast<size_t>(options.ranks));
    for (int r = 0; r < options.ranks; ++r) {
      all_ranks[static_cast<size_t>(r)] = r;
    }
    auto group_state = world.CreateGroup(all_ranks);

    RunSpmd(options.ranks, [&](int rank) {
      ProcessGroup group(group_state, rank);
      for (int c = 0; c < options.collectives_per_round; ++c) {
        UCP_TRACE_SPAN("soak.stress.step");
        Tensor t = Tensor::Full({options.tensor_elems},
                                static_cast<float>(rank % 7) + static_cast<float>(c));
        group.AllReduceSum(t);
        group.Barrier();
      }
    });
  }
  report.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                       .count();
  const int sweeps = options.rounds * options.collectives_per_round;
  report.per_round_collective_seconds = sweeps > 0 ? report.seconds / sweeps : 0.0;

  report.trace_rings = obs::TraceRingCount();
  for (const obs::ThreadTrace& thread : obs::CollectThreadTraces()) {
    report.trace_events += thread.events.size();
    report.trace_dropped += thread.dropped;
  }
  const uint64_t total = report.trace_events + report.trace_dropped;
  report.trace_drop_rate =
      total > 0 ? static_cast<double>(report.trace_dropped) / static_cast<double>(total) : 0.0;

  report.rss_kb = CurrentRssKb();
  report.peak_rss_kb = PeakRssKb();

  obs::SetTraceEnabled(trace_was_enabled);
  return report;
}

}  // namespace ucp

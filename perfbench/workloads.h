// The benchmark's three workloads. Each drives the program through its public API only:
// a set-up that builds the jobs, stores and checkpoints the timed loop needs, then a closed
// loop of operations (one at a time, one process) for a fixed number of seconds. Every
// operation is checked; a mismatch or an error counts it as failed.
//
//   train_ckpt      4-rank TP2.PP1.DP2 training with SaveAsync every 2nd iteration
//   reshard_resume  cold-cache reshard resume (TP2.PP1 -> TP1.PP2) alternating with a
//                   same-strategy native resume of one committed checkpoint
//   remote_mixed    an in-process checkpoint daemon: a remote save commit alternating
//                   with a 4-connection remote UCP load
//
// A traced pass additionally installs the Store wrappers, records the benchmark's spans,
// reads counter deltas around operations, and runs probes (extra calls on the same inputs)
// between operations. The timed operations are the same calls either way.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct BenchOptions {
  uint64_t seed = 1;
  // Directory under which each workload instance creates its checkpoint roots and socket.
  std::string workdir = ".bench_work";
  // Test hooks proving the checks can fail: "zero_counter" zeroes an instrument reading,
  // "wrong_digest" corrupts a reference digest.
  std::string inject;
};

// One reported number. `moves` names the end-to-end metric (and workload) a per-layer
// metric should move. `json` is an end-to-end metric's key in the result line, shared by
// the workloads (perfbench/README.md); empty when the metric is printed only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;
  std::string detail;  // printed next to the value (tail percentile, ratio base, ...)
  std::string json;
};

struct PassResult {
  std::vector<Metric> e2e;     // end-to-end metrics, named as in the benchmark's README
  std::vector<Metric> layers;  // per-layer metrics (traced passes only)
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;  // guardrails that tripped
  std::vector<std::string> facts;       // digests, final loss: printed for the record
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds what the timed loop needs. `traced` installs the Store wrappers.
  virtual void Setup(bool traced) = 0;
  // Runs the closed loop for `seconds` of operations and checks every operation.
  virtual PassResult Run(double seconds, bool traced) = 0;
};

const std::vector<std::string>& WorkloadNames();
// `instance` keeps the directories of successive set-ups in one process apart.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const BenchOptions& options,
                                       int instance);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

#include "perfbench/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "perfbench/ledger.h"
#include "perfbench/timed_store.h"
#include "src/ckpt/async/engine.h"
#include "src/ckpt/async/snapshot.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/store/local_store.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/ucp/converter.h"
#include "src/ucp/elastic.h"
#include "src/ucp/loader.h"

namespace perfbench {
namespace {

using ucp::ParallelConfig;
using ucp::RankTrainer;
using ucp::Status;
using ucp::TrainingRun;

constexpr int kWorld = 4;
const ParallelConfig kSource{2, 1, 2, 1, 1, 1};  // TP2.PP1.DP2.SP1.Z1
const ParallelConfig kTarget{1, 2, 2, 1, 1, 1};  // TP1.PP2.DP2.SP1.Z1
constexpr int64_t kWarmIterations = 4;           // trained before a set-up checkpoint
constexpr int kProbeEvery = 4;                   // operations between probe rounds
constexpr double kMiB = 1024.0 * 1024.0;

// gpt-L of fig11/fig12: 6 layers, hidden 128, ffn 512 (19.4 MiB per save, 77 atoms).
ucp::TrainerConfig MakeConfig(const ParallelConfig& strategy, uint64_t seed) {
  ucp::TrainerConfig cfg;
  cfg.model = ucp::Gpt3Scaled();
  cfg.model.num_layers = 6;
  cfg.model.hidden = 128;
  cfg.model.ffn_hidden = 512;
  cfg.model.init_seed = 20240601 + seed;
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  cfg.lr.max_lr = 1e-3f;
  cfg.lr.min_lr = 1e-5f;
  cfg.lr.warmup_iters = 10;
  cfg.lr.decay_iters = 200;
  cfg.data_seed = seed;
  return cfg;
}

// ---- Checks --------------------------------------------------------------------------------

// One CRC per rank over its fp32 master, exp_avg and exp_avg_sq partitions and step count.
using Digest = std::vector<uint32_t>;

Digest StateDigest(TrainingRun& run) {
  Digest digest(static_cast<size_t>(run.world_size()));
  run.Run([&](RankTrainer& t) {
    const ucp::ZeroOptimizer& opt = t.optimizer();
    uint32_t crc = ucp::Crc32Init();
    for (const ucp::Tensor* state :
         {&opt.master_state_ref(), &opt.exp_avg_ref(), &opt.exp_avg_sq_ref()}) {
      crc = ucp::Crc32Update(crc, state->data(),
                             static_cast<size_t>(state->numel()) * sizeof(float));
    }
    const int64_t steps = opt.steps_taken();
    crc = ucp::Crc32Update(crc, &steps, sizeof(steps));
    digest[static_cast<size_t>(t.rank())] = ucp::Crc32Finalize(crc);
  });
  return digest;
}

std::string Hex(const Digest& digest) {
  std::string out;
  for (uint32_t d : digest) {
    char buf[12];
    std::snprintf(buf, sizeof(buf), "%s%08x", out.empty() ? "" : "-", d);
    out += buf;
  }
  return out;
}

// Overwrites every rank's optimizer state with zeros, so a load that installs nothing
// fails its digest check instead of passing on leftover state.
void Clobber(TrainingRun& run) {
  run.Run([](RankTrainer& t) {
    const ucp::Tensor zeros = ucp::Tensor::Zeros({t.optimizer().state_numel()});
    const Status s = t.optimizer().LoadState(zeros, zeros, zeros, 0);
    UCP_CHECK(s.ok()) << s.ToString();
  });
}

// Runs `body` on every rank under operation `op` (each rank's body opens a span named
// `span` when tracing) and returns the per-rank statuses.
std::vector<Status> OnRanks(TrainingRun& run, int64_t op, const char* span,
                            const std::function<Status(RankTrainer&)>& body) {
  std::vector<Status> statuses(static_cast<size_t>(run.world_size()));
  run.Run([&](RankTrainer& t) {
    ScopedContext context({op, 0, t.rank()});
    TimedSpan timed(span);
    statuses[static_cast<size_t>(t.rank())] = body(t);
  });
  return statuses;
}

bool AllOk(const std::vector<Status>& statuses) {
  return std::all_of(statuses.begin(), statuses.end(), [](const Status& s) { return s.ok(); });
}

std::string FirstError(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) {
      return s.ToString();
    }
  }
  return "ok";
}

// `<workdir>/<workload>.<pid>.<instance>`: distinct per process and per set-up.
std::string InstanceDir(const BenchOptions& options, const char* workload, int instance) {
  return options.workdir + "/" + workload + "." + std::to_string(getpid()) + "." +
         std::to_string(instance);
}

// Removes a workload instance's directory when the instance is torn down. Declared first
// in each workload so it outlives every object that writes into the directory.
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {
    UCP_CHECK(ucp::RemoveAll(path_).ok());
    UCP_CHECK(ucp::MakeDirs(path_).ok());
  }
  ~ScopedDir() { (void)ucp::RemoveAll(path_); }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Operation rows plus the failure tally of a pass. A deque keeps row references stable.
struct OpLog {
  std::deque<Op> ops;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Opens a row stamped now; the caller stamps end_ns when the timed call returns.
  Op& Begin(const std::string& kind) {
    ops.push_back(Op{SpanLog::Get().NextId(), kind, NowNs(), 0, false});
    return ops.back();
  }
  void Judge(Op& op, bool ok) {
    op.ok = ok;
    Count(ok);
  }
  void Count(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

void ReportFailure(const std::string& what, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), why.c_str());
}

Metric Layer(std::string name, double value, std::string unit, std::string moves,
             std::string detail = "") {
  return Metric{std::move(name), value, std::move(unit), std::move(moves), std::move(detail), ""};
}

// p50 and tail of `ms` as end-to-end metrics `<name>_p50` and `<name>_tail`, reported in
// the result line under `json_p50` (empty: printed only). Tails are printed only: the
// stall tail is a 2 ms call's scheduling jitter, and the others count the bursts of a
// shared host; across runs they spread near or past the largest bound the benchmark may set.
double AddSummary(PassResult& result, const std::string& name, const std::vector<double>& ms,
                  const std::string& json_p50, const std::string& note = "") {
  const Summary s = Summarize(ms);
  char detail[64];
  std::snprintf(detail, sizeof(detail), "p%.1f of n=%zu", s.tail_percentile, s.n);
  result.e2e.push_back(
      Metric{name + "_p50", s.p50, "ms", "", "n=" + std::to_string(s.n) + note, json_p50});
  result.e2e.push_back(Metric{name + "_tail", s.tail, "ms", "", detail + note, ""});
  return s.p50;
}

// AddSummary over the operations' times net of host CPU steal (`steal_ms`: one entry per
// operation, read just outside it). The detail records the fit and the raw p50.
double AddNetSummary(PassResult& result, const std::string& name, const std::vector<double>& ms,
                     const std::vector<double>& steal_ms, const std::string& json_p50) {
  const NetOfSteal net = SubtractSteal(ms, steal_ms);
  char note[128];
  std::snprintf(note, sizeof(note), ", net of steal (%.2f ms/ms, %.1f ms/op; raw p50 %.2f)",
                net.slope, net.mean_steal, Median(ms));
  return AddSummary(result, name, net.ms, json_p50, note);
}

// ---- Probes: extra calls on the workload's own inputs, between operations ------------------

// Crc32 throughput over a 1 MiB buffer (median of 16 passes).
double CrcMibPerSecond(uint64_t seed) {
  std::vector<uint8_t> buf(1 << 20);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  std::vector<double> rates;
  for (int i = 0; i < 16; ++i) {
    const int64_t t0 = NowNs();
    (void)ucp::Crc32(buf.data(), buf.size());
    rates.push_back(1.0 / (MsBetween(t0, NowNs()) * 1e-3));
  }
  return Median(rates);
}

// RankCheckpointSnapshot::CaptureFrom on every rank (wall ms), then
// SerializeSnapshotShards for all ranks' snapshots (summed ms, as the one-thread flusher
// pays it).
struct SaveProbe {
  std::vector<ucp::RankCheckpointSnapshot> snaps =
      std::vector<ucp::RankCheckpointSnapshot>(kWorld);
  std::vector<double> snapshot_ms;
  std::vector<double> serialize_ms;

  bool Run(TrainingRun& run) {
    const int64_t t0 = NowNs();
    run.Run([&](RankTrainer& t) { snaps[static_cast<size_t>(t.rank())].CaptureFrom(t); });
    snapshot_ms.push_back(MsBetween(t0, NowNs()));
    const int64_t t1 = NowNs();
    bool ok = true;
    for (const ucp::RankCheckpointSnapshot& snap : snaps) {
      ok = ok && ucp::SerializeSnapshotShards(snap).ok();
    }
    serialize_ms.push_back(MsBetween(t1, NowNs()));
    return ok;
  }
};

// ---- Per-layer metrics shared by workloads ------------------------------------------------

void AddViolations(PassResult& result, const std::vector<std::string>& violations) {
  result.violations.insert(result.violations.end(), violations.begin(), violations.end());
}

// The save path, from the wrapped Store the engine flushes through (local or remote), the
// engine's flush histogram and the fsync probe. `delta` spans the saves' windows. Also
// checks that writes and fsyncs were seen and that no save's residual is negative.
void AddSaveLayers(PassResult& result, const std::string& workload,
                   const std::vector<Span>& spans, const std::vector<Op>& saves,
                   const std::vector<double>& stall_ms, const std::vector<double>& commit_ms,
                   const Counters& delta, const BenchOptions& options) {
  const std::string commit = "save_commit_ms (" + workload + ")";
  const double n = static_cast<double>(saves.size());
  const SpanTotal writes = TotalFor(spans, {kWriteFileSpan}, saves);
  const SpanTotal commits = TotalFor(spans, {kCommitTagSpan}, saves);
  const SpanTotal gcs = TotalFor(spans, {kGcSpan}, saves);
  const SpanTotal all_calls =
      TotalFor(spans, {kWriteFileSpan, kCommitTagSpan, kGcSpan, kStagingSpan}, saves);
  const double flush_ms = Get(delta, "save.async.flush_seconds.sum") * 1e3 /
                          std::max(1.0, Get(delta, "save.async.flush_seconds.count"));
  double fsyncs = Get(delta, "probe.fsync.calls");
  if (options.inject == "zero_counter") {
    fsyncs = 0.0;
  }

  // Residual per save: commit latency not covered by the stall and the store calls.
  std::vector<Reading> residuals;
  std::vector<double> residual_ms;
  for (size_t i = 0; i < saves.size(); ++i) {
    const SpanTotal calls =
        TotalFor(spans, {kWriteFileSpan, kCommitTagSpan, kGcSpan, kStagingSpan}, {saves[i]});
    residual_ms.push_back(commit_ms[i] - stall_ms[i] - calls.ms);
    residuals.push_back({workload + ".save#" + std::to_string(i), residual_ms.back()});
  }

  auto& L = result.layers;
  L.push_back(Layer("ckpt.async.flush_ms", flush_ms, "ms", commit, "engine histogram"));
  L.push_back(Layer("ckpt.async.flush_self_ms", flush_ms - all_calls.ms / n, "ms", commit,
                    "flush minus timed store calls"));
  L.push_back(Layer("common.fsync_calls_per_save", fsyncs / n, "count", commit));
  L.push_back(Layer("common.fsync_ms_per_save", Get(delta, "probe.fsync.ms") / n, "ms",
                    commit));
  L.push_back(Layer("store.write_file_calls_per_save", writes.calls / n, "count", commit));
  L.push_back(Layer("store.write_file_ms_per_save", writes.ms / n, "ms", commit));
  L.push_back(Layer("store.write_mib_per_save", writes.bytes / kMiB / n, "MiB", commit));
  L.push_back(Layer("store.commit_tag_ms", commits.ms / std::max<int64_t>(1, commits.calls),
                    "ms", commit));
  L.push_back(Layer("store.gc_ms", gcs.ms / std::max<int64_t>(1, gcs.calls), "ms", commit));
  L.push_back(Layer("residual.save_commit_ms", Median(residual_ms), "ms", commit,
                    "median per save"));
  AddViolations(result, ZeroReadings({{workload + ".store.write_file_calls_per_save",
                                       writes.calls / n},
                                      {workload + ".common.fsync_calls_per_save", fsyncs / n}}));
  AddViolations(result, NegativeResiduals(residuals));
}

// A UCP load through the wrapped Store(s): calls, busy time and bytes per load from the
// wrappers, and the loader's own counters. `delta` spans the loads' windows.
void AddLoadLayers(PassResult& result, const std::string& workload, const std::string& moves,
                   const std::string& note, const std::vector<Span>& spans,
                   const std::vector<Op>& loads, const Counters& delta) {
  const double n = static_cast<double>(loads.size());
  const SpanTotal opens = TotalFor(spans, {kOpenReadSpan}, loads);
  const SpanTotal reads = TotalFor(spans, {kReadAtSpan}, loads);
  const double hits = Get(delta, "ucp.slice_cache.hits");
  const double misses = Get(delta, "ucp.slice_cache.misses");
  const std::string busy = note + (note.empty() ? "" : ", ") + "busy per handle";
  auto& L = result.layers;
  L.push_back(Layer("store.open_read_calls_per_load", opens.calls / n, "count", moves, note));
  L.push_back(Layer("store.open_read_ms_per_load", opens.busy_ms / n, "ms", moves, busy));
  L.push_back(Layer("store.read_at_calls_per_load", reads.calls / n, "count", moves, note));
  L.push_back(Layer("store.read_at_ms_per_load", reads.busy_ms / n, "ms", moves, busy));
  L.push_back(Layer("store.read_mib_per_load", reads.bytes / kMiB / n, "MiB", moves, note));
  L.push_back(Layer("ucp.mib_read_per_load", Get(delta, "tensor.io.bytes_read") / kMiB / n,
                    "MiB", moves, note));
  L.push_back(Layer("ucp.chunks_verified_per_load",
                    Get(delta, "tensor.io.chunks_verified") / n, "count", moves, note));
  char base[64];
  std::snprintf(base, sizeof(base), "%.0f hits of %.0f", hits, hits + misses);
  L.push_back(Layer("ucp.slice_cache.hit_ratio",
                    hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", moves, base));
  AddViolations(result,
                ZeroReadings({{workload + ".store.read_at_calls_per_load", reads.calls / n}}));
}

// =============================================================================================
// train_ckpt
// =============================================================================================

class TrainCkpt final : public Workload {
 public:
  TrainCkpt(const BenchOptions& options, int instance)
      : options_(options),
        dir_(InstanceDir(options, "train_ckpt", instance)) {}

  void Setup(bool traced) override {
    run_ = std::make_unique<TrainingRun>(MakeConfig(kSource, options_.seed));
    verify_ = std::make_unique<TrainingRun>(MakeConfig(kSource, options_.seed));
    std::shared_ptr<ucp::Store> store = std::make_shared<ucp::LocalStore>(dir_.path());
    if (traced) {
      timed_ = std::make_shared<TimedStore>(store, 0);
      store = timed_;
    }
    ucp::AsyncCheckpointOptions engine_options;
    engine_options.keep_last = 2;
    engine_ = std::make_unique<ucp::AsyncCheckpointEngine>(store, kWorld, engine_options);
    // Warm-up: two steps and one committed save fill the snapshot freelists.
    run_->Train(1, 2);
    run_->Run([&](RankTrainer& t) { UCP_CHECK(engine_->SaveAsync(t, 2).ok()); });
    UCP_CHECK(engine_->WaitForIteration(2).ok());
    next_ = 3;
  }

  PassResult Run(double seconds, bool traced) override;

 private:
  static constexpr int64_t kChunk = 4;  // iterations per Train call; saves on even ones
  static constexpr int64_t kPeriod = 2;  // iterations per save period

  struct SaveRecord {
    int64_t iteration = 0;
    int64_t op = 0;
    int64_t entry_ns[kWorld] = {};
    int64_t exit_ns[kWorld] = {};
    bool rank_ok[kWorld] = {};
    int64_t commit_ns = 0;
    bool committed = false;
    double steal_entry_ms = 0.0;  // HostStealMs() before rank 0's SaveAsync
    double steal_commit_ms = 0.0;  // and once the commit landed
  };

  // A chunk's wall time and host steal, plus rank 0's compute per iteration (from the end
  // of the previous iteration's hook to the start of this one's).
  struct ChunkTimes {
    std::vector<double> compute_ms;
    double wall_ms = 0.0;
    double steal_ms = 0.0;
  };

  // Trains [next_, next_ + n), saving on even iterations when `save`.
  ChunkTimes TrainChunk(int64_t n, bool save, std::deque<SaveRecord>& records,
                        std::vector<double>* losses);

  BenchOptions options_;
  ScopedDir dir_;
  std::unique_ptr<TrainingRun> run_;
  std::unique_ptr<TrainingRun> verify_;
  std::shared_ptr<TimedStore> timed_;
  std::unique_ptr<ucp::AsyncCheckpointEngine> engine_;
  int64_t next_ = 1;

  // The commit waiter: blocks on WaitForIteration for each save rank 0 hands it.
  std::mutex waiter_mu_;
  std::condition_variable waiter_cv_;
  std::deque<SaveRecord*> waiter_queue_;
  bool waiter_done_ = false;
};

TrainCkpt::ChunkTimes TrainCkpt::TrainChunk(int64_t n, bool save,
                                            std::deque<SaveRecord>& records,
                                            std::vector<double>* losses) {
  const int64_t first = next_;
  const int64_t last = next_ + n - 1;
  std::map<int64_t, SaveRecord*> chunk_saves;  // read-only while the ranks run
  for (int64_t it = first; save && it <= last; ++it) {
    if (it % 2 == 0) {
      SaveRecord& rec = records.emplace_back();
      rec.iteration = it;
      rec.op = SpanLog::Get().NextId();
      chunk_saves[it] = &rec;
      if (timed_ != nullptr) {
        timed_->BindTag(ucp::TagForIteration(it), Context{rec.op, 0, -1});
      }
    }
  }
  std::vector<std::pair<int64_t, int64_t>> marks;  // rank 0: (hook entry, hook exit)
  const double steal = HostStealMs();
  const int64_t start = NowNs();
  const std::vector<double> chunk_losses =
      run_->Train(first, last, [&](RankTrainer& t, int64_t it) {
        const int rank = t.rank();
        const int64_t entry = NowNs();
        auto found = chunk_saves.find(it);
        if (found != chunk_saves.end()) {
          SaveRecord& rec = *found->second;
          if (rank == 0) {
            rec.steal_entry_ms = HostStealMs();
          }
          ScopedContext context({rec.op, 0, rank});
          TimedSpan span("ckpt.save_async");
          rec.entry_ns[rank] = NowNs();
          rec.rank_ok[rank] = engine_->SaveAsync(t, it).ok();
          rec.exit_ns[rank] = NowNs();
          if (rank == 0) {
            std::lock_guard<std::mutex> lock(waiter_mu_);
            waiter_queue_.push_back(&rec);
            waiter_cv_.notify_one();
          }
        }
        if (rank == 0) {
          marks.emplace_back(entry, NowNs());
        }
      });
  ChunkTimes times;
  times.wall_ms = MsBetween(start, NowNs());
  times.steal_ms = HostStealMs() - steal;
  losses->insert(losses->end(), chunk_losses.begin(), chunk_losses.end());
  int64_t previous = start;
  for (const auto& [entry, exit] : marks) {
    times.compute_ms.push_back(MsBetween(previous, entry));
    previous = exit;
  }
  next_ = last + 1;
  return times;
}

PassResult TrainCkpt::Run(double seconds, bool traced) {
  PassResult result;
  OpLog log;
  std::vector<double> losses;
  std::deque<SaveRecord> records;
  SaveProbe save_probe;
  std::vector<double> crc_rates;

  // Traced only: a checkpoint-free stretch, the plain-training baseline.
  std::vector<double> no_ckpt_ms;
  if (traced) {
    no_ckpt_ms = TrainChunk(6, false, records, &losses).compute_ms;
  }

  waiter_done_ = false;
  std::thread waiter([&] {
    for (;;) {
      SaveRecord* rec = nullptr;
      {
        std::unique_lock<std::mutex> lock(waiter_mu_);
        waiter_cv_.wait(lock, [&] { return waiter_done_ || !waiter_queue_.empty(); });
        if (waiter_queue_.empty()) {
          return;
        }
        rec = waiter_queue_.front();
        waiter_queue_.pop_front();
      }
      const Status s = engine_->WaitForIteration(rec->iteration);
      rec->commit_ns = NowNs();
      rec->steal_commit_ms = HostStealMs();
      rec->committed = s.ok();
      if (!s.ok()) {
        ReportFailure("save of iteration " + std::to_string(rec->iteration), s.ToString());
      }
    }
  });

  const Counters before = ReadCounters();
  // A save period is half a chunk: two iterations, one of them saving, so each holds one
  // stall and one flush's overlap with training.
  std::vector<double> compute_ms, period_ms, period_steal_ms;
  double wall_ms = 0.0;
  for (int chunk = 0; wall_ms < seconds * 1e3; ++chunk) {
    const ChunkTimes times = TrainChunk(kChunk, true, records, &losses);
    wall_ms += times.wall_ms;
    period_ms.push_back(times.wall_ms * kPeriod / kChunk);
    period_steal_ms.push_back(times.steal_ms * kPeriod / kChunk);
    compute_ms.insert(compute_ms.end(), times.compute_ms.begin(), times.compute_ms.end());
    if (traced && chunk % kProbeEvery == 0) {
      // Let the chunk's last save land first so the probes do not contend with a flush.
      (void)engine_->WaitForIteration(next_ - 1);
      log.Count(save_probe.Run(*run_));
      crc_rates.push_back(CrcMibPerSecond(options_.seed));
    }
  }
  {
    std::lock_guard<std::mutex> lock(waiter_mu_);
    waiter_done_ = true;
    waiter_cv_.notify_one();
  }
  waiter.join();
  const Status drained = engine_->WaitAll();
  const Counters delta = Delta(ReadCounters(), before);

  // Per save: the slowest rank's SaveAsync (stall) and entry-to-commit (commit latency).
  std::vector<double> stall_ms, commit_ms, commit_steal_ms, save_async_ms;
  std::vector<Op> save_ops;
  for (const SaveRecord& rec : records) {
    const int64_t entry = *std::min_element(rec.entry_ns, rec.entry_ns + kWorld);
    double stall = 0.0;
    bool ok = rec.committed;
    for (int r = 0; r < kWorld; ++r) {
      stall = std::max(stall, MsBetween(rec.entry_ns[r], rec.exit_ns[r]));
      save_async_ms.push_back(MsBetween(rec.entry_ns[r], rec.exit_ns[r]));
      ok = ok && rec.rank_ok[r];
    }
    stall_ms.push_back(stall);
    commit_ms.push_back(MsBetween(entry, rec.commit_ns));
    commit_steal_ms.push_back(rec.steal_commit_ms - rec.steal_entry_ms);
    save_ops.push_back(Op{rec.op, "save", entry, rec.commit_ns, ok});
    log.Count(ok);
  }
  for (double loss : losses) {
    log.Count(std::isfinite(loss));
  }

  // The newest committed tag must load natively bit-exact to the live state.
  const int64_t last = next_ - 1;
  ucp::LocalStore reader(dir_.path());
  const ucp::Result<std::string> newest = ucp::FindLatestValidTag(reader);
  bool final_ok = drained.ok() && newest.ok() && *newest == ucp::TagForIteration(last);
  Digest live = StateDigest(*run_);
  if (options_.inject == "wrong_digest") {
    live[0] ^= 1;
  }
  Digest loaded;
  if (final_ok) {
    Clobber(*verify_);
    final_ok = AllOk(OnRanks(*verify_, 0, "ckpt.native_load", [&](RankTrainer& t) {
      return ucp::LoadDistributedCheckpoint(dir_.path(), *newest, t);
    }));
    loaded = StateDigest(*verify_);
    final_ok = final_ok && loaded == live;
  }
  log.Count(final_ok);
  if (!final_ok) {
    ReportFailure("final native check", "newest=" + (newest.ok() ? *newest : "none") +
                                            " live=" + Hex(live) + " loaded=" + Hex(loaded));
  }
  char loss[96];
  std::snprintf(loss, sizeof(loss), "train_ckpt final loss %.6f at iteration %lld",
                losses.back(), static_cast<long long>(last));
  result.facts.push_back(loss);
  result.facts.push_back("train_ckpt live digest " + Hex(live) + ", newest tag " +
                         (newest.ok() ? *newest : "none") + " loads " + Hex(loaded));

  const double period_p50 =
      AddNetSummary(result, "save_period_ms", period_ms, period_steal_ms, "op_ms_p50");
  result.e2e.push_back(Metric{"train_it_per_s", kPeriod * 1e3 / period_p50, "1/s", "",
                              "from save_period_ms_p50, over " +
                                  std::to_string(period_ms.size()) + " chunks of " +
                                  std::to_string(kChunk) + " iterations",
                              ""});
  AddSummary(result, "save_stall_ms", stall_ms, "save_stall_ms_p50");
  AddNetSummary(result, "save_commit_ms", commit_ms, commit_steal_ms, "save_commit_ms_p50");
  result.attempted = log.attempted;
  result.failed = log.failed;
  if (!traced) {
    return result;
  }

  const std::vector<Span> spans = SpanLog::Get().Snapshot();
  const double iterations = static_cast<double>(compute_ms.size());
  const std::string stall = "save_stall_ms (train_ckpt)";
  const std::string commit = "save_commit_ms (train_ckpt)";
  const std::string rate = "train_it_per_s (train_ckpt)";
  auto& L = result.layers;
  L.push_back(Layer("runtime.train_iter_ms", Median(compute_ms), "ms", rate,
                    "rank 0, compute only"));
  L.push_back(Layer("runtime.train_iter_ms_no_ckpt", Median(no_ckpt_ms), "ms", rate,
                    "rank 0, no saves"));
  L.push_back(Layer("comm.wait_ms_per_iter",
                    SumMatching(delta, "comm.", ".wait_seconds.sum") * 1e3 / iterations, "ms",
                    rate, "summed over ranks"));
  L.push_back(Layer("comm.bytes_per_iter",
                    SumMatching(delta, "comm.", ".bytes") / kMiB / iterations, "MiB", rate));
  L.push_back(Layer("ckpt.save_async_ms", Mean(save_async_ms), "ms", stall, "mean per rank"));
  L.push_back(Layer("ckpt.snapshot_ms", Median(save_probe.snapshot_ms), "ms", stall,
                    "probe, all ranks"));
  L.push_back(Layer("tensor.serialize_ms_per_save", Median(save_probe.serialize_ms), "ms",
                    commit, "probe, all ranks"));
  L.push_back(Layer("common.crc32_mib_s", Median(crc_rates), "MiB/s", commit, "probe, 1 MiB"));
  AddSaveLayers(result, "train_ckpt", spans, save_ops, stall_ms, commit_ms, delta, options_);
  result.attempted = log.attempted;
  result.failed = log.failed;
  return result;
}

// =============================================================================================
// reshard_resume
// =============================================================================================

class ReshardResume final : public Workload {
 public:
  ReshardResume(const BenchOptions& options, int instance)
      : options_(options),
        dir_(InstanceDir(options, "reshard_resume", instance)),
        ckpt_(dir_.path() + "/ckpt"),
        tag_(ucp::TagForIteration(kWarmIterations)) {}

  void Setup(bool /*traced*/) override {
    TrainingRun source(MakeConfig(kSource, options_.seed));
    source.Train(1, kWarmIterations);
    source.Run([&](RankTrainer& t) {
      const Status s = ucp::SaveDistributedCheckpoint(ckpt_, t, kWarmIterations);
      UCP_CHECK(s.ok()) << s.ToString();
    });
    source_digest_ = StateDigest(source);
    reshard_ = std::make_unique<TrainingRun>(MakeConfig(kTarget, options_.seed));
    native_ = std::make_unique<TrainingRun>(MakeConfig(kSource, options_.seed));
    // The independent reference: the serial (sliced=false) loader on a separate conversion.
    const std::string reference = dir_.path() + "/reference.ucp";
    UCP_CHECK(ucp::ConvertToUcp(ckpt_, tag_, reference).ok());
    reshard_->Run([&](RankTrainer& t) {
      const Status s = ucp::LoadUcpCheckpoint(reference, t, {.sliced = false});
      UCP_CHECK(s.ok()) << s.ToString();
    });
    reference_digest_ = StateDigest(*reshard_);
    UCP_CHECK(ucp::RemoveAll(reference).ok());
    if (options_.inject == "wrong_digest") {
      reference_digest_[0] ^= 1;
    }
  }

  PassResult Run(double seconds, bool traced) override;

 private:
  struct Resume {
    double ms = 0.0;
    double steal_ms = 0.0;     // host CPU steal during the call
    double convert_ms = 0.0;   // slowest rank's ResumeReport::convert_seconds
    double load_ms = 0.0;      // slowest rank's ResumeReport::load_seconds
    double residual_ms = 0.0;  // op time not covered by the slowest rank's convert + load
  };

  // One timed ResumeElasticFromTag on every rank of `run`, after clobbering its state;
  // checks the path taken and the digest installed.
  Resume TimedResume(OpLog& log, TrainingRun& run, const char* kind,
                     ucp::ResumeReport::Path path, const Digest& expected, bool traced,
                     Counters& counters);
  // Load, native-load, native-attempt, plan, convert and CRC probes.
  void Probe(OpLog& log);

  BenchOptions options_;
  ScopedDir dir_;
  std::string ckpt_;
  std::string tag_;
  Digest source_digest_;
  Digest reference_digest_;
  std::unique_ptr<TrainingRun> reshard_;
  std::unique_ptr<TrainingRun> native_;

  // Probe results of a traced pass.
  std::vector<Op> load_probes_;
  Counters load_delta_;
  std::vector<double> native_load_ms_, native_attempt_ms_, plan_ms_, crc_rates_;
  std::vector<ucp::ConvertStats> converts_;
};

ReshardResume::Resume ReshardResume::TimedResume(OpLog& log, TrainingRun& run,
                                                 const char* kind,
                                                 ucp::ResumeReport::Path path,
                                                 const Digest& expected, bool traced,
                                                 Counters& counters) {
  Clobber(run);
  std::vector<ucp::ResumeReport> reports(kWorld);
  const Counters before = traced ? ReadCounters() : Counters{};
  const double steal = HostStealMs();
  Op& op = log.Begin(kind);
  const std::vector<Status> statuses =
      OnRanks(run, op.id, "ucp.resume_from_tag", [&](RankTrainer& t) {
        ucp::Result<ucp::ResumeReport> report = ucp::ResumeElasticFromTag(ckpt_, tag_, t);
        if (!report.ok()) {
          return report.status();
        }
        reports[static_cast<size_t>(t.rank())] = *report;
        return ucp::OkStatus();
      });
  op.end_ns = NowNs();
  const double steal_ms = HostStealMs() - steal;
  if (traced) {
    for (const auto& [name, value] : Delta(ReadCounters(), before)) {
      counters[name] += value;
    }
  }
  const Digest digest = StateDigest(run);
  const bool ok = AllOk(statuses) && reports[0].path == path && digest == expected;
  if (!ok) {
    ReportFailure(kind, FirstError(statuses) + " digest " + Hex(digest) + " expected " +
                            Hex(expected));
  }
  log.Judge(op, ok);
  Resume r;
  r.ms = op.ms();
  r.steal_ms = steal_ms;
  double covered = 0.0;
  for (const ucp::ResumeReport& report : reports) {
    r.convert_ms = std::max(r.convert_ms, report.convert_seconds * 1e3);
    r.load_ms = std::max(r.load_ms, report.load_seconds * 1e3);
    covered = std::max(covered, (report.convert_seconds + report.load_seconds) * 1e3);
  }
  r.residual_ms = r.ms - covered;
  return r;
}

void ReshardResume::Probe(OpLog& log) {
  // LoadUcpCheckpoint(Store&) on the conversion the reshard just made, through the timing
  // wrapper: it must install the reference digest like the unwrapped loads inside
  // ResumeElasticFromTag do, so the wrapper provably changes nothing.
  TimedStore timed(std::make_shared<ucp::LocalStore>(ckpt_), 0);
  Clobber(*reshard_);
  const Counters before = ReadCounters();
  Op& op = log.Begin("probe.load");
  timed.SetDefaultContext({op.id, 0, -1});
  const std::vector<Status> statuses = OnRanks(*reshard_, op.id, "ucp.load", [&](RankTrainer& t) {
    return ucp::LoadUcpCheckpoint(timed, tag_ + ".ucp", t);
  });
  op.end_ns = NowNs();
  for (const auto& [name, value] : Delta(ReadCounters(), before)) {
    load_delta_[name] += value;
  }
  const bool same = AllOk(statuses) && StateDigest(*reshard_) == reference_digest_;
  if (!same) {
    ReportFailure("wrapped load probe", FirstError(statuses));
  }
  log.Judge(op, same);
  load_probes_.push_back(op);

  int64_t t0 = NowNs();
  log.Count(AllOk(OnRanks(*native_, 0, "ckpt.native_load", [&](RankTrainer& t) {
    return ucp::LoadDistributedCheckpoint(ckpt_, tag_, t);
  })));
  native_load_ms_.push_back(MsBetween(t0, NowNs()));

  // The native attempt a reshard makes first, and which must be rejected.
  t0 = NowNs();
  const std::vector<Status> attempts =
      OnRanks(*reshard_, 0, "ucp.native_attempt", [&](RankTrainer& t) {
        return ucp::LoadDistributedCheckpoint(ckpt_, tag_, t);
      });
  native_attempt_ms_.push_back(MsBetween(t0, NowNs()));
  log.Count(std::all_of(attempts.begin(), attempts.end(), [](const Status& s) {
    return s.code() == ucp::StatusCode::kFailedPrecondition;
  }));

  t0 = NowNs();
  const ucp::ModelConfig model = MakeConfig(kTarget, options_.seed).model;
  bool planned = true;
  for (int r = 0; r < kWorld; ++r) {
    planned = planned && !ucp::GenUcpMetadata(model, kTarget, reshard_->topology().CoordOf(r))
                              .assignments.empty();
  }
  plan_ms_.push_back(MsBetween(t0, NowNs()));
  log.Count(planned);

  const std::string probe_dir = dir_.path() + "/probe.ucp";
  const ucp::Result<ucp::ConvertStats> stats = ucp::ConvertToUcp(ckpt_, tag_, probe_dir);
  log.Count(stats.ok());
  if (stats.ok()) {
    converts_.push_back(*stats);
  }
  UCP_CHECK(ucp::RemoveAll(probe_dir).ok());
  crc_rates_.push_back(CrcMibPerSecond(options_.seed));
}

PassResult ReshardResume::Run(double seconds, bool traced) {
  PassResult result;
  OpLog log;
  std::vector<Resume> reshards, natives;
  std::vector<double> pair_rates;
  Counters reshard_delta, native_delta;
  const std::string ucp_dir = ckpt_ + "/" + tag_ + ".ucp";
  double elapsed_ms = 0.0;
  for (int pair = 0; elapsed_ms < seconds * 1e3; ++pair) {
    UCP_CHECK(ucp::RemoveAll(ucp_dir).ok());  // cold cache: the reshard converts
    reshards.push_back(TimedResume(log, *reshard_, "reshard",
                                   ucp::ResumeReport::Path::kUcpConverted, reference_digest_,
                                   traced, reshard_delta));
    if (traced && pair % kProbeEvery == 0) {
      Probe(log);
    }
    natives.push_back(TimedResume(log, *native_, "native", ucp::ResumeReport::Path::kNative,
                                  source_digest_, traced, native_delta));
    const double pair_ms = reshards.back().ms + natives.back().ms;
    pair_rates.push_back(2.0 / (pair_ms * 1e-3));
    elapsed_ms += pair_ms;
  }
  result.facts.push_back("reshard_resume source digest " + Hex(source_digest_) +
                         ", reference (sliced=false) digest " + Hex(reference_digest_));

  auto column = [](const std::vector<Resume>& rows, double Resume::*field) {
    std::vector<double> out;
    for (const Resume& r : rows) {
      out.push_back(r.*field);
    }
    return out;
  };
  result.e2e.push_back(Metric{"resumes_per_s", Median(pair_rates), "1/s", "",
                              "median of " + std::to_string(pair_rates.size()) +
                                  " reshard + native pairs",
                              ""});
  AddNetSummary(result, "reshard_resume_ms", column(reshards, &Resume::ms),
                column(reshards, &Resume::steal_ms), "op_ms_p50");
  AddNetSummary(result, "native_resume_ms", column(natives, &Resume::ms),
                column(natives, &Resume::steal_ms), "native_resume_ms_p50");
  result.attempted = log.attempted;
  result.failed = log.failed;
  if (!traced) {
    return result;
  }

  std::vector<Reading> residuals;
  for (size_t i = 0; i < reshards.size(); ++i) {
    residuals.push_back({"reshard_resume.reshard#" + std::to_string(i), reshards[i].residual_ms});
    residuals.push_back({"reshard_resume.native#" + std::to_string(i), natives[i].residual_ms});
  }
  const double resumes = static_cast<double>(reshards.size() + natives.size());
  const double n_reshard = static_cast<double>(reshards.size());
  Counters all = reshard_delta;
  for (const auto& [name, value] : native_delta) {
    all[name] += value;
  }
  double fsyncs = Get(reshard_delta, "probe.fsync.calls");
  if (options_.inject == "zero_counter") {
    fsyncs = 0.0;
  }
  std::vector<double> extract_ms, union_ms, atoms, mib_read, mib_written;
  for (const ucp::ConvertStats& c : converts_) {
    extract_ms.push_back(c.extract_seconds * 1e3);
    union_ms.push_back(c.union_seconds * 1e3);
    atoms.push_back(c.atoms_written);
    mib_read.push_back(static_cast<double>(c.bytes_read) / kMiB);
    mib_written.push_back(static_cast<double>(c.bytes_written) / kMiB);
  }

  const std::string both = "reshard_resume_ms, native_resume_ms (reshard_resume)";
  const std::string reshard = "reshard_resume_ms (reshard_resume)";
  const std::string native = "native_resume_ms (reshard_resume)";
  auto& L = result.layers;
  L.push_back(Layer("comm.calls_per_resume", SumMatching(all, "comm.", ".calls") / resumes,
                    "count", both));
  L.push_back(Layer("comm.wait_ms_per_resume",
                    SumMatching(all, "comm.", ".wait_seconds.sum") * 1e3 / resumes, "ms", both,
                    "summed over ranks"));
  L.push_back(Layer("ckpt.native_load_ms", Median(native_load_ms_), "ms", native, "probe"));
  L.push_back(Layer("common.crc32_mib_s", Median(crc_rates_), "MiB/s", reshard,
                    "probe, 1 MiB"));
  L.push_back(Layer("common.fsync_calls_per_resume", fsyncs / n_reshard, "count", reshard,
                    "per reshard"));
  L.push_back(Layer("common.fsync_ms_per_resume",
                    Get(reshard_delta, "probe.fsync.ms") / n_reshard, "ms", reshard,
                    "per reshard"));
  L.push_back(Layer("ucp.convert_ms", Median(column(reshards, &Resume::convert_ms)), "ms",
                    reshard, "ResumeReport, slowest rank"));
  L.push_back(Layer("ucp.load_ms", Median(column(reshards, &Resume::load_ms)), "ms", reshard,
                    "ResumeReport, slowest rank"));
  L.push_back(Layer("ucp.convert.extract_ms", Median(extract_ms), "ms", reshard, "probe"));
  L.push_back(Layer("ucp.convert.union_ms", Median(union_ms), "ms", reshard, "probe"));
  L.push_back(Layer("ucp.convert.atoms", Median(atoms), "count", reshard, "probe"));
  L.push_back(Layer("ucp.convert.mib_read", Median(mib_read), "MiB", reshard, "probe"));
  L.push_back(Layer("ucp.convert.mib_written", Median(mib_written), "MiB", reshard, "probe"));
  L.push_back(Layer("ucp.plan_ms", Median(plan_ms_), "ms", reshard, "probe, 4 ranks"));
  L.push_back(Layer("ucp.native_attempt_ms", Median(native_attempt_ms_), "ms", reshard,
                    "probe"));
  AddLoadLayers(result, "reshard_resume", reshard, "load probe",
                SpanLog::Get().Snapshot(), load_probes_, load_delta_);
  L.push_back(Layer("residual.reshard_resume_ms", Median(column(reshards, &Resume::residual_ms)),
                    "ms", reshard, "median per op"));
  L.push_back(Layer("residual.native_resume_ms", Median(column(natives, &Resume::residual_ms)),
                    "ms", native, "median per op"));
  AddViolations(result, ZeroReadings({{"reshard_resume.common.fsync_calls_per_resume",
                                       fsyncs / n_reshard}}));
  AddViolations(result, NegativeResiduals(residuals));
  result.attempted = log.attempted;
  result.failed = log.failed;
  return result;
}

// =============================================================================================
// remote_mixed
// =============================================================================================

class RemoteMixed final : public Workload {
 public:
  RemoteMixed(const BenchOptions& options, int instance)
      : options_(options),
        dir_(InstanceDir(options, "remote_mixed", instance)),
        root_(dir_.path() + "/root"),
        ucp_rel_(ucp::TagForIteration(kWarmIterations) + ".ucp") {}

  ~RemoteMixed() override {
    engine_.reset();
    timed_.clear();
    stores_.clear();
    if (server_ != nullptr) {
      server_->Shutdown(false);
    }
  }

  void Setup(bool traced) override;
  PassResult Run(double seconds, bool traced) override;

 private:
  static constexpr char kJob[] = "live";

  struct Write {
    Op op;              // from SaveAsync entry to the observed commit
    double op_ms = 0;   // the whole operation, including its training iteration
    double stall_ms = 0;
    double commit_ms = 0;
    double commit_steal_ms = 0;  // host CPU steal from before SaveAsync to the commit
  };
  // One remote write: a training iteration, SaveAsync on every rank, and a blocked wait
  // for the commit.
  Write TimedWrite(OpLog& log);
  ucp::Store& StoreFor(size_t rank) {
    return timed_.empty() ? static_cast<ucp::Store&>(*stores_[rank])
                          : static_cast<ucp::Store&>(*timed_[rank]);
  }

  BenchOptions options_;
  ScopedDir dir_;
  std::string root_;
  std::string ucp_rel_;
  std::unique_ptr<ucp::StoreServer> server_;
  std::vector<std::shared_ptr<ucp::RemoteStore>> stores_;  // one connection per loading rank
  std::vector<std::shared_ptr<TimedStore>> timed_;         // traced: wrappers of stores_
  std::unique_ptr<ucp::AsyncCheckpointEngine> engine_;
  std::unique_ptr<TrainingRun> source_;
  std::unique_ptr<TrainingRun> target_;
  std::unique_ptr<TrainingRun> verify_;
  Digest reference_digest_;
  int64_t next_ = 1;
};

void RemoteMixed::Setup(bool traced) {
  UCP_CHECK(ucp::MakeDirs(root_).ok());
  ucp::StoreServerOptions server_options;
  server_options.root = root_;
  // Relative: a unix socket path is limited to ~108 bytes, the checkout path is not.
  server_options.listen = "unix:" + dir_.path() + "/d.sock";
  ucp::Result<std::unique_ptr<ucp::StoreServer>> server =
      ucp::StoreServer::Start(server_options);
  UCP_CHECK(server.ok()) << server.status().ToString();
  server_ = std::move(*server);
  for (int r = 0; r < kWorld; ++r) {
    ucp::Result<std::shared_ptr<ucp::RemoteStore>> store =
        ucp::RemoteStore::Connect(server_->endpoint());
    UCP_CHECK(store.ok()) << store.status().ToString();
    stores_.push_back(*store);
    if (traced) {
      timed_.push_back(std::make_shared<TimedStore>(*store, r));
    }
  }

  // The UCP checkpoint the reads load: a TP2.PP1 save through the daemon, converted once.
  source_ = std::make_unique<TrainingRun>(MakeConfig(kSource, options_.seed));
  source_->Train(1, kWarmIterations);
  source_->Run([&](RankTrainer& t) {
    const Status s = ucp::SaveDistributedCheckpoint(*stores_[0], t, kWarmIterations);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  UCP_CHECK(ucp::ConvertToUcp(root_, ucp::TagForIteration(kWarmIterations),
                              root_ + "/" + ucp_rel_)
                .ok());
  target_ = std::make_unique<TrainingRun>(MakeConfig(kTarget, options_.seed));
  target_->Run([&](RankTrainer& t) {
    const Status s = ucp::LoadUcpCheckpoint(root_ + "/" + ucp_rel_, t, {.sliced = false});
    UCP_CHECK(s.ok()) << s.ToString();
  });
  reference_digest_ = StateDigest(*target_);
  if (options_.inject == "wrong_digest") {
    reference_digest_[0] ^= 1;
  }
  verify_ = std::make_unique<TrainingRun>(MakeConfig(kSource, options_.seed));

  // The saving engine reuses the first loading rank's connection: 4 connections in all.
  ucp::AsyncCheckpointOptions engine_options;
  engine_options.job = kJob;
  engine_options.keep_last = 2;
  engine_ = std::make_unique<ucp::AsyncCheckpointEngine>(
      traced ? std::shared_ptr<ucp::Store>(timed_[0]) : stores_[0], kWorld, engine_options);
  // Warm-up: one remote write and one remote load.
  next_ = kWarmIterations + 1;
  OpLog warm;
  (void)TimedWrite(warm);
  UCP_CHECK(warm.failed == 0);
  target_->Run([&](RankTrainer& t) {
    UCP_CHECK(ucp::LoadUcpCheckpoint(*stores_[static_cast<size_t>(t.rank())], ucp_rel_, t)
                  .ok());
  });
}

RemoteMixed::Write RemoteMixed::TimedWrite(OpLog& log) {
  const int64_t it = next_++;
  Op& op = log.Begin("save");
  if (!timed_.empty()) {
    timed_[0]->BindTag(ucp::TagForIteration(kJob, it), Context{op.id, 0, -1});
  }
  const std::vector<double> losses = source_->Train(it, it);
  const double steal = HostStealMs();
  int64_t entry[kWorld] = {};
  int64_t exit[kWorld] = {};
  const std::vector<Status> statuses =
      OnRanks(*source_, op.id, "ckpt.save_async", [&](RankTrainer& t) {
        entry[t.rank()] = NowNs();
        const Status s = engine_->SaveAsync(t, it);
        exit[t.rank()] = NowNs();
        return s;
      });
  const Status committed = engine_->WaitForIteration(it);
  op.end_ns = NowNs();
  const double steal_ms = HostStealMs() - steal;
  const bool ok = AllOk(statuses) && committed.ok() && std::isfinite(losses.back());
  if (!ok) {
    ReportFailure("remote save of iteration " + std::to_string(it),
                  FirstError(statuses) + " / " + committed.ToString());
  }
  log.Judge(op, ok);
  Write w;
  w.op_ms = op.ms();
  w.op = op;
  w.op.start_ns = *std::min_element(entry, entry + kWorld);
  for (int r = 0; r < kWorld; ++r) {
    w.stall_ms = std::max(w.stall_ms, MsBetween(entry[r], exit[r]));
  }
  w.commit_ms = w.op.ms();
  w.commit_steal_ms = steal_ms;
  return w;
}

PassResult RemoteMixed::Run(double seconds, bool traced) {
  PassResult result;
  OpLog log;
  std::vector<Write> writes;
  std::vector<Op> load_ops;
  std::vector<double> load_ms, load_steal_ms, slowest_rank_ms, pair_rates, crc_rates;
  std::vector<Reading> residuals;
  std::vector<double> load_residual;
  Counters save_delta, load_delta;
  double elapsed_ms = 0.0;

  for (int pair = 0; elapsed_ms < seconds * 1e3; ++pair) {
    Counters before = traced ? ReadCounters() : Counters{};
    writes.push_back(TimedWrite(log));
    if (traced) {
      for (const auto& [name, value] : Delta(ReadCounters(), before)) {
        save_delta[name] += value;
      }
    }

    Clobber(*target_);
    before = traced ? ReadCounters() : Counters{};
    const double steal = HostStealMs();
    Op& op = log.Begin("load");
    for (const std::shared_ptr<TimedStore>& t : timed_) {
      t->SetDefaultContext({op.id, 0, -1});
    }
    std::vector<int64_t> rank_ns(kWorld);
    const std::vector<Status> statuses =
        OnRanks(*target_, op.id, "ucp.load", [&](RankTrainer& t) {
          const size_t r = static_cast<size_t>(t.rank());
          const int64_t t0 = NowNs();
          const Status s = ucp::LoadUcpCheckpoint(StoreFor(r), ucp_rel_, t);
          rank_ns[r] = NowNs() - t0;
          return s;
        });
    op.end_ns = NowNs();
    load_steal_ms.push_back(HostStealMs() - steal);
    if (traced) {
      for (const auto& [name, value] : Delta(ReadCounters(), before)) {
        load_delta[name] += value;
      }
    }
    const Digest digest = StateDigest(*target_);
    const bool ok = AllOk(statuses) && digest == reference_digest_;
    if (!ok) {
      ReportFailure("remote load", FirstError(statuses) + " digest " + Hex(digest) +
                                       " expected " + Hex(reference_digest_));
    }
    log.Judge(op, ok);
    load_ops.push_back(op);
    load_ms.push_back(op.ms());
    const double slowest = *std::max_element(rank_ns.begin(), rank_ns.end()) * 1e-6;
    slowest_rank_ms.push_back(slowest);
    load_residual.push_back(op.ms() - slowest);
    residuals.push_back({"remote_mixed.load#" + std::to_string(load_ops.size()),
                         load_residual.back()});
    const double pair_ms = writes.back().op_ms + op.ms();
    pair_rates.push_back(2.0 / (pair_ms * 1e-3));
    elapsed_ms += pair_ms;
    if (traced && pair % kProbeEvery == 0) {
      crc_rates.push_back(CrcMibPerSecond(options_.seed));
    }
  }
  const Status drained = engine_->WaitAll();

  // The newest committed tag of the job must load natively bit-exact to the live state.
  ucp::LocalStore reader(root_);
  const ucp::Result<std::string> newest = ucp::FindLatestValidTag(reader, kJob);
  bool final_ok =
      drained.ok() && newest.ok() && *newest == ucp::TagForIteration(kJob, next_ - 1);
  Digest live = StateDigest(*source_);
  if (options_.inject == "wrong_digest") {
    live[0] ^= 1;
  }
  Digest loaded;
  if (final_ok) {
    Clobber(*verify_);
    final_ok = AllOk(OnRanks(*verify_, 0, "ckpt.native_load", [&](RankTrainer& t) {
      return ucp::LoadDistributedCheckpoint(root_, *newest, t);
    }));
    loaded = StateDigest(*verify_);
    final_ok = final_ok && loaded == live;
  }
  log.Count(final_ok);
  if (!final_ok) {
    ReportFailure("final native check", "live=" + Hex(live) + " loaded=" + Hex(loaded));
  }
  result.facts.push_back("remote_mixed reference (sliced=false) digest " +
                         Hex(reference_digest_) + ", live digest " + Hex(live) +
                         ", newest tag " + (newest.ok() ? *newest : "none") + " loads " +
                         Hex(loaded));

  std::vector<double> commit_ms, commit_steal_ms, stall_ms;
  std::vector<Op> save_ops;
  for (const Write& w : writes) {
    commit_ms.push_back(w.commit_ms);
    commit_steal_ms.push_back(w.commit_steal_ms);
    stall_ms.push_back(w.stall_ms);
    save_ops.push_back(w.op);
  }
  result.e2e.push_back(Metric{"ops_per_s", Median(pair_rates), "1/s", "",
                              "median of " + std::to_string(pair_rates.size()) +
                                  " write + load pairs",
                              ""});
  AddNetSummary(result, "remote_load_ms", load_ms, load_steal_ms, "op_ms_p50");
  AddSummary(result, "save_stall_ms", stall_ms, "save_stall_ms_p50");
  AddNetSummary(result, "save_commit_ms", commit_ms, commit_steal_ms, "save_commit_ms_p50");
  result.attempted = log.attempted;
  result.failed = log.failed;
  if (!traced) {
    return result;
  }

  const std::vector<Span> spans = SpanLog::Get().Snapshot();
  const double saves = static_cast<double>(save_ops.size());
  const double loads = static_cast<double>(load_ops.size());
  const SpanTotal client_reads = TotalFor(spans, {kOpenReadSpan, kReadAtSpan}, load_ops);
  const double server_read_ms = (Get(load_delta, "store.server.rpc.open_read.seconds.sum") +
                                 Get(load_delta, "store.server.rpc.read_range.seconds.sum")) *
                                1e3;
  double rpcs = SumMatching(load_delta, "store.server.rpc.", ".seconds.count") +
                SumMatching(save_delta, "store.server.rpc.", ".seconds.count");
  if (options_.inject == "zero_counter") {
    rpcs = 0.0;
  }

  const std::string commit = "save_commit_ms (remote_mixed)";
  const std::string load = "remote_load_ms (remote_mixed)";
  auto& L = result.layers;
  L.push_back(Layer("common.crc32_mib_s", Median(crc_rates), "MiB/s", load, "probe, 1 MiB"));
  AddSaveLayers(result, "remote_mixed", spans, save_ops, stall_ms, commit_ms, save_delta,
                options_);
  AddLoadLayers(result, "remote_mixed", load, "", spans, load_ops, load_delta);
  L.push_back(Layer("store.server.rpc_ms_per_load",
                    SumMatching(load_delta, "store.server.rpc.", ".seconds.sum") * 1e3 / loads,
                    "ms", load, "summed over sessions"));
  L.push_back(Layer("store.server.rpc_ms_per_save",
                    SumMatching(save_delta, "store.server.rpc.", ".seconds.sum") * 1e3 / saves,
                    "ms", commit, "summed over sessions"));
  L.push_back(Layer("store.wire_ms_per_load", (client_reads.busy_ms - server_read_ms) / loads,
                    "ms", load, "client read busy minus server open/read handling"));
  L.push_back(Layer("store.server.mib_out_per_load",
                    Get(load_delta, "store.server.bytes_out") / kMiB / loads, "MiB", load));
  L.push_back(Layer("store.server.mib_in_per_save",
                    Get(save_delta, "store.server.bytes_in") / kMiB / saves, "MiB", commit));
  L.push_back(Layer("ucp.load_ms", Median(slowest_rank_ms), "ms", load, "slowest rank"));
  L.push_back(Layer("residual.remote_load_ms", Median(load_residual), "ms", load,
                    "median per load"));
  AddViolations(result, ZeroReadings({{"remote_mixed.store.server.rpcs", rpcs}}));
  AddViolations(result, NegativeResiduals(residuals));
  result.attempted = log.attempted;
  result.failed = log.failed;
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"train_ckpt", "reshard_resume",
                                                 "remote_mixed"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const BenchOptions& options,
                                       int instance) {
  if (name == "train_ckpt") {
    return std::make_unique<TrainCkpt>(options, instance);
  }
  if (name == "reshard_resume") {
    return std::make_unique<ReshardResume>(options, instance);
  }
  if (name == "remote_mixed") {
    return std::make_unique<RemoteMixed>(options, instance);
  }
  return nullptr;
}

}  // namespace perfbench

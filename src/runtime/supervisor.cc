#include "src/runtime/supervisor.h"

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "src/ckpt/checkpoint.h"
#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ucp {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The trainer's divisibility constraints (TrainerConfig::Validate) as a predicate instead
// of an abort, so the shrink search can probe candidates.
bool ValidStrategy(const ModelConfig& model, int global_batch, const ParallelConfig& s) {
  if (s.tp < 1 || s.pp < 1 || s.dp < 1 || s.sp < 1 || s.micro_batches < 1) return false;
  if (global_batch % s.dp != 0) return false;
  if ((global_batch / s.dp) % s.micro_batches != 0) return false;
  if (model.max_seq_len % s.sp != 0) return false;
  if (model.vocab_size % s.tp != 0) return false;
  if (model.num_heads % s.tp != 0) return false;
  if (model.num_kv_heads % s.tp != 0) return false;
  if (model.is_moe() && model.moe_expert_sharding) {
    if (model.num_experts % s.tp != 0) return false;
  } else {
    if (model.ffn_hidden % s.tp != 0) return false;
  }
  if (model.num_layers < s.pp) return false;
  if (model.hidden % s.tp != 0) return false;
  return true;
}

int& AxisDegree(ParallelConfig& s, ShrinkAxis axis) {
  switch (axis) {
    case ShrinkAxis::kDp: return s.dp;
    case ShrinkAxis::kTp: return s.tp;
    case ShrinkAxis::kPp: return s.pp;
    case ShrinkAxis::kSp: return s.sp;
  }
  return s.dp;
}

}  // namespace

Result<ParallelConfig> ShrinkStrategy(const ModelConfig& model, int global_batch,
                                      const ParallelConfig& current, int max_ranks,
                                      const std::vector<ShrinkAxis>& order) {
  if (max_ranks < 1) {
    return InvalidArgumentError("cannot shrink to " + std::to_string(max_ranks) + " ranks");
  }
  if (order.empty()) {
    return InvalidArgumentError("empty shrink order");
  }
  ParallelConfig s = current;
  while (s.world_size() > max_ranks) {
    bool reduced = false;
    for (ShrinkAxis axis : order) {
      int& degree = AxisDegree(s, axis);
      const int original = degree;
      // Largest valid smaller degree first: lose as little of this axis as possible per step.
      for (int candidate = original - 1; candidate >= 1; --candidate) {
        degree = candidate;
        if (ValidStrategy(model, global_batch, s)) {
          reduced = true;
          break;
        }
      }
      if (reduced) {
        break;
      }
      degree = original;
    }
    if (!reduced) {
      return FailedPreconditionError("no valid shrink of " + current.ToString() +
                                     " fits " + std::to_string(max_ranks) + " ranks");
    }
  }
  if (!ValidStrategy(model, global_batch, s)) {
    return FailedPreconditionError("strategy " + s.ToString() +
                                   " violates model divisibility constraints");
  }
  return s;
}

Supervisor::Supervisor(TrainerConfig config, SupervisorOptions options)
    : config_(std::move(config)),
      options_(std::move(options)),
      current_strategy_(config_.strategy) {
  UCP_CHECK_GE(options_.max_recoveries, 0);
}

SupervisorReport Supervisor::Train(int64_t first_iteration, int64_t last_iteration) {
  UCP_CHECK_GE(first_iteration, 1);
  UCP_CHECK_LE(first_iteration, last_iteration);

  SupervisorReport report;
  TrainerConfig cfg = config_;
  cfg.strategy = current_strategy_;
  int available_ranks = cfg.strategy.world_size();
  // Final value per iteration: a resume re-runs the steps after its checkpoint, and the
  // re-run's loss replaces the pre-failure one (identical when resume is bit-exact).
  std::map<int64_t, double> losses_by_iteration;
  // A recovery record opened at the failure, completed once the rebuilt run has resumed.
  std::optional<RecoveryTiming> pending;

  for (;;) {
    const auto rebuild_start = std::chrono::steady_clock::now();
    WorldOptions world_options;
    world_options.watchdog_timeout = options_.watchdog_timeout;
    std::unique_ptr<TrainingRun> run;
    // One store per rebuild: the engine saves through it, and the resume below reads and
    // converts through it.
    std::shared_ptr<Store> store;
    std::unique_ptr<AsyncCheckpointEngine> engine;
    {
      UCP_TRACE_SPAN_ARGS("recovery.rebuild",
                          ::ucp::obs::TraceArgs().S("strategy", cfg.strategy.ToString()));
      run = std::make_unique<TrainingRun>(cfg, world_options);
      if (!options_.store_endpoint.empty()) {
        Result<std::shared_ptr<RemoteStore>> remote =
            RemoteStore::Connect(options_.store_endpoint, options_.store_options);
        if (!remote.ok()) {
          report.status = remote.status();
          break;
        }
        store = *std::move(remote);
      } else if (!options_.ckpt_dir.empty()) {
        store = std::make_shared<LocalStore>(options_.ckpt_dir);
      }
      if (store != nullptr && options_.checkpoint_every > 0) {
        engine = std::make_unique<AsyncCheckpointEngine>(store, cfg.strategy.world_size(),
                                                         options_.async);
      }
    }
    const double rebuild_seconds = SecondsSince(rebuild_start);

    int64_t next = first_iteration;
    ResumeReport resume_report;
    bool resumed = false;
    if (store != nullptr && FindLatestValidTag(*store, options_.async.job).ok()) {
      UCP_TRACE_SPAN("recovery.resume");
      Status resume_status = OkStatus();
      std::mutex resume_mu;
      run->Run([&](RankTrainer& trainer) {
        Result<ResumeReport> rr = ResumeElastic(*store, trainer, options_.async.job);
        std::lock_guard<std::mutex> lock(resume_mu);
        if (!rr.ok()) {
          if (resume_status.ok()) {
            resume_status = rr.status();
          }
        } else if (trainer.rank() == 0) {
          resume_report = *rr;
        }
      });
      if (!resume_status.ok()) {
        if (pending.has_value()) {
          report.timings.push_back(*pending);
        }
        report.status = resume_status;
        break;
      }
      resumed = true;
      next = resume_report.iteration + 1;
    }

    if (pending.has_value()) {
      pending->rebuild_seconds = rebuild_seconds;
      pending->new_strategy = cfg.strategy;
      if (resumed) {
        pending->resumed_tag = resume_report.tag;
        pending->resume_path = resume_report.path;
        pending->convert_seconds = resume_report.convert_seconds;
        pending->load_seconds = resume_report.load_seconds;
      }
      pending->total_seconds = pending->detect_seconds + pending->teardown_seconds +
                               pending->rebuild_seconds + pending->convert_seconds +
                               pending->load_seconds;
      static obs::Histogram& recovery_seconds =
          obs::MetricsRegistry::Global().GetHistogram("recovery.total_seconds");
      recovery_seconds.Observe(pending->total_seconds);
      UCP_TRACE_INSTANT("recovery.complete",
                        ::ucp::obs::TraceArgs()
                            .S("strategy", cfg.strategy.ToString())
                            .D("total_seconds", pending->total_seconds));
      UCP_LOG(Info) << "recovered on " << cfg.strategy.ToString()
                    << (resumed ? " from tag " + pending->resumed_tag
                                : " from scratch (no committed checkpoint)")
                    << " in " << pending->total_seconds << "s";
      report.timings.push_back(*pending);
      pending.reset();
    }

    TrainOutcome outcome;
    if (next > last_iteration) {
      outcome.completed_iteration = last_iteration;  // resumed at/past the end
    } else {
      outcome = run->TryTrain(next, last_iteration, [&](RankTrainer& trainer, int64_t it) {
        if (options_.after_iteration) {
          options_.after_iteration(trainer, it);
        }
        if (engine != nullptr && it % options_.checkpoint_every == 0) {
          CheckRankFault(FaultSite::kBeforeSave);
          Status saved = engine->SaveAsync(trainer, it);
          UCP_CHECK(saved.ok()) << saved;
          CheckRankFault(FaultSite::kAsyncFlush);
        }
      });
      for (size_t i = 0; i < outcome.losses.size(); ++i) {
        losses_by_iteration[next + static_cast<int64_t>(i)] = outcome.losses[i];
      }
    }

    if (!outcome.failed) {
      if (engine != nullptr) {
        Status drained = engine->WaitAll();
        if (!drained.ok()) {
          UCP_LOG(Warning) << "checkpoint flush failed during supervised run: "
                           << drained.ToString();
        }
      }
      report.ok = true;
      break;
    }

    // ---- Recovery: detect happened inside TryTrain; now teardown, shrink, loop. ----
    ++report.recoveries;
    RecoveryTiming timing;
    timing.failure = outcome.failure;
    timing.old_strategy = cfg.strategy;
    timing.detect_seconds = outcome.failure.blocked_seconds;
    UCP_LOG(Warning) << "rank failure detected: " << outcome.failure.ToString();
    static obs::Counter& failures =
        obs::MetricsRegistry::Global().GetCounter("recovery.rank_failures");
    failures.Add(1);
    UCP_TRACE_INSTANT("recovery.detected",
                      ::ucp::obs::TraceArgs()
                          .I("rank", outcome.failure.rank)
                          .D("detect_seconds", timing.detect_seconds));
    // Dump the in-memory rings before teardown reuses them: the dossier should show what
    // every rank was doing when the failure hit, not what the rebuilt world did after.
    if (!options_.ckpt_dir.empty()) {
      std::string trace_path;
      std::string dump_err;
      if (obs::DumpFlightRecord(options_.ckpt_dir, "rank-failure", &trace_path, &dump_err)) {
        UCP_LOG(Info) << "flight record dumped to " << trace_path;
      } else {
        UCP_LOG(Warning) << "flight record dump failed: " << dump_err;
      }
    }
    if (report.recoveries > options_.max_recoveries) {
      report.timings.push_back(timing);
      report.status = FailedPreconditionError(
          "gave up after " + std::to_string(options_.max_recoveries) +
          " recoveries; last failure: " + outcome.failure.ToString());
      break;
    }

    const auto teardown_start = std::chrono::steady_clock::now();
    {
      UCP_TRACE_SPAN("recovery.teardown");
      if (engine != nullptr) {
        const int abandoned = engine->AbandonIncomplete();
        if (abandoned > 0) {
          UCP_LOG(Info) << "abandoned " << abandoned
                        << " checkpoint save(s) stranded by the failed rank";
        }
        Status drained = engine->WaitAll();
        if (!drained.ok()) {
          UCP_LOG(Warning) << "checkpoint flush failed before teardown: "
                           << drained.ToString();
        }
        engine.reset();
      }
      run.reset();  // rank threads already joined; this destroys the poisoned World
    }
    timing.teardown_seconds = SecondsSince(teardown_start);

    if (!options_.rebuild_same_strategy) {
      UCP_TRACE_SPAN("recovery.shrink");
      available_ranks -= 1;  // the failed rank's slot is gone
      Result<ParallelConfig> shrunk = ShrinkStrategy(
          cfg.model, cfg.global_batch, cfg.strategy, available_ranks, options_.shrink_order);
      if (!shrunk.ok()) {
        report.timings.push_back(timing);
        report.status = shrunk.status();
        break;
      }
      UCP_LOG(Info) << "shrinking strategy " << cfg.strategy.ToString() << " -> "
                    << shrunk->ToString() << " for " << available_ranks << " ranks";
      cfg.strategy = *shrunk;
    }
    pending = timing;
  }

  report.losses.reserve(static_cast<size_t>(last_iteration - first_iteration + 1));
  for (int64_t it = first_iteration; it <= last_iteration; ++it) {
    auto found = losses_by_iteration.find(it);
    report.losses.push_back(found == losses_by_iteration.end() ? 0.0 : found->second);
  }
  report.final_strategy = cfg.strategy;
  current_strategy_ = cfg.strategy;
  return report;
}

}  // namespace ucp

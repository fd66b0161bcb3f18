#include "src/ckpt/async/engine.h"

#include <algorithm>
#include <utility>

#include "src/common/fs.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ucp {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Global mirror of the per-engine AsyncSaveStats: the struct getter keeps engine-local
// semantics, the registry aggregates across engines for `ucp_tool metrics` and benches.
struct AsyncMetrics {
  obs::Counter& started = obs::MetricsRegistry::Global().GetCounter("save.async.started");
  obs::Counter& commits = obs::MetricsRegistry::Global().GetCounter("save.async.commits");
  obs::Counter& failures = obs::MetricsRegistry::Global().GetCounter("save.async.failures");
  obs::Counter& drops = obs::MetricsRegistry::Global().GetCounter("save.async.drops");
  obs::Counter& skipped_unavailable =
      obs::MetricsRegistry::Global().GetCounter("save.async.skipped_unavailable");
  obs::Counter& bytes_flushed =
      obs::MetricsRegistry::Global().GetCounter("save.async.bytes_flushed");
  obs::Histogram& block_seconds =
      obs::MetricsRegistry::Global().GetHistogram("save.async.block_seconds");
  obs::Histogram& flush_seconds =
      obs::MetricsRegistry::Global().GetHistogram("save.async.flush_seconds");
  obs::Gauge& last_committed =
      obs::MetricsRegistry::Global().GetGauge("save.async.last_committed_iteration");

  static AsyncMetrics& Get() {
    static AsyncMetrics* m = new AsyncMetrics();
    return *m;
  }
};

}  // namespace

AsyncCheckpointEngine::AsyncCheckpointEngine(std::shared_ptr<Store> store, int world_size,
                                             AsyncCheckpointOptions options)
    : store_(std::move(store)), world_size_(world_size), options_(std::move(options)) {
  UCP_CHECK_GE(world_size_, 1);
  UCP_CHECK_GE(options_.max_in_flight, 1);
  free_snaps_.resize(static_cast<size_t>(world_size_));
  pool_ = std::make_unique<ThreadPool>(1);
}

AsyncCheckpointEngine::~AsyncCheckpointEngine() {
  Status drained = WaitAll();
  if (!drained.ok()) {
    UCP_LOG(Warning) << "async checkpoint engine shut down with a failed save: "
                     << drained.ToString();
  }
  pool_.reset();
}

std::shared_ptr<AsyncCheckpointEngine::PendingSave> AsyncCheckpointEngine::FindLocked(
    int64_t iteration) {
  for (const auto& save : inflight_) {
    if (save->iteration == iteration) {
      return save;
    }
  }
  return nullptr;
}

void AsyncCheckpointEngine::ResolveLocked(const std::shared_ptr<PendingSave>& save,
                                          Status result) {
  outcomes_[save->iteration] = result;
  if (!result.ok() && !save->abandoned) {
    if (result.code() == StatusCode::kUnavailable) {
      // The store was unreachable past the client's reconnect deadline. That is a
      // property of the moment, not of the run: the save is skipped (resume falls back
      // to the previous committed tag) and the next periodic save retries the daemon.
      // It neither counts as a failure nor poisons first_error_ — a transient partition
      // must not abort training.
      ++stats_.skipped_unavailable;
      AsyncMetrics::Get().skipped_unavailable.Add(1);
    } else {
      ++stats_.failures;
      AsyncMetrics::Get().failures.Add(1);
      if (first_error_.ok()) {
        first_error_ = result;
      }
    }
  }
  // Recycle the snapshot buffers and drop the entry from the in-flight window.
  for (int r = 0; r < world_size_; ++r) {
    if (save->snaps[static_cast<size_t>(r)] != nullptr) {
      free_snaps_[static_cast<size_t>(r)].push_back(
          std::move(save->snaps[static_cast<size_t>(r)]));
    }
  }
  inflight_.erase(std::find(inflight_.begin(), inflight_.end(), save));
  cv_.notify_all();
}

Status AsyncCheckpointEngine::SaveAsync(RankTrainer& trainer, int64_t iteration) {
  UCP_TRACE_NAMED_SPAN(span, "save.async.enqueue");
  UCP_TRACE_SPAN_ARG_I(span, "iteration", iteration);
  const auto t0 = std::chrono::steady_clock::now();
  const int rank = trainer.rank();
  UCP_CHECK_LT(rank, world_size_);

  std::shared_ptr<PendingSave> save;
  std::unique_ptr<RankCheckpointSnapshot> buf;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Blocks while the window is full, unless a peer already opened this save (backpressure
    // was its problem).
    cv_.wait(lock, [&] {
      return FindLocked(iteration) != nullptr ||
             static_cast<int>(inflight_.size()) < options_.max_in_flight;
    });
    save = FindLocked(iteration);
    if (save == nullptr) {
      save = std::make_shared<PendingSave>();
      save->iteration = iteration;
      save->tag = TagForIteration(options_.job, iteration);
      save->snaps.resize(static_cast<size_t>(world_size_));
      save->started = t0;
      inflight_.push_back(save);
    }
    auto& freelist = free_snaps_[static_cast<size_t>(rank)];
    if (!freelist.empty()) {
      buf = std::move(freelist.back());
      freelist.pop_back();
    }
  }

  if (buf == nullptr) {
    buf = std::make_unique<RankCheckpointSnapshot>();
  }
  {
    UCP_TRACE_SPAN("save.async.snapshot");
    buf->CaptureFrom(trainer);  // the only heavy work on the rank thread
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!save->meta_set) {
      save->meta = MetaForSave(trainer, iteration);
      save->meta_set = true;
    }
    save->snaps[static_cast<size_t>(rank)] = std::move(buf);
    if (++save->arrived == world_size_) {
      ++stats_.saves_started;
      AsyncMetrics::Get().started.Add(1);
      // Submitted under mu_, in the order gathers complete: save order (engine.h).
      pool_->Submit([this, save] { Flush(save); });
    }
    const double blocked = SecondsSince(t0);
    stats_.blocking_seconds += blocked;
    stats_.max_blocking_seconds = std::max(stats_.max_blocking_seconds, blocked);
    AsyncMetrics::Get().block_seconds.Observe(blocked);
  }
  return OkStatus();
}

Status AsyncCheckpointEngine::FlushShards(const PendingSave& save) {
  UCP_TRACE_SPAN_ARGS("save.async.write_shards", ::ucp::obs::TraceArgs().S("tag", save.tag));
  UCP_RETURN_IF_ERROR(store_->ResetTagStaging(save.tag));
  // The batch applies to LocalStore writers (which stage through WriteFileAtomic on this
  // thread, starting each shard's writeback as it is written); the daemon fsyncs each of a
  // remote writer's files at its WRITE_END.
  ScopedFsyncBatch batch;
  UCP_ASSIGN_OR_RETURN(std::unique_ptr<StoreWriter> writer, store_->OpenTagForWrite(save.tag));
  for (const auto& snap : save.snaps) {
    UCP_RETURN_IF_ERROR(WriteSnapshotShards(*writer, *snap));
  }
  // The batch point: every shard's data reaches the platter before the commit rename.
  return batch.SyncAll();
}

void AsyncCheckpointEngine::Flush(const std::shared_ptr<PendingSave>& save) {
  UCP_TRACE_NAMED_SPAN(span, "save.async.flush");
  UCP_TRACE_SPAN_ARG_S(span, "tag", save->tag);
  if (options_.pre_flush_hook) {
    options_.pre_flush_hook(save->iteration);
  }

  // The gather is complete, so no rank thread touches `save` any more: its snapshots and
  // meta are read here without mu_. Every older save has resolved (one FIFO flusher), so
  // this commit advances `latest` in save order and retention sweeps no live staging.
  Status result = FlushShards(*save);
  if (!result.ok()) {
    store_->AbortTag(save->tag).ok();  // best effort: keep the tag retryable
  } else {
    result = store_->CommitTag(save->tag, save->meta.ToJson().Dump(2));
  }
  if (result.ok() && options_.keep_last > 0) {
    Result<GcReport> gc = store_->Gc(options_.job, options_.keep_last, /*dry_run=*/false);
    if (!gc.ok()) {
      UCP_LOG(Warning) << "post-commit gc failed: " << gc.status().ToString();
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (result.ok()) {
    ++stats_.commits;
    stats_.last_committed_iteration =
        std::max(stats_.last_committed_iteration, save->iteration);
    const double flush_s = SecondsSince(save->started);
    stats_.flush_seconds += flush_s;
    uint64_t save_bytes = 0;
    for (const auto& snap : save->snaps) {
      save_bytes += snap->bytes;
    }
    stats_.bytes_flushed += save_bytes;
    AsyncMetrics& am = AsyncMetrics::Get();
    am.commits.Add(1);
    am.bytes_flushed.Add(save_bytes);
    am.flush_seconds.Observe(flush_s);
    am.last_committed.Max(save->iteration);
  }
  ResolveLocked(save, result);
}

Status AsyncCheckpointEngine::WaitForIteration(int64_t iteration) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return FindLocked(iteration) == nullptr; });
  auto it = outcomes_.find(iteration);
  if (it == outcomes_.end()) {
    return NotFoundError("no async save was started for iteration " +
                         std::to_string(iteration));
  }
  return it->second;
}

int AsyncCheckpointEngine::AbandonIncomplete() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<PendingSave>> victims;
  for (const auto& save : inflight_) {
    // No flusher job exists yet for a gathering save (submission happens on the last
    // arrival), so resolving it here races with nothing.
    if (save->arrived < world_size_) {
      victims.push_back(save);
    }
  }
  for (const auto& save : victims) {
    save->abandoned = true;  // keeps ResolveLocked from counting this as a flush failure
    ResolveLocked(save, FailedPreconditionError(
                            "save " + save->tag +
                            " abandoned: gather incomplete after rank failure"));
    ++stats_.drops;
    AsyncMetrics::Get().drops.Add(1);
  }
  return static_cast<int>(victims.size());
}

Status AsyncCheckpointEngine::WaitAll() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return inflight_.empty(); });
  return first_error_;
}

AsyncSaveStats AsyncCheckpointEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ucp

// Asynchronous checkpoint engine: snapshot-then-flush saves that overlap training.
//
// The synchronous save path (SaveDistributedCheckpoint) blocks every rank for the full
// serialize + write + fsync + commit sequence. This engine splits that into:
//
//   1. SNAPSHOT (blocking, per rank): RankCheckpointSnapshot::CaptureFrom deep-copies the
//      rank's optimizer partition and published parameters into buffers recycled from a
//      per-rank freelist — in steady state a pure host memcpy, the only part of a save
//      that stalls TrainIteration.
//   2. FLUSH (background): once every rank's snapshot for an iteration has arrived, a
//      flusher job on a ThreadPool serializes all shards into the tag's staged area through
//      the engine's Store (local: the standard `<tag>.staging` directory with batched
//      fsyncs; remote: chunked frames to ucp_serverd), then runs the PR 1 commit protocol
//      (rename -> `complete` marker -> `latest`). Commits land in save order, so `latest`
//      never regresses even with several saves in flight.
//
// Because the flusher — not the rank threads — performs the commit, the "every shard on
// disk" agreement is the engine's own gather (all world_size snapshots present) instead of
// the synchronous path's all-reduce. A crash at any point during a flush leaves exactly the
// states the commit protocol already tolerates: staging debris, an unmarked tag, or a
// committed tag with a stale `latest` (see docs/async_checkpointing.md).
//
// Backpressure: at most `max_in_flight` saves may be unresolved at once. A new SaveAsync
// beyond that either blocks (kBlock, default — bounds memory at max_in_flight+1 snapshot
// sets per rank) or cancels the oldest unresolved save (kDropOldest — training never
// stalls; the dropped tag is simply never committed, which resumes handle by design).

#ifndef UCP_SRC_CKPT_ASYNC_ENGINE_H_
#define UCP_SRC_CKPT_ASYNC_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/ckpt/async/snapshot.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/thread_pool.h"

namespace ucp {

struct AsyncCheckpointOptions {
  // Background flusher threads. >1 overlaps shard serialization of distinct saves; the
  // commit order stays save order regardless.
  int flush_threads = 1;
  // Unresolved (snapshotted but not yet committed/failed/dropped) saves allowed before
  // backpressure applies. Bounds host memory: each in-flight save holds one snapshot set.
  int max_in_flight = 1;
  enum class Backpressure {
    kBlock,      // SaveAsync waits for a slot — never loses a checkpoint
    kDropOldest  // cancel the oldest in-flight save — never stalls training
  };
  Backpressure backpressure = Backpressure::kBlock;
  // Defer per-file fsyncs and issue them in one batch right before the commit rename
  // (ScopedFsyncBatch). Same durability, fewer stalls inside the write loop.
  bool batch_fsyncs = true;
  // > 0: run GcCheckpoints(dir, keep_last) after every successful commit (scoped to
  // `job`'s namespace).
  int keep_last = 0;
  // Tag namespace inside a shared store: saves commit `<job>.global_stepN` tags and move
  // the `latest.<job>` pointer. Empty = the default namespace.
  std::string job;
  // Test hook: runs on the flusher thread after a save is picked up and before its shards
  // are written. Lets tests hold a flush open deterministically (snapshot isolation,
  // backpressure) without timing assumptions.
  std::function<void(int64_t iteration)> pre_flush_hook;
};

struct AsyncSaveStats {
  int64_t saves_started = 0;   // fully-gathered saves handed to the flusher
  int64_t commits = 0;
  int64_t drops = 0;           // saves cancelled by kDropOldest
  int64_t failures = 0;
  // Saves that failed with kUnavailable (store unreachable past the reconnect deadline):
  // skipped-and-retried-next-save rather than treated as a training-run abort — they do
  // not count as failures and do not poison WaitAll's sticky first error.
  int64_t skipped_unavailable = 0;
  double blocking_seconds = 0.0;      // total rank time spent inside SaveAsync
  double max_blocking_seconds = 0.0;  // worst single SaveAsync call
  double flush_seconds = 0.0;         // per committed save: first snapshot -> commit done
  int64_t bytes_flushed = 0;          // fp32 payload bytes across committed saves
  int64_t last_committed_iteration = -1;
};

class AsyncCheckpointEngine {
 public:
  // One engine per checkpoint store, shared by every rank thread of the run. The dir form
  // wraps a LocalStore on `dir`; the Store form takes any backend (a RemoteStore here puts
  // the whole flush — staging, commit, GC — on the other side of the wire).
  AsyncCheckpointEngine(std::string dir, int world_size,
                        AsyncCheckpointOptions options = {});
  AsyncCheckpointEngine(std::shared_ptr<Store> store, int world_size,
                        AsyncCheckpointOptions options = {});
  // Drains in-flight saves (equivalent to WaitAll) before tearing down the pool.
  ~AsyncCheckpointEngine();

  AsyncCheckpointEngine(const AsyncCheckpointEngine&) = delete;
  AsyncCheckpointEngine& operator=(const AsyncCheckpointEngine&) = delete;

  // Collective across ranks (like SaveDistributedCheckpoint), but returns after this
  // rank's snapshot is captured — it blocks for backpressure plus the host copy only.
  // Flush/commit errors surface later through WaitAll / WaitForIteration.
  Status SaveAsync(RankTrainer& trainer, int64_t iteration);

  // Blocks until the save of `iteration` resolves and returns its outcome: OkStatus once
  // committed, kFailedPrecondition if it was dropped by backpressure, the flush error
  // otherwise. kNotFound if no save of that iteration was ever started.
  Status WaitForIteration(int64_t iteration);

  // Blocks until every in-flight save has resolved; returns the first flush/commit error
  // observed over the engine's lifetime (sticky), OkStatus when all commits landed.
  Status WaitAll();

  // After a rank failure, a save some ranks never reached stays gathering forever (its dead
  // peer will never call SaveAsync) and would park WaitAll / the destructor. Resolves every
  // not-fully-gathered save as abandoned (counted as a drop, not a failure) and returns how
  // many were abandoned; fully-gathered saves keep flushing — a checkpoint whose snapshots
  // all arrived is still perfectly good, and is typically exactly the one recovery wants.
  int AbandonIncomplete();

  AsyncSaveStats stats() const;
  Store& store() const { return *store_; }

 private:
  struct PendingSave {
    int64_t iteration = 0;
    std::string tag;
    std::vector<std::unique_ptr<RankCheckpointSnapshot>> snaps;
    int arrived = 0;
    CheckpointMeta meta;
    bool meta_set = false;
    bool cancelled = false;   // kDropOldest victim; flusher cleans up
    bool committing = false;  // commit started — past the point of no return
    bool resolved = false;    // committed, failed, or dropped
    Status result;
    std::chrono::steady_clock::time_point started;
  };

  // All *Locked members require mu_.
  std::shared_ptr<PendingSave> FindLocked(int64_t iteration);
  int ActiveCountLocked() const;
  bool DropOldestLocked();
  void ResolveLocked(const std::shared_ptr<PendingSave>& save, Status result);
  void Flush(std::shared_ptr<PendingSave> save);
  Status FlushShards(const std::shared_ptr<PendingSave>& save);

  const std::shared_ptr<Store> store_;
  const int world_size_;
  const AsyncCheckpointOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<PendingSave>> inflight_;  // save order; pruned on resolution
  std::map<int64_t, Status> outcomes_;                 // resolved saves, for WaitForIteration
  std::vector<std::vector<std::unique_ptr<RankCheckpointSnapshot>>> free_snaps_;
  Status first_error_;
  AsyncSaveStats stats_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ucp

#endif  // UCP_SRC_CKPT_ASYNC_ENGINE_H_

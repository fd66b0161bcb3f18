// Async checkpoint engine tests: snapshot isolation (a flushed tag holds pre-mutation
// values bit-exactly), blocking backpressure, save-order commits of queued saves,
// abandoned gathers, keep_last retention, and the Store::Gc / SweepStagingDebris helpers the
// engine composes with. The pre_flush_hook makes every "flush still in progress" state
// deterministic — no sleeps stand in for synchronization.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/ckpt/async/engine.h"
#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/ucp/elastic.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  return cfg;
}

// A manually-released gate for pre_flush_hook: flushers of the listed iteration park until
// Release().
class FlushGate {
 public:
  explicit FlushGate(int64_t gated_iteration) : gated_(gated_iteration) {}

  void operator()(int64_t iteration) {
    if (iteration != gated_) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  // Blocks until a flusher is parked inside the gate.
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ > 0; });
  }

 private:
  const int64_t gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

class AsyncCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_async"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }
  // A LocalStore on Sub(name), for the Store& readers.
  std::shared_ptr<LocalStore> StoreAt(const std::string& name) {
    return std::make_shared<LocalStore>(Sub(name));
  }

  static void SaveAllSync(TrainingRun& run, const std::string& dir, int64_t iteration) {
    run.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(dir, t, iteration);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  static void SaveAsyncAll(TrainingRun& run, AsyncCheckpointEngine& engine,
                           int64_t iteration) {
    run.Run([&](RankTrainer& t) {
      Status s = engine.SaveAsync(t, iteration);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  std::string dir_;
};

TEST_F(AsyncCheckpointTest, PeriodicAsyncSavesCommitAndResumeMatchesReference) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun ref(cfg);
  std::vector<double> ref_losses = ref.Train(1, 6);

  {
    TrainingRun run(cfg);
    AsyncCheckpointEngine engine(StoreAt("ckpt"), run.world_size());
    run.Train(1, 4, [&](RankTrainer& t, int64_t it) {
      if (it % 2 == 0) {
        Status s = engine.SaveAsync(t, it);
        UCP_CHECK(s.ok()) << s.ToString();
      }
    });
    ASSERT_TRUE(engine.WaitAll().ok());
    AsyncSaveStats stats = engine.stats();
    EXPECT_EQ(stats.saves_started, 2);
    EXPECT_EQ(stats.commits, 2);
    EXPECT_EQ(stats.drops, 0);
    EXPECT_EQ(stats.failures, 0);
    EXPECT_EQ(stats.last_committed_iteration, 4);
    EXPECT_GT(stats.bytes_flushed, 0);
  }

  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step2"));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step4"));
  EXPECT_EQ(*ReadLatestTag(*StoreAt("ckpt")), "global_step4");
  EXPECT_EQ(*FindLatestValidTag(*StoreAt("ckpt")), "global_step4");

  // A fresh world resumes from the async-committed tag and reproduces the reference
  // trajectory bit for bit.
  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(Sub("ckpt"), t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK_EQ(r->iteration, 4);
  });
  std::vector<double> resumed_losses = resumed.Train(5, 6);
  ASSERT_EQ(resumed_losses.size(), 2u);
  EXPECT_DOUBLE_EQ(resumed_losses[0], ref_losses[4]);
  EXPECT_DOUBLE_EQ(resumed_losses[1], ref_losses[5]);
}

TEST_F(AsyncCheckpointTest, SnapshotIsolatesFlushFromLaterTraining) {
  // The acid test of snapshot-then-flush: keep the flush of global_step2 open while the
  // model trains two more iterations, then prove the eventually-committed files are
  // byte-identical to a synchronous save taken at the same point by a twin run.
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});

  TrainingRun sync_run(cfg);
  sync_run.Train(1, 2);
  SaveAllSync(sync_run, Sub("sync"), 2);

  TrainingRun async_run(cfg);
  async_run.Train(1, 2);
  FlushGate gate(2);
  AsyncCheckpointOptions options;
  options.pre_flush_hook = [&gate](int64_t it) { gate(it); };
  AsyncCheckpointEngine engine(StoreAt("async"), async_run.world_size(), options);
  SaveAsyncAll(async_run, engine, 2);
  gate.AwaitArrival();

  // Mutate everything the snapshot copied: weights, optimizer moments, step counts.
  async_run.Train(3, 4);
  gate.Release();
  ASSERT_TRUE(engine.WaitAll().ok());

  Result<std::vector<std::string>> sync_files = ListDir(Sub("sync/global_step2"));
  ASSERT_TRUE(sync_files.ok()) << sync_files.status();
  ASSERT_FALSE(sync_files->empty());
  for (const std::string& name : *sync_files) {
    Result<std::string> want = ReadFileToString(PathJoin(Sub("sync/global_step2"), name));
    Result<std::string> got = ReadFileToString(PathJoin(Sub("async/global_step2"), name));
    ASSERT_TRUE(want.ok()) << name << ": " << want.status();
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_TRUE(*want == *got) << name << " differs between sync and async save";
  }
}

TEST_F(AsyncCheckpointTest, BlockBackpressureStallsSaveUntilSlotFrees) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);

  FlushGate gate(2);
  AsyncCheckpointOptions options;
  options.max_in_flight = 1;
  options.pre_flush_hook = [&gate](int64_t it) { gate(it); };
  AsyncCheckpointEngine engine(StoreAt("ckpt"), run.world_size(), options);

  SaveAsyncAll(run, engine, 2);  // occupies the single in-flight slot
  gate.AwaitArrival();
  run.Train(3, 4);

  std::atomic<bool> second_returned{false};
  std::thread second([&] {
    Status s = engine.SaveAsync(run.trainer(0), 4);
    UCP_CHECK(s.ok()) << s.ToString();
    second_returned.store(true);
  });
  // The blocked save must still be parked after a generous grace period...
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_returned.load());

  // ...and must complete once the first flush drains.
  gate.Release();
  second.join();
  EXPECT_TRUE(second_returned.load());
  ASSERT_TRUE(engine.WaitAll().ok());

  AsyncSaveStats stats = engine.stats();
  EXPECT_EQ(stats.commits, 2);
  EXPECT_EQ(stats.drops, 0);
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step2"));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step4"));
  EXPECT_EQ(*ReadLatestTag(*StoreAt("ckpt")), "global_step4");
}

TEST_F(AsyncCheckpointTest, QueuedSaveCommitsAfterOlderSave) {
  // The older save's flush is held open while the younger save finishes gathering and
  // queues behind it. The single flusher must pick the younger save up only once the older
  // one has committed, so `latest` ends at the younger tag. A second flusher would start
  // the younger save beside the held one and could commit it first, leaving `latest` at
  // global_step2.
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);

  FlushGate gate(2);
  std::mutex seen_mu;
  std::vector<int64_t> seen;
  bool older_committed_before_younger_flush = false;
  AsyncCheckpointOptions options;
  options.max_in_flight = 2;
  options.pre_flush_hook = [&](int64_t it) {
    {
      std::lock_guard<std::mutex> lock(seen_mu);
      seen.push_back(it);
      if (it == 4) {
        older_committed_before_younger_flush = IsTagComplete(*StoreAt("ckpt"), "global_step2");
      }
    }
    gate(it);
  };
  AsyncCheckpointEngine engine(StoreAt("ckpt"), run.world_size(), options);

  SaveAsyncAll(run, engine, 2);
  gate.AwaitArrival();
  run.Train(3, 4);
  SaveAsyncAll(run, engine, 4);
  // The engine passes whatever this wait is; it only gives a wrong engine (a second
  // flusher) time to start the queued save while the older one is still held.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  ASSERT_TRUE(engine.WaitAll().ok());

  EXPECT_EQ(seen, (std::vector<int64_t>{2, 4}));
  EXPECT_TRUE(older_committed_before_younger_flush);
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step2"));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step4"));
  EXPECT_EQ(*ReadLatestTag(*StoreAt("ckpt")), "global_step4");
  EXPECT_EQ(engine.stats().commits, 2);
}

TEST_F(AsyncCheckpointTest, AbandonIncompleteResolvesGatheringSaveAsDrop) {
  // Rank 1 never reaches the save of global_step2 (as after its failure): abandoning the
  // gathering save resolves it as a drop, not a failure, and the engine keeps saving.
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);

  AsyncCheckpointEngine engine(StoreAt("ckpt"), run.world_size());
  ASSERT_TRUE(engine.SaveAsync(run.trainer(0), 2).ok());
  EXPECT_EQ(engine.AbandonIncomplete(), 1);
  EXPECT_EQ(engine.WaitForIteration(2).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.WaitAll().ok());  // an abandoned save is not an engine error

  run.Train(3, 4);
  SaveAsyncAll(run, engine, 4);
  EXPECT_TRUE(engine.WaitForIteration(4).ok());

  AsyncSaveStats stats = engine.stats();
  EXPECT_EQ(stats.drops, 1);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.saves_started, 1);
  EXPECT_EQ(stats.commits, 1);
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2")));
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2.staging")));
  EXPECT_EQ(*ReadLatestTag(*StoreAt("ckpt")), "global_step4");
}

TEST_F(AsyncCheckpointTest, KeepLastRetiresOldTagsAfterEachCommit) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);

  AsyncCheckpointOptions options;
  options.keep_last = 2;
  AsyncCheckpointEngine engine(StoreAt("ckpt"), run.world_size(), options);
  for (int64_t it = 2; it <= 8; it += 2) {
    run.Train(it - 1, it);
    SaveAsyncAll(run, engine, it);
  }
  ASSERT_TRUE(engine.WaitAll().ok());

  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2")));
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4")));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step6"));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step8"));
  EXPECT_EQ(*ReadLatestTag(*StoreAt("ckpt")), "global_step8");
  EXPECT_EQ(engine.stats().commits, 4);
}

TEST_F(AsyncCheckpointTest, WaitForIterationReportsPerSaveOutcomes) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);

  AsyncCheckpointEngine engine(StoreAt("ckpt"), run.world_size());
  SaveAsyncAll(run, engine, 2);
  EXPECT_TRUE(engine.WaitForIteration(2).ok());
  EXPECT_EQ(engine.WaitForIteration(3).code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.WaitAll().ok());
}

TEST_F(AsyncCheckpointTest, GcProtectsLatestUncommittedTagsAndStagingDebris) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  for (int64_t it = 2; it <= 6; it += 2) {
    run.Train(it - 1, it);
    SaveAllSync(run, Sub("ckpt"), it);
  }
  // global_step4 becomes an uncommitted (crashed-save) tag; give step2 a cached UCP dir and
  // plant staging debris — GC must leave the crash evidence and debris alone.
  ASSERT_TRUE(RemoveAll(Sub("ckpt/global_step4/complete")).ok());
  ASSERT_TRUE(MakeDirs(Sub("ckpt/global_step2.ucp")).ok());
  ASSERT_TRUE(MakeDirs(Sub("ckpt/global_step5.staging")).ok());
  ASSERT_TRUE(WriteFileAtomic(Sub("ckpt/global_step5.staging/partial"), "x").ok());

  Result<GcReport> dry = StoreAt("ckpt")->Gc("", 1, /*dry_run=*/true);
  ASSERT_TRUE(dry.ok()) << dry.status();
  EXPECT_EQ(dry->removed, std::vector<std::string>{"global_step2"});
  EXPECT_EQ(dry->kept, std::vector<std::string>{"global_step6"});
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step2")));  // dry run touches nothing

  Result<GcReport> gc = StoreAt("ckpt")->Gc("", 1, /*dry_run=*/false);
  ASSERT_TRUE(gc.ok()) << gc.status();
  EXPECT_EQ(gc->removed, std::vector<std::string>{"global_step2"});
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2")));
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2.ucp")));  // the cache follows its tag
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step4")));       // uncommitted: not GC's business
  EXPECT_TRUE(FileExists(Sub("ckpt/global_step5.staging/partial")));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step6"));
}

TEST_F(AsyncCheckpointTest, GcNeverDeletesWhatLatestNamesEvenWhenStale) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  for (int64_t it = 2; it <= 6; it += 2) {
    run.Train(it - 1, it);
    SaveAllSync(run, Sub("ckpt"), it);
  }
  // Roll `latest` back by hand (an operator rollback, or a crash that quarantined newer
  // tags). Retention must keep both the pointer's target and the newest keep_last tags.
  ASSERT_TRUE(WriteFileAtomic(Sub("ckpt/latest"), "global_step2").ok());

  Result<GcReport> gc = StoreAt("ckpt")->Gc("", 1, /*dry_run=*/false);
  ASSERT_TRUE(gc.ok()) << gc.status();
  EXPECT_EQ(gc->removed, std::vector<std::string>{"global_step4"});
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step2")));  // latest's target survives
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step6")));  // newest committed survives
}

TEST_F(AsyncCheckpointTest, GcNeverDeletesTheResumeFrontierWhenNewerTagsAreDamaged) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  for (int64_t it = 2; it <= 6; it += 2) {
    run.Train(it - 1, it);
    SaveAllSync(run, Sub("ckpt"), it);
  }
  // Tear the metadata of both newer tags (committed, but unreadable — what a torn write
  // that raced the commit marker leaves behind). global_step2 is now the resume frontier.
  ASSERT_TRUE(WriteFileAtomic(Sub("ckpt/global_step4/checkpoint_meta.json"), "{\"trunc").ok());
  ASSERT_TRUE(WriteFileAtomic(Sub("ckpt/global_step6/checkpoint_meta.json"), "{\"trunc").ok());
  ASSERT_EQ(*FindLatestValidTag(*StoreAt("ckpt")), "global_step2");

  // keep_last=1 would keep only damaged global_step6 by recency; the frontier must be
  // pinned anyway or the job has nothing left to resume from.
  Result<GcReport> gc = StoreAt("ckpt")->Gc("", 1, /*dry_run=*/false);
  ASSERT_TRUE(gc.ok()) << gc.status();
  EXPECT_EQ(gc->removed, std::vector<std::string>{"global_step4"});
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step2")));  // the frontier survives
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step6")));  // newest committed survives
  EXPECT_EQ(*FindLatestValidTag(*StoreAt("ckpt")), "global_step2");
}

TEST_F(AsyncCheckpointTest, CleanStagingDebrisSweepsOnlyStagingDirectories) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  SaveAllSync(run, Sub("ckpt"), 2);
  ASSERT_TRUE(MakeDirs(Sub("ckpt/global_step4.staging")).ok());
  ASSERT_TRUE(WriteFileAtomic(Sub("ckpt/global_step4.staging/shard"), "junk").ok());

  Result<int> swept = StoreAt("ckpt")->SweepStagingDebris("");
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(*swept, 1);
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4.staging")));
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step2"));

  EXPECT_EQ(*StoreAt("ckpt")->SweepStagingDebris(""), 0);  // idempotent on a clean dir
}

}  // namespace
}  // namespace ucp

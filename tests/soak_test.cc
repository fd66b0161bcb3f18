// The scale & soak suite: randomized fault-schedule soaks (fixed seeds, bit-identical
// replay), large-world stress flatness, and the multi-job shared-store isolation matrix.
//
// Two ctest populations live in this binary. The quick suite (label `soak`) runs fixed
// seeds and small worlds inside the default tier. Every SoakLong* test skips unless
// UCP_SOAK_LONG=1 is set — run the long population with
//   UCP_SOAK_LONG=1 ctest -L soak_long --output-on-failure

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/comm/rank_fault.h"
#include "src/common/fault_fs.h"
#include "src/common/fs.h"
#include "src/model/config.h"
#include "src/obs/trace.h"
#include "src/runtime/trainer.h"
#include "src/soak/driver.h"
#include "src/soak/invariants.h"
#include "src/soak/multi_job.h"
#include "src/soak/schedule.h"
#include "src/soak/stress.h"

namespace ucp {
namespace {

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_soak"); }
  void TearDown() override {
    DisarmRankFaults();  // never leak an armed injector into another test
    DisarmFaults();
    SetIoRetryPolicy(IoRetryPolicy{});
    ResetIoRetryStats();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }

  SoakOptions OptionsForSeed(uint64_t seed) {
    SoakOptions options;
    options.seed = seed;
    options.dir = Sub("seed" + std::to_string(seed));
    return options;
  }

  // One fixed-seed soak: generate, verify the >= 3 injector-type guarantee, execute, and
  // require a clean run — zero invariant violations with the full log as the counterexample.
  void RunSeedExpectClean(uint64_t seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SoakOptions options = OptionsForSeed(seed);
    std::vector<SoakEvent> events = GenerateSoakSchedule(options);
    EXPECT_GE(ScheduleInjectorKinds(events).size(), 3u)
        << "schedule for seed " << seed << " composes too few injector types";
    SoakRunReport report = RunSoakSchedule(options, events);
    EXPECT_TRUE(report.ok) << report.status.ToString();
    EXPECT_TRUE(report.violations.empty()) << JoinLines(report.violations) << "\nfull log:\n"
                                           << report.LogText();
    EXPECT_GT(report.invariant_checks, 0);
    EXPECT_GT(report.iterations_trained, 0);
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

TEST(SoakScheduleTest, GenerationIsDeterministicInTheSeed) {
  SoakOptions options;
  options.seed = 42;
  const std::vector<SoakEvent> a = GenerateSoakSchedule(options);
  const std::vector<SoakEvent> b = GenerateSoakSchedule(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToJson().Dump(0), b[i].ToJson().Dump(0)) << "event " << i;
  }

  options.seed = 43;
  const std::vector<SoakEvent> c = GenerateSoakSchedule(options);
  bool any_difference = a.size() != c.size();
  for (size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a[i].ToJson().Dump(0) != c[i].ToJson().Dump(0);
  }
  EXPECT_TRUE(any_difference) << "seeds 42 and 43 generated identical schedules";
}

TEST(SoakScheduleTest, EverySeedComposesAtLeastThreeInjectorTypes) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SoakOptions options;
    options.seed = seed;
    const std::vector<SoakEvent> events = GenerateSoakSchedule(options);
    const std::vector<std::string> kinds = ScheduleInjectorKinds(events);
    EXPECT_GE(kinds.size(), 3u) << "seed " << seed << ": " << JoinLines(kinds);
  }
}

TEST(SoakScheduleTest, EventJsonRoundTripsEveryKind) {
  std::vector<SoakEvent> events;
  {
    SoakEvent e;
    e.kind = SoakEventKind::kTrain;
    e.iterations = 7;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kRankKill;
    e.kill_rank_raw = 0xdeadbeefcafeULL;
    e.kill_iter_raw = 17;
    e.kill_site = 3;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kFsFault;
    e.fs_kind = static_cast<int>(FaultPlan::Kind::kTornWrite);
    e.fs_op = static_cast<int>(FsOp::kWrite);
    e.fs_nth = 4;
    e.fs_path_substr = "_optim_states";
    e.fs_seed = 99;
    e.fs_fail_count = 2;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kGc;
    e.keep_last = 2;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kBackpressure;
    e.max_in_flight = 3;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kFsck;
    events.push_back(e);
  }
  for (const SoakEvent& event : events) {
    Result<SoakEvent> back = SoakEvent::FromJson(event.ToJson());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->ToJson().Dump(0), event.ToJson().Dump(0))
        << SoakEventKindName(event.kind);
  }
}

TEST(SoakScheduleTest, OptionsJsonExcludesMachineLocalBindings) {
  SoakOptions options;
  options.seed = 5;
  options.num_blocks = 6;
  options.job = "alpha";
  options.dir = "/tmp/somewhere";
  options.log_path = "/tmp/somewhere.jsonl";
  Result<SoakOptions> back = SoakOptions::FromJson(options.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->seed, 5u);
  EXPECT_EQ(back->num_blocks, 6);
  EXPECT_EQ(back->job, "alpha");
  EXPECT_EQ(back->strategy, options.strategy);
  // dir / log_path are runtime bindings, not schedule identity — they must not replay.
  EXPECT_TRUE(back->dir.empty());
  EXPECT_TRUE(back->log_path.empty());
}

// A log recorded with incremental saves ran a store this tree no longer has; replaying it
// as full saves would pass or fail for the wrong reasons, so parsing refuses it typed.
TEST(SoakScheduleTest, OptionsJsonRefusesIncrementalLogs) {
  JsonObject json = SoakOptions().ToJson().AsObject();
  ASSERT_EQ(json.count("incremental"), 0u);
  EXPECT_TRUE(SoakOptions::FromJson(Json(json)).ok());
  json["incremental"] = false;
  EXPECT_TRUE(SoakOptions::FromJson(Json(json)).ok());
  json["incremental"] = true;
  Result<SoakOptions> refused = SoakOptions::FromJson(Json(json));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("incremental saves were removed"),
            std::string::npos)
      << refused.status();
}

// ---------------------------------------------------------------------------
// Fixed-seed soak runs: 20 seeds, batched for ctest -j parallelism. Every
// schedule composes >= 3 injector types and must finish with zero invariant
// violations.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, FixedSeedsBatch1) {
  for (uint64_t seed : {1, 2, 3, 4}) RunSeedExpectClean(seed);
}

TEST_F(SoakTest, FixedSeedsBatch2) {
  for (uint64_t seed : {5, 6, 7, 8}) RunSeedExpectClean(seed);
}

TEST_F(SoakTest, FixedSeedsBatch3) {
  for (uint64_t seed : {9, 10, 11, 12}) RunSeedExpectClean(seed);
}

TEST_F(SoakTest, FixedSeedsBatch4) {
  for (uint64_t seed : {13, 14, 15, 16}) RunSeedExpectClean(seed);
}

TEST_F(SoakTest, FixedSeedsBatch5) {
  for (uint64_t seed : {17, 18, 19, 20}) RunSeedExpectClean(seed);
}

// ---------------------------------------------------------------------------
// Replay: a failure log re-executes bit-identically in a fresh directory.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, GeneratedScheduleReplaysBitIdentically) {
  SoakOptions options = OptionsForSeed(21);
  options.log_path = Sub("run.jsonl");
  SoakRunReport report = RunSoak(options);
  ASSERT_TRUE(report.ok) << report.status.ToString();
  ASSERT_TRUE(report.violations.empty()) << JoinLines(report.violations);

  // The log written to disk is the same bytes the report carries.
  Result<std::string> on_disk = ReadFileToString(options.log_path);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status();
  EXPECT_EQ(*on_disk, report.LogText());

  Result<SoakRunReport> replay = ReplaySoakLog(report.LogText(), Sub("replay"));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->LogText(), report.LogText());
}

TEST_F(SoakTest, HandBuiltCorruptionScheduleReplaysBitIdentically) {
  // A deliberately nasty hand-written schedule: torn write into the optimizer shards, a
  // retention sweep over the damage, an integrity scan, then more training. Corruption is
  // *expected* here — the invariants must account for it, not flag it.
  SoakOptions options;
  options.seed = 7777;
  options.dir = Sub("hand");

  std::vector<SoakEvent> events;
  {
    SoakEvent e;
    e.kind = SoakEventKind::kTrain;
    e.iterations = 3;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kFsFault;
    e.fs_kind = static_cast<int>(FaultPlan::Kind::kTornWrite);
    e.fs_op = static_cast<int>(FsOp::kWrite);
    e.fs_nth = 1;
    e.fs_path_substr = "_optim_states";
    e.fs_seed = 11;
    e.fs_fail_count = 1;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kTrain;
    e.iterations = 2;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kGc;
    e.keep_last = 1;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kFsck;
    events.push_back(e);
  }
  {
    SoakEvent e;
    e.kind = SoakEventKind::kTrain;
    e.iterations = 2;
    events.push_back(e);
  }

  SoakRunReport report = RunSoakSchedule(options, events);
  ASSERT_TRUE(report.ok) << report.status.ToString();
  EXPECT_TRUE(report.violations.empty()) << JoinLines(report.violations) << "\nfull log:\n"
                                         << report.LogText();

  Result<SoakRunReport> replay = ReplaySoakLog(report.LogText(), Sub("hand_replay"));
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->LogText(), report.LogText());
}

TEST_F(SoakTest, ParseSoakLogRecoversOptionsAndEvents) {
  SoakOptions options = OptionsForSeed(22);
  std::vector<SoakEvent> events = GenerateSoakSchedule(options);
  SoakRunReport report = RunSoakSchedule(options, events);
  ASSERT_TRUE(report.ok) << report.status.ToString();

  Result<SoakLog> parsed = ParseSoakLog(report.LogText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->options.seed, options.seed);
  EXPECT_EQ(parsed->options.job, options.job);
  EXPECT_TRUE(parsed->options.dir.empty());  // logs carry no absolute paths
  ASSERT_EQ(parsed->events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed->events[i].ToJson().Dump(0), events[i].ToJson().Dump(0)) << "event " << i;
  }
}

TEST(SoakReplayParseTest, RejectsTextWithoutHeader) {
  EXPECT_FALSE(ParseSoakLog("").ok());
  EXPECT_FALSE(ParseSoakLog("{\"type\":\"soak_event\"}\n").ok());
  EXPECT_FALSE(ParseSoakLog("not json at all\n").ok());
}

// ---------------------------------------------------------------------------
// Job-scoped retention and debris sweeps: the regression matrix behind the
// namespace isolation comment in src/ckpt/checkpoint.h.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, GcAndStagingSweepsAreJobScoped) {
  TrainerConfig config;
  config.model = TinyGpt();
  config.strategy = ParallelConfig{1, 1, 1, 1, 0, 1};
  config.global_batch = 8;
  TrainingRun run(config);
  run.Run([&](RankTrainer& trainer) {
    for (int64_t iteration : {1, 2}) {
      ASSERT_TRUE(SaveDistributedCheckpoint(dir_, trainer, iteration, "jobA").ok());
      ASSERT_TRUE(SaveDistributedCheckpoint(dir_, trainer, iteration, "jobB").ok());
    }
    ASSERT_TRUE(SaveDistributedCheckpoint(dir_, trainer, 1).ok());  // default namespace
  });

  // Crash debris in three namespaces.
  ASSERT_TRUE(MakeDirs(Sub("jobA.global_step9.staging")).ok());
  ASSERT_TRUE(MakeDirs(Sub("jobB.global_step7.ucp.staging")).ok());
  ASSERT_TRUE(MakeDirs(Sub("global_step9.staging")).ok());

  // jobA's sweep removes exactly its own debris.
  Result<int> swept = CleanStagingDebris(dir_, "jobA");
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(*swept, 1);
  EXPECT_FALSE(DirExists(Sub("jobA.global_step9.staging")));
  EXPECT_TRUE(DirExists(Sub("jobB.global_step7.ucp.staging")));
  EXPECT_TRUE(DirExists(Sub("global_step9.staging")));

  // The default namespace's sweep leaves jobB alone too.
  ASSERT_TRUE(CleanStagingDebris(dir_).ok());
  EXPECT_TRUE(DirExists(Sub("jobB.global_step7.ucp.staging")));
  EXPECT_FALSE(DirExists(Sub("global_step9.staging")));

  // jobA's retention deletes only jobA's oldest tag.
  Result<GcReport> gc = GcCheckpoints(dir_, /*keep_last=*/1, /*dry_run=*/false, "jobA");
  ASSERT_TRUE(gc.ok()) << gc.status();
  ASSERT_EQ(gc->removed.size(), 1u);
  EXPECT_EQ(gc->removed[0], "jobA.global_step1");
  EXPECT_EQ(*ListCheckpointTags(dir_, "jobA"), (std::vector<std::string>{"jobA.global_step2"}));
  EXPECT_EQ(ListCheckpointTags(dir_, "jobB")->size(), 2u);
  EXPECT_EQ(ListCheckpointTags(dir_)->size(), 1u);

  // Store-wide listing still sees every namespace.
  EXPECT_EQ(ListAllCheckpointTags(dir_)->size(), 4u);
}

// ---------------------------------------------------------------------------
// Multi-job store isolation
// ---------------------------------------------------------------------------

TEST_F(SoakTest, FourConcurrentJobsOnOneStoreStayIsolated) {
  MultiJobOptions options;
  options.dir = Sub("store");
  MultiJobReport report = RunMultiJobSoak(options);

  EXPECT_TRUE(report.ok()) << JoinLines(report.violations);
  EXPECT_TRUE(report.fault_fired);
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const MultiJobReport::JobResult& job : report.jobs) {
    EXPECT_TRUE(job.ok) << job.job << ": " << job.status.ToString();
    EXPECT_TRUE(job.deep_valid) << job.job;
    EXPECT_TRUE(job.reloaded) << job.job;
    EXPECT_GT(job.committed_tags, 0) << job.job;
    // Retention ran per job: at most keep_last committed tags survive.
    EXPECT_LE(job.committed_tags, options.keep_last) << job.job;
  }
  // The audit attributed real I/O to every job and saw no cross-job access.
  EXPECT_TRUE(report.audit.violations.empty());
  EXPECT_EQ(report.audit.ops_per_bucket.size(), 4u);
}

// The same soak with every job's save path routed through one live in-process daemon:
// the engines flush over RemoteStore connections while the path-scoped torn-write fault
// fires inside the daemon's own session threads (server-side injection). Isolation,
// fault fallback, and retention must hold exactly as in the direct-FS run.
TEST_F(SoakTest, ConcurrentJobsThroughOneDaemonStayIsolated) {
  MultiJobOptions options;
  options.dir = Sub("daemon_store");
  options.jobs = 3;
  options.through_daemon = true;
  MultiJobReport report = RunMultiJobSoak(options);

  EXPECT_TRUE(report.ok()) << JoinLines(report.violations);
  EXPECT_TRUE(report.fault_fired);
  ASSERT_EQ(report.jobs.size(), 3u);
  for (const MultiJobReport::JobResult& job : report.jobs) {
    EXPECT_TRUE(job.ok) << job.job << ": " << job.status.ToString();
    EXPECT_TRUE(job.deep_valid) << job.job;
    EXPECT_TRUE(job.reloaded) << job.job;
    EXPECT_GT(job.committed_tags, 0) << job.job;
    EXPECT_LE(job.committed_tags, options.keep_last) << job.job;
  }
  // Every job's files saw real (server-side) I/O, and no thread that declared a job
  // identity ever touched a sibling's files.
  EXPECT_TRUE(report.audit.violations.empty());
  EXPECT_EQ(report.audit.ops_per_bucket.size(), 3u);
}

// ---------------------------------------------------------------------------
// Large-world stress flatness: per-rank footprint at 128 ranks stays within 2x
// of the 32-rank baseline.
// ---------------------------------------------------------------------------

TEST(SoakStressTest, FootprintStaysFlatFrom32To128Ranks) {
  // A small orphan limit makes the boundedness claim binding: 32x2 = 64 exited rank
  // threads already exceed it, so a registry that retained one ring per exited thread
  // forever would fail the flatness check immediately.
  obs::SetTraceOrphanRingLimit(48);

  StressOptions base;
  base.ranks = 32;
  StressReport small = RunLargeWorldStress(base);

  StressOptions big = base;
  big.ranks = 128;
  StressReport large = RunLargeWorldStress(big);

  obs::SetTraceOrphanRingLimit(512);  // restore the default

  // Ring registry is bounded by the orphan limit, not O(rounds x ranks).
  EXPECT_LE(large.trace_rings, small.trace_rings + 8)
      << "trace rings grew with world size: " << small.trace_rings << " -> "
      << large.trace_rings;

  // Drop rate at 4x the world stays within 2x of the baseline (epsilon for a 0 baseline).
  EXPECT_LE(large.trace_drop_rate, 2.0 * small.trace_drop_rate + 0.01)
      << small.trace_drop_rate << " -> " << large.trace_drop_rate;

  // Cache misses don't scale with ranks: every rank asks for the same slice keys, so the
  // extra 96 ranks dedup onto existing loads (stats are process-cumulative — compare deltas).
  EXPECT_LE(large.cache_misses - small.cache_misses,
            static_cast<uint64_t>(big.rounds * big.cache_slices));

  // Peak RSS at 4x the world stays within 2x of the baseline reading (VmHWM is monotone,
  // so this bounds the *additional* footprint of the larger world).
  if (small.peak_rss_kb > 0) {
    EXPECT_LE(large.peak_rss_kb, 2 * small.peak_rss_kb)
        << small.peak_rss_kb << " kB -> " << large.peak_rss_kb << " kB";
  }
}

// ---------------------------------------------------------------------------
// Long soak population (label soak_long): skipped unless UCP_SOAK_LONG=1.
// ---------------------------------------------------------------------------

bool LongSoakEnabled() { return std::getenv("UCP_SOAK_LONG") != nullptr; }

class SoakLongTest : public SoakTest {};

TEST_F(SoakLongTest, TwentyDeepSchedules) {
  if (!LongSoakEnabled()) GTEST_SKIP() << "set UCP_SOAK_LONG=1 to run the long soak";
  for (uint64_t seed = 101; seed <= 120; ++seed) {
    SoakOptions options = OptionsForSeed(seed);
    options.num_blocks = 6;
    options.max_kills = 3;
    std::vector<SoakEvent> events = GenerateSoakSchedule(options);
    EXPECT_GE(ScheduleInjectorKinds(events).size(), 3u) << "seed " << seed;
    SoakRunReport report = RunSoakSchedule(options, events);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": " << report.status.ToString();
    EXPECT_TRUE(report.violations.empty())
        << "seed " << seed << ":\n" << JoinLines(report.violations);
  }
}

TEST_F(SoakLongTest, StressAt512Ranks) {
  if (!LongSoakEnabled()) GTEST_SKIP() << "set UCP_SOAK_LONG=1 to run the long soak";
  obs::SetTraceOrphanRingLimit(48);
  StressOptions base;
  base.ranks = 32;
  base.rounds = 3;
  StressReport small = RunLargeWorldStress(base);
  StressOptions big = base;
  big.ranks = 512;
  StressReport large = RunLargeWorldStress(big);
  obs::SetTraceOrphanRingLimit(512);

  EXPECT_LE(large.trace_rings, small.trace_rings + 8);
  EXPECT_LE(large.trace_drop_rate, 2.0 * small.trace_drop_rate + 0.01);
  if (small.peak_rss_kb > 0) {
    EXPECT_LE(large.peak_rss_kb, 2 * small.peak_rss_kb);
  }
}

TEST_F(SoakLongTest, EightJobsOnOneStore) {
  if (!LongSoakEnabled()) GTEST_SKIP() << "set UCP_SOAK_LONG=1 to run the long soak";
  MultiJobOptions options;
  options.dir = Sub("store8");
  options.jobs = 8;
  options.phases = 3;
  MultiJobReport report = RunMultiJobSoak(options);
  EXPECT_TRUE(report.ok()) << JoinLines(report.violations);
}

}  // namespace
}  // namespace ucp

// Crash-consistency matrix: kill the save/convert protocol at exact points with the
// deterministic fault injector, then prove resume falls back to the newest committed tag
// with bitwise-identical training state versus an uninterrupted run. This is the test
// harness the commit protocol (staging dir -> fsync -> rename -> `complete` marker) exists
// to pass.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <sstream>

#include "src/ckpt/async/engine.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/foreign.h"
#include "src/common/crc32.h"
#include "src/common/fault_fs.h"
#include "src/common/fs.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/atom.h"
#include "src/ucp/converter.h"
#include "src/ucp/elastic.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  return cfg;
}

// "torn_write write #1 of optim_states": fault kind, hooked operation, which match fires.
void PrintPlan(const FaultPlan& plan, std::ostream* os) {
  static const char* const kKinds[] = {"fail_stop", "torn_write", "bit_rot", "transient"};
  static const char* const kOps[] = {"write", "fsync", "rename", "read"};
  *os << kKinds[static_cast<int>(plan.kind)] << " " << kOps[static_cast<int>(plan.op)]
      << " #" << plan.nth << " of " << plan.path_substr;
}

class CrashConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_crash"); }
  void TearDown() override {
    DisarmFaults();  // never leak an armed plan into another test
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }
  // A LocalStore on Sub(name), for the Store& readers.
  std::shared_ptr<LocalStore> StoreAt(const std::string& name) {
    return std::make_shared<LocalStore>(Sub(name));
  }

  static void SaveAll(TrainingRun& run, const std::string& dir, int64_t iteration) {
    run.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(dir, t, iteration);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  // Every file under `dir` by relative path, with its bytes.
  static std::map<std::string, std::string> ReadTree(const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) {
        files[std::filesystem::relative(entry.path(), dir).string()] =
            *ReadFileToString(entry.path().string());
      }
    }
    return files;
  }

  // Crashes one UCP export at each of its hooked file operations in turn. `convert` exports
  // the tag `name` of `dest`. One clean run per op kind counts that kind's operations on
  // `name` (FaultOpsSeen) and keeps the committed tree as the reference; then a fail-stop
  // lands on each counted op. After each crash the export has failed and left no
  // `complete` marker (so no marker sits over a partial tree), `latest` is unchanged, and a
  // retry commits a tree byte-identical to the reference. Returns the points crashed at;
  // the reference export is left committed.
  int CrashAtEveryExportOp(LocalStore& dest, const std::string& name,
                           const std::function<Result<ConvertStats>()>& convert) {
    auto latest = [&] {
      Result<std::string> pointer = ReadLatestTag(dest);
      return pointer.ok() ? *pointer : std::string("<none>");
    };
    const std::string before = latest();
    const std::string tree = PathJoin(dest.root(), name);
    std::map<std::string, std::string> reference;
    int points = 0;
    for (FsOp op : {FsOp::kWrite, FsOp::kFsync, FsOp::kRename}) {
      int ops = 0;
      {
        ScopedFault count({FaultPlan::Kind::kFailStop, op, 1 << 30, name, 0});
        Result<ConvertStats> clean = convert();
        EXPECT_TRUE(clean.ok()) << clean.status();
        ops = FaultOpsSeen();
      }
      if (reference.empty()) {
        reference = ReadTree(tree);
        EXPECT_TRUE(reference.count("complete")) << "the clean export committed";
      }
      EXPECT_GT(ops, 0);
      for (int nth = 1; nth <= ops; ++nth) {
        std::ostringstream point;
        PrintPlan({FaultPlan::Kind::kFailStop, op, nth, name, 0}, &point);
        SCOPED_TRACE(point.str());
        EXPECT_TRUE(RemoveAll(tree).ok());
        {
          ScopedFault crash({FaultPlan::Kind::kFailStop, op, nth, name, 0});
          EXPECT_FALSE(convert().ok());
          EXPECT_TRUE(FaultFired());
        }
        EXPECT_FALSE(IsTagComplete(dest, name));
        EXPECT_EQ(latest(), before);
        Result<ConvertStats> retry = convert();
        EXPECT_TRUE(retry.ok()) << retry.status();
        EXPECT_EQ(ReadTree(tree), reference);
        ++points;
      }
      EXPECT_TRUE(RemoveAll(tree).ok());
    }
    EXPECT_TRUE(convert().ok());
    return points;
  }

  std::string dir_;
};

// One entry of the injection matrix: a fault armed during the save of global_step4, after a
// clean save of global_step2.
struct CrashCase {
  const char* label;
  FaultPlan plan;
  bool save_fails;          // fail-stop faults surface at save time...
  bool tag4_dir_remains;    // ...and may leave an uncommitted global_step4 behind
  bool check_find_latest;   // FindLatestValidTag detects marker/meta damage (not torn data)
};

// Without a printer gtest dumps the raw bytes, the label pointer included, into every
// listed test name, so the names ctest registers would change from build to build. The
// label is already the name's suffix, so the printer shows only the case's data.
void PrintTo(const CrashCase& c, std::ostream* os) { PrintPlan(c.plan, os); }

class CrashMatrixTest : public CrashConsistencyTest,
                        public ::testing::WithParamInterface<CrashCase> {};

TEST_P(CrashMatrixTest, ResumeFallsBackToLastValidTagBitExact) {
  const CrashCase& c = GetParam();
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});

  // Uninterrupted reference trajectory.
  TrainingRun ref(cfg);
  std::vector<double> ref_losses = ref.Train(1, 6);

  // Victim: commit global_step2 cleanly, then crash somewhere in the global_step4 save.
  TrainingRun victim(cfg);
  victim.Train(1, 2);
  SaveAll(victim, Sub("ckpt"), 2);
  victim.Train(3, 4);
  Status save = OkStatus();
  {
    ScopedFault fault(c.plan);
    victim.Run([&](RankTrainer& t) { save = SaveDistributedCheckpoint(Sub("ckpt"), t, 4); });
    EXPECT_TRUE(FaultFired()) << c.label << ": plan never matched an operation";
  }
  EXPECT_EQ(save.ok(), !c.save_fails) << c.label << ": " << save.ToString();
  EXPECT_EQ(DirExists(Sub("ckpt/global_step4")), c.tag4_dir_remains) << c.label;
  if (c.check_find_latest) {
    Result<std::string> valid = FindLatestValidTag(*StoreAt("ckpt"));
    ASSERT_TRUE(valid.ok()) << valid.status();
    EXPECT_EQ(*valid, "global_step2") << c.label;
  }

  // Resume: the damaged or uncommitted global_step4 must be skipped in favour of
  // global_step2, and the continued trajectory must equal the reference bit for bit.
  TrainingRun resumed(cfg);
  ResumeReport report;
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    report = *r;
  });
  EXPECT_EQ(report.tag, "global_step2") << c.label;
  EXPECT_EQ(report.iteration, 2) << c.label;
  EXPECT_EQ(report.path, ResumeReport::Path::kNative) << c.label;

  std::vector<double> resumed_losses = resumed.Train(3, 6);
  ASSERT_EQ(resumed_losses.size(), 4u);
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_losses[i], ref_losses[i + 2])
        << c.label << " diverged at iteration " << 3 + i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    InjectionMatrix, CrashMatrixTest,
    ::testing::Values(
        // Killed at the first file rename inside the staging dir: nothing of global_step4
        // survives (the abort path clears staging), `latest` still names global_step2.
        CrashCase{"kill_before_staging_rename",
                  {FaultPlan::Kind::kFailStop, FsOp::kRename, 1, "global_step4", 0},
                  /*save_fails=*/true, /*tag4_dir_remains=*/false,
                  /*check_find_latest=*/true},
        // Killed after the staging dir was renamed to global_step4 but before the
        // `complete` marker: the tag dir exists yet no reader trusts it.
        CrashCase{"kill_before_complete_marker",
                  {FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "complete", 0},
                  /*save_fails=*/true, /*tag4_dir_remains=*/true,
                  /*check_find_latest=*/true},
        // Torn write: the optimizer shard persists as a prefix under its final name and the
        // save commits "successfully" — only the CRC knows. Resume must fall back a tag.
        CrashCase{"torn_optimizer_write",
                  {FaultPlan::Kind::kTornWrite, FsOp::kWrite, 1, "optim_states",
                   0xDEADBEEFu},
                  /*save_fails=*/false, /*tag4_dir_remains=*/true,
                  /*check_find_latest=*/false},
        // Bit rot: one seed-chosen bit of the committed shard flips after the rename.
        CrashCase{"bitrot_optimizer_payload",
                  {FaultPlan::Kind::kBitRot, FsOp::kWrite, 1, "optim_states", 12345},
                  /*save_fails=*/false, /*tag4_dir_remains=*/true,
                  /*check_find_latest=*/false}),
    [](const ::testing::TestParamInfo<CrashCase>& row) { return row.param.label; });

TEST_F(CrashConsistencyTest, SaveRetriesCleanlyOverCrashDebris) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  run.Train(3, 4);

  // Crash between the tag rename and the marker, leaving an uncommitted global_step4.
  Status save = OkStatus();
  {
    ScopedFault fault({FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "complete", 0});
    run.Run([&](RankTrainer& t) { save = SaveDistributedCheckpoint(Sub("ckpt"), t, 4); });
  }
  ASSERT_FALSE(save.ok());
  ASSERT_TRUE(DirExists(Sub("ckpt/global_step4")));
  EXPECT_FALSE(IsTagComplete(*StoreAt("ckpt"), "global_step4"));
  EXPECT_EQ(ReadCheckpointMeta(*StoreAt("ckpt"), "global_step4").status().code(),
            StatusCode::kDataLoss);

  // The retry replaces the debris and commits.
  SaveAll(run, Sub("ckpt"), 4);
  EXPECT_TRUE(IsTagComplete(*StoreAt("ckpt"), "global_step4"));
  EXPECT_EQ(*ReadLatestTag(*StoreAt("ckpt")), "global_step4");
  EXPECT_EQ(*FindLatestValidTag(*StoreAt("ckpt")), "global_step4");

  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK_EQ(r->iteration, 4);
  });
}

TEST_F(CrashConsistencyTest, MultiRankSaveAbortsOnEveryRankWhenOneShardFails) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  run.Train(3, 4);

  // One rank's optimizer-shard write dies; the commit must not happen and *both* ranks must
  // report failure (the agreement all-reduce doubles as the barrier keeping them aligned).
  std::vector<Status> statuses(2);
  {
    ScopedFault fault({FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "optim_states", 0});
    run.Run([&](RankTrainer& t) {
      statuses[static_cast<size_t>(t.rank())] =
          SaveDistributedCheckpoint(Sub("ckpt"), t, 4);
    });
    EXPECT_TRUE(FaultFired());
  }
  EXPECT_FALSE(statuses[0].ok());
  EXPECT_FALSE(statuses[1].ok());
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4")));
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4.staging")));

  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK(r->tag == "global_step2");
  });
}

TEST_F(CrashConsistencyTest, UcpExportSurvivesACrashAtEveryOp) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  LocalStore ckpt(Sub("ckpt"));
  const int points = CrashAtEveryExportOp(ckpt, "global_step2.ucp", [&] {
    return ConvertToUcp(ckpt, "global_step2", ckpt, "global_step2.ucp");
  });
  EXPECT_GT(points, 3 * 10) << "TinyGpt has more than 10 atoms, three ops each";
  RecordProperty("crash_points", points);

  // A reshard resume after a crash converts again, to the same bytes, and loads them.
  const std::map<std::string, std::string> reference = ReadTree(Sub("ckpt/global_step2.ucp"));
  ASSERT_TRUE(RemoveAll(Sub("ckpt/global_step2.ucp")).ok());
  {
    ScopedFault crash({FaultPlan::Kind::kFailStop, FsOp::kRename, 1, "global_step2.ucp", 0});
    EXPECT_FALSE(ConvertToUcp(ckpt, "global_step2", ckpt, "global_step2.ucp").ok());
  }
  TrainingRun resharded(ConfigFor({2, 1, 1, 1, 0, 1}));
  resharded.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElasticFromTag(ckpt, "global_step2", t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK(r->path == ResumeReport::Path::kUcpConverted);
  });
  EXPECT_EQ(ReadTree(Sub("ckpt/global_step2.ucp")), reference);
}

TEST_F(CrashConsistencyTest, AtomBitRotIsCaughtOnReadAndByFsck) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);

  const char* victim = "language_model.output_layer.weight";
  {
    ScopedFault fault({FaultPlan::Kind::kBitRot, FsOp::kWrite, 1,
                       "atoms/" + std::string(victim), 777});
    ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());
    EXPECT_TRUE(FaultFired());
  }
  EXPECT_EQ(ReadAtom(*StoreAt("ucp"), "", victim).status().code(), StatusCode::kDataLoss);

  Result<FsckReport> fsck = Fsck(Sub("ucp"), /*quarantine=*/false);
  ASSERT_TRUE(fsck.ok()) << fsck.status();
  EXPECT_FALSE(fsck->clean()) << fsck->ToString();
}

TEST_F(CrashConsistencyTest, FsckCleanOnHealthyRootAndQuarantinesDamage) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  run.Train(3, 4);
  SaveAll(run, Sub("ckpt"), 4);
  ASSERT_TRUE(
      ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ckpt/global_step2.ucp")).ok());

  Result<FsckReport> healthy = Fsck(Sub("ckpt"), /*quarantine=*/false);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(healthy->clean()) << healthy->ToString();

  // Rot the newest tag's optimizer shard on disk.
  std::string shard =
      PathJoin(Sub("ckpt/global_step4"), OptimStatesFileName(0, 0, 0, 0));
  std::string contents = *ReadFileToString(shard);
  contents[contents.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteFileAtomic(shard, contents).ok());

  Result<FsckReport> damaged = Fsck(Sub("ckpt"), /*quarantine=*/false);
  ASSERT_TRUE(damaged.ok());
  EXPECT_FALSE(damaged->clean());
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step4")));  // report-only mode doesn't touch it

  Result<FsckReport> quarantined = Fsck(Sub("ckpt"), /*quarantine=*/true);
  ASSERT_TRUE(quarantined.ok());
  ASSERT_EQ(quarantined->quarantined.size(), 1u) << quarantined->ToString();
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4")));
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step4.quarantined")));

  // With the damage quarantined, resume lands on global_step2 even though `latest` still
  // names the quarantined tag.
  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK(r->tag == "global_step2");
  });
}

TEST_F(CrashConsistencyTest, UncommittedTagIsFlaggedByValidatorAndMetaReader) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  ASSERT_TRUE(RemoveAll(Sub("ckpt/global_step2/complete")).ok());

  EXPECT_FALSE(IsTagComplete(*StoreAt("ckpt"), "global_step2"));
  EXPECT_EQ(ReadCheckpointMeta(*StoreAt("ckpt"), "global_step2").status().code(),
            StatusCode::kDataLoss);
  Result<ValidationReport> report = ValidateNativeCheckpoint(*StoreAt("ckpt"), "global_step2");
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->ok());
  EXPECT_NE(report->problems[0].find("complete"), std::string::npos);
}

// ---- Kill-during-async-flush matrix ----
//
// Same discipline as the synchronous matrix, but the fault lands on the engine's background
// flusher instead of the rank threads: commit global_step2 synchronously, snapshot
// global_step4 through the async engine, kill the flush at an exact protocol point, and
// prove the resumed trajectory equals the uninterrupted (synchronous-baseline) run bit for
// bit. The engine's single flusher keeps the write/fsync/rename sequence — and therefore the
// injector's nth counts — deterministic.
struct AsyncCrashCase {
  const char* label;
  FaultPlan plan;
  bool wait_fails;        // fail-stop inside the flush surfaces through WaitAll...
  bool tag4_dir_remains;  // ...and may leave an uncommitted global_step4 behind
  bool check_find_latest;
};

void PrintTo(const AsyncCrashCase& c, std::ostream* os) { PrintPlan(c.plan, os); }

class AsyncCrashMatrixTest : public CrashConsistencyTest,
                             public ::testing::WithParamInterface<AsyncCrashCase> {};

TEST_P(AsyncCrashMatrixTest, ResumeAfterKilledFlushFallsBackBitExact) {
  const AsyncCrashCase& c = GetParam();
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});

  TrainingRun ref(cfg);
  std::vector<double> ref_losses = ref.Train(1, 6);

  TrainingRun victim(cfg);
  victim.Train(1, 2);
  SaveAll(victim, Sub("ckpt"), 2);  // the synchronous-save baseline commit
  victim.Train(3, 4);

  Status wait = OkStatus();
  {
    AsyncCheckpointEngine engine(StoreAt("ckpt"), victim.world_size());
    ScopedFault fault(c.plan);
    victim.Run([&](RankTrainer& t) {
      // The snapshot never touches the filesystem, so SaveAsync itself cannot trip a plan.
      Status s = engine.SaveAsync(t, 4);
      UCP_CHECK(s.ok()) << s.ToString();
    });
    wait = engine.WaitAll();
    EXPECT_TRUE(FaultFired()) << c.label << ": plan never matched an operation";
    AsyncSaveStats stats = engine.stats();
    EXPECT_EQ(stats.failures, c.wait_fails ? 1 : 0) << c.label;
    EXPECT_EQ(stats.commits, c.wait_fails ? 0 : 1) << c.label;
  }
  EXPECT_EQ(wait.ok(), !c.wait_fails) << c.label << ": " << wait.ToString();
  EXPECT_EQ(DirExists(Sub("ckpt/global_step4")), c.tag4_dir_remains) << c.label;
  if (c.check_find_latest) {
    Result<std::string> valid = FindLatestValidTag(*StoreAt("ckpt"));
    ASSERT_TRUE(valid.ok()) << valid.status();
    EXPECT_EQ(*valid, "global_step2") << c.label;
  }

  TrainingRun resumed(cfg);
  ResumeReport report;
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    report = *r;
  });
  EXPECT_EQ(report.tag, "global_step2") << c.label;
  EXPECT_EQ(report.iteration, 2) << c.label;
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4.staging")))
      << c.label << ": resume left flush debris behind";

  std::vector<double> resumed_losses = resumed.Train(3, 6);
  ASSERT_EQ(resumed_losses.size(), 4u);
  for (size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_losses[i], ref_losses[i + 2])
        << c.label << " diverged at iteration " << 3 + i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AsyncInjectionMatrix, AsyncCrashMatrixTest,
    ::testing::Values(
        // The flusher dies writing the first shard into staging: the failure path clears
        // the staging dir, so nothing of global_step4 exists anywhere.
        AsyncCrashCase{"async_kill_mid_shard_write",
                       {FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "optim_states", 0},
                       /*wait_fails=*/true, /*tag4_dir_remains=*/false,
                       /*check_find_latest=*/true},
        // Killed at the first file rename inside the staging dir — the async twin of the
        // sync matrix's kill_before_staging_rename point.
        AsyncCrashCase{"async_kill_before_staging_rename",
                       {FaultPlan::Kind::kFailStop, FsOp::kRename, 1, "global_step4", 0},
                       /*wait_fails=*/true, /*tag4_dir_remains=*/false,
                       /*check_find_latest=*/true},
        // The deferred fsync batch fails right before the commit rename: the engine's
        // batched-fsync path must treat an unsynced shard as a failed flush, not commit it.
        AsyncCrashCase{"async_kill_in_fsync_batch",
                       {FaultPlan::Kind::kFailStop, FsOp::kFsync, 1, "global_step4", 0},
                       /*wait_fails=*/true, /*tag4_dir_remains=*/false,
                       /*check_find_latest=*/true},
        // Killed between the staging->tag rename and the `complete` marker: the tag dir
        // survives but no reader — including the next resume — trusts it.
        AsyncCrashCase{"async_kill_before_complete_marker",
                       {FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "complete", 0},
                       /*wait_fails=*/true, /*tag4_dir_remains=*/true,
                       /*check_find_latest=*/true},
        // Torn shard write: the flush and commit "succeed"; only the CRC knows. WaitAll is
        // clean — the damage surfaces at resume time, which must fall back a tag.
        AsyncCrashCase{"async_torn_optimizer_write",
                       {FaultPlan::Kind::kTornWrite, FsOp::kWrite, 1, "optim_states",
                        0xDEADBEEFu},
                       /*wait_fails=*/false, /*tag4_dir_remains=*/true,
                       /*check_find_latest=*/false},
        // Bit rot in the committed shard, detected by CRC at load.
        AsyncCrashCase{"async_bitrot_optimizer_payload",
                       {FaultPlan::Kind::kBitRot, FsOp::kWrite, 1, "optim_states", 12345},
                       /*wait_fails=*/false, /*tag4_dir_remains=*/true,
                       /*check_find_latest=*/false}),
    [](const ::testing::TestParamInfo<AsyncCrashCase>& row) { return row.param.label; });

// ---- Foreign-ingestion faults ----

TEST_F(CrashConsistencyTest, ForeignExportSurvivesACrashAtEveryOp) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  run.Run([&](RankTrainer& t) {
    Status s = SaveForeignCheckpoint(Sub("foreign"), t, 2);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  LocalStore out(Sub("out"));
  const int points = CrashAtEveryExportOp(out, "foreign_step2.ucp", [&] {
    return ConvertForeignToUcp(Sub("foreign"), "foreign_step2", out, "foreign_step2.ucp");
  });
  EXPECT_GT(points, 3 * 10) << "TinyGpt has more than 10 atoms, three ops each";
  RecordProperty("crash_points", points);
}

TEST_F(CrashConsistencyTest, TornForeignBundleIsRejectedAtIngest) {
  // The foreign framework's own save tears (crash after rename journaled, before data
  // flushed). Ingestion must refuse the source with kDataLoss and produce no output — not
  // convert a prefix of the optimizer into a "valid" UCP checkpoint.
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  Status save = OkStatus();
  {
    ScopedFault fault(
        {FaultPlan::Kind::kTornWrite, FsOp::kWrite, 1, "state_rank0", 0xF00Du});
    run.Run([&](RankTrainer& t) { save = SaveForeignCheckpoint(Sub("foreign"), t, 2); });
    EXPECT_TRUE(FaultFired());
  }
  EXPECT_TRUE(save.ok());  // the torn write lies, as a real crash would

  LocalStore out(dir_);
  Result<ConvertStats> ingest = ConvertForeignToUcp(Sub("foreign"), "foreign_step2", out, "ucp");
  ASSERT_FALSE(ingest.ok());
  EXPECT_EQ(ingest.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(DirExists(Sub("ucp")));
  EXPECT_FALSE(DirExists(Sub("ucp.staging")));
}

TEST_F(CrashConsistencyTest, TornAtomWriteDuringForeignIngestIsCaughtByFsck) {
  // A torn atom write *inside* the ingest commits (the converter cannot know), but the
  // per-atom CRC keeps the damage from ever being trusted silently.
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  run.Run([&](RankTrainer& t) {
    Status s = SaveForeignCheckpoint(Sub("foreign"), t, 2);
    UCP_CHECK(s.ok()) << s.ToString();
  });

  LocalStore out(dir_);
  {
    ScopedFault fault({FaultPlan::Kind::kTornWrite, FsOp::kWrite, 1, "atoms/", 0xBEEFu});
    Result<ConvertStats> stats =
        ConvertForeignToUcp(Sub("foreign"), "foreign_step2", out, "ucp");
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_TRUE(FaultFired());
  }
  EXPECT_TRUE(IsTagComplete(out, "ucp"));  // the marker is there...

  Result<FsckReport> fsck = Fsck(Sub("ucp"), /*quarantine=*/false);
  ASSERT_TRUE(fsck.ok()) << fsck.status();
  EXPECT_FALSE(fsck->clean()) << fsck->ToString();  // ...but the CRCs say otherwise
}

TEST_F(CrashConsistencyTest, PerTensorCrcLocalizesCorruptionPastTheFileCrc) {
  // An adversarial flip that also patches the whole-file CRC trailer must still be caught —
  // by the per-tensor CRC, which names the damaged member.
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);

  std::string path = PathJoin(Sub("ckpt/global_step2"), OptimStatesFileName(0, 0, 0, 0));
  std::string contents = *ReadFileToString(path);
  ASSERT_GT(contents.size(), 64u);
  contents[contents.size() / 2] ^= 0x01;  // flip a payload bit
  uint32_t crc = Crc32(contents.data(), contents.size() - 4);  // re-seal the file CRC
  for (int i = 0; i < 4; ++i) {
    contents[contents.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());

  Status s = LoadBundle(path).status();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("per-tensor CRC"), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace ucp

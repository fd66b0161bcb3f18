// Fault-tolerance matrix for the elastic runtime: deterministic rank kills at chosen sites
// (mid-collective, mid-P2P, around async checkpoint saves) must never deadlock — the
// watchdog converts the hang into a detected RankFailure, the supervisor shrinks the
// parallelism strategy, and training resumes from the newest committed checkpoint with
// losses bit-identical to a clean reference on the shrunk strategy. Also covers the
// strategy-shrink policy, transient-I/O retry, and the fsck quarantine exit codes the
// recovery path leans on.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/common/fault_fs.h"
#include "src/common/fs.h"
#include "src/runtime/supervisor.h"
#include "src/store/server.h"
#include "src/ucp/elastic.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

using std::chrono::milliseconds;

TrainerConfig ConfigFor(const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  return cfg;
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_fault_tol"); }
  void TearDown() override {
    DisarmRankFaults();  // never leak an armed kill into another test
    DisarmFaults();
    SetIoRetryPolicy(IoRetryPolicy{});
    ResetIoRetryStats();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }

  static void SaveAll(TrainingRun& run, const std::string& dir, int64_t iteration) {
    run.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(dir, t, iteration);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// ShrinkStrategy policy
// ---------------------------------------------------------------------------

TEST(ShrinkStrategyTest, DropsDpBeforeTpByDefault) {
  const ModelConfig model = TinyGpt();
  Result<ParallelConfig> shrunk =
      ShrinkStrategy(model, /*global_batch=*/8, ParallelConfig{2, 1, 2, 1, 0, 1},
                     /*max_ranks=*/3);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_EQ(*shrunk, (ParallelConfig{2, 1, 1, 1, 0, 1}));
}

TEST(ShrinkStrategyTest, HonorsTpFirstOrder) {
  const ModelConfig model = TinyGpt();
  Result<ParallelConfig> shrunk =
      ShrinkStrategy(model, 8, ParallelConfig{2, 1, 2, 1, 0, 1}, 3,
                     {ShrinkAxis::kTp, ShrinkAxis::kDp});
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_EQ(*shrunk, (ParallelConfig{1, 1, 2, 1, 0, 1}));
}

TEST(ShrinkStrategyTest, ReturnsCurrentWhenItAlreadyFits) {
  const ModelConfig model = TinyGpt();
  const ParallelConfig current{2, 1, 2, 1, 0, 1};
  Result<ParallelConfig> same = ShrinkStrategy(model, 8, current, 4);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(*same, current);
}

TEST(ShrinkStrategyTest, CollapsesEveryAxisDownToOneRank) {
  const ModelConfig model = TinyGpt();
  Result<ParallelConfig> shrunk =
      ShrinkStrategy(model, 8, ParallelConfig{2, 2, 2, 1, 0, 1}, 1);
  ASSERT_TRUE(shrunk.ok()) << shrunk.status();
  EXPECT_EQ(shrunk->world_size(), 1);
}

TEST(ShrinkStrategyTest, RejectsNonPositiveMaxRanks) {
  EXPECT_EQ(ShrinkStrategy(TinyGpt(), 8, ParallelConfig{2, 1, 2, 1, 0, 1}, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Transient-I/O retry
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, TransientWriteFailuresAreRetriedToSuccess) {
  IoRetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(2);
  SetIoRetryPolicy(policy);
  ResetIoRetryStats();

  // Fail the first two write attempts with kUnavailable, then let the third succeed.
  ScopedFault fault(
      {FaultPlan::Kind::kTransient, FsOp::kWrite, 1, "flaky.bin", 0, /*fail_count=*/2});
  Status s = WriteFileAtomic(Sub("flaky.bin"), "payload");
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(FaultFired());
  EXPECT_EQ(*ReadFileToString(Sub("flaky.bin")), "payload");

  IoRetryStats stats = GetIoRetryStats();
  EXPECT_EQ(stats.transient_errors, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.giveups, 0u);
}

TEST_F(FaultToleranceTest, RetryGivesUpWhenTheOutageOutlastsMaxAttempts) {
  IoRetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(2);
  SetIoRetryPolicy(policy);
  ResetIoRetryStats();

  ScopedFault fault(
      {FaultPlan::Kind::kTransient, FsOp::kWrite, 1, "flaky.bin", 0, /*fail_count=*/5});
  Status s = WriteFileAtomic(Sub("flaky.bin"), "payload");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_FALSE(FileExists(Sub("flaky.bin")));

  IoRetryStats stats = GetIoRetryStats();
  EXPECT_EQ(stats.transient_errors, 2u);  // both attempts hit the outage
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.giveups, 1u);
}

TEST_F(FaultToleranceTest, PermanentFaultsAreNotRetried) {
  SetIoRetryPolicy(IoRetryPolicy{});
  ResetIoRetryStats();
  ScopedFault fault({FaultPlan::Kind::kFailStop, FsOp::kWrite, 1, "dead.bin", 0, 1});
  Status s = WriteFileAtomic(Sub("dead.bin"), "payload");
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  IoRetryStats stats = GetIoRetryStats();
  EXPECT_EQ(stats.transient_errors, 0u);  // kIoError is permanent: one attempt, no retry
  EXPECT_EQ(stats.retries, 0u);
}

// ---------------------------------------------------------------------------
// Kill matrix: no deadlock, automatic shrink + resume, correct root cause
// ---------------------------------------------------------------------------

struct KillCase {
  const char* label;
  ParallelConfig strategy;
  int victim;
  FaultSite site;
  int64_t kill_iteration;
  const char* expected_resume_tag;  // which committed tag recovery restores
  // The supervisor saves and resumes through a RemoteStore on an in-process daemon, and its
  // ckpt_dir (where only flight records land) holds no checkpoint.
  bool remote = false;
};

// Without a printer gtest dumps the raw bytes, the label pointer included, into every
// listed test name, so the names ctest registers would change from build to build. The
// label is already the name's suffix, so the printer shows only the case's data.
void PrintTo(const KillCase& c, std::ostream* os) {
  *os << c.strategy.ToString() << " rank " << c.victim << " " << FaultSiteName(c.site)
      << " @" << c.kill_iteration << (c.remote ? " remote" : "");
}

class KillMatrixTest : public FaultToleranceTest,
                       public ::testing::WithParamInterface<KillCase> {};

TEST_P(KillMatrixTest, SupervisorDetectsShrinksAndResumes) {
  const KillCase& c = GetParam();
  TrainerConfig cfg = ConfigFor(c.strategy);

  SupervisorOptions options;
  options.ckpt_dir = Sub("ckpt");
  options.checkpoint_every = 2;
  options.watchdog_timeout = milliseconds(1500);
  std::unique_ptr<StoreServer> server;
  if (c.remote) {
    StoreServerOptions server_options;
    server_options.root = Sub("daemon");
    server_options.listen = "unix:" + Sub("d.sock");
    Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(server_options);
    ASSERT_TRUE(started.ok()) << started.status();
    server = std::move(*started);
    options.store_endpoint = server->endpoint();
  }
  Supervisor supervisor(cfg, options);

  SupervisorReport report;
  {
    ScopedRankFault kill({c.victim, c.kill_iteration, c.site, 1});
    report = supervisor.Train(1, 6);
    EXPECT_TRUE(RankFaultFired()) << c.label << ": the kill plan never matched";
  }

  ASSERT_TRUE(report.ok) << c.label << ": " << report.status.ToString();
  EXPECT_EQ(report.recoveries, 1) << c.label;
  ASSERT_EQ(report.timings.size(), 1u) << c.label;
  const RecoveryTiming& timing = report.timings[0];
  EXPECT_EQ(timing.failure.kind, RankFailure::Kind::kInjected) << c.label;
  EXPECT_EQ(timing.failure.rank, c.victim) << c.label;
  EXPECT_EQ(timing.failure.iteration, c.kill_iteration) << c.label;
  EXPECT_EQ(timing.resumed_tag, c.expected_resume_tag) << c.label;
  EXPECT_LT(report.final_strategy.world_size(), c.strategy.world_size()) << c.label;

  ASSERT_EQ(report.losses.size(), 6u) << c.label;
  for (size_t i = 0; i < report.losses.size(); ++i) {
    EXPECT_GT(report.losses[i], 0.0) << c.label << ": no final loss for iteration " << i + 1;
  }
  // The shrunk resume converted through the store the engine saved to: the export is a
  // committed tag there, and nothing was written beside ckpt_dir's flight records.
  LocalStore saved(c.remote ? Sub("daemon") : Sub("ckpt"));
  EXPECT_TRUE(IsTagComplete(saved, std::string(c.expected_resume_tag) + ".ucp")) << c.label;
  if (server != nullptr) {
    server->Shutdown();
    LocalStore flight_records(Sub("ckpt"));
    EXPECT_FALSE(FindLatestValidTag(flight_records).ok()) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KillMatrix, KillMatrixTest,
    ::testing::Values(
        // TP2.DP2 (4 ranks), killed inside the gradient all-reduce: first and last rank.
        // The checkpoint at iteration 2 is committed, so recovery replays 3..6.
        KillCase{"tp2dp2_rank0_allreduce", {2, 1, 2, 1, 0, 1}, 0, FaultSite::kAllReduce, 3,
                 "global_step2"},
        KillCase{"tp2dp2_rank3_allreduce", {2, 1, 2, 1, 0, 1}, 3, FaultSite::kAllReduce, 3,
                 "global_step2"},
        // Killed before its SaveAsync snapshot at iteration 4: the step-4 gather stays
        // incomplete, the supervisor abandons it, and recovery falls back to step 2.
        KillCase{"tp2dp2_rank0_before_save", {2, 1, 2, 1, 0, 1}, 0, FaultSite::kBeforeSave, 4,
                 "global_step2"},
        // Killed after its snapshot deposit, while the flush is in flight: the gather is
        // complete, so the step-4 save still commits and recovery resumes from it.
        KillCase{"tp2dp2_rank3_async_flush", {2, 1, 2, 1, 0, 1}, 3, FaultSite::kAsyncFlush, 4,
                 "global_step4"},
        // The same kill with the supervisor on a daemon: the save, the newest-tag check,
        // the conversion and the load all go through its RemoteStore.
        KillCase{"tp2dp2_rank3_async_flush_remote", {2, 1, 2, 1, 0, 1}, 3,
                 FaultSite::kAsyncFlush, 4, "global_step4", /*remote=*/true},
        // TP1.PP2 (2 ranks), killed inside a pipeline P2P receive: stage 0 dies receiving
        // the backward grad, stage 1 dies receiving the forward activation.
        KillCase{"pp2_rank0_p2p_recv", {1, 2, 1, 1, 0, 1}, 0, FaultSite::kP2PRecv, 3,
                 "global_step2"},
        KillCase{"pp2_rank1_p2p_recv", {1, 2, 1, 1, 0, 1}, 1, FaultSite::kP2PRecv, 3,
                 "global_step2"}),
    [](const ::testing::TestParamInfo<KillCase>& row) { return row.param.label; });

// ---------------------------------------------------------------------------
// Bit-exact recovery: supervisor resume == clean reference on the shrunk strategy
// ---------------------------------------------------------------------------

// Builds the reference trajectory for a shrink test: train 1..4 cleanly on `from`, save a
// sync checkpoint at iteration 4, resume a fresh run on `to` (through UCP when the strategy
// differs), and return the losses of iterations 5..8.
std::vector<double> ShrunkReferenceLosses(const std::string& ckpt_dir,
                                          const ParallelConfig& from,
                                          const ParallelConfig& to) {
  TrainerConfig from_cfg = ConfigFor(from);
  TrainingRun clean(from_cfg);
  clean.Train(1, 4);
  clean.Run([&](RankTrainer& t) {
    Status s = SaveDistributedCheckpoint(ckpt_dir, t, 4);
    UCP_CHECK(s.ok()) << s.ToString();
  });

  TrainerConfig to_cfg = ConfigFor(to);
  TrainingRun resumed(to_cfg);
  LocalStore store(ckpt_dir);
  resumed.Run([&](RankTrainer& t) {
    Result<ResumeReport> r = ResumeElastic(store, t);
    UCP_CHECK(r.ok()) << r.status().ToString();
    UCP_CHECK_EQ(r->iteration, 4);
  });
  return resumed.Train(5, 8);
}

struct ShrinkExactCase {
  const char* label;
  std::vector<ShrinkAxis> order;
  ParallelConfig expected_final;  // TP2.DP2 minus one rank under this order
};

// As for KillCase; the order vector's heap pointer would be in the dump too.
void PrintTo(const ShrinkExactCase& c, std::ostream* os) {
  static const char* const kAxes[] = {"dp", "tp", "pp", "sp"};
  *os << "order";
  for (ShrinkAxis axis : c.order) {
    *os << " " << kAxes[static_cast<int>(axis)];
  }
  *os << " -> " << c.expected_final.ToString();
}

class ShrinkExactTest : public FaultToleranceTest,
                        public ::testing::WithParamInterface<ShrinkExactCase> {};

TEST_P(ShrinkExactTest, ResumedLossesMatchCleanShrunkReferenceBitExact) {
  const ShrinkExactCase& c = GetParam();
  const ParallelConfig full{2, 1, 2, 1, 0, 1};  // TP2.DP2, 4 ranks
  std::vector<double> ref_losses =
      ShrunkReferenceLosses(Sub("ref_ckpt"), full, c.expected_final);
  ASSERT_EQ(ref_losses.size(), 4u);

  TrainerConfig cfg = ConfigFor(full);
  SupervisorOptions options;
  options.ckpt_dir = Sub("sup_ckpt");
  options.checkpoint_every = 4;
  options.watchdog_timeout = milliseconds(1500);
  options.shrink_order = c.order;
  Supervisor supervisor(cfg, options);

  SupervisorReport report;
  {
    // Kill the last rank inside the all-reduce of iteration 6: past the committed step-4
    // checkpoint, so recovery replays 5..8 on the shrunk strategy.
    ScopedRankFault kill({3, 6, FaultSite::kAllReduce, 1});
    report = supervisor.Train(1, 8);
    EXPECT_TRUE(RankFaultFired()) << c.label;
  }

  ASSERT_TRUE(report.ok) << c.label << ": " << report.status.ToString();
  EXPECT_EQ(report.recoveries, 1) << c.label;
  EXPECT_EQ(report.final_strategy, c.expected_final) << c.label;
  ASSERT_EQ(report.timings.size(), 1u);
  EXPECT_EQ(report.timings[0].resumed_tag, "global_step4") << c.label;
  // The strategy changed, so resume must have gone through UCP, not the native loader.
  EXPECT_NE(report.timings[0].resume_path, ResumeReport::Path::kNative) << c.label;

  ASSERT_EQ(report.losses.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(report.losses[static_cast<size_t>(4 + i)], ref_losses[static_cast<size_t>(i)])
        << c.label << " diverged from the clean shrunk reference at iteration " << 5 + i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShrinkOrders, ShrinkExactTest,
    ::testing::Values(
        ShrinkExactCase{"default_order_drops_dp",
                        {ShrinkAxis::kDp, ShrinkAxis::kTp, ShrinkAxis::kPp, ShrinkAxis::kSp},
                        {2, 1, 1, 1, 0, 1}},
        ShrinkExactCase{"tp_first_order_drops_tp",
                        {ShrinkAxis::kTp, ShrinkAxis::kDp},
                        {1, 1, 2, 1, 0, 1}}),
    [](const ::testing::TestParamInfo<ShrinkExactCase>& row) { return row.param.label; });

// ---------------------------------------------------------------------------
// Fsck quarantine exit codes
// ---------------------------------------------------------------------------

// Flips one byte in the middle of `path` (silent media corruption; CRCs catch it).
void CorruptFile(const std::string& path) {
  Result<std::string> data = ReadFileToString(path);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_FALSE(data->empty());
  std::string bytes = *data;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
}

TEST_F(FaultToleranceTest, FsckExitCodesDistinguishCleanRepairedUnrecoverable) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  run.Train(3, 4);
  SaveAll(run, Sub("ckpt"), 4);

  // Clean tree: exit 0 with and without quarantine.
  Result<FsckReport> clean = Fsck(Sub("ckpt"), FsckOptions{});
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_TRUE(clean->clean());
  EXPECT_EQ(clean->ExitCode(false), 0);
  EXPECT_EQ(clean->ExitCode(true), 0);

  // Corrupt the newest tag's shard: report-only fsck exits 1 and renames nothing.
  CorruptFile(Sub("ckpt/global_step4/zero_pp_rank_0_mp_rank_00_000_sp_00_optim_states"));
  Result<FsckReport> found = Fsck(Sub("ckpt"), FsckOptions{});
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_EQ(found->ExitCode(false), 1);
  EXPECT_TRUE(found->quarantined.empty());
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step4")));

  // Quarantine: the damaged tag is renamed aside, an intact tag remains -> "repaired" (1).
  FsckOptions qopts;
  qopts.quarantine = true;
  Result<FsckReport> repaired = Fsck(Sub("ckpt"), qopts);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->ExitCode(true), 1);
  EXPECT_EQ(repaired->quarantine_failures, 0);
  ASSERT_EQ(repaired->quarantined.size(), 1u);
  EXPECT_EQ(repaired->quarantined[0], Sub("ckpt/global_step4.quarantined"));
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step4")));
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step4.quarantined")));
  EXPECT_NE(repaired->QuarantineSummary().find("1 quarantined"), std::string::npos);
  EXPECT_NE(repaired->QuarantineSummary().find("1 intact entry remains"), std::string::npos);
  LocalStore ckpt(Sub("ckpt"));
  EXPECT_EQ(*FindLatestValidTag(ckpt), "global_step2");

  // Corrupt the last surviving tag too: quarantine leaves nothing resumable -> 2.
  CorruptFile(Sub("ckpt/global_step2/zero_pp_rank_0_mp_rank_00_000_sp_00_optim_states"));
  Result<FsckReport> unrecoverable = Fsck(Sub("ckpt"), qopts);
  ASSERT_TRUE(unrecoverable.ok()) << unrecoverable.status();
  EXPECT_EQ(unrecoverable->ExitCode(true), 2);
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2")));
}

}  // namespace
}  // namespace ucp

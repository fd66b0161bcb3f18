// Failure injection: partial checkpoints, corrupted manifests, and error propagation
// through the parallel conversion pipeline. A checkpoint system earns its keep on the
// unhappy paths.

#include <gtest/gtest.h>

#include "src/ckpt/checkpoint.h"
#include "src/common/fs.h"
#include "src/store/local_store.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/converter.h"
#include "src/ucp/elastic.h"
#include "src/ucp/loader.h"
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

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_robustness"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string Sub(const std::string& name) { return PathJoin(dir_, name); }

  // Trains briefly and checkpoints under Sub("ckpt").
  void MakeCheckpoint(const ParallelConfig& strategy, int64_t iteration = 2) {
    TrainingRun run(ConfigFor(strategy));
    run.Train(1, iteration);
    run.Run([&](RankTrainer& t) {
      UCP_CHECK(SaveDistributedCheckpoint(Sub("ckpt"), t, iteration).ok());
    });
  }

  std::string dir_;
};

TEST_F(RobustnessTest, ConvertFailsCleanlyOnMissingRankFile) {
  MakeCheckpoint({2, 1, 2, 1, 1, 1});
  // Simulate a rank that died mid-save: remove one optimizer shard.
  ASSERT_TRUE(
      RemoveAll(PathJoin(Sub("ckpt/global_step2"), OptimStatesFileName(1, 1, 0, 0))).ok());
  Result<ConvertStats> stats =
      ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp"), {.num_threads = 4});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(RobustnessTest, ConvertDetectsCorruptOptimizerShard) {
  MakeCheckpoint({1, 1, 2, 1, 2, 1});
  std::string victim = PathJoin(Sub("ckpt/global_step2"), OptimStatesFileName(0, 0, 0, 0));
  std::string contents = *ReadFileToString(victim);
  contents[contents.size() - 20] ^= 0xFF;  // flip payload bits near the tail
  ASSERT_TRUE(WriteFileAtomic(victim, contents).ok());
  Result<ConvertStats> stats = ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

TEST_F(RobustnessTest, ConvertRejectsTamperedMeta) {
  MakeCheckpoint({1, 1, 1, 1, 0, 1});
  std::string meta_path = PathJoin(Sub("ckpt/global_step2"), "checkpoint_meta.json");
  ASSERT_TRUE(WriteFileAtomic(meta_path, "{not json").ok());
  EXPECT_FALSE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());
}

TEST_F(RobustnessTest, LoadUcpFailsOnMissingAtomTensor) {
  MakeCheckpoint({1, 1, 1, 1, 0, 1});
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());
  ASSERT_TRUE(RemoveAll(Sub("ucp/atoms/language_model.output_layer.weight")).ok());
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  Status s = LoadUcpCheckpoint(Sub("ucp"), run.trainer(0));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(RobustnessTest, LoadUcpFailsOnShapeTamperedAtom) {
  MakeCheckpoint({1, 1, 1, 1, 0, 1});
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());
  // Overwrite one atom with wrong-shaped members (valid file, wrong contents).
  TensorBundle wrong;
  for (const char* member : kAtomMembers) {
    wrong.Add(member, Tensor::Zeros({7}));
  }
  wrong.meta = Json(JsonObject{});
  ASSERT_TRUE(
      SaveBundle(Sub("ucp/atoms/language_model.encoder.final_layernorm.weight"), wrong).ok());
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  Status s = LoadUcpCheckpoint(Sub("ucp"), run.trainer(0));
  EXPECT_FALSE(s.ok());
}

TEST_F(RobustnessTest, ResumeElasticPropagatesCorruptionNotReshard) {
  // A corrupt checkpoint must not be misdiagnosed as a strategy change (which would
  // trigger a pointless conversion).
  MakeCheckpoint({1, 1, 2, 1, 1, 1});
  std::string victim = PathJoin(Sub("ckpt/global_step2"), OptimStatesFileName(0, 0, 0, 0));
  std::string contents = *ReadFileToString(victim);
  contents[contents.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(victim, contents).ok());

  TrainingRun run(ConfigFor({1, 1, 2, 1, 1, 1}));
  std::vector<Status> statuses(2);
  LocalStore ckpt(Sub("ckpt"));
  run.Run([&](RankTrainer& t) {
    Result<ResumeReport> report = ResumeElastic(ckpt, t);
    statuses[static_cast<size_t>(t.rank())] =
        report.ok() ? OkStatus() : report.status();
  });
  // Rank 0 reads the corrupted shard; it must report data loss, not attempt conversion.
  EXPECT_EQ(statuses[0].code(), StatusCode::kDataLoss);
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step2.ucp")));
}

TEST_F(RobustnessTest, ResumeElasticWithoutLatestIsNotFound) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  ASSERT_TRUE(MakeDirs(Sub("empty")).ok());
  LocalStore empty(Sub("empty"));
  Result<ResumeReport> report = ResumeElastic(empty, run.trainer(0));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST_F(RobustnessTest, UcpMetaTamperedVersionRejected) {
  MakeCheckpoint({1, 1, 1, 1, 0, 1});
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());
  const std::string manifest = Sub("ucp/checkpoint_meta.json");
  Json meta = *Json::Parse(*ReadFileToString(manifest));
  meta["format_version"] = 999;
  ASSERT_TRUE(WriteFileAtomic(manifest, meta.Dump()).ok());
  LocalStore ucp(Sub("ucp"));
  EXPECT_EQ(ReadUcpMeta(ucp, "").status().code(), StatusCode::kFailedPrecondition);
}

// A UCP cache in format 2, which committed outside the tag protocol: its manifest is
// `ucp_meta.json` (format_version 2) and its marker reads "ucp". Resume and the load refuse
// it up front with kFailedPrecondition naming the version (not a NotFound for the missing
// checkpoint_meta.json), and validation and fsck report it; fsck --quarantine renames it
// aside.
TEST_F(RobustnessTest, UcpFormatVersion2IsRefusedByLoadValidateAndFsck) {
  MakeCheckpoint({1, 1, 1, 1, 0, 1});
  const std::string cache = Sub("ckpt/global_step2.ucp");
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", cache).ok());
  Json json = *Json::Parse(*ReadFileToString(PathJoin(cache, "checkpoint_meta.json")));
  json["format_version"] = 2;
  ASSERT_TRUE(WriteFileAtomic(PathJoin(cache, "ucp_meta.json"), json.Dump()).ok());
  ASSERT_TRUE(RemoveAll(PathJoin(cache, "checkpoint_meta.json")).ok());
  ASSERT_TRUE(WriteFileAtomic(PathJoin(cache, kCompleteMarker), "ucp").ok());
  auto names_version_2 = [](const std::string& text) {
    return text.find("format version 2") != std::string::npos;
  };

  TrainingRun single(ConfigFor({1, 1, 1, 1, 0, 1}));
  Status load = LoadUcpCheckpoint(cache, single.trainer(0));
  EXPECT_EQ(load.code(), StatusCode::kFailedPrecondition) << load;
  EXPECT_TRUE(names_version_2(load.message())) << load;

  // A reshard resume finds the committed cache and stops on it rather than walking on.
  TrainingRun resharded(ConfigFor({2, 1, 1, 1, 0, 1}));
  std::vector<Status> resumes(2);
  LocalStore ckpt(Sub("ckpt"));
  resharded.Run([&](RankTrainer& t) {
    Result<ResumeReport> report = ResumeElastic(ckpt, t);
    resumes[static_cast<size_t>(t.rank())] = report.ok() ? OkStatus() : report.status();
  });
  for (const Status& resume : resumes) {
    EXPECT_EQ(resume.code(), StatusCode::kFailedPrecondition) << resume;
    EXPECT_TRUE(names_version_2(resume.message())) << resume;
  }

  Result<ValidationReport> report = ValidateUcpCheckpoint(cache);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->problems.size(), 1u) << report->ToString();
  EXPECT_TRUE(names_version_2(report->problems[0])) << report->problems[0];

  Result<FsckReport> fsck = Fsck(Sub("ckpt"), /*quarantine=*/true);
  ASSERT_TRUE(fsck.ok()) << fsck.status();
  EXPECT_FALSE(fsck->clean()) << fsck->ToString();
  ASSERT_EQ(fsck->quarantined.size(), 1u) << fsck->ToString();
  EXPECT_EQ(fsck->quarantined[0], cache + ".quarantined");
  EXPECT_EQ(fsck->ExitCode(/*quarantine_mode=*/true), 1) << fsck->ToString();
  EXPECT_FALSE(DirExists(cache));
}

// An atom file that lacks one of its three members is damage, never zeros: ReadAtom, the
// sliced load, the reference load and validation all refuse it with kDataLoss.
TEST_F(RobustnessTest, AtomMissingAMemberIsRefusedNotReadAsZeros) {
  MakeCheckpoint({1, 1, 1, 1, 0, 1});
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());
  const std::string name = "language_model.output_layer.weight";
  const std::string path = PathJoin(Sub("ucp"), AtomRel("", name));
  Result<TensorBundle> atom = LoadBundle(path);
  ASSERT_TRUE(atom.ok()) << atom.status();
  ASSERT_EQ(atom->tensors.size(), 3u);
  atom->tensors.pop_back();  // exp_avg_sq
  ASSERT_TRUE(SaveBundle(path, *atom).ok());

  LocalStore ucp(Sub("ucp"));
  Result<ParamState> read = ReadAtom(ucp, "", name);
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
  for (bool sliced : {true, false}) {
    SCOPED_TRACE(sliced ? "sliced" : "reference");
    TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
    Status s = LoadUcpCheckpoint(Sub("ucp"), run.trainer(0), {.sliced = sliced});
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;
  }
  Result<ValidationReport> report = ValidateUcpCheckpoint(Sub("ucp"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->problems.size(), 1u) << report->ToString();
  EXPECT_EQ(report->problems[0].rfind(AtomRel("", name) + ": DATA_LOSS", 0), 0u)
      << report->problems[0];
}

TEST_F(RobustnessTest, SaveIsAtomicUnderRepeatedOverwrites) {
  // Saving the same tag repeatedly must never leave temp files or a mixed state.
  TrainingRun run(ConfigFor({1, 1, 2, 1, 1, 1}));
  run.Train(1, 1);
  for (int round = 0; round < 3; ++round) {
    run.Run([&](RankTrainer& t) {
      UCP_CHECK(SaveDistributedCheckpoint(Sub("ckpt"), t, 1).ok());
    });
  }
  auto files = *ListDir(Sub("ckpt/global_step1"));
  for (const std::string& file : files) {
    EXPECT_EQ(file.find(".tmp."), std::string::npos) << file;
  }
  TrainingRun fresh(ConfigFor({1, 1, 2, 1, 1, 1}));
  fresh.Run([&](RankTrainer& t) {
    UCP_CHECK(LoadDistributedCheckpoint(Sub("ckpt"), "global_step1", t).ok());
  });
}

}  // namespace
}  // namespace ucp

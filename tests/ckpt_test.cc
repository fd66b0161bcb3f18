// Native distributed checkpointing: save/load round trips, strict-load failure on strategy
// or flat-layout mismatch (the Fig. 1 behaviour), corruption handling, tags written with an
// extra per-model-parallel-rank file by older builds, and the foreign DDP-style format.

#include <gtest/gtest.h>

#include <functional>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/foreign.h"
#include "src/common/fs.h"
#include "src/tensor/tensor_file.h"
#include "src/ucp/atom.h"
#include "src/ucp/converter.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = TinyGpt();
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  cfg.lr.warmup_iters = 2;
  cfg.lr.decay_iters = 30;
  return cfg;
}

class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = *MakeTempDir("ucp_ckpt_test");
    store_ = std::make_unique<LocalStore>(dir_);
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  void SaveAll(TrainingRun& run, int64_t iteration) {
    run.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(dir_, t, iteration);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  std::string dir_;
  std::unique_ptr<LocalStore> store_;  // on dir_
};

TEST_F(CkptTest, MetaJsonRoundTrip) {
  CheckpointMeta meta;
  meta.model = TinyLlama();
  meta.strategy = {2, 2, 2, 1, 1, 2};
  meta.iteration = 123;
  meta.global_batch = 64;
  meta.data_seed = 99;
  meta.compute_dtype = DType::kBF16;
  Result<CheckpointMeta> back = CheckpointMeta::FromJson(meta.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->model == meta.model);
  EXPECT_TRUE(back->strategy == meta.strategy);
  EXPECT_EQ(back->iteration, 123);
  EXPECT_EQ(back->compute_dtype, DType::kBF16);
}

TEST_F(CkptTest, FileNamingMatchesLayout) {
  EXPECT_EQ(TagForIteration(100), "global_step100");
  EXPECT_EQ(OptimStatesFileName(3, 0, 1, 0), "zero_pp_rank_3_mp_rank_00_001_sp_00_optim_states");
}

TEST_F(CkptTest, SaveWritesExpectedFiles) {
  TrainingRun run(ConfigFor({2, 2, 2, 1, 1, 1}));
  run.Train(1, 2);
  SaveAll(run, 2);

  EXPECT_EQ(*ReadLatestTag(*store_), "global_step2");
  std::string tag_dir = PathJoin(dir_, "global_step2");
  auto files = *ListDir(tag_dir);
  // 8 optim files (one per rank, its only shard file), 1 meta, 1 marker.
  EXPECT_EQ(files.size(), 10u);
  EXPECT_TRUE(IsTagComplete(*store_, "global_step2"));
  Result<CheckpointMeta> meta = ReadCheckpointMeta(*store_, "global_step2");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->iteration, 2);
}

TEST_F(CkptTest, SameConfigResumeIsBitExact) {
  TrainerConfig cfg = ConfigFor({2, 1, 2, 1, 1, 1});
  TrainingRun run(cfg);
  run.Train(1, 4);
  SaveAll(run, 4);
  auto continued = run.Train(5, 8);

  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Status s = LoadDistributedCheckpoint(dir_, "global_step4", t);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  auto after = resumed.Train(5, 8);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i], continued[i]) << "iter " << 5 + i;
  }
}

TEST_F(CkptTest, Zero3SaveLoadRoundTrip) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 3, 1});
  TrainingRun run(cfg);
  run.Train(1, 3);
  SaveAll(run, 3);
  auto continued = run.Train(4, 6);

  TrainingRun resumed(cfg);
  resumed.Run([&](RankTrainer& t) {
    Status s = LoadDistributedCheckpoint(dir_, "global_step3", t);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  auto after = resumed.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i], continued[i]);
  }
}

// The Fig. 1 failure mode: strict native loading rejects any strategy change.
TEST_F(CkptTest, StrategyMismatchIsFailedPrecondition) {
  TrainingRun source(ConfigFor({2, 1, 2, 1, 1, 1}));
  source.Train(1, 2);
  SaveAll(source, 2);

  for (ParallelConfig target : {ParallelConfig{1, 1, 4, 1, 1, 1},   // different grid
                                ParallelConfig{2, 1, 2, 1, 2, 1},   // different ZeRO stage
                                ParallelConfig{1, 2, 2, 1, 1, 1}}) {
    TrainingRun run(ConfigFor(target));
    std::vector<Status> statuses(static_cast<size_t>(run.world_size()));
    run.Run([&](RankTrainer& t) {
      statuses[static_cast<size_t>(t.rank())] =
          LoadDistributedCheckpoint(dir_, "global_step2", t);
    });
    for (const Status& s : statuses) {
      EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << target.ToString();
    }
  }
}

TEST_F(CkptTest, ModelMismatchRejected) {
  TrainingRun source(ConfigFor({1, 1, 1, 1, 0, 1}));
  source.Train(1, 1);
  SaveAll(source, 1);

  TrainerConfig other = ConfigFor({1, 1, 1, 1, 0, 1});
  other.model = TinyLlama();
  TrainingRun run(other);
  Status s = LoadDistributedCheckpoint(dir_, "global_step1", run.trainer(0));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(CkptTest, MissingTagIsNotFound) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  Status s = LoadDistributedCheckpoint(dir_, "global_step999", run.trainer(0));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(CkptTest, CorruptedOptimFileIsDataLoss) {
  TrainerConfig cfg = ConfigFor({1, 1, 1, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 1);
  SaveAll(run, 1);
  std::string path =
      PathJoin(PathJoin(dir_, "global_step1"), OptimStatesFileName(0, 0, 0, 0));
  std::string contents = *ReadFileToString(path);
  contents[contents.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());

  TrainingRun fresh(cfg);
  Status s = LoadDistributedCheckpoint(dir_, "global_step1", fresh.trainer(0));
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST_F(CkptTest, LatestTagTracksNewestSave) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 1);
  SaveAll(run, 1);
  run.Train(2, 2);
  SaveAll(run, 2);
  EXPECT_EQ(*ReadLatestTag(*store_), "global_step2");
}

// Within one strategy the strict check still binds each shard to the live model: a shard whose
// flat_layout renames one parameter, or gives it another shard shape with the same numel,
// fails with kFailedPrecondition naming that parameter on every rank, even with every CRC
// valid. ZeRO-3 shards carry the same layout and get the same check.
TEST_F(CkptTest, FlatLayoutMismatchIsFailedPreconditionNamingTheParameter) {
  // Each edit changes one flat segment (segment 1, a 2-D weight).
  const std::vector<std::pair<const char*, std::function<void(JsonObject&)>>> edits = {
      {"renamed", [](JsonObject& segment) {
         segment["name"] = Json(segment.at("name").AsString() + "_renamed");
       }},
      {"transposed shard shape", [](JsonObject& segment) {
         JsonArray& shape = segment.at("shape").AsArray();
         ASSERT_EQ(shape.size(), 2u);
         ASSERT_NE(shape[0].AsInt(), shape[1].AsInt());
         std::swap(shape[0], shape[1]);
       }},
  };
  for (ParallelConfig strategy : {ParallelConfig{1, 1, 2, 1, 1, 1},
                                  ParallelConfig{1, 1, 2, 1, 3, 1}}) {
    for (const auto& [what, edit] : edits) {
      SCOPED_TRACE(strategy.ToString() + " " + what);
      ASSERT_TRUE(RemoveAll(dir_).ok());
      const TrainerConfig cfg = ConfigFor(strategy);
      TrainingRun source(cfg);
      source.Train(1, 2);
      SaveAll(source, 2);

      // Every DP peer's shard carries the same layout; edit each and reseal the file.
      std::string param;
      for (int dp = 0; dp < strategy.dp; ++dp) {
        const std::string path =
            PathJoin(PathJoin(dir_, "global_step2"), OptimStatesFileName(dp, 0, 0, 0));
        Result<TensorBundle> bundle = LoadBundle(path);
        ASSERT_TRUE(bundle.ok()) << bundle.status();
        JsonObject& segment = bundle->meta["flat_layout"]["segments"].AsArray()[1].AsObject();
        param = segment.at("name").AsString();
        edit(segment);
        ASSERT_TRUE(SaveBundle(path, *bundle).ok());
      }

      TrainingRun run(cfg);
      std::vector<Status> statuses(static_cast<size_t>(run.world_size()));
      run.Run([&](RankTrainer& t) {
        statuses[static_cast<size_t>(t.rank())] =
            LoadDistributedCheckpoint(dir_, "global_step2", t);
      });
      for (const Status& s : statuses) {
        EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
        EXPECT_NE(s.message().find(param), std::string::npos) << s;
      }
    }
  }
}

// Older builds also wrote one mp_rank_TT_PPP_sp_SS_model_states file per model-parallel
// rank. No reader opens it: a tag carrying one, whatever its bytes, still resumes
// bit-exactly, converts, and passes fsck.
TEST_F(CkptTest, LegacyModelStatesFileIsIgnored) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 1, 1});
  TrainingRun source(cfg);
  source.Train(1, 2);
  SaveAll(source, 2);
  const std::vector<double> continued = source.Train(3, 4);

  TensorBundle params;
  params.Add("language_model.embedding.word_embeddings.weight", Tensor::Full({4, 8}, 0.5f));
  params.meta = Json(JsonObject{{"tp_index", Json(int64_t{0})}});
  const std::string legacy =
      PathJoin(PathJoin(dir_, "global_step2"), "mp_rank_00_000_sp_00_model_states");
  const std::vector<std::pair<const char*, std::string>> contents = {
      {"garbage", std::string(1000, '\x5a')},
      {"empty", ""},
      {"bundle", [&] {
         std::vector<uint8_t> bytes = *SerializeBundle(params);
         return std::string(bytes.begin(), bytes.end());
       }()},
  };
  for (const auto& [label, bytes] : contents) {
    SCOPED_TRACE(label);
    ASSERT_TRUE(WriteFileAtomic(legacy, bytes).ok());

    TrainingRun resumed(cfg);
    resumed.Run([&](RankTrainer& t) {
      Status s = LoadDistributedCheckpoint(dir_, "global_step2", t);
      UCP_CHECK(s.ok()) << s.ToString();
    });
    const std::vector<double> after = resumed.Train(3, 4);
    ASSERT_EQ(after.size(), continued.size());
    for (size_t i = 0; i < continued.size(); ++i) {
      EXPECT_DOUBLE_EQ(after[i], continued[i]) << "iter " << 3 + i;
    }

    const std::string ucp_dir = PathJoin(dir_, "global_step2.ucp");
    ASSERT_TRUE(RemoveAll(ucp_dir).ok());
    Result<ConvertStats> converted = ConvertToUcp(dir_, "global_step2", ucp_dir);
    EXPECT_TRUE(converted.ok()) << converted.status();

    Result<FsckReport> fsck = Fsck(dir_, FsckOptions{});
    ASSERT_TRUE(fsck.ok()) << fsck.status();
    EXPECT_TRUE(fsck->clean()) << fsck->ToString();
  }
}

// ---------------- Metadata negative paths ----------------
// Damaged metadata must come back as a Status, never a crash or a silently-default config.

TEST_F(CkptTest, TruncatedMetaJsonIsError) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  run.Train(1, 1);
  SaveAll(run, 1);
  std::string path = PathJoin(PathJoin(dir_, "global_step1"), "checkpoint_meta.json");
  std::string text = *ReadFileToString(path);
  ASSERT_TRUE(WriteFileAtomic(path, text.substr(0, text.size() / 2)).ok());
  EXPECT_FALSE(ReadCheckpointMeta(*store_, "global_step1").ok());
}

TEST_F(CkptTest, MetaWrongFormatVersionIsFailedPrecondition) {
  CheckpointMeta meta;
  meta.model = TinyGpt();
  Json json = meta.ToJson();
  json["format_version"] = 999;
  EXPECT_EQ(CheckpointMeta::FromJson(json).status().code(),
            StatusCode::kFailedPrecondition);
  json["format_version"] = Json();  // wrong type entirely
  EXPECT_FALSE(CheckpointMeta::FromJson(json).ok());
}

TEST_F(CkptTest, MetaOutOfRangeDtypeIsDataLoss) {
  CheckpointMeta meta;
  meta.model = TinyGpt();
  Json json = meta.ToJson();
  json["compute_dtype"] = 42;
  EXPECT_EQ(CheckpointMeta::FromJson(json).status().code(), StatusCode::kDataLoss);
  json["compute_dtype"] = -1;
  EXPECT_EQ(CheckpointMeta::FromJson(json).status().code(), StatusCode::kDataLoss);
}

TEST_F(CkptTest, MetaMissingModelOrStrategyIsDataLoss) {
  CheckpointMeta meta;
  meta.model = TinyGpt();
  for (const char* key : {"model", "strategy"}) {
    JsonObject obj = meta.ToJson().AsObject();
    obj.erase(key);
    EXPECT_EQ(CheckpointMeta::FromJson(Json(std::move(obj))).status().code(),
              StatusCode::kDataLoss)
        << key;
  }
}

TEST_F(CkptTest, UcpMetaMissingOrMalformedAtomNamesIsError) {
  UcpMeta meta;
  meta.model = TinyGpt();
  meta.atom_names = {"a.weight", "b.bias"};
  ASSERT_TRUE(UcpMeta::FromJson(meta.ToJson()).ok());

  JsonObject no_atoms = meta.ToJson().AsObject();
  no_atoms.erase("atoms");
  EXPECT_FALSE(UcpMeta::FromJson(Json(std::move(no_atoms))).ok());

  Json bad_entry = meta.ToJson();
  bad_entry["atoms"] = Json(JsonArray{Json("ok"), Json(int64_t{7})});
  EXPECT_EQ(UcpMeta::FromJson(bad_entry).status().code(), StatusCode::kDataLoss);
}

// ---------------- Retention ----------------

TEST_F(CkptTest, ListCheckpointTagsSortedByIteration) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  for (int64_t it : {9, 100, 2}) {  // lexicographic order differs from numeric
    run.Train(it, it);
    SaveAll(run, it);
  }
  EXPECT_EQ(*store_->ListTags(""),
            (std::vector<std::string>{"global_step2", "global_step9", "global_step100"}));
}

TEST_F(CkptTest, GcKeepsNewestAndLatest) {
  TrainingRun run(ConfigFor({1, 1, 1, 1, 0, 1}));
  for (int64_t it = 1; it <= 5; ++it) {
    run.Train(it, it);
    SaveAll(run, it);
  }
  Result<GcReport> gc = store_->Gc("", 2, /*dry_run=*/false);
  ASSERT_TRUE(gc.ok()) << gc.status();
  EXPECT_EQ(gc->removed,
            (std::vector<std::string>{"global_step1", "global_step2", "global_step3"}));
  EXPECT_EQ(*store_->ListTags(""),
            (std::vector<std::string>{"global_step4", "global_step5"}));
  EXPECT_EQ(*ReadLatestTag(*store_), "global_step5");
  // Keeping more than exist is a no-op; keep_last < 1 is rejected.
  gc = store_->Gc("", 10, /*dry_run=*/false);
  ASSERT_TRUE(gc.ok()) << gc.status();
  EXPECT_TRUE(gc->removed.empty());
  EXPECT_EQ(store_->ListTags("")->size(), 2u);
  EXPECT_EQ(store_->Gc("", 0, /*dry_run=*/false).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------- Foreign format ----------------

TEST_F(CkptTest, ForeignSaveAndMeta) {
  TrainerConfig cfg = ConfigFor({1, 1, 2, 1, 0, 1});
  TrainingRun run(cfg);
  run.Train(1, 3);
  run.Run([&](RankTrainer& t) {
    Status s = SaveForeignCheckpoint(dir_, t, 3);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  Result<ForeignMeta> meta = ReadForeignMeta(dir_, "foreign_step3");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->iteration, 3);
  EXPECT_TRUE(meta->model == cfg.model);
}

TEST_F(CkptTest, ForeignRequiresDdpOnly) {
  TrainingRun run(ConfigFor({2, 1, 1, 1, 0, 1}));
  Status s = SaveForeignCheckpoint(dir_, run.trainer(0), 1);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ucp

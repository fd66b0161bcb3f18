// End-to-end UCP properties (the paper's core claims, as tests):
//
//  1. Lossless reshard: source ckpt -> UCP -> load under target -> target ckpt -> UCP is
//     bit-identical to the first conversion, for a parameterized sweep of strategy pairs.
//  2. Convergence continuity: training resumed from UCP under any target tracks the
//     uninterrupted source run (bit-exact when the target equals the source; within fp
//     reduction-order tolerance otherwise).
//  3. UCP atoms equal the state of an equivalent serial (single-rank) run.
//  4. Cross-framework ingestion (foreign DDP checkpoint -> UCP -> 3-D parallel resume).
//  5. Mixed-precision: fp32 masters survive a bf16 -> f16 switch.

#include <gtest/gtest.h>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/foreign.h"
#include "src/common/fs.h"
#include "src/store/remote_store.h"
#include "src/store/server.h"
#include "src/ucp/converter.h"
#include "src/ucp/elastic.h"
#include "src/ucp/loader.h"
#include "src/ucp/validate.h"

namespace ucp {
namespace {

TrainerConfig ConfigFor(const ModelConfig& model, const ParallelConfig& strategy) {
  TrainerConfig cfg;
  cfg.model = model;
  cfg.strategy = strategy;
  cfg.global_batch = 8;
  cfg.lr.warmup_iters = 2;
  cfg.lr.decay_iters = 30;
  return cfg;
}

class UcpEnv : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = *MakeTempDir("ucp_integration"); }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

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

  static void LoadAll(TrainingRun& run, const std::string& ucp_dir) {
    run.Run([&](RankTrainer& t) {
      Status s = LoadUcpCheckpoint(ucp_dir, t);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  }

  std::string dir_;
};

struct ReshardCase {
  ParallelConfig source;
  ParallelConfig target;
  const char* label;
  // The sweep saves, converts and loads through a RemoteStore on an in-process daemon
  // instead of a LocalStore on the same directory.
  bool remote = false;
};

// Without a printer gtest dumps the raw bytes, the label pointer included, into every
// listed test name, so the names ctest registers would change from build to build. The
// label is already the name's suffix, so the printer shows only the case's data.
void PrintTo(const ReshardCase& c, std::ostream* os) {
  *os << c.source.ToString() << " -> " << c.target.ToString() << (c.remote ? " remote" : "");
}

class ReshardSweepTest : public UcpEnv, public ::testing::WithParamInterface<ReshardCase> {
 protected:
  void SetUp() override {
    UcpEnv::SetUp();
    if (!GetParam().remote) {
      store_ = StoreAt("store");
      return;
    }
    StoreServerOptions options;
    options.root = Sub("store");
    options.listen = "unix:" + Sub("d.sock");
    Result<std::unique_ptr<StoreServer>> started = StoreServer::Start(std::move(options));
    ASSERT_TRUE(started.ok()) << started.status();
    server_ = std::move(*started);
    Result<std::shared_ptr<RemoteStore>> connected = RemoteStore::Connect(server_->endpoint());
    ASSERT_TRUE(connected.ok()) << connected.status();
    store_ = *connected;
  }

  void TearDown() override {
    store_.reset();
    if (server_ != nullptr) {
      server_->Shutdown();
    }
    UcpEnv::TearDown();
  }

  std::unique_ptr<StoreServer> server_;
  std::shared_ptr<Store> store_;
};

// Property 1+2 for each pair: reshard is lossless and training continues correctly. Source
// and target save into one store as jobs "src" and "tgt", and each save is exported beside
// itself as `<tag>.ucp`.
TEST_P(ReshardSweepTest, LosslessAndContinuous) {
  const ReshardCase& c = GetParam();
  ModelConfig model = TinyGpt();
  Store& store = *store_;
  auto save = [&](TrainingRun& run, const std::string& job) {
    run.Run([&](RankTrainer& t) {
      Status s = SaveDistributedCheckpoint(store, t, 3, job);
      UCP_CHECK(s.ok()) << s.ToString();
    });
  };

  // Train the source and checkpoint at iteration 3.
  TrainingRun source(ConfigFor(model, c.source));
  source.Train(1, 3);
  save(source, "src");

  // Convert to UCP.
  Result<ConvertStats> stats = ConvertToUcp(store, "src.global_step3", store,
                                            "src.global_step3.ucp", {.num_threads = 2});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->atoms_written, 0);

  // Load into the target and immediately checkpoint it again.
  TrainingRun target(ConfigFor(model, c.target));
  target.Run([&](RankTrainer& t) {
    Status s = LoadUcpCheckpoint(store, "src.global_step3.ucp", t);
    UCP_CHECK(s.ok()) << s.ToString();
  });
  save(target, "tgt");
  Result<ConvertStats> stats2 = ConvertToUcp(store, "tgt.global_step3", store,
                                             "tgt.global_step3.ucp", {.num_threads = 2});
  ASSERT_TRUE(stats2.ok()) << stats2.status();

  // Lossless round trip: both UCP exports hold bit-identical atoms.
  Result<UcpMeta> meta = ReadUcpMeta(store, "src.global_step3.ucp");
  ASSERT_TRUE(meta.ok());
  for (const std::string& name : meta->atom_names) {
    Result<ParamState> a = ReadAtom(store, "src.global_step3.ucp", name);
    Result<ParamState> b = ReadAtom(store, "tgt.global_step3.ucp", name);
    ASSERT_TRUE(a.ok()) << name;
    ASSERT_TRUE(b.ok()) << name;
    EXPECT_TRUE(Tensor::BitEqual(a->fp32, b->fp32)) << name;
    EXPECT_TRUE(Tensor::BitEqual(a->exp_avg, b->exp_avg)) << name;
    EXPECT_TRUE(Tensor::BitEqual(a->exp_avg_sq, b->exp_avg_sq)) << name;
  }

  // Convergence continuity: resumed training tracks the uninterrupted source.
  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  bool same_strategy = c.source == c.target;
  for (size_t i = 0; i < continued.size(); ++i) {
    if (same_strategy) {
      EXPECT_DOUBLE_EQ(resumed[i], continued[i]) << c.label << " iter " << 4 + i;
    } else {
      EXPECT_NEAR(resumed[i], continued[i], 5e-3) << c.label << " iter " << 4 + i;
    }
  }
}

// The 13 pairs, on one backend.
std::vector<ReshardCase> ReshardCases(bool remote) {
  std::vector<ReshardCase> cases = {
      // Same strategy: resume must be bit-exact.
      {{2, 2, 2, 1, 1, 1}, {2, 2, 2, 1, 1, 1}, "identity_3d"},
      // The paper's flagship: 3-D parallel -> pure DP and back.
      {{2, 2, 2, 1, 1, 1}, {1, 1, 2, 1, 2, 1}, "3d_to_dp2_zero2"},
      {{1, 1, 4, 1, 2, 1}, {2, 2, 1, 1, 0, 1}, "dp4_zero2_to_tp2pp2"},
      // ZeRO-3 in both directions.
      {{1, 1, 4, 1, 3, 1}, {2, 1, 2, 1, 1, 1}, "zero3_to_tp2dp2"},
      {{2, 1, 2, 1, 1, 1}, {1, 1, 2, 1, 3, 1}, "tp2dp2_to_zero3"},
      // TP degree changes (shard resplitting).
      {{2, 1, 1, 1, 0, 1}, {4, 1, 1, 1, 0, 1}, "tp2_to_tp4"},
      {{4, 1, 1, 1, 0, 1}, {1, 2, 2, 1, 1, 1}, "tp4_to_pp2dp2"},
      // PP changes (stage remapping).
      {{1, 2, 2, 1, 1, 2}, {1, 1, 1, 1, 0, 1}, "pp2dp2_to_serial"},
      {{1, 1, 1, 1, 0, 1}, {2, 2, 1, 1, 0, 1}, "serial_to_tp2pp2"},
      // Sequence parallelism as source (params_to_average) and as target.
      {{1, 1, 2, 2, 1, 1}, {2, 1, 2, 1, 1, 1}, "sp2_to_tp2dp2"},
      {{2, 1, 2, 1, 1, 1}, {1, 1, 2, 2, 1, 1}, "tp2dp2_to_sp2"},
      // Elastic capacity: shrink 8 -> 2 ranks and grow 2 -> 8.
      {{2, 2, 2, 1, 1, 1}, {1, 1, 2, 1, 1, 1}, "shrink_8_to_2"},
      {{1, 1, 2, 1, 1, 1}, {2, 2, 2, 1, 1, 1}, "grow_2_to_8"}};
  for (ReshardCase& c : cases) {
    c.remote = remote;
  }
  return cases;
}

std::string ReshardCaseName(const ::testing::TestParamInfo<ReshardCase>& row) {
  return row.param.label;
}

INSTANTIATE_TEST_SUITE_P(StrategyPairs, ReshardSweepTest,
                         ::testing::ValuesIn(ReshardCases(/*remote=*/false)), ReshardCaseName);
INSTANTIATE_TEST_SUITE_P(RemoteStrategyPairs, ReshardSweepTest,
                         ::testing::ValuesIn(ReshardCases(/*remote=*/true)), ReshardCaseName);

// Property 3: atoms equal the state of an equivalent serial run (strong correctness anchor
// for ZeRO-0/1: identical arithmetic, so bit-exact).
TEST_F(UcpEnv, AtomsMatchSerialRunState) {
  ModelConfig model = TinyGpt();
  TrainingRun serial(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  serial.Train(1, 3);

  TrainingRun parallel(ConfigFor(model, {1, 2, 2, 1, 1, 1}));
  parallel.Train(1, 3);
  SaveAll(parallel, Sub("src"), 3);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step3", Sub("ucp")).ok());

  // DP averaging order differs between dp=1 and dp=2, so compare within tolerance; PP-only
  // splits would be bit-exact.
  for (const ParamPtr& p : serial.trainer(0).model().store().params()) {
    Result<ParamState> atom = ReadAtom(*StoreAt("ucp"), "", p->info.name);
    ASSERT_TRUE(atom.ok()) << p->info.name;
    EXPECT_EQ(atom->fp32.shape(), p->value.shape());
    EXPECT_TRUE(Tensor::AllClose(atom->fp32, p->value, 1e-4f, 1e-3f)) << p->info.name;
  }
}

TEST_F(UcpEnv, GqaModelReshardsAcrossTpDegrees) {
  ModelConfig model = TinyLlama();  // GQA: variable-size QKV sections
  TrainingRun source(ConfigFor(model, {2, 1, 2, 1, 1, 1}));
  source.Train(1, 3);
  SaveAll(source, Sub("src"), 3);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step3", Sub("ucp")).ok());

  TrainingRun target(ConfigFor(model, {1, 2, 2, 1, 2, 1}));
  LoadAll(target, Sub("ucp"));
  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3) << "iter " << 4 + i;
  }
}

TEST_F(UcpEnv, MoeModelReshardsExpertTensors) {
  ModelConfig model = TinyMoe();
  TrainingRun source(ConfigFor(model, {1, 2, 2, 1, 1, 1}));
  source.Train(1, 3);
  SaveAll(source, Sub("src"), 3);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step3", Sub("ucp")).ok());

  TrainingRun target(ConfigFor(model, {2, 1, 2, 1, 1, 1}));  // TP now splits experts
  LoadAll(target, Sub("ucp"));
  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3) << "iter " << 4 + i;
  }
}

TEST_F(UcpEnv, MoeReshardsBetweenShardingModes) {
  // Source: ffn-dim TP inside every expert. Target: whole-expert parallelism. The atoms are
  // sharding-mode agnostic, so the reshard goes through despite differently-shaped local
  // shards.
  ModelConfig ffn_mode = TinyMoe();
  TrainingRun source(ConfigFor(ffn_mode, {2, 1, 2, 1, 1, 1}));
  source.Train(1, 3);
  SaveAll(source, Sub("src"), 3);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step3", Sub("ucp")).ok());

  ModelConfig expert_mode = TinyMoe();
  expert_mode.moe_expert_sharding = true;
  TrainingRun target(ConfigFor(expert_mode, {2, 1, 2, 1, 1, 1}));
  LoadAll(target, Sub("ucp"));

  // Shard shapes prove the mode switch actually happened: [E/2, ffn, h] vs [E, ffn/2, h].
  ParamPtr w1 = target.trainer(0).model().store().Get(
      "language_model.encoder.layers.0.mlp.moe.experts.w1");
  EXPECT_EQ(w1->value.shape(), (Shape{1, 32, 32}));

  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3) << "iter " << 4 + i;
  }
}

TEST_F(UcpEnv, ElasticResumeTakesNativeFastPathWhenUnchanged) {
  ModelConfig model = TinyGpt();
  TrainerConfig cfg = ConfigFor(model, {2, 1, 2, 1, 1, 1});
  TrainingRun run(cfg);
  run.Train(1, 3);
  SaveAll(run, Sub("ckpt"), 3);

  TrainingRun same(cfg);
  std::vector<ResumeReport::Path> paths(static_cast<size_t>(same.world_size()));
  same.Run([&](RankTrainer& t) {
    Result<ResumeReport> report = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(report.ok()) << report.status().ToString();
    UCP_CHECK_EQ(report->iteration, 3);
    paths[static_cast<size_t>(t.rank())] = report->path;
  });
  for (ResumeReport::Path p : paths) {
    EXPECT_EQ(p, ResumeReport::Path::kNative);
  }
  // No UCP cache was created.
  EXPECT_FALSE(DirExists(Sub("ckpt/global_step3.ucp")));
}

TEST_F(UcpEnv, ElasticResumeConvertsOnStrategyChangeAndCaches) {
  ModelConfig model = TinyGpt();
  TrainingRun source(ConfigFor(model, {2, 2, 2, 1, 1, 1}));
  source.Train(1, 3);
  SaveAll(source, Sub("ckpt"), 3);

  TrainerConfig target_cfg = ConfigFor(model, {1, 1, 2, 1, 2, 1});
  TrainingRun target(target_cfg);
  std::vector<ResumeReport::Path> paths(2);
  target.Run([&](RankTrainer& t) {
    Result<ResumeReport> report = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(report.ok()) << report.status().ToString();
    paths[static_cast<size_t>(t.rank())] = report->path;
  });
  for (ResumeReport::Path p : paths) {
    EXPECT_EQ(p, ResumeReport::Path::kUcpConverted);
  }
  EXPECT_TRUE(DirExists(Sub("ckpt/global_step3.ucp")));

  // A second resume reuses the cached conversion.
  TrainingRun again(target_cfg);
  again.Run([&](RankTrainer& t) {
    Result<ResumeReport> report = ResumeElastic(*StoreAt("ckpt"), t);
    UCP_CHECK(report.ok()) << report.status().ToString();
    UCP_CHECK(report->path == ResumeReport::Path::kUcpCached);
  });

  // And the resumed trajectory tracks the source.
  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3);
  }
}

TEST_F(UcpEnv, ValidationPassesOnHealthyCheckpoints) {
  ModelConfig model = TinyGpt();
  TrainingRun run(ConfigFor(model, {2, 1, 2, 1, 2, 1}));
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());

  Result<ValidationReport> native = ValidateNativeCheckpoint(*StoreAt("ckpt"), "global_step2");
  ASSERT_TRUE(native.ok());
  EXPECT_TRUE(native->ok()) << native->ToString();
  EXPECT_GT(native->files_checked, 0);

  Result<ValidationReport> ucp = ValidateUcpCheckpoint(Sub("ucp"));
  ASSERT_TRUE(ucp.ok());
  EXPECT_TRUE(ucp->ok()) << ucp->ToString();
}

TEST_F(UcpEnv, ValidationFlagsMissingAndCorruptFiles) {
  ModelConfig model = TinyGpt();
  TrainingRun run(ConfigFor(model, {1, 1, 2, 1, 1, 1}));
  run.Train(1, 2);
  SaveAll(run, Sub("ckpt"), 2);
  ASSERT_TRUE(ConvertToUcp(Sub("ckpt"), "global_step2", Sub("ucp")).ok());

  // Corrupt one optimizer shard, delete one atom file.
  std::string optim = Sub("ckpt/global_step2/" + OptimStatesFileName(1, 0, 0, 0));
  std::string contents = *ReadFileToString(optim);
  contents[contents.size() / 3] ^= 0x10;
  ASSERT_TRUE(WriteFileAtomic(optim, contents).ok());
  ASSERT_TRUE(RemoveAll(Sub("ucp/atoms/language_model.encoder.final_layernorm.weight")).ok());

  Result<ValidationReport> native = ValidateNativeCheckpoint(*StoreAt("ckpt"), "global_step2");
  ASSERT_TRUE(native.ok());
  EXPECT_FALSE(native->ok());

  Result<ValidationReport> ucp = ValidateUcpCheckpoint(Sub("ucp"));
  ASSERT_TRUE(ucp.ok());
  EXPECT_FALSE(ucp->ok());
  EXPECT_EQ(ucp->problems.size(), 1u) << ucp->ToString();
}

TEST_F(UcpEnv, TiedEmbeddingsSurviveReshard) {
  ModelConfig model = TinyGpt();
  model.arch = ArchKind::kBloom;
  model.tied_embeddings = true;
  TrainingRun source(ConfigFor(model, {1, 2, 2, 1, 1, 1}));
  source.Train(1, 3);
  SaveAll(source, Sub("src"), 3);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step3", Sub("ucp")).ok());

  // Target pp=2 again but different dp; the tied copy must land on both edge stages.
  TrainingRun target(ConfigFor(model, {1, 2, 1, 1, 0, 1}));
  LoadAll(target, Sub("ucp"));
  ParamPtr first = target.trainer(0).model().store().Get(
      "language_model.embedding.word_embeddings.weight");
  ParamPtr last = target.trainer(1).model().store().Get(
      "language_model.embedding.word_embeddings.weight");
  EXPECT_TRUE(Tensor::BitEqual(first->value, last->value));

  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3);
  }
}

// Property 4: cross-framework support.
TEST_F(UcpEnv, ForeignCheckpointIngestsAndReshards) {
  ModelConfig model = TinyGpt();
  TrainingRun ddp(ConfigFor(model, {1, 1, 2, 1, 0, 1}));
  ddp.Train(1, 3);
  ddp.Run([&](RankTrainer& t) {
    UCP_CHECK(SaveForeignCheckpoint(Sub("foreign"), t, 3).ok());
  });
  Result<ConvertStats> stats =
      ConvertForeignToUcp(Sub("foreign"), "foreign_step3", *StoreAt(""), "ucp");
  ASSERT_TRUE(stats.ok()) << stats.status();

  TrainingRun target(ConfigFor(model, {2, 2, 1, 1, 0, 1}));
  LoadAll(target, Sub("ucp"));
  auto continued = ddp.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3);
  }
}

// Property 5: fp32 masters let a run switch half formats (paper §3.1 MPT discussion).
TEST_F(UcpEnv, MixedPrecisionSwitchBf16ToF16) {
  ModelConfig model = TinyGpt();
  TrainerConfig bf16 = ConfigFor(model, {2, 1, 1, 1, 1, 1});
  bf16.compute_dtype = DType::kBF16;
  TrainingRun source(bf16);
  source.Train(1, 3);
  SaveAll(source, Sub("src"), 3);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step3", Sub("ucp")).ok());

  TrainerConfig f16 = ConfigFor(model, {1, 1, 2, 1, 1, 1});
  f16.compute_dtype = DType::kF16;
  TrainingRun target(f16);
  LoadAll(target, Sub("ucp"));
  auto continued = source.Train(4, 6);
  auto resumed = target.Train(4, 6);
  for (size_t i = 0; i < continued.size(); ++i) {
    // Different rounding formats diverge faster than pure fp reorder; loose tolerance.
    EXPECT_NEAR(resumed[i], continued[i], 3e-2);
  }
}

TEST_F(UcpEnv, ConvertRefusesToOverwrite) {
  ModelConfig model = TinyGpt();
  TrainingRun run(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  run.Train(1, 1);
  SaveAll(run, Sub("src"), 1);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step1", Sub("ucp")).ok());
  EXPECT_EQ(ConvertToUcp(Sub("src"), "global_step1", Sub("ucp")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(UcpEnv, LoadRejectsWrongModel) {
  ModelConfig model = TinyGpt();
  TrainingRun run(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  run.Train(1, 1);
  SaveAll(run, Sub("src"), 1);
  ASSERT_TRUE(ConvertToUcp(Sub("src"), "global_step1", Sub("ucp")).ok());

  TrainingRun other(ConfigFor(TinyLlama(), {1, 1, 1, 1, 0, 1}));
  Status s = LoadUcpCheckpoint(Sub("ucp"), other.trainer(0));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(UcpEnv, UserSuppliedSpecDrivesConversion) {
  // The "language" path: hand-write the spec text instead of using the generated library.
  ModelConfig model = TinyGpt();
  ParallelConfig src{2, 1, 1, 1, 0, 1};
  TrainingRun source(ConfigFor(model, src));
  source.Train(1, 2);
  SaveAll(source, Sub("src"), 2);

  // TinyGpt: hidden=32, kv=32 -> QKV sections {32,32,32}; ffn=64.
  const char* spec_text = R"(
# hand-written UCP spec for TinyGpt under TP=2
fragment language_model.embedding.word_embeddings.weight dim=0
fragment language_model.encoder.layers.*.self_attention.query_key_value.weight dim=0 sections=32,32,32
fragment language_model.encoder.layers.*.self_attention.query_key_value.bias dim=0 sections=32,32,32
fragment language_model.encoder.layers.*.self_attention.dense.weight dim=1
fragment language_model.encoder.layers.*.mlp.dense_h_to_4h.weight dim=0
fragment language_model.encoder.layers.*.mlp.dense_h_to_4h.bias dim=0
fragment language_model.encoder.layers.*.mlp.dense_4h_to_h.weight dim=1
fragment language_model.output_layer.weight dim=0
replicated *
)";
  Result<PatternLibrary> library = PatternLibrary::FromSpec(spec_text);
  ASSERT_TRUE(library.ok()) << library.status();
  ConvertOptions options;
  options.library = &*library;
  Result<ConvertStats> stats = ConvertToUcp(Sub("src"), "global_step2", Sub("ucp"), options);
  ASSERT_TRUE(stats.ok()) << stats.status();

  TrainingRun target(ConfigFor(model, {1, 1, 1, 1, 0, 1}));
  LoadAll(target, Sub("ucp"));
  auto continued = source.Train(3, 4);
  auto resumed = target.Train(3, 4);
  for (size_t i = 0; i < continued.size(); ++i) {
    EXPECT_NEAR(resumed[i], continued[i], 5e-3);
  }
}

}  // namespace
}  // namespace ucp

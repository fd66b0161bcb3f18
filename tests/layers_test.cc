// Layer-granularity parallel-equivalence tests: each TP/SP-aware layer computes the same
// function (forward and backward) as its serial counterpart, for every supported degree.

#include <gtest/gtest.h>

#include "src/comm/comm.h"
#include "src/model/attention.h"
#include "src/model/inventory.h"
#include "src/model/linear.h"
#include "src/model/mlp.h"
#include "src/tensor/matmul.h"

namespace ucp {
namespace {

Tensor Random(Shape shape, uint64_t stream) {
  CounterRng rng(31337, stream);
  return Tensor::Gaussian(std::move(shape), rng, 0, 0.5f);
}

ParamPtr MakeParam(const std::string& name, Tensor value) {
  auto p = std::make_shared<Param>();
  p->info.name = name;
  p->value = std::move(value);
  p->AllocateGrad();
  return p;
}

// Runs `body(rank, ctx)` on `tp` threads with a shared TP group (SP size 1).
void RunTp(int tp, int64_t tokens, const std::function<void(int, LayerContext&)>& body) {
  World world(tp);
  std::vector<int> ranks;
  for (int i = 0; i < tp; ++i) {
    ranks.push_back(i);
  }
  auto tp_state = world.CreateGroup(ranks);
  RunSpmd(tp, [&](int rank) {
    LayerContext ctx;
    ctx.tp = ProcessGroup(tp_state, rank);
    World sp_world(1);
    // Per-rank size-1 SP group.
    auto sp_state = sp_world.CreateGroup({0});
    ctx.sp = ProcessGroup(sp_state, 0);
    ctx.batch = 1;
    ctx.seq_total = static_cast<int>(tokens);
    ctx.seq_local = static_cast<int>(tokens);
    ctx.seq_offset = 0;
    body(rank, ctx);
  });
}

class LinearTpTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearTpTest, ColumnParallelMatchesSerial) {
  const int tp = GetParam();
  const int64_t tokens = 6;
  const int64_t in = 8;
  const int64_t out = 12;
  Tensor w_full = Random({out, in}, 1);
  Tensor b_full = Random({out}, 2);
  Tensor x = Random({tokens, in}, 3);
  Tensor dy_full = Random({tokens, out}, 4);

  // Serial reference.
  Tensor y_ref = MatmulNT(x, w_full);
  for (int64_t r = 0; r < tokens; ++r) {
    for (int64_t c = 0; c < out; ++c) {
      y_ref.at(r * out + c) += b_full.at(c);
    }
  }
  Tensor dx_ref = MatmulNN(dy_full, w_full);
  Tensor dw_ref = MatmulTN(dy_full, x);

  PartitionSpec spec = PartitionSpec::Fragment(0);
  std::vector<Tensor> y_parts(static_cast<size_t>(tp));
  std::vector<Tensor> dx_parts(static_cast<size_t>(tp));
  std::vector<Tensor> dw_parts(static_cast<size_t>(tp));
  RunTp(tp, tokens, [&](int rank, LayerContext& ctx) {
    ParamPtr w = MakeParam("w", ShardOf(spec, w_full, tp, rank));
    ParamPtr b = MakeParam("b", ShardOf(spec, b_full, tp, rank));
    ColumnParallelLinear layer(w, b);
    Tensor y = layer.Forward(x);
    Tensor dy = ShardOf(spec, dy_full.Transpose2D(), tp, rank).Transpose2D();  // col slice
    Tensor dx = layer.Backward(dy, ctx);
    y_parts[static_cast<size_t>(rank)] = y;
    dx_parts[static_cast<size_t>(rank)] = dx;
    dw_parts[static_cast<size_t>(rank)] = w->grad.Clone();
  });

  EXPECT_TRUE(Tensor::AllClose(Tensor::Concat(y_parts, 1), y_ref, 1e-4f, 1e-4f));
  for (const Tensor& dx : dx_parts) {
    EXPECT_TRUE(Tensor::AllClose(dx, dx_ref, 1e-4f, 1e-4f));
  }
  EXPECT_TRUE(Tensor::AllClose(Unshard(spec, dw_parts, {out, in}), dw_ref, 1e-4f, 1e-4f));
}

TEST_P(LinearTpTest, RowParallelMatchesSerial) {
  const int tp = GetParam();
  const int64_t tokens = 5;
  const int64_t in = 12;
  const int64_t out = 7;
  Tensor w_full = Random({out, in}, 5);
  Tensor b_full = Random({out}, 6);
  Tensor x_full = Random({tokens, in}, 7);
  Tensor dy = Random({tokens, out}, 8);

  Tensor y_ref = MatmulNT(x_full, w_full);
  for (int64_t r = 0; r < tokens; ++r) {
    for (int64_t c = 0; c < out; ++c) {
      y_ref.at(r * out + c) += b_full.at(c);
    }
  }
  Tensor dx_ref = MatmulNN(dy, w_full);
  Tensor dw_ref = MatmulTN(dy, x_full);

  PartitionSpec w_spec = PartitionSpec::Fragment(1);
  PartitionSpec x_spec = PartitionSpec::Fragment(1);
  std::vector<Tensor> y_parts(static_cast<size_t>(tp));
  std::vector<Tensor> dx_parts(static_cast<size_t>(tp));
  std::vector<Tensor> dw_parts(static_cast<size_t>(tp));
  RunTp(tp, tokens, [&](int rank, LayerContext& ctx) {
    ParamPtr w = MakeParam("w", ShardOf(w_spec, w_full, tp, rank));
    ParamPtr b = MakeParam("b", b_full.Clone());
    RowParallelLinear layer(w, b);
    Tensor x_local = ShardOf(x_spec, x_full, tp, rank);
    Tensor y = layer.Forward(x_local, ctx);
    Tensor dx_local = layer.Backward(dy);
    y_parts[static_cast<size_t>(rank)] = y;
    dx_parts[static_cast<size_t>(rank)] = dx_local;
    dw_parts[static_cast<size_t>(rank)] = w->grad.Clone();
  });

  for (const Tensor& y : y_parts) {
    EXPECT_TRUE(Tensor::AllClose(y, y_ref, 1e-4f, 1e-4f));
  }
  EXPECT_TRUE(Tensor::AllClose(Unshard(x_spec, dx_parts, {tokens, in}), dx_ref, 1e-4f,
                               1e-4f));
  EXPECT_TRUE(Tensor::AllClose(Unshard(w_spec, dw_parts, {out, in}), dw_ref, 1e-4f, 1e-4f));
}

TEST_P(LinearTpTest, VocabParallelEmbeddingMatchesSerial) {
  const int tp = GetParam();
  const int64_t vocab = 16;
  const int64_t hidden = 6;
  Tensor w_full = Random({vocab, hidden}, 9);
  Tensor tokens = Tensor::FromVector({2, 3}, {0, 5, 15, 7, 7, 3});
  Tensor dx = Random({6, hidden}, 10);

  // Serial reference: row lookup forward, scatter-add backward.
  Tensor x_ref = Tensor::Zeros({6, hidden});
  Tensor dw_ref = Tensor::Zeros({vocab, hidden});
  for (int64_t i = 0; i < 6; ++i) {
    auto t = static_cast<int64_t>(tokens.at(i));
    for (int64_t c = 0; c < hidden; ++c) {
      x_ref.at(i * hidden + c) = w_full.at(t * hidden + c);
      dw_ref.at(t * hidden + c) += dx.at(i * hidden + c);
    }
  }

  PartitionSpec spec = PartitionSpec::Fragment(0);
  std::vector<Tensor> x_parts(static_cast<size_t>(tp));
  std::vector<Tensor> dw_parts(static_cast<size_t>(tp));
  RunTp(tp, 6, [&](int rank, LayerContext& ctx) {
    ParamPtr w = MakeParam("emb", ShardOf(spec, w_full, tp, rank));
    VocabParallelEmbedding layer(w, rank);
    Tensor x = layer.Forward(tokens, ctx);
    layer.Backward(dx);
    x_parts[static_cast<size_t>(rank)] = x;
    dw_parts[static_cast<size_t>(rank)] = w->grad.Clone();
  });

  for (const Tensor& x : x_parts) {
    EXPECT_TRUE(Tensor::AllClose(x, x_ref, 1e-5f, 1e-5f));
  }
  EXPECT_TRUE(
      Tensor::AllClose(Unshard(spec, dw_parts, {vocab, hidden}), dw_ref, 1e-5f, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(TpDegrees, LinearTpTest, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& row) {
                           return "tp" + std::to_string(row.param);
                         });

// ---- Attention: TP-parallel output equals single-rank output ----

TEST(AttentionTpTest, MatchesSerialAcrossTpDegrees) {
  ModelConfig config = TinyLlama();  // GQA makes this the interesting case
  const int layer = 0;
  const int64_t tokens = 16;        // batch 1, full seq
  Tensor x = Random({tokens, config.hidden}, 20);
  Tensor dy = Random({tokens, config.hidden}, 21);

  auto build_params = [&](int tp, int rank) {
    std::vector<InventoryEntry> inventory = BuildInventory(config);
    ParamStore store;
    for (const InventoryEntry& e : inventory) {
      store.Add(MaterializeParam(e.param, config.init_seed, tp, rank));
    }
    return store;
  };

  // Serial reference.
  Tensor y_ref;
  Tensor dx_ref;
  {
    ParamStore store = build_params(1, 0);
    ParallelAttention attn(
        config, 1,
        store.Get(LayerParamName(layer, "self_attention.query_key_value.weight")), nullptr,
        store.Get(LayerParamName(layer, "self_attention.dense.weight")), nullptr);
    RunTp(1, tokens, [&](int, LayerContext& ctx) {
      y_ref = attn.Forward(x, ctx);
      dx_ref = attn.Backward(dy, ctx);
    });
  }

  for (int tp : {2}) {
    std::vector<Tensor> y_parts(static_cast<size_t>(tp));
    std::vector<Tensor> dx_parts(static_cast<size_t>(tp));
    RunTp(tp, tokens, [&](int rank, LayerContext& ctx) {
      ParamStore store = build_params(tp, rank);
      ParallelAttention attn(
          config, tp,
          store.Get(LayerParamName(layer, "self_attention.query_key_value.weight")), nullptr,
          store.Get(LayerParamName(layer, "self_attention.dense.weight")), nullptr);
      y_parts[static_cast<size_t>(rank)] = attn.Forward(x, ctx);
      dx_parts[static_cast<size_t>(rank)] = attn.Backward(dy, ctx);
    });
    for (int r = 0; r < tp; ++r) {
      EXPECT_TRUE(Tensor::AllClose(y_parts[static_cast<size_t>(r)], y_ref, 1e-4f, 1e-3f))
          << "tp " << tp << " rank " << r << " max diff "
          << Tensor::MaxAbsDiff(y_parts[static_cast<size_t>(r)], y_ref);
      EXPECT_TRUE(Tensor::AllClose(dx_parts[static_cast<size_t>(r)], dx_ref, 1e-4f, 1e-3f));
    }
  }
}

// ---- Attention under SP: sharded sequence equals full sequence ----

TEST(AttentionSpTest, SequenceShardsComposeToSerial) {
  ModelConfig config = TinyGpt();
  const int64_t seq = 16;
  Tensor x_full = Random({seq, config.hidden}, 30);
  Tensor dy_full = Random({seq, config.hidden}, 31);

  std::vector<InventoryEntry> inventory = BuildInventory(config);
  auto qkv_name = LayerParamName(0, "self_attention.query_key_value.weight");
  auto qkv_bias_name = LayerParamName(0, "self_attention.query_key_value.bias");
  auto dense_name = LayerParamName(0, "self_attention.dense.weight");
  auto dense_bias_name = LayerParamName(0, "self_attention.dense.bias");
  auto build_store = [&] {
    ParamStore store;
    for (const InventoryEntry& e : inventory) {
      store.Add(MaterializeParam(e.param, config.init_seed, 1, 0));
    }
    return store;
  };

  Tensor y_ref;
  Tensor dx_ref;
  {
    ParamStore store = build_store();
    ParallelAttention attn(config, 1, store.Get(qkv_name), store.Get(qkv_bias_name),
                           store.Get(dense_name), store.Get(dense_bias_name));
    RunTp(1, seq, [&](int, LayerContext& ctx) {
      y_ref = attn.Forward(x_full, ctx);
      dx_ref = attn.Backward(dy_full, ctx);
    });
  }

  const int sp = 2;
  World world(sp);
  auto sp_state = world.CreateGroup({0, 1});
  std::vector<Tensor> y_parts(sp);
  std::vector<Tensor> dx_parts(sp);
  RunSpmd(sp, [&](int rank) {
    LayerContext ctx;
    World tp_world(1);
    auto tp_state = tp_world.CreateGroup({0});
    ctx.tp = ProcessGroup(tp_state, 0);
    ctx.sp = ProcessGroup(sp_state, rank);
    ctx.batch = 1;
    ctx.seq_total = static_cast<int>(seq);
    ctx.seq_local = static_cast<int>(seq) / sp;
    ctx.seq_offset = rank * ctx.seq_local;

    ParamStore store = build_store();
    ParallelAttention attn(config, 1, store.Get(qkv_name), store.Get(qkv_bias_name),
                           store.Get(dense_name), store.Get(dense_bias_name));
    Tensor x_local = x_full.Narrow(0, ctx.seq_offset, ctx.seq_local);
    Tensor dy_local = dy_full.Narrow(0, ctx.seq_offset, ctx.seq_local);
    y_parts[static_cast<size_t>(rank)] = attn.Forward(x_local, ctx);
    dx_parts[static_cast<size_t>(rank)] = attn.Backward(dy_local, ctx);
  });

  Tensor y_sp = Tensor::Concat(y_parts, 0);
  Tensor dx_sp = Tensor::Concat(dx_parts, 0);
  EXPECT_TRUE(Tensor::AllClose(y_sp, y_ref, 1e-4f, 1e-3f))
      << "max diff " << Tensor::MaxAbsDiff(y_sp, y_ref);
  EXPECT_TRUE(Tensor::AllClose(dx_sp, dx_ref, 1e-4f, 1e-3f));
}

// ---- MoE layer: both sharding modes match the serial computation ----

class MoeModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(MoeModeTest, ParallelMatchesSerial) {
  ModelConfig config = TinyMoe();
  config.moe_expert_sharding = GetParam();
  const int64_t tokens = 10;
  Tensor x = Random({tokens, config.hidden}, 40);
  Tensor dy = Random({tokens, config.hidden}, 41);

  auto params_for = [&](int tp, int rank) {
    ParamStore store;
    for (const InventoryEntry& e : BuildInventory(config)) {
      store.Add(MaterializeParam(e.param, config.init_seed, tp, rank));
    }
    return store;
  };
  auto gate_name = LayerParamName(0, "mlp.moe.gate.weight");
  auto w1_name = LayerParamName(0, "mlp.moe.experts.w1");
  auto w2_name = LayerParamName(0, "mlp.moe.experts.w2");

  Tensor y_ref;
  Tensor dx_ref;
  Tensor dgate_ref;
  {
    ParamStore store = params_for(1, 0);
    MoeMlp moe(config, 1, 0, store.Get(gate_name), store.Get(w1_name), store.Get(w2_name));
    RunTp(1, tokens, [&](int, LayerContext& ctx) {
      y_ref = moe.Forward(x, ctx);
      dx_ref = moe.Backward(dy, ctx);
    });
    dgate_ref = store.Get(gate_name)->grad.Clone();
  }

  const int tp = 2;
  std::vector<Tensor> y_parts(tp);
  std::vector<Tensor> dx_parts(tp);
  std::vector<Tensor> dgate_parts(tp);
  RunTp(tp, tokens, [&](int rank, LayerContext& ctx) {
    ParamStore store = params_for(tp, rank);
    MoeMlp moe(config, tp, rank, store.Get(gate_name), store.Get(w1_name),
               store.Get(w2_name));
    y_parts[static_cast<size_t>(rank)] = moe.Forward(x, ctx);
    dx_parts[static_cast<size_t>(rank)] = moe.Backward(dy, ctx);
    dgate_parts[static_cast<size_t>(rank)] = store.Get(gate_name)->grad.Clone();
  });

  for (int r = 0; r < tp; ++r) {
    EXPECT_TRUE(Tensor::AllClose(y_parts[static_cast<size_t>(r)], y_ref, 1e-4f, 1e-3f));
    EXPECT_TRUE(Tensor::AllClose(dx_parts[static_cast<size_t>(r)], dx_ref, 1e-4f, 1e-3f));
    // The router gradient must be identical (replicated param) across ranks.
    EXPECT_TRUE(
        Tensor::AllClose(dgate_parts[static_cast<size_t>(r)], dgate_ref, 1e-4f, 1e-3f));
  }
}

INSTANTIATE_TEST_SUITE_P(ShardingModes, MoeModeTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& row) {
                           return row.param ? "expert_sharding" : "ffn_sharding";
                         });

}  // namespace
}  // namespace ucp

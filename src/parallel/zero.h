// ZeRO-style data parallelism (stages 0-3) over the simulated runtime.
//
// All of a rank's parameters are flattened into one contiguous fp32 buffer in canonical
// (inventory) order, padded at the end so the total divides evenly into DP partitions with
// alignment — the analogue of DeepSpeed's fp32_partitioned_groups_flat, including the
// padding that UCP's StripPadding must remove. Parameter value/grad tensors become views
// into the flat buffers, so the layers transparently read and accumulate into them.
//
//  stage 0: plain DP — full grads all-reduced, every rank runs the full Adam step.
//  stage 1: optimizer state (fp32 master + moments) sharded; grads still all-reduced.
//  stage 2: additionally gradients sharded (reduce-scatter).
//  stage 3: additionally parameters sharded — only the owned fp32 partition is persistent
//           state; the full buffer is rematerialized by all-gather after each step. (The
//           simulator keeps the full buffer allocated between steps; what matters for
//           checkpointing is that persistent state is the partition. See DESIGN.md.)
//
// Mixed precision: when compute_dtype != f32, published parameter values are the fp32
// masters rounded through bf16/f16, while optimizer state stays fp32 — so checkpoints carry
// fp32 masters and a run can resume under a different half format (paper §3.1).

#ifndef UCP_SRC_PARALLEL_ZERO_H_
#define UCP_SRC_PARALLEL_ZERO_H_

#include <string>
#include <vector>

#include "src/comm/comm.h"
#include "src/common/json.h"
#include "src/model/param.h"
#include "src/optim/adam.h"
#include "src/tensor/bf16.h"

namespace ucp {

// ZeRO partition alignment in elements (DeepSpeed aligns partitions for NVMe/NCCL
// efficiency; the value is small here so tests exercise nonzero padding often).
inline constexpr int64_t kZeroAlignment = 4;

struct FlatSegment {
  std::string name;
  int64_t offset = 0;  // element offset in the flat buffer
  int64_t numel = 0;   // local (TP-shard) element count
  Shape shape;         // local (TP-shard) tensor shape
  bool decay = true;
  bool norm_counts = true;
};

struct FlatLayout {
  std::vector<FlatSegment> segments;
  int64_t total = 0;           // sum of segment numels
  int64_t padded_total = 0;    // total rounded up to dp * kZeroAlignment
  int64_t partition_size = 0;  // padded_total / dp

  Json ToJson() const;
  static Result<FlatLayout> FromJson(const Json& json);
};

// The first difference between two flat layouts, naming the parameter it is in: a segment's
// name, shard shape, numel or offset, a segment only one side has, or the padded total.
// `a_label` / `b_label` name the two sides in the text. Empty when they agree. The strict
// native load (checkpoint vs live), the UCP load (plan vs live) and Extract (DP peers) all
// check through it.
std::string FlatLayoutMismatch(const FlatLayout& a, const std::string& a_label,
                               const FlatLayout& b, const std::string& b_label);

class ZeroOptimizer {
 public:
  // Re-points every param in `store` into the flat buffers. `dp_group` is the ZeRO process
  // group; `world_group` is used only for the global gradient-norm reduction.
  ZeroOptimizer(ParamStore* store, int zero_stage, ProcessGroup dp_group,
                ProcessGroup world_group, DType compute_dtype);

  int zero_stage() const { return zero_stage_; }
  const FlatLayout& layout() const { return layout_; }
  int64_t steps_taken() const { return steps_taken_; }
  // Restores the step counter when resuming (Adam bias correction depends on it).
  void set_steps_taken(int64_t steps) { steps_taken_ = steps; }

  // Gradient sync (DP), global grad-norm clip, Adam step, and parameter publication.
  // Returns the global (pre-clip) gradient norm.
  double Step(float lr, const AdamConfig& config);

  // --- Checkpoint state access ---
  // This rank's persistent optimizer partition (full buffers for stage 0).
  Tensor MasterState() const { return flat_master_.Clone(); }
  Tensor ExpAvgState() const { return exp_avg_.Clone(); }
  Tensor ExpAvgSqState() const { return exp_avg_sq_.Clone(); }
  // Zero-copy views of the same state, for snapshotters that copy into reusable buffers.
  // The referenced storage is overwritten by the next Step(); copy before releasing the
  // rank thread if the snapshot must exclude that step.
  const Tensor& master_state_ref() const { return flat_master_; }
  const Tensor& exp_avg_ref() const { return exp_avg_; }
  const Tensor& exp_avg_sq_ref() const { return exp_avg_sq_; }
  int64_t state_numel() const { return flat_master_.numel(); }
  // Element offset in the flat buffer where this rank's partition begins (0 for stage 0).
  int64_t owned_offset() const;

  // Installs restored optimizer state and republishes parameter values from the masters.
  Status LoadState(const Tensor& master, const Tensor& exp_avg, const Tensor& exp_avg_sq,
                   int64_t steps_taken);

  // Direct view of the published flat parameter values (e.g. for the MPT model-state save).
  const Tensor& flat_value() const { return flat_value_; }

 private:
  void PublishMasters();
  double ComputeGlobalGradNorm() const;

  ParamStore* store_;
  int zero_stage_;
  ProcessGroup dp_group_;
  ProcessGroup world_group_;
  DType compute_dtype_;
  FlatLayout layout_;

  Tensor flat_value_;  // [padded_total] — what the layers compute with (views)
  Tensor flat_grad_;   // [padded_total]
  Tensor flat_master_; // stage 0: [padded_total]; stages 1-3: [partition_size]
  Tensor exp_avg_;     // same size as flat_master_
  Tensor exp_avg_sq_;
  int64_t steps_taken_ = 0;
};

}  // namespace ucp

#endif  // UCP_SRC_PARALLEL_ZERO_H_

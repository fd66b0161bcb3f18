// Reduced-precision value simulation for mixed-precision training (MPT).
//
// The trainer keeps fp32 master weights (what UCP checkpoints) and, when MPT is enabled,
// computes forward passes on weights rounded through bf16 or fp16 — reproducing the paper's
// point that storing fp32 masters lets a run resume under either half format.

#ifndef UCP_SRC_TENSOR_BF16_H_
#define UCP_SRC_TENSOR_BF16_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace ucp {

// Compute dtypes of mixed-precision training. The values are stored as `compute_dtype` in
// checkpoint metadata; tensor files hold fp32 only.
enum class DType : uint8_t { kF32 = 0, kBF16 = 1, kF16 = 2 };

// Scalar conversions (round-to-nearest-even for bf16; standard IEEE half conversion for f16).
uint16_t F32ToBf16(float value);
float Bf16ToF32(uint16_t bits);
uint16_t F32ToF16(float value);
float F16ToF32(uint16_t bits);

// Rounds every element through the given dtype (no-op for kF32). Returns a new tensor.
Tensor RoundThrough(const Tensor& t, DType dtype);
// In-place variant.
void RoundThrough_(Tensor& t, DType dtype);

}  // namespace ucp

#endif  // UCP_SRC_TENSOR_BF16_H_

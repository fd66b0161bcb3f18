#include "src/tensor/bf16.h"

#include <cmath>
#include <cstring>

namespace ucp {

uint16_t F32ToBf16(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if (std::isnan(value)) {
    return 0x7FC0;  // canonical quiet NaN
  }
  // Round to nearest even on the truncated 16 low bits.
  uint32_t lsb = (bits >> 16) & 1u;
  uint32_t rounding = 0x7FFFu + lsb;
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

float Bf16ToF32(uint16_t bits16) {
  uint32_t bits = static_cast<uint32_t>(bits16) << 16;
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint16_t F32ToF16(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  uint32_t sign = (bits >> 16) & 0x8000u;
  int32_t exp = static_cast<int32_t>((bits >> 23) & 0xFFu) - 127 + 15;
  uint32_t mant = bits & 0x7FFFFFu;

  if (std::isnan(value)) {
    return static_cast<uint16_t>(sign | 0x7E00u);
  }
  if (std::isinf(value) || exp >= 0x1F) {
    return static_cast<uint16_t>(sign | 0x7C00u);  // overflow -> inf
  }
  if (exp <= 0) {
    // Subnormal or underflow to zero.
    if (exp < -10) {
      return static_cast<uint16_t>(sign);
    }
    mant |= 0x800000u;  // implicit leading 1
    uint32_t shift = static_cast<uint32_t>(14 - exp);
    uint32_t half_mant = mant >> shift;
    // Round to nearest even.
    uint32_t rem = mant & ((1u << shift) - 1);
    uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) {
      ++half_mant;
    }
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint32_t half = sign | (static_cast<uint32_t>(exp) << 10) | (mant >> 13);
  // Round to nearest even on the truncated 13 bits.
  uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
    ++half;  // may carry into the exponent; that is correct rounding behaviour
  }
  return static_cast<uint16_t>(half);
}

float F16ToF32(uint16_t bits16) {
  uint32_t sign = static_cast<uint32_t>(bits16 & 0x8000u) << 16;
  uint32_t exp = (bits16 >> 10) & 0x1Fu;
  uint32_t mant = bits16 & 0x3FFu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal: normalize.
      int shift = 0;
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x3FFu;
      // Subnormal value = mant10 * 2^-24; after normalizing the MSB into bit 10 with
      // `shift` left-shifts, the unbiased exponent is -14 - shift.
      bits = sign | (static_cast<uint32_t>(127 - 14 - shift) << 23) | (mant << 13);
    }
  } else if (exp == 0x1F) {
    bits = sign | 0x7F800000u | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

Tensor RoundThrough(const Tensor& t, DType dtype) {
  Tensor out = t.Clone();
  RoundThrough_(out, dtype);
  return out;
}

void RoundThrough_(Tensor& t, DType dtype) {
  if (dtype == DType::kF32) {
    return;
  }
  float* p = t.data();
  if (dtype == DType::kBF16) {
    for (int64_t i = 0; i < t.numel(); ++i) {
      p[i] = Bf16ToF32(F32ToBf16(p[i]));
    }
  } else {
    for (int64_t i = 0; i < t.numel(); ++i) {
      p[i] = F16ToF32(F32ToF16(p[i]));
    }
  }
}

}  // namespace ucp

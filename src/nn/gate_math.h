// Constants of the gate nonlinearities, shared by the scalar ports in
// activations.cpp and the SIMD kernels in simd_kernels.cpp so the two can
// never drift apart. Values are copied from glibc 2.36: the expf data of
// sysdeps/ieee754/flt-32/e_exp2f_data.c (EXP2F_TABLE_BITS = 5) and the
// fdlibm constants of s_expm1f.c / s_tanhf.c.
#pragma once

#include <cstdint>

namespace cpsguard::nn::gate_math {

// ---- expf: exp(x) = 2^(k/32) * 2^(r/32), |r| <= 1/2, polynomial in r ----
inline constexpr int kExpTableBits = 5;
inline constexpr int kExpTableSize = 1 << kExpTableBits;
/// asuint64(2^(i/32)) - (i << 47): adding ki << 47 restores the exponent.
inline constexpr std::uint64_t kExpTable[kExpTableSize] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * kExpTableSize;
inline constexpr double kShift = 0x1.8p+52;  // rounds to an integer in the low bits
inline constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
/// |x| >= 88 (top 12 bits of asuint(x)) takes the special-case path.
inline constexpr std::uint32_t kExpSpecialTop12 = 0x42b;
inline constexpr float kExpOverflow = 0x1.62e42ep6f;    // log(0x1p128)
inline constexpr float kExpUnderflow = -0x1.9fe368p6f;  // log(0x1p-150)

// ---- expm1f (fdlibm), on the arguments tanhf passes it ----
inline constexpr float kLn2Hi = 0x1.62e3p-1f;     // 0x3f317180
inline constexpr float kLn2Lo = 0x1.2fefa2p-17f;  // 0x3717f7d1
inline constexpr float kInvLn2 = 0x1.715476p+0f;  // 0x3fb8aa3b
inline constexpr float kQ1 = -0x1.111112p-5f;   // 0xbd088889
inline constexpr float kQ2 = 0x1.a01a02p-10f;   // 0x3ad00d01
inline constexpr float kQ3 = -0x1.4ce19ap-14f;  // 0xb8a670cd
inline constexpr float kQ4 = 0x1.0cfca8p-18f;   // 0x36867e54
inline constexpr float kQ5 = -0x1.afdb76p-23f;  // 0xb457edbb
inline constexpr std::uint32_t kExpm1HalfLn2 = 0x3eb17218;   // |x| > 0.5 ln2
inline constexpr std::uint32_t kExpm1ThreeHalvesLn2 = 0x3f851592;  // |x| < 1.5 ln2
inline constexpr std::uint32_t kExpm1Tiny = 0x33000000;      // |x| < 2^-25

// ---- tanhf (fdlibm), on |x| as asuint ----
inline constexpr std::uint32_t kTanhSaturate = 0x41b00000;  // |x| >= 22: ±1
inline constexpr std::uint32_t kTanhOne = 0x3f800000;       // |x| >= 1
inline constexpr std::uint32_t kTanhTiny = 0x24000000;      // |x| < 2^-55

}  // namespace cpsguard::nn::gate_math

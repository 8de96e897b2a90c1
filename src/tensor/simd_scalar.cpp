// Scalar variant of the SIMD op table.  The primitives below are exact
// lane-by-lane mirrors of the AVX instructions the other TUs use — including
// vminps/vmaxps operand semantics, round-to-nearest-even conversions, and the
// fixed fold trees — so this TU produces bit-identical results to the vector
// variants.  Compiled with -ffp-contract=off (no FMA contraction) like every
// other consumer of simd_kernels.inl.

#include "tensor/simd.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace photon::simd::detail {
namespace {

struct vf {
  float l[16];
};
struct vd {
  double l[16];
};
struct vi {
  std::int32_t l[16];
};

inline vf f_load(const float* p) {
  vf v;
  std::memcpy(v.l, p, sizeof(v.l));
  return v;
}
inline void f_store(float* p, vf v) { std::memcpy(p, v.l, sizeof(v.l)); }
inline vf f_set1(float x) {
  vf v;
  for (int j = 0; j < 16; ++j) v.l[j] = x;
  return v;
}
inline vf f_zero() { return f_set1(0.0f); }

inline vf f_add(vf a, vf b) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] + b.l[j];
  return r;
}
inline vf f_sub(vf a, vf b) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] - b.l[j];
  return r;
}
inline vf f_mul(vf a, vf b) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] * b.l[j];
  return r;
}
inline vf f_div(vf a, vf b) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] / b.l[j];
  return r;
}
// vminps/vmaxps semantics: result is the SECOND operand when the compare is
// false (covers +/-0 ties and NaN propagation the same way the intrinsics do).
inline vf f_min(vf a, vf b) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = (a.l[j] < b.l[j]) ? a.l[j] : b.l[j];
  return r;
}
inline vf f_max(vf a, vf b) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = (a.l[j] > b.l[j]) ? a.l[j] : b.l[j];
  return r;
}
inline vf f_sqrt(vf a) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = std::sqrt(a.l[j]);
  return r;
}
inline vf f_abs(vf a) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = std::fabs(a.l[j]);
  return r;
}
inline vf f_copysign(vf mag, vf sgn) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = std::copysign(mag.l[j], sgn.l[j]);
  return r;
}

// Fixed fold trees (see simd.hpp): identical lane pairing in every variant.
inline float f_hsum(vf v) {
  float s8[8];
  for (int j = 0; j < 8; ++j) s8[j] = v.l[j] + v.l[j + 8];
  float s4[4];
  for (int j = 0; j < 4; ++j) s4[j] = s8[j] + s8[j + 4];
  float s2[2];
  for (int j = 0; j < 2; ++j) s2[j] = s4[j] + s4[j + 2];
  return s2[0] + s2[1];
}
inline float f_hmax(vf v) {
  float s8[8];
  for (int j = 0; j < 8; ++j)
    s8[j] = (v.l[j] > v.l[j + 8]) ? v.l[j] : v.l[j + 8];
  float s4[4];
  for (int j = 0; j < 4; ++j) s4[j] = (s8[j] > s8[j + 4]) ? s8[j] : s8[j + 4];
  float s2[2];
  for (int j = 0; j < 2; ++j) s2[j] = (s4[j] > s4[j + 2]) ? s4[j] : s4[j + 2];
  return (s2[0] > s2[1]) ? s2[0] : s2[1];
}

// cvtps2dq rounds to nearest-even under the default MXCSR mode; lrintf does
// the same under the default fenv mode.
inline vi f_to_i_nearest(vf a) {
  vi r;
  for (int j = 0; j < 16; ++j)
    r.l[j] = static_cast<std::int32_t>(std::lrintf(a.l[j]));
  return r;
}
inline vf i_to_f(vi a) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = static_cast<float>(a.l[j]);
  return r;
}
// 2^n for n in [-127, 127] via exponent-field construction.
inline vf i_pow2f(vi n) {
  vf r;
  for (int j = 0; j < 16; ++j)
    r.l[j] = std::bit_cast<float>((n.l[j] + 127) << 23);
  return r;
}
inline void i_store(std::int32_t* p, vi v) { std::memcpy(p, v.l, sizeof(v.l)); }
inline vf i8_to_f(const std::int8_t* p) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = static_cast<float>(p[j]);
  return r;
}

inline vd d_load(const double* p) {
  vd v;
  std::memcpy(v.l, p, sizeof(v.l));
  return v;
}
inline void d_store(double* p, vd v) { std::memcpy(p, v.l, sizeof(v.l)); }
inline vd d_set1(double x) {
  vd v;
  for (int j = 0; j < 16; ++j) v.l[j] = x;
  return v;
}
inline vd d_zero() { return d_set1(0.0); }
inline vd d_add(vd a, vd b) {
  vd r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] + b.l[j];
  return r;
}
inline vd d_sub(vd a, vd b) {
  vd r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] - b.l[j];
  return r;
}
inline vd d_mul(vd a, vd b) {
  vd r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] * b.l[j];
  return r;
}
inline vd d_div(vd a, vd b) {
  vd r;
  for (int j = 0; j < 16; ++j) r.l[j] = a.l[j] / b.l[j];
  return r;
}
// sqrtpd and std::sqrt both round correctly (and give -0 for -0).
inline vd d_sqrt(vd a) {
  vd r;
  for (int j = 0; j < 16; ++j) r.l[j] = std::sqrt(a.l[j]);
  return r;
}
// Compare-to-mask: bit j set when the predicate holds in lane j.  Ordered
// less-than (false for NaN) and unordered not-equal (true for NaN), like
// _CMP_LT_OQ and _CMP_NEQ_UQ.
inline std::uint32_t d_lt_mask(vd a, vd b) {
  std::uint32_t m = 0;
  for (int j = 0; j < 16; ++j)
    m |= static_cast<std::uint32_t>(a.l[j] < b.l[j]) << j;
  return m;
}
inline std::uint32_t f_ne_mask(vf a, vf b) {
  std::uint32_t m = 0;
  for (int j = 0; j < 16; ++j)
    m |= static_cast<std::uint32_t>(!(a.l[j] == b.l[j])) << j;
  return m;
}
inline double d_hsum(vd v) {
  double s8[8];
  for (int j = 0; j < 8; ++j) s8[j] = v.l[j] + v.l[j + 8];
  double s4[4];
  for (int j = 0; j < 4; ++j) s4[j] = s8[j] + s8[j + 4];
  double s2[2];
  for (int j = 0; j < 2; ++j) s2[j] = s4[j] + s4[j + 2];
  return s2[0] + s2[1];
}
inline vd f_widen(vf a) {
  vd r;
  for (int j = 0; j < 16; ++j) r.l[j] = static_cast<double>(a.l[j]);
  return r;
}
// cvtpd2ps rounds to nearest-even, same as the static_cast.
inline vf d_narrow(vd a) {
  vf r;
  for (int j = 0; j < 16; ++j) r.l[j] = static_cast<float>(a.l[j]);
  return r;
}

// Tails copy the live lanes through the vector's own lane array, so only
// elements [0, cnt) of memory are read or written.
inline vf f_load_partial(const float* p, std::size_t cnt, float pad) {
  vf v = f_set1(pad);
  std::memcpy(v.l, p, cnt * sizeof(float));
  return v;
}
inline void f_store_partial(float* p, vf v, std::size_t cnt) {
  std::memcpy(p, v.l, cnt * sizeof(float));
}
inline vf f_keep(vf v, std::size_t cnt) {
  for (std::size_t j = cnt; j < 16; ++j) v.l[j] = 0.0f;
  return v;
}
inline vd d_keep(vd v, std::size_t cnt) {
  for (std::size_t j = cnt; j < 16; ++j) v.l[j] = 0.0;
  return v;
}

// Linear tiles: registers do not constrain the lane-array emulation, so the
// shapes mirror the AVX-512 ones and the reference runs the same walk.
constexpr int kLinFwdRows = 4;
constexpr int kLinFwdOuts = 4;
constexpr int kLinDxRows = 4;
constexpr int kLinDxChunks = 4;
constexpr int kLinDwOuts = 4;
constexpr int kLinDwChunks = 4;

#include "simd_kernels.inl"

}  // namespace

Ops make_ops_scalar() { return make_ops_impl(Variant::kScalar); }

}  // namespace photon::simd::detail

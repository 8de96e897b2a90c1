// AVX-512 variant of the SIMD op table: 16 float lanes as one __m512, 16
// double lanes as 2x__m512d, 16 int32 lanes as one __m512i.  Compiled with
// -mavx512f -mavx512dq -ffp-contract=off (photon_mark_simd_sources); the DQ
// extension supplies extractf32x8/insertf32x8 for the fixed fold tree.  No
// FMA intrinsics, so results match the scalar TU bit-for-bit.

#include "tensor/simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace photon::simd::detail {
namespace {

struct vf {
  __m512 v;
};
struct vd {
  __m512d lo;  // lanes 0-7
  __m512d hi;  // lanes 8-15
};
struct vi {
  __m512i v;
};

inline vf f_load(const float* p) { return {_mm512_loadu_ps(p)}; }
inline void f_store(float* p, vf v) { _mm512_storeu_ps(p, v.v); }
inline vf f_set1(float x) { return {_mm512_set1_ps(x)}; }
inline vf f_zero() { return {_mm512_setzero_ps()}; }

inline vf f_add(vf a, vf b) { return {_mm512_add_ps(a.v, b.v)}; }
inline vf f_sub(vf a, vf b) { return {_mm512_sub_ps(a.v, b.v)}; }
inline vf f_mul(vf a, vf b) { return {_mm512_mul_ps(a.v, b.v)}; }
inline vf f_div(vf a, vf b) { return {_mm512_div_ps(a.v, b.v)}; }
inline vf f_min(vf a, vf b) { return {_mm512_min_ps(a.v, b.v)}; }
inline vf f_max(vf a, vf b) { return {_mm512_max_ps(a.v, b.v)}; }
inline vf f_sqrt(vf a) { return {_mm512_sqrt_ps(a.v)}; }
inline vf f_abs(vf a) {
  return {_mm512_castsi512_ps(_mm512_and_epi32(
      _mm512_castps_si512(a.v), _mm512_set1_epi32(0x7fffffff)))};
}
inline vf f_copysign(vf mag, vf sgn) {
  const __m512i sm = _mm512_set1_epi32(0x80000000u);
  return {_mm512_castsi512_ps(_mm512_or_epi32(
      _mm512_andnot_epi32(sm, _mm512_castps_si512(mag.v)),
      _mm512_and_epi32(sm, _mm512_castps_si512(sgn.v))))};
}

inline float f_hsum(vf v) {
  const __m256 s8 = _mm256_add_ps(_mm512_castps512_ps256(v.v),
                                  _mm512_extractf32x8_ps(v.v, 1));
  const __m128 s4 =
      _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
  return _mm_cvtss_f32(s1);
}
inline float f_hmax(vf v) {
  const __m256 s8 = _mm256_max_ps(_mm512_castps512_ps256(v.v),
                                  _mm512_extractf32x8_ps(v.v, 1));
  const __m128 s4 =
      _mm_max_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
  return _mm_cvtss_f32(s1);
}

inline vi f_to_i_nearest(vf x) { return {_mm512_cvtps_epi32(x.v)}; }
inline vf i_to_f(vi n) { return {_mm512_cvtepi32_ps(n.v)}; }
inline vf i_pow2f(vi n) {
  return {_mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_add_epi32(n.v, _mm512_set1_epi32(127)), 23))};
}
inline void i_store(std::int32_t* p, vi v) {
  _mm512_storeu_si512(p, v.v);
}
inline vf i8_to_f(const std::int8_t* p) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return {_mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw))};
}

inline vd d_load(const double* p) {
  return {_mm512_loadu_pd(p), _mm512_loadu_pd(p + 8)};
}
inline void d_store(double* p, vd v) {
  _mm512_storeu_pd(p, v.lo);
  _mm512_storeu_pd(p + 8, v.hi);
}
inline vd d_set1(double x) {
  const __m512d v = _mm512_set1_pd(x);
  return {v, v};
}
inline vd d_zero() {
  const __m512d z = _mm512_setzero_pd();
  return {z, z};
}
inline vd d_add(vd a, vd b) {
  return {_mm512_add_pd(a.lo, b.lo), _mm512_add_pd(a.hi, b.hi)};
}
inline vd d_sub(vd a, vd b) {
  return {_mm512_sub_pd(a.lo, b.lo), _mm512_sub_pd(a.hi, b.hi)};
}
inline vd d_mul(vd a, vd b) {
  return {_mm512_mul_pd(a.lo, b.lo), _mm512_mul_pd(a.hi, b.hi)};
}
inline vd d_div(vd a, vd b) {
  return {_mm512_div_pd(a.lo, b.lo), _mm512_div_pd(a.hi, b.hi)};
}
inline vd d_sqrt(vd a) { return {_mm512_sqrt_pd(a.lo), _mm512_sqrt_pd(a.hi)}; }
inline std::uint32_t d_lt_mask(vd a, vd b) {
  const std::uint32_t lo = _mm512_cmp_pd_mask(a.lo, b.lo, _CMP_LT_OQ);
  const std::uint32_t hi = _mm512_cmp_pd_mask(a.hi, b.hi, _CMP_LT_OQ);
  return lo | hi << 8;
}
inline std::uint32_t f_ne_mask(vf a, vf b) {
  return _mm512_cmp_ps_mask(a.v, b.v, _CMP_NEQ_UQ);
}
inline double d_hsum(vd v) {
  const __m512d s8 = _mm512_add_pd(v.lo, v.hi);
  const __m256d s4 = _mm256_add_pd(_mm512_castpd512_pd256(s8),
                                   _mm512_extractf64x4_pd(s8, 1));
  const __m128d s2 =
      _mm_add_pd(_mm256_castpd256_pd128(s4), _mm256_extractf128_pd(s4, 1));
  const __m128d s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
  return _mm_cvtsd_f64(s1);
}
inline vd f_widen(vf x) {
  return {_mm512_cvtps_pd(_mm512_castps512_ps256(x.v)),
          _mm512_cvtps_pd(_mm512_extractf32x8_ps(x.v, 1))};
}
inline vf d_narrow(vd x) {
  const __m256 lo = _mm512_cvtpd_ps(x.lo);
  const __m256 hi = _mm512_cvtpd_ps(x.hi);
  return {_mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1)};
}

// Tails: one mask register selects lanes [0, cnt).  Masked-off lanes of a
// masked load or store never fault, so memory past cnt is never touched.
inline __mmask16 lane_mask(std::size_t cnt) {
  return static_cast<__mmask16>((1u << cnt) - 1u);
}
inline vf f_load_partial(const float* p, std::size_t cnt, float pad) {
  return {_mm512_mask_loadu_ps(_mm512_set1_ps(pad), lane_mask(cnt), p)};
}
inline void f_store_partial(float* p, vf v, std::size_t cnt) {
  _mm512_mask_storeu_ps(p, lane_mask(cnt), v.v);
}
inline vf f_keep(vf v, std::size_t cnt) {
  return {_mm512_maskz_mov_ps(lane_mask(cnt), v.v)};
}
inline vd d_keep(vd v, std::size_t cnt) {
  const __mmask16 m = lane_mask(cnt);
  return {_mm512_maskz_mov_pd(static_cast<__mmask8>(m), v.lo),
          _mm512_maskz_mov_pd(static_cast<__mmask8>(m >> 8), v.hi)};
}

// Linear tiles (32 zmm registers): forward 4 rows x 4 outputs = 16
// accumulators plus 4 x blocks and one w block; dx/dW 4 rows x 4 chunks
// (64 columns) = 16 accumulators plus 4 streamed chunks and a broadcast.
constexpr int kLinFwdRows = 4;
constexpr int kLinFwdOuts = 4;
constexpr int kLinDxRows = 4;
constexpr int kLinDxChunks = 4;
constexpr int kLinDwOuts = 4;
constexpr int kLinDwChunks = 4;

#include "simd_kernels.inl"

}  // namespace

Ops make_ops_avx512() { return make_ops_impl(Variant::kAvx512); }

}  // namespace photon::simd::detail

#else  // AVX-512 unavailable at compile time: never selected at runtime
       // (supported() is false); alias scalar.

namespace photon::simd::detail {
Ops make_ops_avx512() { return make_ops_scalar(); }
}  // namespace photon::simd::detail

#endif

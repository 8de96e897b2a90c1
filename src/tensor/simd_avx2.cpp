// AVX2 variant of the SIMD op table: 16 float lanes as 2x__m256, 16 double
// lanes as 4x__m256d, 16 int32 lanes as 2x__m256i.  Compiled with
// -mavx2 -ffp-contract=off (see photon_mark_simd_sources in the top-level
// CMakeLists); no FMA intrinsics are used so results match the scalar TU
// bit-for-bit.

#include "tensor/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace photon::simd::detail {
namespace {

struct vf {
  __m256 a;  // lanes 0-7
  __m256 b;  // lanes 8-15
};
struct vd {
  __m256d r0;  // lanes 0-3
  __m256d r1;  // lanes 4-7
  __m256d r2;  // lanes 8-11
  __m256d r3;  // lanes 12-15
};
struct vi {
  __m256i a;  // lanes 0-7
  __m256i b;  // lanes 8-15
};

inline vf f_load(const float* p) {
  return {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8)};
}
inline void f_store(float* p, vf v) {
  _mm256_storeu_ps(p, v.a);
  _mm256_storeu_ps(p + 8, v.b);
}
inline vf f_set1(float x) { return {_mm256_set1_ps(x), _mm256_set1_ps(x)}; }
inline vf f_zero() { return {_mm256_setzero_ps(), _mm256_setzero_ps()}; }

inline vf f_add(vf x, vf y) {
  return {_mm256_add_ps(x.a, y.a), _mm256_add_ps(x.b, y.b)};
}
inline vf f_sub(vf x, vf y) {
  return {_mm256_sub_ps(x.a, y.a), _mm256_sub_ps(x.b, y.b)};
}
inline vf f_mul(vf x, vf y) {
  return {_mm256_mul_ps(x.a, y.a), _mm256_mul_ps(x.b, y.b)};
}
inline vf f_div(vf x, vf y) {
  return {_mm256_div_ps(x.a, y.a), _mm256_div_ps(x.b, y.b)};
}
inline vf f_min(vf x, vf y) {
  return {_mm256_min_ps(x.a, y.a), _mm256_min_ps(x.b, y.b)};
}
inline vf f_max(vf x, vf y) {
  return {_mm256_max_ps(x.a, y.a), _mm256_max_ps(x.b, y.b)};
}
inline vf f_sqrt(vf x) { return {_mm256_sqrt_ps(x.a), _mm256_sqrt_ps(x.b)}; }
inline vf f_abs(vf x) {
  const __m256 m = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  return {_mm256_and_ps(x.a, m), _mm256_and_ps(x.b, m)};
}
inline vf f_copysign(vf mag, vf sgn) {
  const __m256 sm = _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000u));
  return {_mm256_or_ps(_mm256_andnot_ps(sm, mag.a), _mm256_and_ps(sm, sgn.a)),
          _mm256_or_ps(_mm256_andnot_ps(sm, mag.b), _mm256_and_ps(sm, sgn.b))};
}

inline float fold128_sum(__m128 s4) {
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
  return _mm_cvtss_f32(s1);
}
inline float f_hsum(vf v) {
  const __m256 s8 = _mm256_add_ps(v.a, v.b);
  const __m128 s4 =
      _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  return fold128_sum(s4);
}
inline float f_hmax(vf v) {
  const __m256 s8 = _mm256_max_ps(v.a, v.b);
  const __m128 s4 =
      _mm_max_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_max_ps(s4, _mm_movehl_ps(s4, s4));
  const __m128 s1 = _mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 0x55));
  return _mm_cvtss_f32(s1);
}

inline vi f_to_i_nearest(vf x) {
  return {_mm256_cvtps_epi32(x.a), _mm256_cvtps_epi32(x.b)};
}
inline vf i_to_f(vi n) {
  return {_mm256_cvtepi32_ps(n.a), _mm256_cvtepi32_ps(n.b)};
}
inline vf i_pow2f(vi n) {
  const __m256i bias = _mm256_set1_epi32(127);
  return {_mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n.a, bias), 23)),
          _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n.b, bias), 23))};
}
inline void i_store(std::int32_t* p, vi v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v.a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 8), v.b);
}
inline vf i8_to_f(const std::int8_t* p) {
  const __m128i lo = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  const __m128i hi = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + 8));
  return {_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(lo)),
          _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(hi))};
}

inline vd d_load(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4), _mm256_loadu_pd(p + 8),
          _mm256_loadu_pd(p + 12)};
}
inline void d_store(double* p, vd v) {
  _mm256_storeu_pd(p, v.r0);
  _mm256_storeu_pd(p + 4, v.r1);
  _mm256_storeu_pd(p + 8, v.r2);
  _mm256_storeu_pd(p + 12, v.r3);
}
inline vd d_set1(double x) {
  const __m256d v = _mm256_set1_pd(x);
  return {v, v, v, v};
}
inline vd d_zero() {
  const __m256d z = _mm256_setzero_pd();
  return {z, z, z, z};
}
inline vd d_add(vd x, vd y) {
  return {_mm256_add_pd(x.r0, y.r0), _mm256_add_pd(x.r1, y.r1),
          _mm256_add_pd(x.r2, y.r2), _mm256_add_pd(x.r3, y.r3)};
}
inline vd d_sub(vd x, vd y) {
  return {_mm256_sub_pd(x.r0, y.r0), _mm256_sub_pd(x.r1, y.r1),
          _mm256_sub_pd(x.r2, y.r2), _mm256_sub_pd(x.r3, y.r3)};
}
inline vd d_mul(vd x, vd y) {
  return {_mm256_mul_pd(x.r0, y.r0), _mm256_mul_pd(x.r1, y.r1),
          _mm256_mul_pd(x.r2, y.r2), _mm256_mul_pd(x.r3, y.r3)};
}
inline vd d_div(vd x, vd y) {
  return {_mm256_div_pd(x.r0, y.r0), _mm256_div_pd(x.r1, y.r1),
          _mm256_div_pd(x.r2, y.r2), _mm256_div_pd(x.r3, y.r3)};
}
inline vd d_sqrt(vd x) {
  return {_mm256_sqrt_pd(x.r0), _mm256_sqrt_pd(x.r1), _mm256_sqrt_pd(x.r2),
          _mm256_sqrt_pd(x.r3)};
}
inline std::uint32_t d_lt_mask(vd x, vd y) {
  const auto lt = [](__m256d a, __m256d b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LT_OQ)));
  };
  return lt(x.r0, y.r0) | lt(x.r1, y.r1) << 4 | lt(x.r2, y.r2) << 8 |
         lt(x.r3, y.r3) << 12;
}
inline std::uint32_t f_ne_mask(vf x, vf y) {
  const auto ne = [](__m256 a, __m256 b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(a, b, _CMP_NEQ_UQ)));
  };
  return ne(x.a, y.a) | ne(x.b, y.b) << 8;
}
inline double d_hsum(vd v) {
  // s8[j] = l[j] + l[j+8], s4[j] = s8[j] + s8[j+4] — same tree as scalar.
  const __m256d s8a = _mm256_add_pd(v.r0, v.r2);
  const __m256d s8b = _mm256_add_pd(v.r1, v.r3);
  const __m256d s4 = _mm256_add_pd(s8a, s8b);
  const __m128d s2 =
      _mm_add_pd(_mm256_castpd256_pd128(s4), _mm256_extractf128_pd(s4, 1));
  const __m128d s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
  return _mm_cvtsd_f64(s1);
}
inline vd f_widen(vf x) {
  return {_mm256_cvtps_pd(_mm256_castps256_ps128(x.a)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(x.a, 1)),
          _mm256_cvtps_pd(_mm256_castps256_ps128(x.b)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(x.b, 1))};
}
inline vf d_narrow(vd x) {
  const __m128 lo0 = _mm256_cvtpd_ps(x.r0);
  const __m128 lo1 = _mm256_cvtpd_ps(x.r1);
  const __m128 hi0 = _mm256_cvtpd_ps(x.r2);
  const __m128 hi1 = _mm256_cvtpd_ps(x.r3);
  return {_mm256_set_m128(lo1, lo0), _mm256_set_m128(hi1, hi0)};
}

// Tails: per 8-lane half, a mask whose lane j has its sign bit set when
// j < cnt drives maskload/maskstore (masked-off lanes never fault, so memory
// past cnt is never touched) and the pad blend.  A half with no live lane
// is not accessed at all.
inline __m256i half_mask(std::size_t cnt) {  // cnt in [0, 8]
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cnt)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline __m256 load_half(const float* p, std::size_t cnt, __m256 pad) {
  const __m256i m = half_mask(cnt);
  return _mm256_blendv_ps(pad, _mm256_maskload_ps(p, m),
                          _mm256_castsi256_ps(m));
}
inline vf f_load_partial(const float* p, std::size_t cnt, float pad) {
  const __m256 vpad = _mm256_set1_ps(pad);
  if (cnt <= 8) return {load_half(p, cnt, vpad), vpad};
  return {_mm256_loadu_ps(p), load_half(p + 8, cnt - 8, vpad)};
}
inline void f_store_partial(float* p, vf v, std::size_t cnt) {
  if (cnt <= 8) {
    _mm256_maskstore_ps(p, half_mask(cnt), v.a);
    return;
  }
  _mm256_storeu_ps(p, v.a);
  _mm256_maskstore_ps(p + 8, half_mask(cnt - 8), v.b);
}
inline vf f_keep(vf v, std::size_t cnt) {
  if (cnt <= 8) {
    return {_mm256_and_ps(v.a, _mm256_castsi256_ps(half_mask(cnt))),
            _mm256_setzero_ps()};
  }
  return {v.a, _mm256_and_ps(v.b, _mm256_castsi256_ps(half_mask(cnt - 8)))};
}
inline vd d_keep(vd v, std::size_t cnt) {
  const __m256i n = _mm256_set1_epi64x(static_cast<long long>(cnt));
  const auto keep = [n](__m256d x, long long base) {
    const __m256i idx = _mm256_setr_epi64x(base, base + 1, base + 2, base + 3);
    return _mm256_and_pd(x, _mm256_castsi256_pd(_mm256_cmpgt_epi64(n, idx)));
  };
  return {keep(v.r0, 0), keep(v.r1, 4), keep(v.r2, 8), keep(v.r3, 12)};
}

// Linear tiles (16 ymm registers; one 16-lane vf is two of them): forward
// 4 rows x 1 output, dx 4 rows x 16 columns, dW 4 outputs x 16 columns —
// 8 accumulator registers plus the streamed operands.  Timed at
// local_heavy's shapes, 2x2, 1x4 and 3x2 tiles all ran slower.
constexpr int kLinFwdRows = 4;
constexpr int kLinFwdOuts = 1;
constexpr int kLinDxRows = 4;
constexpr int kLinDxChunks = 1;
constexpr int kLinDwOuts = 4;
constexpr int kLinDwChunks = 1;

#include "simd_kernels.inl"

}  // namespace

Ops make_ops_avx2() { return make_ops_impl(Variant::kAvx2); }

}  // namespace photon::simd::detail

#else  // !__AVX2__ — non-x86 or AVX2 unavailable at compile time: this table
       // is never selected at runtime (supported() is false); alias scalar.

namespace photon::simd::detail {
Ops make_ops_avx2() { return make_ops_scalar(); }
}  // namespace photon::simd::detail

#endif

// Tiny SIMD layer for the bitplane batch kernel (radio/medium_bitslice.*)
// and the lane-generic Decay coin transpose.
//
// Everything here is a leaf bit-kernel over 64-bit plane words with a
// portable scalar fallback. The AVX2 paths are compiled with a per-function
// target attribute — no global -mavx2 flag — and selected once per process
// via __builtin_cpu_supports, so one binary runs correctly on any x86-64
// host and picks up 256-bit vectors where the hardware has them.
#pragma once

#include <cstdint>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RADIOCAST_SIMD_AVX2 1
#include <immintrin.h>
#else
#define RADIOCAST_SIMD_AVX2 0
#endif

namespace radiocast::radio::simd {

/// One-time CPU feature probe (cached after the first call).
inline bool has_avx2() {
#if RADIOCAST_SIMD_AVX2
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

/// One-time AVX-512F probe (cached after the first call); gates the
/// 8-lanes-per-instruction Decay coin kernel (schedule/decay.cpp).
inline bool has_avx512f() {
#if RADIOCAST_SIMD_AVX2
  static const bool ok = __builtin_cpu_supports("avx512f") != 0;
  return ok;
#else
  return false;
#endif
}

namespace detail {

inline void gather_row_scalar(const std::uint32_t* row, std::size_t len,
                              const std::uint64_t* tx_mask,
                              std::uint64_t lane_mask, std::uint64_t& one_out,
                              std::uint64_t& two_out) {
  std::uint64_t one = 0;
  std::uint64_t two = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t m = tx_mask[row[i]] & lane_mask;
    two |= one & m;
    one |= m;
  }
  one_out = one;
  two_out = two;
}

#if RADIOCAST_SIMD_AVX2
__attribute__((target("avx2"))) inline void gather_row_avx2(
    const std::uint32_t* row, std::size_t len, const std::uint64_t* tx_mask,
    std::uint64_t lane_mask, std::uint64_t& one_out, std::uint64_t& two_out) {
  // Four independent saturating-OR accumulators, one per gather slot; the
  // add is associative under the combine rule
  //   two = a.two | b.two | (a.one & b.one);  one = a.one | b.one
  // so slots merge after the loop. vpgatherqq keeps four transmit-mask
  // loads in flight per step — the scalar loop is latency-bound on them.
  __m256i vone = _mm256_setzero_si256();
  __m256i vtwo = _mm256_setzero_si256();
  const __m256i vlm = _mm256_set1_epi64x(static_cast<long long>(lane_mask));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i));
    const __m256i m = _mm256_and_si256(
        _mm256_i32gather_epi64(
            reinterpret_cast<const long long*>(tx_mask), idx, 8),
        vlm);
    vtwo = _mm256_or_si256(vtwo, _mm256_and_si256(vone, m));
    vone = _mm256_or_si256(vone, m);
  }
  const __m128i one_lo = _mm256_castsi256_si128(vone);
  const __m128i one_hi = _mm256_extracti128_si256(vone, 1);
  const __m128i two_lo = _mm256_castsi256_si128(vtwo);
  const __m128i two_hi = _mm256_extracti128_si256(vtwo, 1);
  const __m128i one2 = _mm_or_si128(one_lo, one_hi);
  const __m128i two2 = _mm_or_si128(_mm_or_si128(two_lo, two_hi),
                                    _mm_and_si128(one_lo, one_hi));
  const std::uint64_t o0 = static_cast<std::uint64_t>(_mm_extract_epi64(one2, 0));
  const std::uint64_t o1 = static_cast<std::uint64_t>(_mm_extract_epi64(one2, 1));
  std::uint64_t one =
      o0 | o1;
  std::uint64_t two =
      static_cast<std::uint64_t>(_mm_extract_epi64(two2, 0)) |
      static_cast<std::uint64_t>(_mm_extract_epi64(two2, 1)) | (o0 & o1);
  for (; i < len; ++i) {
    const std::uint64_t m = tx_mask[row[i]] & lane_mask;
    two |= one & m;
    one |= m;
  }
  one_out = one;
  two_out = two;
}
#endif

}  // namespace detail

/// Accumulates one listener's ">= 1 tx" / ">= 2 tx" lane words over its
/// adjacency row (the gather-shaped bitplane traversal): a bitwise
/// saturating add of tx_mask[u] & lane_mask over the row. The AVX2 path
/// runs four gather slots in parallel; rows shorter than `kGatherRowMin`
/// stay scalar (measured: the slot-combine overhead cancels the gain below
/// ~two cache lines of row).
constexpr std::size_t kGatherRowMin = 16;

inline void gather_row(const std::uint32_t* row, std::size_t len,
                       const std::uint64_t* tx_mask, std::uint64_t lane_mask,
                       std::uint64_t& one_out, std::uint64_t& two_out) {
#if RADIOCAST_SIMD_AVX2
  if (len >= kGatherRowMin && has_avx2()) {
    detail::gather_row_avx2(row, len, tx_mask, lane_mask, one_out, two_out);
    return;
  }
#endif
  detail::gather_row_scalar(row, len, tx_mask, lane_mask, one_out, two_out);
}

namespace detail {

inline void transpose64_scalar(std::uint64_t* a) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= t << j;
    }
  }
}

#if RADIOCAST_SIMD_AVX2
__attribute__((target("avx2"))) inline void transpose64_avx2(
    std::uint64_t* a) {
  // Stages j = 32..4 of the scalar kernel: row k pairs with row k + j, and
  // four adjacent rows share one pairing, so each side is one ymm.
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j >= 4; j >>= 1, m ^= m << j) {
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m128i sh = _mm_cvtsi32_si128(j);
    for (int k = 0; k < 64; k = (k + j + 4) & ~j) {
      auto* px = reinterpret_cast<__m256i*>(a + k);
      auto* py = reinterpret_cast<__m256i*>(a + k + j);
      __m256i x = _mm256_loadu_si256(px);
      __m256i y = _mm256_loadu_si256(py);
      const __m256i t =
          _mm256_and_si256(_mm256_xor_si256(x, _mm256_srl_epi64(y, sh)), vm);
      _mm256_storeu_si256(px, _mm256_xor_si256(x, t));
      _mm256_storeu_si256(py, _mm256_xor_si256(y, _mm256_sll_epi64(t, sh)));
    }
  }
  // Stages j = 2 and 1 pair rows inside one ymm. With y the partner row
  // (halves swapped, then words swapped), the low row of a pair takes
  // x ^= (x ^ (y >> j)) & m and the high row x ^= (x ^ (y << j)) & (m << j):
  // one update with per-word shift counts and masks (a count of 64 yields 0).
  constexpr long long m2 = 0x3333333333333333LL;
  constexpr long long m2h = static_cast<long long>(0xCCCCCCCCCCCCCCCCULL);
  constexpr long long m1 = 0x5555555555555555LL;
  constexpr long long m1h = static_cast<long long>(0xAAAAAAAAAAAAAAAAULL);
  const __m256i m2v = _mm256_setr_epi64x(m2, m2, m2h, m2h);
  const __m256i r2v = _mm256_setr_epi64x(2, 2, 64, 64);
  const __m256i l2v = _mm256_setr_epi64x(64, 64, 2, 2);
  const __m256i m1v = _mm256_setr_epi64x(m1, m1h, m1, m1h);
  const __m256i r1v = _mm256_setr_epi64x(1, 64, 1, 64);
  const __m256i l1v = _mm256_setr_epi64x(64, 1, 64, 1);
  for (int k = 0; k < 64; k += 4) {
    auto* px = reinterpret_cast<__m256i*>(a + k);
    __m256i x = _mm256_loadu_si256(px);
    __m256i y = _mm256_permute4x64_epi64(x, 0x4E);
    __m256i s = _mm256_or_si256(_mm256_srlv_epi64(y, r2v),
                                _mm256_sllv_epi64(y, l2v));
    x = _mm256_xor_si256(x, _mm256_and_si256(_mm256_xor_si256(x, s), m2v));
    y = _mm256_shuffle_epi32(x, 0x4E);
    s = _mm256_or_si256(_mm256_srlv_epi64(y, r1v), _mm256_sllv_epi64(y, l1v));
    x = _mm256_xor_si256(x, _mm256_and_si256(_mm256_xor_si256(x, s), m1v));
    _mm256_storeu_si256(px, x);
  }
}
#endif

}  // namespace detail

/// In-place 64x64 bit-matrix transpose about the anti-diagonal (Hacker's
/// Delight kernel with LSB-first rows and bits): afterwards bit (63-i) of
/// a[63-j] equals bit j of the original a[i]. Callers flip both indices —
/// load row 63-r, read row 63-c — to get the main-diagonal transpose for
/// free; the lane-generic Decay coin transpose uses it that way. The AVX2
/// path computes the same matrix four rows per instruction.
inline void transpose64(std::span<std::uint64_t, 64> a) {
#if RADIOCAST_SIMD_AVX2
  if (has_avx2()) {
    detail::transpose64_avx2(a.data());
    return;
  }
#endif
  detail::transpose64_scalar(a.data());
}

}  // namespace radiocast::radio::simd

// Tiny SIMD layer for the bitplane batch kernel (radio/medium_bitslice.*)
// and the Decay coin transpose.
//
// Everything here is a leaf bit-kernel over 64-bit plane words with a
// portable scalar fallback. The AVX2 paths are compiled with a per-function
// target attribute — no global -mavx2 flag — and selected once per process
// via __builtin_cpu_supports, so one binary runs correctly on any x86-64
// host and picks up 256-bit vectors where the hardware has them.
#pragma once

#include <array>
#include <cstdint>

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

/// In-place 64x64 bit-matrix transpose about the anti-diagonal (Hacker's
/// Delight kernel with LSB-first rows and bits): afterwards bit (63-i) of
/// a[63-j] equals bit j of the original a[i]. Callers flip both indices —
/// load row 63-r, read row 63-c — to get the main-diagonal transpose for
/// free; the lane-generic Decay coin transpose uses it that way.
inline void transpose64(std::array<std::uint64_t, 64>& a) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= t << j;
    }
  }
}

}  // namespace radiocast::radio::simd

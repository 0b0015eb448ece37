// Inner dot products for the packed quantized int8 kernels.
//
// The fp32 and fp16 kernels must preserve a strict left-to-right
// accumulation order (their outputs are tested bit-identical to the
// storage simulation), which blocks SIMD: the compiler may not
// reassociate float adds. The int8 path only promises to stay within
// the grid's rounding slack, so it commits to a fixed 8-lane summation
// tree instead — lane j accumulates elements k+j — which maps exactly
// onto one AVX2 register (sign-extend 8 codes, convert, FMA). Every
// int8 caller (spmv LRE and no-LRE, the batched stripe-list kernel,
// dense gemv) goes through these helpers, so all of them share one
// summation tree and remain bit-identical to each other within a build.
// The tree has two layouts: dot_q8_f32 holds one stream's 8 lanes in a
// register, and the stream-lane form dot_q8_f32_lanes holds lane j of 8
// streams in register j (weights broadcast, activations stream-
// contiguous). Per stream both perform the same FMAs into the same
// lanes, the same unfused tail and the same pairwise reduction.
//
// CMake compiles only the two TUs including this header with
// -mavx2 -mfma (when the configuring host supports them) and
// -ffp-contract=off, so the neighboring fp16 loops cannot be
// FMA-contracted away from the simulation's arithmetic (nor the unfused
// tail and scale steps of the stream-lane kernel from dot_q8_f32's
// scalar ones — GCC contracts intrinsic mul + add too). Do not include
// this header from other translation units: the AVX2/fallback split is
// per-TU and would otherwise violate the one-definition rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/precision.hpp"

#if (defined(__AVX2__) && defined(__FMA__)) || defined(__F16C__)
#include <immintrin.h>
#endif

namespace rtmobile {

// ---- fp16 dot products (strict left-to-right accumulation) ----
//
// Bit-identity with the storage simulation requires the exact
// accumulation order of BspcMatrix::spmv / gemv, so only the fp16 ->
// fp32 *conversion* is vectorized (F16C converts 8 halves per
// instruction into a staging buffer); the multiply-adds stay sequential.

/// sum_k fp16(v[k]) * x[k], accumulated left to right.
inline float dot_f16_f32(const std::uint16_t* v, const float* x,
                         std::size_t n) {
  float acc = 0.0F;
  std::size_t k = 0;
#if defined(__F16C__)
  alignas(32) float buf[8];
  for (; k + 8 <= n; k += 8) {
    _mm256_store_ps(buf, _mm256_cvtph_ps(_mm_loadu_si128(
                             reinterpret_cast<const __m128i*>(v + k))));
    for (std::size_t j = 0; j < 8; ++j) acc += buf[j] * x[k + j];
  }
#endif
  for (; k < n; ++k) acc += fp16_bits_to_float(v[k]) * x[k];
  return acc;
}

/// sum_k fp16(v[k]) * x[idx[k]], accumulated left to right.
inline float dot_f16_f32_indexed(const std::uint16_t* v, const float* x,
                                 const std::uint32_t* idx, std::size_t n) {
  float acc = 0.0F;
  std::size_t k = 0;
#if defined(__F16C__)
  alignas(32) float buf[8];
  for (; k + 8 <= n; k += 8) {
    _mm256_store_ps(buf, _mm256_cvtph_ps(_mm_loadu_si128(
                             reinterpret_cast<const __m128i*>(v + k))));
    for (std::size_t j = 0; j < 8; ++j) acc += buf[j] * x[idx[k + j]];
  }
#endif
  for (; k < n; ++k) acc += fp16_bits_to_float(v[k]) * x[idx[k]];
  return acc;
}

// ---- int8 dot products (fixed 8-lane summation tree) ----

#if defined(__AVX2__) && defined(__FMA__)

namespace quant_detail {

/// Horizontal sum with the fixed pairwise tree the scalar fallback uses.
inline float reduce_lanes(__m256 acc) {
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace quant_detail

/// sum_k q[k] * x[k] in fp32 (8-lane tree).
inline float dot_q8_f32(const std::int8_t* q, const float* x,
                        std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + k));
    const __m256 vq = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc = _mm256_fmadd_ps(vq, _mm256_loadu_ps(x + k), acc);
  }
  float tail = 0.0F;
  for (; k < n; ++k) tail += static_cast<float>(q[k]) * x[k];
  return quant_detail::reduce_lanes(acc) + tail;
}

/// sum_k q[k] * x[idx[k]] in fp32 — same tree as the contiguous form
/// (the gather buffer only reorders loads, not the arithmetic).
inline float dot_q8_f32_indexed(const std::int8_t* q, const float* x,
                                const std::uint32_t* idx, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t k = 0;
  alignas(32) float gathered[8];
  for (; k + 8 <= n; k += 8) {
    for (std::size_t j = 0; j < 8; ++j) gathered[j] = x[idx[k + j]];
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + k));
    const __m256 vq = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes));
    acc = _mm256_fmadd_ps(vq, _mm256_load_ps(gathered), acc);
  }
  float tail = 0.0F;
  for (; k < n; ++k) tail += static_cast<float>(q[k]) * x[idx[k]];
  return quant_detail::reduce_lanes(acc) + tail;
}

/// out[k] = q[k] as float (exact): a block's codes, widened once so the
/// stream-lane kernel broadcasts weights straight from L1.
inline void widen_q8(const std::int8_t* q, std::size_t n, float* out) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + k));
    _mm256_storeu_ps(out + k,
                     _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes)));
  }
  for (; k < n; ++k) out[k] = static_cast<float>(q[k]);
}

/// Stream-lane form of dot_q8_f32 over a k-major activation panel:
/// tile[b] += dot_q8_f32(q, column b, n) * scale for b in [0, lanes),
/// where `w` holds q widened by widen_q8, column b is
/// panel[k * lanes + b], and lanes is a multiple of 8. Each weight is
/// broadcast and FMA'd across 8 streams; register j holds lane j
/// (elements k = j mod 8) of those streams, so each stream sees
/// dot_q8_f32's exact arithmetic and order — hence the same bits — with
/// no per-stream horizontal reduction.
inline void dot_q8_f32_lanes(const float* w, std::size_t n,
                             const float* panel, std::size_t lanes,
                             float scale, float* tile) {
  const std::size_t n8 = n & ~std::size_t{7};
  const __m256 vscale = _mm256_set1_ps(scale);
  for (std::size_t g = 0; g < lanes; g += 8) {
    const float* p = panel + g;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    std::size_t k = 0;
    for (; k < n8; k += 8) {
      const float* pk = p + k * lanes;
      const float* wk = w + k;
      a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 0),
                           _mm256_loadu_ps(pk), a0);
      a1 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 1),
                           _mm256_loadu_ps(pk + lanes), a1);
      a2 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 2),
                           _mm256_loadu_ps(pk + 2 * lanes), a2);
      a3 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 3),
                           _mm256_loadu_ps(pk + 3 * lanes), a3);
      a4 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 4),
                           _mm256_loadu_ps(pk + 4 * lanes), a4);
      a5 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 5),
                           _mm256_loadu_ps(pk + 5 * lanes), a5);
      a6 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 6),
                           _mm256_loadu_ps(pk + 6 * lanes), a6);
      a7 = _mm256_fmadd_ps(_mm256_broadcast_ss(wk + 7),
                           _mm256_loadu_ps(pk + 7 * lanes), a7);
    }
    __m256 tail = _mm256_setzero_ps();
    for (; k < n; ++k) {
      tail = _mm256_add_ps(tail, _mm256_mul_ps(_mm256_broadcast_ss(w + k),
                                               _mm256_loadu_ps(p + k * lanes)));
    }
    // reduce_lanes' tree, one lane per register. With no full group
    // every lane is +0, so the tree is +0 and is not spelled out.
    const __m256 tree =
        n8 == 0 ? _mm256_setzero_ps()
                : _mm256_add_ps(
                      _mm256_add_ps(_mm256_add_ps(a0, a1),
                                    _mm256_add_ps(a2, a3)),
                      _mm256_add_ps(_mm256_add_ps(a4, a5),
                                    _mm256_add_ps(a6, a7)));
    const __m256 sum = _mm256_add_ps(tree, tail);
    _mm256_storeu_ps(tile + g,
                     _mm256_add_ps(_mm256_loadu_ps(tile + g),
                                   _mm256_mul_ps(sum, vscale)));
  }
}

/// sum_k q[k] * a[k] in int32 — the fused path's int8-weight x
/// int8-activation dot. Integer accumulation is exact, so unlike the
/// float trees above this needs no fixed summation order: the AVX2
/// madd_epi16 path and the scalar fallback return identical sums for
/// any input. Overflow-safe for any realistic n: |q*a| <= 127^2, so the
/// int32 accumulator holds > 2^17 * 127^2 products.
inline std::int32_t dot_q8_q8_i32(const std::int8_t* q,
                                  const std::int8_t* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m256i qw = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + k)));
    const __m256i aw = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(qw, aw));
  }
  alignas(32) std::int32_t lane[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), acc);
  std::int32_t sum = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                     ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  for (; k < n; ++k) {
    sum += static_cast<std::int32_t>(q[k]) * static_cast<std::int32_t>(a[k]);
  }
  return sum;
}

/// acc[b] += sum_k w[k] * a[k][b] for bp streams at once (bp a multiple
/// of 8) — the fused batched-matmat microkernel. `panel` holds the
/// block's activation codes interleaved stream-major: for column pair p,
/// 32-bit lane b is the int16 pair (a[2p][b], a[2p+1][b]), with odd-tail
/// columns and batch-pad lanes zeroed by the gather. Each weight pair is
/// broadcast once and madd'ed across all streams, so there is no
/// per-stream horizontal reduction at all; int32 accumulation keeps the
/// result exactly equal to dot_q8_q8_i32 per stream.
inline void madd_q8_pairs(const std::int8_t* w, std::size_t n,
                          const std::int16_t* panel, std::size_t bp,
                          std::int32_t* acc) {
  const std::size_t pairs = (n + 1) / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::int32_t w0 = w[2 * p];
    const std::int32_t w1 = 2 * p + 1 < n ? w[2 * p + 1] : 0;
    const std::int32_t pair_bits =
        (w0 & 0xFFFF) | (static_cast<std::int32_t>(
                            static_cast<std::uint32_t>(w1) << 16));
    const __m256i wpair = _mm256_set1_epi32(pair_bits);
    const std::int16_t* lane = panel + p * 2 * bp;
    for (std::size_t b = 0; b < bp; b += 8) {
      const __m256i codes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lane + 2 * b));
      __m256i* accv = reinterpret_cast<__m256i*>(acc + b);
      _mm256_storeu_si256(
          accv, _mm256_add_epi32(_mm256_loadu_si256(accv),
                                 _mm256_madd_epi16(wpair, codes)));
    }
  }
}

/// Whole-block form of madd_q8_pairs:
/// acc[i][b] += sum_k w[i][k] * a[k][b] for every active row i at once.
/// Weight rows are expanded four pairs at a time — one sign-extending
/// 8-byte load plus lane broadcasts — instead of per-pair scalar bit
/// packing, which is where the pair kernel spends most of its
/// instructions on the wide blocks BSPC actually produces. Identical
/// int32 sums to madd_q8_pairs row by row (integer associativity).
inline void madd_q8_block(const std::int8_t* w, std::size_t col_count,
                          std::size_t n_rows, const std::int16_t* panel,
                          std::size_t bp, std::int32_t* acc) {
  const std::size_t pairs = (col_count + 1) / 2;
  // Pair groups whose 8 weight bytes are all in bounds.
  const std::size_t groups = col_count / 8;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::int8_t* wr = w + i * col_count;
    std::int32_t* arow = acc + i * bp;
    for (std::size_t g = 0; g < groups; ++g) {
      const __m128i w16 = _mm_cvtepi8_epi16(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(wr + 8 * g)));
      const __m256i wp0 = _mm256_broadcastd_epi32(w16);
      const __m256i wp1 =
          _mm256_broadcastd_epi32(_mm_shuffle_epi32(w16, 0x55));
      const __m256i wp2 =
          _mm256_broadcastd_epi32(_mm_shuffle_epi32(w16, 0xAA));
      const __m256i wp3 =
          _mm256_broadcastd_epi32(_mm_shuffle_epi32(w16, 0xFF));
      const std::int16_t* lane = panel + g * 8 * bp;
      for (std::size_t b = 0; b < bp; b += 8) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i*>(arow + b));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 2 * b))));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 2 * bp + 2 * b))));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp2, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 4 * bp + 2 * b))));
        a = _mm256_add_epi32(
            a, _mm256_madd_epi16(
                   wp3, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            lane + 6 * bp + 2 * b))));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow + b), a);
      }
    }
    if (groups * 4 < pairs) {  // tail pairs (block width not 8-aligned)
      madd_q8_pairs(wr + 8 * groups, col_count - 8 * groups,
                    panel + groups * 8 * bp, bp, arow);
    }
  }
}

/// Builds one column pair's interleaved panel lane from the transposed
/// activation panel: lane[2b] = c0[b], lane[2b+1] = c1[b] (or 0 when c1
/// is null — the odd-tail column), widened to int16. `bp` is a multiple
/// of 8 so the whole column interleaves as straight loads + byte
/// unpack + sign extension, no strided scalar stores.
inline void interleave_q8_pairs(const std::int8_t* c0, const std::int8_t* c1,
                                std::size_t bp, std::int16_t* lane) {
  std::size_t b = 0;
  for (; b + 16 <= bp; b += 16) {
    const __m128i lo8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c0 + b));
    const __m128i hi8 =
        c1 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(c1 + b))
           : _mm_setzero_si128();
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane + 2 * b),
        _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(lo8, hi8)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane + 2 * b + 16),
        _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(lo8, hi8)));
  }
  if (b < bp) {  // 8-lane tail: one 64-bit load per column
    const __m128i lo8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c0 + b));
    const __m128i hi8 =
        c1 ? _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c1 + b))
           : _mm_setzero_si128();
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane + 2 * b),
        _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(lo8, hi8)));
  }
}

#else  // portable fallback: same summation tree, scalar lanes

namespace quant_detail {

/// `q` is int8 codes, or codes already widened to float (exact either
/// way, so the products are the same).
template <typename Code, typename LoadX>
inline float dot_lanes(const Code* q, std::size_t n, LoadX load) {
  float lane[8] = {0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F, 0.0F};
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      // NOTE: matches the AVX2 build only when FMA contraction is off
      // for this TU; the int8 parity tests are tolerance-based, so a
      // contracted build is still correct, just not bit-equal to it.
      lane[j] += static_cast<float>(q[k + j]) * load(k + j);
    }
  }
  float tail = 0.0F;
  for (; k < n; ++k) tail += static_cast<float>(q[k]) * load(k);
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) +
         tail;
}

}  // namespace quant_detail

inline float dot_q8_f32(const std::int8_t* q, const float* x,
                        std::size_t n) {
  return quant_detail::dot_lanes(q, n,
                                 [x](std::size_t k) { return x[k]; });
}

inline float dot_q8_f32_indexed(const std::int8_t* q, const float* x,
                                const std::uint32_t* idx, std::size_t n) {
  return quant_detail::dot_lanes(
      q, n, [x, idx](std::size_t k) { return x[idx[k]]; });
}

inline void widen_q8(const std::int8_t* q, std::size_t n, float* out) {
  for (std::size_t k = 0; k < n; ++k) out[k] = static_cast<float>(q[k]);
}

/// Scalar form of the stream-lane kernel: dot_lanes per stream, so each
/// stream gets this build's dot_q8_f32 arithmetic exactly.
inline void dot_q8_f32_lanes(const float* w, std::size_t n,
                             const float* panel, std::size_t lanes,
                             float scale, float* tile) {
  for (std::size_t b = 0; b < lanes; ++b) {
    const float* column = panel + b;
    tile[b] += quant_detail::dot_lanes(w, n,
                                       [column, lanes](std::size_t k) {
                                         return column[k * lanes];
                                       }) *
               scale;
  }
}

/// Exact int32 accumulation — bit-identical to the AVX2 build by
/// construction (integer addition is associative).
inline std::int32_t dot_q8_q8_i32(const std::int8_t* q,
                                  const std::int8_t* a, std::size_t n) {
  std::int32_t sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += static_cast<std::int32_t>(q[k]) * static_cast<std::int32_t>(a[k]);
  }
  return sum;
}

/// Scalar form of the fused microkernel — identical int32 sums to the
/// AVX2 build by integer associativity. Panel layout matches: pair p's
/// lane b is (a[2p][b], a[2p+1][b]) as adjacent int16s.
inline void madd_q8_pairs(const std::int8_t* w, std::size_t n,
                          const std::int16_t* panel, std::size_t bp,
                          std::int32_t* acc) {
  const std::size_t pairs = (n + 1) / 2;
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::int32_t w0 = w[2 * p];
    const std::int32_t w1 = 2 * p + 1 < n ? w[2 * p + 1] : 0;
    const std::int16_t* lane = panel + p * 2 * bp;
    for (std::size_t b = 0; b < bp; ++b) {
      acc[b] += w0 * lane[2 * b] + w1 * lane[2 * b + 1];
    }
  }
}

/// Scalar form of the block kernel — row-by-row madd_q8_pairs, which is
/// the same int32 arithmetic the AVX2 build performs.
inline void madd_q8_block(const std::int8_t* w, std::size_t col_count,
                          std::size_t n_rows, const std::int16_t* panel,
                          std::size_t bp, std::int32_t* acc) {
  for (std::size_t i = 0; i < n_rows; ++i) {
    madd_q8_pairs(w + i * col_count, col_count, panel, bp, acc + i * bp);
  }
}

/// Scalar form of the panel interleave — same lane layout as the AVX2
/// build (values are exact either way).
inline void interleave_q8_pairs(const std::int8_t* c0, const std::int8_t* c1,
                                std::size_t bp, std::int16_t* lane) {
  for (std::size_t b = 0; b < bp; ++b) {
    lane[2 * b] = c0[b];
    lane[2 * b + 1] = c1 ? c1[b] : std::int16_t{0};
  }
}

#endif

}  // namespace rtmobile

// PackedQuantizedBspc — the BSPC format with int8/fp16 value storage.
//
// core/quantize only *simulates* storage precision: weights are rounded
// through the grid and dequantized back into fp32 matrices, so the hot
// loops never get smaller. This format actually stores the packed value
// payload at reduced width — int8 codes with per-row (or per-tensor)
// fp32 scales, or IEEE binary16 bits — while sharing BspcMatrix's
// structural metadata (stripe row sets, kept-column pool, block refs)
// byte for byte. Kernels accumulate in fp32 and apply the int8 scale
// once per (row, block) partial sum, so numerics stay within the grid's
// rounding bound of the dequantize-then-fp32 simulation; the fp16 path
// is bit-identical to it (fp16 -> fp32 conversion is exact and the loop
// structure matches BspcMatrix::spmv exactly).
//
// The throughput win is bandwidth: the value payload is 2-4x smaller,
// which is what the memory-bound batched serving path streams per
// stream per timestep.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/bspc.hpp"
#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"
#include "tensor/precision.hpp"

namespace rtmobile {

class PackedQuantizedBspc {
 public:
  PackedQuantizedBspc() = default;

  /// Quantizes `source`'s value payload under `precision` (kFp32 is
  /// rejected — keep the BspcMatrix itself for fp32). Int8 scales are
  /// computed over the kept entries only, which matches quantize_int8 on
  /// the masked dense matrix: pruned entries are zero there and cannot
  /// raise a row's max |w|.
  [[nodiscard]] static PackedQuantizedBspc pack(const BspcMatrix& source,
                                                WeightPrecision precision);

  [[nodiscard]] WeightPrecision precision() const { return precision_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t num_stripes() const { return num_r_; }
  [[nodiscard]] std::size_t nnz() const { return nnz_; }

  /// y = A x over all stripes (zeroes y first).
  void spmv(std::span<const float> x, std::span<float> y) const;

  /// Processes an explicit stripe list in order, accumulating into y —
  /// the unit the compiler's thread partition dispatches, mirroring
  /// BspcMatrix::spmv_stripe_list. Stripe row sets are disjoint, so
  /// concurrent calls with disjoint lists never race on y. `gather` is
  /// the caller-provided LRE scratch (>= max_block_cols() floats when
  /// use_lre); concurrent calls need disjoint buffers.
  void spmv_stripe_list(std::span<const float> x, std::span<float> y,
                        std::span<const std::uint32_t> stripes, bool use_lre,
                        std::span<float> gather) const;
  /// Convenience overload that allocates its own gather scratch.
  void spmv_stripe_list(std::span<const float> x, std::span<float> y,
                        std::span<const std::uint32_t> stripes,
                        bool use_lre = true) const;

  /// Widest block's kept-column count (the LRE gather scratch size).
  [[nodiscard]] std::size_t max_block_cols() const {
    return max_block_cols_;
  }

  /// Batched stripe-list form (the fused step's kernel): row b of X
  /// (b < batch) is an independent fp32 input vector, and for the active
  /// rows r of the listed stripes row b of Y receives (A X[b])[r]. Each
  /// stripe's partial sums collect in an L1 tile that is written to Y
  /// once (an assignment), so Y entries outside those rows, and rows of
  /// Y past `batch`, are left as they were; the caller zeroes the rest
  /// (pruned_rows() when the lists cover every stripe).
  /// Weights stream once per block per batch. From kMinStreamLaneBatch
  /// streams up the int8 kernel runs stream lanes (dot_q8_f32_lanes):
  /// the batch is padded to 8-stream lanes, each weight is broadcast
  /// across 8 streams, and per stream the float operations are exactly
  /// dot_q8_f32's — the same FMAs into the same 8 lanes, the same tail,
  /// the same pairwise tree — followed by the same `+= dot * scale` per
  /// block. Narrower int8 batches and fp16 run per-stream dot_q8_f32 /
  /// dot_f16_f32 into the tile. Either way each stream's result is
  /// bit-identical to spmv_stripe_list on its own row, and so to
  /// LayerPlan::execute. `gather` needs spmm_scratch_floats(batch)
  /// floats (concurrent calls need disjoint buffers). LRE is implied:
  /// the batched gather is the redundant-load elimination.
  void spmm_stripe_list(const Matrix& x, Matrix& y, std::size_t batch,
                        std::span<const std::uint32_t> stripes,
                        std::span<float> gather) const;

  /// Rows that no stripe keeps (pruned by BSP step 2), ascending:
  /// exactly the rows spmm_stripe_list over every stripe does not write.
  [[nodiscard]] std::span<const std::uint32_t> pruned_rows() const {
    return pruned_rows_;
  }

  /// Narrowest batch the int8 spmm_stripe_list runs as stream lanes.
  /// Below it, padding to 8 lanes costs more than the per-stream
  /// horizontal reductions it saves.
  static constexpr std::size_t kMinStreamLaneBatch = 4;

  /// Float scratch spmm_stripe_list needs at `batch`: a panel of
  /// max_block_cols() and a tile of the widest stripe's rows per lane,
  /// plus on the stream-lane path the widest block's codes as floats.
  [[nodiscard]] std::size_t spmm_scratch_floats(std::size_t batch) const;

  /// Batched stripe-list form over int8-quantized activations (int8
  /// weight storage only) — the fused step's throughput kernel. Codes
  /// multiply codes with exact int32 accumulation: each block's
  /// activation codes are gathered once into a stream-major interleaved
  /// panel, every weight code pair is broadcast and madd'ed across the
  /// whole batch (no per-stream horizontal reductions), and partial
  /// sums ride per-stripe int32 accumulators dequantized once per
  /// (row, stream) as i32 * row_scale[r] * x.scale[b] and assigned to
  /// Y, with spmm_stripe_list's write contract. Per-stream sums
  /// equal dot_q8_q8_i32 exactly (integer associativity), so the result
  /// is within the activation grid's rounding slack of
  /// spmm_stripe_list, not bitwise. `scratch` needs
  /// q8_scratch_words(batch) int32 words.
  void spmm_stripe_list_q8(const QuantizedActivations& x, Matrix& y,
                           std::size_t batch,
                           std::span<const std::uint32_t> stripes,
                           std::span<std::int32_t> scratch) const;

  /// int32 scratch words spmm_stripe_list_q8 needs at `batch`: the
  /// interleaved activation panel plus the stripe accumulator block,
  /// both padded to 8-stream lanes (the transposed activation panel's
  /// lane group).
  [[nodiscard]] std::size_t q8_scratch_words(std::size_t batch) const {
    const std::size_t bp = (batch + 7) & ~std::size_t{7};
    return bp * ((max_block_cols_ + 1) / 2 + max_stripe_rows_);
  }

  /// Dequantized dense reconstruction (for verification).
  [[nodiscard]] Matrix to_dense() const;

  /// Storage footprint: packed values at their true width, plus scales,
  /// plus the shared structural metadata.
  [[nodiscard]] std::size_t memory_bytes(std::size_t index_bytes = 4) const;

 private:
  /// True when spmm_stripe_list runs `batch` streams as stream lanes.
  [[nodiscard]] bool stream_lanes(std::size_t batch) const;
  /// Stream lanes spmm_stripe_list uses at `batch`: the batch rounded up
  /// to a multiple of 8 on the int8 stream-lane path, `batch` otherwise.
  [[nodiscard]] std::size_t spmm_lanes(std::size_t batch) const;

  /// Zeroes stripe s's tile ([active rows] x lanes) and accumulates
  /// A X[b] into it for b < batch, block by block. The stream-lane form
  /// gathers a k-major panel and widens each block's codes into
  /// `weights` first; the other gathers a stream-major panel.
  template <bool kStreamLanes>
  void accumulate_stripe(const Matrix& x, std::size_t batch,
                         std::size_t lanes, std::size_t s, float* panel,
                         float* tile, float* weights) const;

  template <bool kUseLre>
  void process_stripe(std::span<const float> x, std::span<float> y,
                      std::size_t s, std::span<float> gathered) const;

  [[nodiscard]] float dequantize_at(std::size_t value_index,
                                    std::size_t row) const;

  WeightPrecision precision_ = WeightPrecision::kInt8PerTensor;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t num_r_ = 0;
  std::size_t num_c_ = 0;
  std::size_t max_block_cols_ = 0;
  /// Widest stripe's active-row count (sizes the batched kernels'
  /// per-stripe accumulator tiles).
  std::size_t max_stripe_rows_ = 0;
  std::size_t nnz_ = 0;
  // Structural metadata, copied verbatim from the source BspcMatrix.
  std::vector<std::uint32_t> stripe_row_ptr_;
  std::vector<std::uint32_t> active_rows_;
  /// Complement of active_rows_, derived at pack time.
  std::vector<std::uint32_t> pruned_rows_;
  std::vector<std::uint32_t> stripe_block_ptr_;
  std::vector<BspcMatrix::BlockRef> blocks_;
  std::vector<std::uint32_t> col_pool_;
  // Value payload: exactly one of these is populated.
  std::vector<std::int8_t, AlignedAllocator<std::int8_t>> q8_;
  std::vector<std::uint16_t, AlignedAllocator<std::uint16_t>> f16_;
  /// Dequantization scale per global row (per-tensor precision stores
  /// the one tensor scale replicated, keeping the kernel uniform).
  std::vector<float, AlignedAllocator<float>> row_scale_;
};

}  // namespace rtmobile

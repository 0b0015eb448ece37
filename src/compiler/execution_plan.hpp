// Compiled execution plans for a single weight matrix.
//
// A LayerPlan is the unit the RTMobile compiler emits per RNN weight
// matrix: a storage format (dense / CSR / BSPC), an optional reorder plan,
// the redundant-load-elimination flag, and a thread partition. Executing a
// plan computes y = W x with whatever combination of optimizations the
// CompilerOptions selected — which is exactly the knob set the ablation
// benchmark sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "compiler/reorder.hpp"
#include "hw/thread_pool.hpp"
#include "sparse/block_mask.hpp"
#include "sparse/bspc.hpp"
#include "sparse/bspc_quant.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"
#include "tensor/packed_dense.hpp"
#include "tensor/precision.hpp"

namespace rtmobile {

enum class SparseFormat : std::uint8_t {
  kDense,  // dense GEMV baseline
  kCsr,    // unstructured compressed rows (the ESE-style strawman)
  kBspc,   // the paper's compact block format
};

[[nodiscard]] const char* to_string(SparseFormat format);

struct CompilerOptions {
  SparseFormat format = SparseFormat::kBspc;
  bool reorder = true;       // matrix reorder pass (BSPC only)
  bool lre = true;           // redundant load elimination (BSPC only)
  std::size_t threads = 1;   // thread partition width
  /// Weight storage the compiled plan actually carries. kFp32 (the
  /// default) keeps today's fp32 kernels bit-identical; kFp16 / kInt8*
  /// pack BSPC and dense plans into the quantized formats and run the
  /// packed kernels (fp32 accumulation). CSR supports fp32 only.
  WeightPrecision precision = WeightPrecision::kFp32;
  /// Storage accounting for fp32 plans (2 models fp16 without packing).
  /// Ignored when `precision` != kFp32: packed plans report their real
  /// stored width including scale overhead.
  std::size_t value_bytes = 4;
  /// Below this many nonzeros a matvec runs single-threaded even when a
  /// pool is available: dispatch latency would dominate the kernel. This
  /// mirrors the auto-tuner's thread-count decision for tiny workloads.
  std::size_t min_nnz_for_threading = 16384;
  /// Optional placement hint: the core range the pool executing these
  /// plans should occupy. The compiler records it; whoever constructs the
  /// pool honors it (the sharded serving layer pins each engine replica's
  /// pool to a disjoint range so shards don't contend for cores).
  std::optional<CoreRange> core_range;
  /// Activation storage inside the batched step. kInt8 only takes
  /// effect on int8 weight plans (packed dense / packed BSPC) at widths
  /// above 1, where the matmat multiplies codes by codes with exact
  /// int32 accumulation; fp32/fp16 plans and width-1 steps always read
  /// the fp32 panel.
  ActivationPrecision activation = ActivationPrecision::kFp32;
};

/// Reusable LRE gather scratch for LayerPlan::execute: one buffer per
/// thread partition, grown on demand and never shrunk. prepare() must run
/// on the dispatching thread before partitions are handed to concurrent
/// tasks; partition() is then a plain indexed read, safe from any task.
/// Owning one per compiled model is what makes the step path free of
/// per-matvec heap allocation.
class LreScratch {
 public:
  /// Ensures `partitions` buffers of at least `floats` capacity exist.
  void prepare(std::size_t partitions, std::size_t floats);
  /// The gather buffer for one thread partition (prepare()d first).
  [[nodiscard]] std::span<float> partition(std::size_t index);

  /// Same contract for the int32 scratch the fused q8 activation kernel
  /// uses (execute_batch with quantized activations): `words` comes from
  /// LayerPlan::q8_scratch_words at the widest batch the caller serves.
  void prepare_q8(std::size_t partitions, std::size_t words);
  [[nodiscard]] std::span<std::int32_t> partition_q8(std::size_t index);

 private:
  std::vector<std::vector<float>> buffers_;
  std::vector<std::vector<std::int32_t>> q8_buffers_;
};

class LayerPlan {
 public:
  LayerPlan() = default;

  /// Compiles `weights` under `options`. For sparse formats, `mask`
  /// supplies the BSP structure; kDense ignores it, kCsr uses it only to
  /// zero pruned weights first (nullptr = use weights as stored).
  [[nodiscard]] static LayerPlan compile(const Matrix& weights,
                                         const BlockMask* mask,
                                         const CompilerOptions& options);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] const CompilerOptions& options() const { return options_; }

  /// y = W x. `pool` may be nullptr (or options.threads == 1) for
  /// single-threaded execution. y must not alias x. `scratch` supplies
  /// the BSPC kernels' LRE gather buffers; nullptr falls back to a local
  /// allocation (fine for one-shot callers; the serving step path passes
  /// its per-slot scratch so no matvec allocates). A scratch instance
  /// must not be shared by concurrent execute() calls.
  void execute(std::span<const float> x, std::span<float> y,
               ThreadPool* pool = nullptr,
               LreScratch* scratch = nullptr) const;

  /// Y[b] = W X[b] for b in [0, batch): the batched form. Each weight
  /// matrix is streamed from memory once for the whole batch. Width 1
  /// is execute() on row 0: the per-vector kernel, with `xq` ignored.
  /// Per stream the fp32/fp16/int8-weight result is bit-identical to
  /// execute() on that stream's row — the batched kernels keep the
  /// per-vector accumulation order and the fp32 dense/CSR paths
  /// literally run the per-vector kernel per row, threading across
  /// streams instead of rows. X/Y may have extra trailing rows. `xq`,
  /// when non-null and the plan stores int8 weights, supplies the
  /// batch's activations on the int8 grid and switches the kernel to
  /// exact int32 code-by-code accumulation (within the activation
  /// grid's rounding slack of the fp32 panel); other plans ignore it
  /// and read X. A scratch instance must not be shared by concurrent
  /// calls.
  void execute_batch(const Matrix& x, Matrix& y, std::size_t batch,
                     ThreadPool* pool = nullptr,
                     LreScratch* scratch = nullptr,
                     const QuantizedActivations* xq = nullptr) const;

  /// Floats of LRE gather scratch one partition of this plan needs (0
  /// when the plan has no LRE gather — dense, CSR, or lre disabled).
  [[nodiscard]] std::size_t lre_gather_floats() const;

  /// Per-stream floats of gather scratch one partition of the *batched*
  /// kernel needs (multiply by the batch width). Unlike
  /// lre_gather_floats this is nonzero for packed BSPC even when
  /// options.lre is off: the batched gather is itself the redundant
  /// load elimination, so the packed spmm always uses it.
  [[nodiscard]] std::size_t batch_gather_floats() const;

  /// int32 scratch words one partition of the q8 activation kernel
  /// needs at `batch` streams (0 unless the plan is int8 BSPC — the one
  /// format whose batched kernel runs code-by-code on interleaved
  /// panels).
  [[nodiscard]] std::size_t q8_scratch_words(std::size_t batch) const;

  /// True when the compiled storage is int8 codes (packed dense or
  /// packed BSPC) — the plans whose execute_batch consumes quantized
  /// activations.
  [[nodiscard]] bool int8_weights() const {
    return options_.format != SparseFormat::kCsr &&
           (options_.precision == WeightPrecision::kInt8PerTensor ||
            options_.precision == WeightPrecision::kInt8PerRow);
  }

  /// Surviving nonzeros.
  [[nodiscard]] std::size_t nnz() const;

  /// Storage footprint of the compiled weights (values + indices).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Load-imbalance factor of the thread partition (1.0 = perfect).
  [[nodiscard]] double imbalance() const;

  /// Reconstructs the effective dense weights (for verification).
  [[nodiscard]] Matrix to_dense() const;

 private:
  /// True when the plan stores packed int8/fp16 weights (precision !=
  /// fp32 on a dense or BSPC plan).
  [[nodiscard]] bool packed() const {
    return options_.precision != WeightPrecision::kFp32;
  }

  CompilerOptions options_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t nnz_ = 0;  // cached at compile time for the thread heuristic
  // Exactly one storage member is populated, chosen by (format,
  // precision) at compile time.
  Matrix dense_;
  PackedDenseMatrix packed_dense_;
  CsrMatrix csr_;
  BspcMatrix bspc_;
  PackedQuantizedBspc packed_bspc_;
  std::optional<ReorderPlan> reorder_;
};

}  // namespace rtmobile

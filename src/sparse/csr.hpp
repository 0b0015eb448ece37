// Compressed Sparse Row storage.
//
// CSR is the format non-structured pruning (ESE-style) must fall back to;
// in the paper it is the strawman that BSPC beats on both index overhead
// (one index per nonzero) and access regularity. It doubles as our general
// sparse reference implementation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"

namespace rtmobile {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds CSR from a dense matrix, keeping entries with |w| > threshold.
  [[nodiscard]] static CsrMatrix from_dense(const Matrix& dense,
                                            float threshold = 0.0F);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// y = A x.
  void spmv(std::span<const float> x, std::span<float> y) const;

  /// Reconstructs the dense matrix (pruned entries are zero).
  [[nodiscard]] Matrix to_dense() const;

  /// Storage footprint given value/index widths in bytes. The paper's
  /// mobile GPU kernels use fp16 values (value_bytes = 2).
  [[nodiscard]] std::size_t memory_bytes(std::size_t value_bytes = 4,
                                         std::size_t index_bytes = 4) const;

  [[nodiscard]] std::span<const std::uint32_t> row_ptr() const {
    return {row_ptr_.data(), row_ptr_.size()};
  }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const {
    return {col_idx_.data(), col_idx_.size()};
  }
  [[nodiscard]] std::span<const float> values() const {
    return {values_.data(), values_.size()};
  }

  /// Nonzero count of one row.
  [[nodiscard]] std::size_t row_nnz(std::size_t row) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<float, AlignedAllocator<float>> values_;
};

}  // namespace rtmobile

#include "sparse/csr.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rtmobile {

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, float threshold) {
  RT_REQUIRE(threshold >= 0.0F, "threshold must be non-negative");
  CsrMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_ptr_.reserve(dense.rows() + 1);
  out.row_ptr_.push_back(0);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    const auto row = dense.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (std::fabs(row[c]) > threshold) {
        out.col_idx_.push_back(static_cast<std::uint32_t>(c));
        out.values_.push_back(row[c]);
      }
    }
    out.row_ptr_.push_back(static_cast<std::uint32_t>(out.col_idx_.size()));
  }
  return out;
}

void CsrMatrix::spmv(std::span<const float> x, std::span<float> y) const {
  RT_REQUIRE(x.size() == cols_, "spmv: x size mismatch");
  RT_REQUIRE(y.size() == rows_, "spmv: y size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    float acc = 0.0F;
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
}

Matrix CsrMatrix::to_dense() const {
  Matrix dense(rows_, cols_, 0.0F);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      dense(r, col_idx_[k]) = values_[k];
    }
  }
  return dense;
}

std::size_t CsrMatrix::memory_bytes(std::size_t value_bytes,
                                    std::size_t index_bytes) const {
  return values_.size() * value_bytes + col_idx_.size() * index_bytes +
         row_ptr_.size() * index_bytes;
}

std::size_t CsrMatrix::row_nnz(std::size_t row) const {
  RT_REQUIRE(row < rows_, "row index out of range");
  return row_ptr_[row + 1] - row_ptr_[row];
}

}  // namespace rtmobile

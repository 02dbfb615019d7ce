// Compressed-sparse-row matrices for Markov-chain numerics.
//
// The solvers only need row-major iteration and (row-vector × matrix)
// products — distributions are propagated as x := x P — so the interface is
// deliberately small.  The solvers multiply over the transpose:
// transposed().right_multiply(x, y) accumulates every output entry in the
// same order as left_multiply(x, y), so the gather gives the scatter's bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ctmc {

struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicates (same row, col) are summed.
  static CsrMatrix from_triplets(std::uint32_t rows, std::uint32_t cols,
                                 std::vector<Triplet> triplets);

  /// Adopts a CSR layout as is: row_ptr has rows + 1 monotone entries from
  /// 0 to col.size() == val.size(), and each row's columns are strictly
  /// increasing and below `cols`.  Throws util::PreconditionError
  /// otherwise.
  static CsrMatrix from_csr(std::uint32_t rows, std::uint32_t cols,
                            std::vector<std::size_t> row_ptr,
                            std::vector<std::uint32_t> col,
                            std::vector<double> val);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::size_t nonzeros() const { return col_.size(); }

  /// Entries of row r as parallel spans (columns, values).
  std::span<const std::uint32_t> row_cols(std::uint32_t r) const;
  std::span<const double> row_values(std::uint32_t r) const;

  /// Transposed copy.  Row r of the result holds column r of *this with
  /// entries ordered by the original row index, so gather products over the
  /// transpose reproduce left_multiply's scatter accumulation order exactly.
  CsrMatrix transposed() const;

  /// y := x * M  (x is a row vector of length rows(); y of length cols()).
  void left_multiply(std::span<const double> x, std::span<double> y) const;

  /// y := M * x  (column-vector product; x length cols(), y length rows()).
  void right_multiply(std::span<const double> x, std::span<double> y) const;

  /// Sum of row r's values.
  double row_sum(std::uint32_t r) const;

  /// Raw CSR views for fused solver kernels that stream the whole structure
  /// (per-row accessors cost a bounds check per row).  Row r's entries live
  /// at indices [row_ptr()[r], row_ptr()[r+1]) of col_index()/values().
  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_index() const { return col_; }
  std::span<const double> values() const { return val_; }

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

}  // namespace ctmc

// Compressed-sparse-row matrices for Markov-chain numerics.
//
// The solvers only need row-major iteration and (row-vector × matrix)
// products — distributions are propagated as x := x P — so the interface is
// deliberately small.  The solvers multiply over the transpose, as a gather
// that accumulates every output entry in the same order as
// left_multiply(x, y), so the gather gives the scatter's bits:
//   - the Krylov operator uses transposed().right_multiply(x, y);
//   - the uniformization stepper uses SlicedTranspose, the same transpose
//     with its rows grouped 8 to a SIMD slice, each lane one row.
#pragma once

#include <array>
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

/// The transpose of a square matrix A in sliced, length-sorted form
/// (SELL-C-σ with C = 8 and σ = 512: Kreutzer, Hager, Wellein, Fehske and
/// Bishop, SIAM J. Sci. Comput. 2014), for the gather product y := x·A.
///
/// Layout.  Output row r of the product is column r of A.  The output rows
/// are sorted by length, longest first, within windows of kSortWindow
/// consecutive rows, and grouped kLanes to a slice; slot 8s + l is lane l of
/// slice s.  A slice is stored as Blocks, one per entry index j up to its
/// longest row: block j holds the 8 lanes' j-th column indices, then their
/// 8 values.  A lane whose row is shorter is padded with value 0.0 and the
/// row's own index (a phantom lane past the last row, with the slice's first
/// row).  Rows of more than kLongRow entries, in the shipped chains only the
/// absorbing UNSAFE state's, are kept apart as plain CSR.
///
/// Bits.  Each lane sums its row in ascending source-row order, one multiply
/// then one add per entry, from +0.0, exactly as transposed().right_multiply
/// does; the padding then adds exact zeros (a partial sum that starts at
/// +0.0 is never −0.0, and x is finite).  So every output has
/// left_multiply's bits, on both loops.
class SlicedTranspose {
 public:
  static constexpr std::uint32_t kLanes = 8;
  static constexpr std::uint32_t kSortWindow = 512;
  static constexpr std::size_t kLongRow = 64;

  /// Not over-aligned: a 32-byte-aligned Block, allocated by aligned new,
  /// raised the fig12 grid's peak RSS from 135.3 to 143.7 MiB (+6%).
  struct Block {
    std::array<std::uint32_t, kLanes> col;
    std::array<double, kLanes> val;
  };

  /// Builds the layout of aᵀ straight from a's rows, with no transposed
  /// copy.  Requires a square matrix of fewer than 2³¹ rows (the gather's
  /// indices are signed 32-bit).
  explicit SlicedTranspose(const CsrMatrix& a);

  std::uint32_t slices() const {
    return static_cast<std::uint32_t>(slice_ptr_.size() - 1);
  }
  /// Output row of each slot; only the last slice may have fewer than
  /// kLanes rows.
  std::span<const std::uint32_t> slot_rows() const { return slot_rows_; }
  /// Every stored block, padding included; slice s owns blocks
  /// [slice_ptr()[s], slice_ptr()[s+1]).
  std::span<const Block> blocks() const { return blocks_; }
  std::span<const std::size_t> slice_ptr() const { return slice_ptr_; }

  /// Output rows of more than kLongRow entries, and row i's sum against x.
  std::span<const std::uint32_t> long_rows() const { return long_rows_; }
  double long_row_sum(std::size_t i, const double* x) const {
    double g = 0.0;
    for (std::size_t k = long_ptr_[i]; k < long_ptr_[i + 1]; ++k)
      g += long_val_[k] * x[long_col_[k]];
    return g;
  }

  /// Sums slices [first, last) against x: out[8·(s − first) + l] is lane l
  /// of slice s.  The scalar loop runs anywhere; the AVX2 loop needs a CPU
  /// with AVX2 (avx2_supported()).  Both give the same bits.
  void sum_scalar(std::uint32_t first, std::uint32_t last, const double* x,
                  double* out) const;
#if defined(__x86_64__)
  void sum_avx2(std::uint32_t first, std::uint32_t last, const double* x,
                double* out) const;
#endif
  /// Whether this CPU runs sum_avx2 (always false off x86-64).
  static bool avx2_supported();

 private:
  std::vector<std::uint32_t> slot_rows_;
  std::vector<std::size_t> slice_ptr_;
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> long_rows_;
  std::vector<std::size_t> long_ptr_;
  std::vector<std::uint32_t> long_col_;
  std::vector<double> long_val_;
};

}  // namespace ctmc

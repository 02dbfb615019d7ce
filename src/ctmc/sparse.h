// Compressed-sparse-row matrices for Markov-chain numerics.
//
// The solvers only need row-major iteration and (row-vector × matrix)
// products — distributions are propagated as x := x P — so the interface is
// deliberately small.  Both products have row-partitioned parallel
// overloads: blocks are balanced by nonzero count and fixed by the matrix
// shape and pool size alone, so repeated runs are deterministic.  For
// bitwise thread-count independence, multiply over the transpose:
// transposed().right_multiply(x, y, pool) accumulates every output entry in
// the same order as the sequential left_multiply, for any pool size — the
// uniformization solver relies on exactly this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace util {
class ThreadPool;
}

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

  /// Parallel y := x * M over contiguous row blocks balanced by nonzeros.
  /// Each block scatters into a private buffer; buffers are reduced in
  /// block order, so the result is deterministic for a fixed pool size but
  /// may differ from the sequential product in the last ulps (summation
  /// order).  Prefer transposed().right_multiply for bitwise stability.
  void left_multiply(std::span<const double> x, std::span<double> y,
                     util::ThreadPool& pool) const;

  /// y := M * x  (column-vector product; x length cols(), y length rows()).
  void right_multiply(std::span<const double> x, std::span<double> y) const;

  /// Parallel y := M * x, row-partitioned.  Every y[r] is written by exactly
  /// one thread accumulating in column order — bitwise identical to the
  /// sequential product for any pool size.
  void right_multiply(std::span<const double> x, std::span<double> y,
                      util::ThreadPool& pool) const;

  /// Sum of row r's values.
  double row_sum(std::uint32_t r) const;

  /// Raw CSR views for fused solver kernels that stream the whole structure
  /// (per-row accessors cost a bounds check per row).  Row r's entries live
  /// at indices [row_ptr()[r], row_ptr()[r+1]) of col_index()/values().
  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_index() const { return col_; }
  std::span<const double> values() const { return val_; }

  /// Row boundaries of `blocks` contiguous partitions with roughly equal
  /// nonzero counts (size blocks + 1, first 0, last rows()).  Used to
  /// partition gather products across a pool deterministically.
  std::vector<std::uint32_t> row_blocks(std::size_t blocks) const;

 private:

  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_;
  std::vector<double> val_;
};

/// Column-blocked copy of a CSR matrix for cache-blocked gather products.
/// Block b holds exactly the entries whose column lies in
/// [bounds[b], bounds[b+1]); within a block the layout is CSR over the
/// original rows with entries in the original per-row order.  A gather
/// product that processes the blocks in order and accumulates block b's
/// contribution of row r directly into y[r] (load, add entries one by one,
/// store) performs each output's additions in exactly the unblocked entry
/// order — the result is bitwise identical to CsrMatrix::right_multiply
/// while the gathered slice of x stays cache-resident.
struct BlockedCsr {
  std::vector<std::uint32_t> bounds;  ///< column block boundaries (blocks+1)
  /// Block-major row pointers: block b's row r spans
  /// [row_ptr[b*(rows+1)+r], row_ptr[b*(rows+1)+r+1]) of col/val.
  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  std::uint32_t rows = 0;

  std::size_t blocks() const { return bounds.empty() ? 0 : bounds.size() - 1; }
};

/// Splits `m` into column blocks of at most `block_cols` columns (always at
/// least one block).  With one block the layout degenerates to a plain copy
/// of `m`.
BlockedCsr make_blocked(const CsrMatrix& m, std::uint32_t block_cols);

}  // namespace ctmc

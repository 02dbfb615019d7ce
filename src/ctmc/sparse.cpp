#include "ctmc/sparse.h"

#include <algorithm>

#include "util/error.h"
#include "util/thread_pool.h"

namespace ctmc {

CsrMatrix CsrMatrix::from_triplets(std::uint32_t rows, std::uint32_t cols,
                                   std::vector<Triplet> triplets) {
  for (const auto& t : triplets) {
    AHS_REQUIRE(t.row < rows, "triplet row out of range");
    AHS_REQUIRE(t.col < cols, "triplet column out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_.reserve(triplets.size());
  m.val_.reserve(triplets.size());

  std::size_t i = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    m.row_ptr_[r] = m.col_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      const std::uint32_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_.push_back(c);
      m.val_.push_back(v);
    }
  }
  m.row_ptr_[rows] = m.col_.size();
  return m;
}

CsrMatrix CsrMatrix::from_csr(std::uint32_t rows, std::uint32_t cols,
                              std::vector<std::size_t> row_ptr,
                              std::vector<std::uint32_t> col,
                              std::vector<double> val) {
  AHS_REQUIRE(row_ptr.size() == std::size_t{rows} + 1 && row_ptr[0] == 0 &&
                  row_ptr[rows] == col.size() && val.size() == col.size(),
              "CSR row pointers disagree with the entry count");
  for (std::uint32_t r = 0; r < rows; ++r) {
    AHS_REQUIRE(row_ptr[r] <= row_ptr[r + 1] && row_ptr[r + 1] <= col.size(),
                "CSR row pointers not monotone");
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      AHS_REQUIRE(col[k] < cols && (k == row_ptr[r] || col[k - 1] < col[k]),
                  "CSR columns out of range or out of order");
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_ = std::move(col);
  m.val_ = std::move(val);
  return m;
}

std::span<const std::uint32_t> CsrMatrix::row_cols(std::uint32_t r) const {
  AHS_REQUIRE(r < rows_, "row out of range");
  return {col_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> CsrMatrix::row_values(std::uint32_t r) const {
  AHS_REQUIRE(r < rows_, "row out of range");
  return {val_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  // Counting sort by column keeps each transposed row ordered by the
  // original row index (the accumulation-order guarantee in the header).
  for (std::uint32_t c : col_) ++t.row_ptr_[c + 1];
  for (std::uint32_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_.resize(col_.size());
  t.val_.resize(val_.size());
  std::vector<std::size_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::uint32_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t slot = cursor[col_[k]]++;
      t.col_[slot] = r;
      t.val_[slot] = val_[k];
    }
  }
  return t;
}

std::vector<std::uint32_t> CsrMatrix::row_blocks(std::size_t blocks) const {
  std::vector<std::uint32_t> bounds;
  bounds.reserve(blocks + 1);
  bounds.push_back(0);
  const std::size_t nnz = col_.size();
  for (std::size_t b = 1; b < blocks; ++b) {
    const std::size_t target = nnz * b / blocks;
    const auto it = std::lower_bound(row_ptr_.begin(), row_ptr_.end(), target);
    auto r = static_cast<std::uint32_t>(it - row_ptr_.begin());
    r = std::max(r, bounds.back());  // keep boundaries monotone
    bounds.push_back(std::min(r, rows_));
  }
  bounds.push_back(rows_);
  return bounds;
}

void CsrMatrix::left_multiply(std::span<const double> x,
                              std::span<double> y) const {
  AHS_REQUIRE(x.size() == rows_ && y.size() == cols_,
              "left_multiply dimension mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      y[col_[k]] += xr * val_[k];
  }
}

void CsrMatrix::right_multiply(std::span<const double> x,
                               std::span<double> y) const {
  AHS_REQUIRE(x.size() == cols_ && y.size() == rows_,
              "right_multiply dimension mismatch");
  for (std::uint32_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += val_[k] * x[col_[k]];
    y[r] = acc;
  }
}

void CsrMatrix::left_multiply(std::span<const double> x, std::span<double> y,
                              util::ThreadPool& pool) const {
  AHS_REQUIRE(x.size() == rows_ && y.size() == cols_,
              "left_multiply dimension mismatch");
  const std::vector<std::uint32_t> bounds = row_blocks(pool.size() + 1);
  const std::size_t blocks = bounds.size() - 1;
  if (blocks <= 1) {
    left_multiply(x, y);
    return;
  }
  // Private scatter buffer per block, reduced in block order below.
  std::vector<std::vector<double>> partial(blocks);
  pool.parallel_for(0, blocks, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      partial[b].assign(cols_, 0.0);
      double* out = partial[b].data();
      for (std::uint32_t r = bounds[b]; r < bounds[b + 1]; ++r) {
        const double xr = x[r];
        if (xr == 0.0) continue;
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
          out[col_[k]] += xr * val_[k];
      }
    }
  });
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::uint32_t c = 0; c < cols_; ++c) y[c] += partial[b][c];
}

void CsrMatrix::right_multiply(std::span<const double> x, std::span<double> y,
                               util::ThreadPool& pool) const {
  AHS_REQUIRE(x.size() == cols_ && y.size() == rows_,
              "right_multiply dimension mismatch");
  const std::vector<std::uint32_t> bounds = row_blocks(pool.size() + 1);
  pool.parallel_for(0, bounds.size() - 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      for (std::uint32_t r = bounds[b]; r < bounds[b + 1]; ++r) {
        double acc = 0.0;
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
          acc += val_[k] * x[col_[k]];
        y[r] = acc;
      }
    }
  });
}

BlockedCsr make_blocked(const CsrMatrix& m, std::uint32_t block_cols) {
  AHS_REQUIRE(block_cols >= 1, "block_cols must be >= 1");
  BlockedCsr b;
  b.rows = m.rows();
  const std::uint32_t cols = std::max<std::uint32_t>(m.cols(), 1);
  const std::size_t blocks = (cols + block_cols - 1) / block_cols;
  b.bounds.reserve(blocks + 1);
  for (std::size_t i = 0; i < blocks; ++i)
    b.bounds.push_back(static_cast<std::uint32_t>(i * block_cols));
  b.bounds.push_back(m.cols());

  const std::span<const std::size_t> row_ptr = m.row_ptr();
  const std::span<const std::uint32_t> col = m.col_index();
  const std::span<const double> val = m.values();
  b.row_ptr.assign(blocks * (b.rows + 1), 0);
  b.col.resize(col.size());
  b.val.resize(val.size());

  // Entries of a CSR row are column-sorted, so each row splits into one
  // contiguous segment per block; a single pass with a per-row cursor
  // copies them out block-major.
  std::size_t out = 0;
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::uint32_t hi = b.bounds[blk + 1];
    std::size_t* ptr = b.row_ptr.data() + blk * (b.rows + 1);
    for (std::uint32_t r = 0; r < b.rows; ++r) {
      ptr[r] = out;
      std::size_t k = cursor[r];
      while (k < row_ptr[r + 1] && col[k] < hi) {
        b.col[out] = col[k];
        b.val[out] = val[k];
        ++out;
        ++k;
      }
      cursor[r] = k;
    }
    ptr[b.rows] = out;
  }
  AHS_ASSERT(out == col.size(), "blocked CSR lost entries");
  return b;
}

double CsrMatrix::row_sum(std::uint32_t r) const {
  AHS_REQUIRE(r < rows_, "row out of range");
  double s = 0.0;
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) s += val_[k];
  return s;
}

}  // namespace ctmc

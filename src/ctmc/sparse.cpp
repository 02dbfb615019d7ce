#include "ctmc/sparse.h"

#include <algorithm>

#include "util/error.h"

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

double CsrMatrix::row_sum(std::uint32_t r) const {
  AHS_REQUIRE(r < rows_, "row out of range");
  double s = 0.0;
  for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) s += val_[k];
  return s;
}

}  // namespace ctmc

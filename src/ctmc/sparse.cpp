#include "ctmc/sparse.h"

#include <algorithm>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

SlicedTranspose::SlicedTranspose(const CsrMatrix& a) {
  const std::uint32_t n = a.rows();
  AHS_REQUIRE(a.cols() == n, "sliced transpose needs a square matrix");
  AHS_REQUIRE(n <= 0x7fffffffu, "sliced transpose past 2^31 - 1 rows");
  const std::span<const std::size_t> ptr = a.row_ptr();
  const std::span<const std::uint32_t> col = a.col_index();
  const std::span<const double> val = a.values();

  // Entries per output row; cursor[r] is where row r's next entry goes.
  std::vector<std::uint32_t> count(n, 0);
  for (std::uint32_t c : col) ++count[c];
  const auto is_long = [&count](std::uint32_t r) {
    return count[r] > kLongRow;
  };
  std::vector<std::size_t> cursor(n, 0);

  long_ptr_.push_back(0);
  for (std::uint32_t r = 0; r < n; ++r) {
    if (!is_long(r)) continue;
    cursor[r] = long_ptr_.back();
    long_rows_.push_back(r);
    long_ptr_.push_back(long_ptr_.back() + count[r]);
  }
  long_col_.resize(long_ptr_.back());
  long_val_.resize(long_ptr_.back());

  // Short rows, longest first within each window; the stable sort keeps
  // rows of equal length in row order.
  slot_rows_.reserve(n - long_rows_.size());
  for (std::uint32_t w = 0; w < n; w += kSortWindow) {
    const std::size_t first = slot_rows_.size();
    for (std::uint32_t r = w; r < std::min(n, w + kSortWindow); ++r)
      if (!is_long(r)) slot_rows_.push_back(r);
    std::stable_sort(
        slot_rows_.begin() + static_cast<std::ptrdiff_t>(first),
        slot_rows_.end(),
        [&count](std::uint32_t x, std::uint32_t y) {
          return count[x] > count[y];
        });
  }

  // A slice is as wide as its longest row (not always its first: a slice
  // can straddle two windows).
  const std::size_t slots = slot_rows_.size();
  const std::size_t slices = (slots + kLanes - 1) / kLanes;
  slice_ptr_.assign(slices + 1, 0);
  for (std::size_t s = 0; s < slices; ++s) {
    std::uint32_t width = 0;
    for (std::size_t i = s * kLanes; i < std::min(slots, (s + 1) * kLanes);
         ++i)
      width = std::max(width, count[slot_rows_[i]]);
    slice_ptr_[s + 1] = slice_ptr_[s] + width;
  }

  // Every slot starts as padding: value 0.0 and its lane's own row.
  blocks_.assign(slice_ptr_.back(), Block{});
  for (std::size_t s = 0; s < slices; ++s) {
    std::array<std::uint32_t, kLanes> own{};
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      const std::size_t i = s * kLanes + l;
      own[l] = slot_rows_[i < slots ? i : s * kLanes];
      if (i < slots) cursor[own[l]] = slice_ptr_[s] * kLanes + l;
    }
    for (std::size_t b = slice_ptr_[s]; b < slice_ptr_[s + 1]; ++b)
      blocks_[b].col = own;
  }

  // Walking a's rows in order appends each output row's summands in
  // ascending source order, the order of transposed().
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::size_t k = ptr[i]; k < ptr[i + 1]; ++k) {
      const std::uint32_t r = col[k];
      if (is_long(r)) {
        const std::size_t p = cursor[r]++;
        long_col_[p] = i;
        long_val_[p] = val[k];
      } else {
        const std::size_t p = cursor[r];
        cursor[r] += kLanes;
        Block& b = blocks_[p / kLanes];
        b.col[p % kLanes] = i;
        b.val[p % kLanes] = val[k];
      }
    }
  }
}

void SlicedTranspose::sum_scalar(std::uint32_t first, std::uint32_t last,
                                 const double* x, double* out) const {
  for (std::uint32_t s = first; s < last; ++s, out += kLanes) {
    std::array<double, kLanes> g{};
    for (std::size_t b = slice_ptr_[s]; b < slice_ptr_[s + 1]; ++b) {
      const Block& blk = blocks_[b];
      for (std::uint32_t l = 0; l < kLanes; ++l)
        g[l] += blk.val[l] * x[blk.col[l]];
    }
    std::copy(g.begin(), g.end(), out);
  }
}

#if defined(__x86_64__)
namespace {

/// Blocks the AVX2 loop prefetches ahead of the one it sums (3 KiB): on a
/// 4-core Xeon container this took the fig12 n = 18 step from 0.87–0.97 to
/// 0.81–0.83 ns/nnz; 8 blocks gained less, and 64 no more.
constexpr std::size_t kPrefetchBlocks = 32;

/// SlicedTranspose::sum_avx2's loop: two 4-lane accumulators per slice, one
/// gather, one multiply and one add per 4 entries.  AVX2 only, not FMA, so
/// each lane rounds its product and then its sum, as the scalar loop does.
/// The gather is the masked form with a zero source and an all-ones mask:
/// it compiles to the same vgatherdpd as the plain form, which GCC 12 warns
/// may read an uninitialized source under -Wall -Wextra.
__attribute__((target("avx2"))) void sum_slices_avx2(
    const SlicedTranspose::Block* blocks, const std::size_t* slice_ptr,
    std::uint32_t first, std::uint32_t last, const double* x, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (std::uint32_t s = first; s < last; ++s, out += 8) {
    __m256d lo = zero;
    __m256d hi = zero;
    for (std::size_t b = slice_ptr[s]; b < slice_ptr[s + 1]; ++b) {
      // The address may lie past the array; a prefetch never faults, and
      // the address is formed as an integer.
      const std::uintptr_t ahead =
          reinterpret_cast<std::uintptr_t>(blocks + b) +
          kPrefetchBlocks * sizeof(*blocks);
      _mm_prefetch(reinterpret_cast<const char*>(ahead), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(ahead + 64), _MM_HINT_T0);
      const std::uint32_t* c = blocks[b].col.data();
      const double* v = blocks[b].val.data();
      const __m128i ilo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c));
      const __m128i ihi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + 4));
      lo = _mm256_add_pd(
          lo, _mm256_mul_pd(_mm256_loadu_pd(v),
                            _mm256_mask_i32gather_pd(zero, x, ilo, all, 8)));
      hi = _mm256_add_pd(
          hi, _mm256_mul_pd(_mm256_loadu_pd(v + 4),
                            _mm256_mask_i32gather_pd(zero, x, ihi, all, 8)));
    }
    _mm256_storeu_pd(out, lo);
    _mm256_storeu_pd(out + 4, hi);
  }
}

}  // namespace

void SlicedTranspose::sum_avx2(std::uint32_t first, std::uint32_t last,
                               const double* x, double* out) const {
  sum_slices_avx2(blocks_.data(), slice_ptr_.data(), first, last, x, out);
}
#endif

bool SlicedTranspose::avx2_supported() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace ctmc

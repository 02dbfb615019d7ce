// CSR products: transposed() correctness and the order contract the
// solvers rely on — a gather over the transpose reproduces the sequential
// scatter product bit for bit (the Krylov operator multiplies over
// transposed(), the uniformization stepper over SlicedTranspose).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "ctmc/sparse.h"

namespace {

using ctmc::CsrMatrix;
using ctmc::SlicedTranspose;
using ctmc::Triplet;

CsrMatrix random_matrix(std::uint32_t rows, std::uint32_t cols,
                        double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Triplet> triplets;
  for (std::uint32_t r = 0; r < rows; ++r)
    for (std::uint32_t c = 0; c < cols; ++c)
      if (coin(rng) < density) triplets.push_back({r, c, value(rng)});
  return CsrMatrix::from_triplets(rows, cols, std::move(triplets));
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = value(rng);
  return x;
}

TEST(ParallelSparse, TransposeRoundTrip) {
  const CsrMatrix a = random_matrix(40, 23, 0.2, 1);
  const CsrMatrix att = a.transposed().transposed();
  const std::vector<double> x = random_vector(40, 2);
  std::vector<double> y1(23), y2(23);
  a.left_multiply(x, y1);
  att.left_multiply(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(ParallelSparse, TransposedRightEqualsLeftBitwise) {
  // The uniformization stepper and the Krylov operator compute x·A as a
  // gather over Aᵀ; the counting sort in transposed() keeps each output's
  // summands in original row order, so the result is bit-identical to the
  // sequential scatter.
  const CsrMatrix a = random_matrix(60, 60, 0.15, 3);
  const CsrMatrix at = a.transposed();
  const std::vector<double> x = random_vector(60, 4);
  std::vector<double> scatter(60), gather(60);
  a.left_multiply(x, scatter);
  at.right_multiply(x, gather);
  for (std::size_t i = 0; i < scatter.size(); ++i)
    EXPECT_EQ(scatter[i], gather[i]);
}

// ---- SlicedTranspose -----------------------------------------------------

constexpr std::uint32_t kSlicedN = 1237;  // a multiple of neither 8 nor 512
constexpr std::uint32_t kLongCol = 700;   // the one column past kLongRow
constexpr std::uint32_t kLastWindow =     // first row of the last window
    kSlicedN / SlicedTranspose::kSortWindow * SlicedTranspose::kSortWindow;

/// A square matrix whose columns (the transpose's rows) hold 0 to 40
/// entries, except kLongCol with about 300; every seventh row and some
/// columns are empty.  Columns of the last sort window hold at least 5, so
/// the partial last slice is stored and its phantom lanes are padded.
/// Values span 60 binary orders of magnitude, so a row summed in any other
/// order loses its bits.
CsrMatrix sliced_test_matrix() {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::uint32_t> length(0, 40);
  std::uniform_int_distribution<std::uint32_t> last_window_length(5, 40);
  std::uniform_int_distribution<std::uint32_t> source(0, kSlicedN - 1);
  std::uniform_int_distribution<int> exponent(-30, 30);
  std::uniform_real_distribution<double> mantissa(-2.0, 2.0);
  std::vector<Triplet> triplets;
  for (std::uint32_t c = 0; c < kSlicedN; ++c) {
    std::uint32_t len = c < kLastWindow ? length(rng) : last_window_length(rng);
    if (c == kLongCol) len = 300;
    if (c % 97 == 5 && c < kLastWindow) len = 0;
    for (std::uint32_t k = 0; k < len; ++k) {
      const std::uint32_t r = source(rng);
      if (r % 7 == 3) continue;
      triplets.push_back({r, c, std::ldexp(mantissa(rng), exponent(rng))});
    }
  }
  return CsrMatrix::from_triplets(kSlicedN, kSlicedN, std::move(triplets));
}

/// Mostly normal values of both signs, with −0.0 and subnormals mixed in.
std::vector<double> sliced_test_vector() {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<double> x(kSlicedN);
  for (std::uint32_t i = 0; i < kSlicedN; ++i) {
    if (i % 11 == 0)
      x[i] = -0.0;
    else if (i % 13 == 0)
      x[i] = (i % 2 == 0 ? 1.0 : -1.0) * (i + 1) *
             std::numeric_limits<double>::denorm_min();
    else
      x[i] = value(rng);
  }
  return x;
}

using SliceSum = void (SlicedTranspose::*)(std::uint32_t, std::uint32_t,
                                           const double*, double*) const;

/// Every slot's sum, over all slices at once and over a range starting
/// mid-matrix, has the bits of left_multiply's output for its row.
void expect_sliced_sums_bitwise(SliceSum sum) {
  const CsrMatrix a = sliced_test_matrix();
  const std::vector<double> x = sliced_test_vector();
  std::vector<double> y(kSlicedN);
  a.left_multiply(x, y);
  const SlicedTranspose sliced(a);
  const auto rows = sliced.slot_rows();
  const std::uint32_t slices = sliced.slices();
  constexpr std::uint32_t kLanes = SlicedTranspose::kLanes;
  ASSERT_EQ(slices, (rows.size() + kLanes - 1) / kLanes);

  std::vector<double> out(std::size_t{slices} * kLanes);
  (sliced.*sum)(0, slices, x.data(), out.data());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(y[rows[i]]))
        << "slot " << i << ", row " << rows[i];

  const std::uint32_t first = 5;
  const std::uint32_t last = slices - 3;
  std::vector<double> part(std::size_t{last - first} * kLanes);
  (sliced.*sum)(first, last, x.data(), part.data());
  for (std::size_t i = 0; i < part.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(part[i]),
              std::bit_cast<std::uint64_t>(out[first * kLanes + i]))
        << "slot " << first * kLanes + i;
}

TEST(ParallelSparse, SlicedLayoutCoversEveryRowWithValidColumns) {
  const CsrMatrix a = sliced_test_matrix();
  const SlicedTranspose sliced(a);
  // Each row sits in exactly one slot or is the one long row.
  std::vector<int> seen(kSlicedN, 0);
  for (std::uint32_t r : sliced.slot_rows()) ++seen[r];
  ASSERT_EQ(sliced.long_rows().size(), 1u);
  EXPECT_EQ(sliced.long_rows()[0], kLongCol);
  ++seen[kLongCol];
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int k) { return k == 1; }));
  // The gather reads x at every stored column, padding included, and ASan
  // cannot see inside a gather: each one must index x.
  const auto ptr = sliced.slice_ptr();
  ASSERT_EQ(ptr.size(), sliced.slices() + 1u);
  EXPECT_EQ(ptr.back(), sliced.blocks().size());
  ASSERT_NE(sliced.slot_rows().size() % SlicedTranspose::kLanes, 0u);
  ASSERT_GT(ptr[sliced.slices()], ptr[sliced.slices() - 1]);
  for (const SlicedTranspose::Block& b : sliced.blocks())
    for (std::uint32_t c : b.col) EXPECT_LT(c, kSlicedN);

  const std::vector<double> x = sliced_test_vector();
  std::vector<double> y(kSlicedN);
  a.left_multiply(x, y);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sliced.long_row_sum(0, x.data())),
            std::bit_cast<std::uint64_t>(y[kLongCol]));
}

TEST(ParallelSparse, SlicedScalarSumsEqualLeftMultiplyBitwise) {
  expect_sliced_sums_bitwise(&SlicedTranspose::sum_scalar);
}

TEST(ParallelSparse, SlicedAvx2SumsEqualLeftMultiplyBitwise) {
  if (!SlicedTranspose::avx2_supported()) GTEST_SKIP() << "no AVX2 on this CPU";
#if defined(__x86_64__)
  expect_sliced_sums_bitwise(&SlicedTranspose::sum_avx2);
#endif
}

}  // namespace

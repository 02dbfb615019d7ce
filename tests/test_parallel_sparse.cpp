// CSR products: transposed() correctness and the order contract the
// solvers rely on — a gather over the transpose reproduces the sequential
// scatter product bit for bit (the uniformization stepper and the Krylov
// operator both multiply this way).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ctmc/sparse.h"

namespace {

using ctmc::CsrMatrix;
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

}  // namespace

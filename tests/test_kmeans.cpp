#include "summarize/kmeans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>

#include "linalg/simd.hpp"

namespace jaal::summarize {
namespace {

/// Three well-separated Gaussian blobs in 2D.
linalg::Matrix blobs(std::size_t per_cluster, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, 0.05);
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {10.0, 0.0}};
  linalg::Matrix x(3 * per_cluster, 2);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      x(c * per_cluster + i, 0) = centers[c][0] + noise(rng);
      x(c * per_cluster + i, 1) = centers[c][1] + noise(rng);
    }
  }
  return x;
}

// Reference seeders: the row-major scalar k-means++ seeding of kmeans() and
// weighted_kmeans() as it stood before seeding moved onto the SoA kernel,
// kept verbatim as the oracle for the seeds.
[[nodiscard]] double sq_dist(std::span<const double> a,
                             std::span<const double> b) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

std::vector<std::size_t> seed_plus_plus(const linalg::Matrix& x, std::size_t k,
                                        std::mt19937_64& rng) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  chosen.push_back(rng() % n);

  std::vector<double> d2(n, std::numeric_limits<double>::max());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (chosen.size() < k) {
    const auto last = x.row(chosen.back());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i], sq_dist(x.row(i), last));
      total += d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; pick arbitrarily.
      chosen.push_back(rng() % n);
      continue;
    }
    double target = unit(rng) * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    chosen.push_back(pick);
  }
  return chosen;
}

std::vector<std::size_t> weighted_seeds(const linalg::Matrix& x,
                                        std::span<const std::uint64_t> weights,
                                        std::uint64_t total_weight,
                                        std::size_t k, std::mt19937_64& rng) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> seeds;
  {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    // First seed: weight-proportional.
    double target = unit(rng) * static_cast<double>(total_weight);
    std::size_t first = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= static_cast<double>(weights[i]);
      if (target <= 0.0) {
        first = i;
        break;
      }
    }
    seeds.push_back(first);
    std::vector<double> d2(n, std::numeric_limits<double>::max());
    while (seeds.size() < k) {
      const auto last = x.row(seeds.back());
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        d2[i] = std::min(d2[i], sq_dist(x.row(i), last));
        total += d2[i] * static_cast<double>(weights[i]);
      }
      if (total <= 0.0) {
        seeds.push_back(rng() % n);
        continue;
      }
      double pick_target = unit(rng) * total;
      std::size_t pick = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        pick_target -= d2[i] * static_cast<double>(weights[i]);
        if (pick_target <= 0.0) {
          pick = i;
          break;
        }
      }
      seeds.push_back(pick);
    }
  }
  return seeds;
}

/// Every dispatch level this host runs.
std::vector<linalg::simd::Level> available_levels() {
  using linalg::simd::Level;
  std::vector<Level> levels = {Level::kScalar};
  if (linalg::simd::detected() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  if (linalg::simd::detected() >= Level::kAvx512) {
    levels.push_back(Level::kAvx512);
  }
  return levels;
}

/// Pins the dispatch level for a scope and restores the previous one.
struct ForcedLevel {
  explicit ForcedLevel(linalg::simd::Level level)
      : prev(linalg::simd::active()) {
    linalg::simd::force_level(level);
  }
  ~ForcedLevel() { linalg::simd::force_level(prev); }
  linalg::simd::Level prev;
};

/// n x 12 points in [-1, 1); with `duplicates` only two distinct rows, so
/// seeding soon finds every remaining D^2 zero (the `total <= 0` branch).
linalg::Matrix seeding_points(std::size_t n, bool duplicates) {
  std::mt19937_64 rng(1000 + n);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  linalg::Matrix x(n, 12);
  for (double& v : x.data()) v = unit(rng);
  if (duplicates) {
    for (std::size_t i = 2; i < n; ++i) {
      const auto src = x.row(i % 2);
      std::copy(src.begin(), src.end(), x.row(i).begin());
    }
  }
  return x;
}

/// Returned centroids are bit-equal to the rows `seeds` names.
void expect_seed_rows(const linalg::Matrix& x,
                      const std::vector<std::size_t>& seeds,
                      const linalg::Matrix& centroids, const char* what) {
  ASSERT_EQ(centroids.rows(), seeds.size()) << what;
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    const auto want = x.row(seeds[c]);
    const auto got = centroids.row(c);
    ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size_bytes()), 0)
        << what << " centroid " << c;
  }
}

/// The SoA seeding kernel picks exactly the seeds of the row-major scalar
/// seeder at every dispatch level, across vector and scalar tails, the
/// all-zero-D^2 branch and k = n - 1.  max_iterations = 0 returns the seed
/// rows as the centroids.
TEST(KMeans, SeedingMatchesRowMajorReference) {
  KMeansOptions seeds_only;
  seeds_only.max_iterations = 0;
  for (const linalg::simd::Level level : available_levels()) {
    ForcedLevel pin(level);
    for (const std::size_t n : {1ul, 7ul, 8ul, 31ul, 33ul, 1500ul}) {
      for (const bool duplicates : {false, true}) {
        const linalg::Matrix x = seeding_points(n, duplicates);
        std::vector<std::uint64_t> weights(n);
        std::uint64_t total_weight = 0;
        for (std::size_t i = 0; i < n; ++i) {
          weights[i] = i % 4 == 3 ? 0 : 1 + i % 5;
          total_weight += weights[i];
        }
        for (const std::size_t k : {std::min<std::size_t>(5, n),
                                    std::max<std::size_t>(1, n - 1)}) {
          const std::string what =
              std::string(linalg::simd::level_name(level)) +
              " n=" + std::to_string(n) + " k=" + std::to_string(k) +
              (duplicates ? " duplicates" : "");
          std::mt19937_64 ref_rng(n * 31 + k), rng(n * 31 + k);
          const auto want = seed_plus_plus(x, k, ref_rng);
          const KMeansResult got = kmeans(x, k, rng, seeds_only);
          expect_seed_rows(x, want, got.centroids, what.c_str());
          if (k < n) {
            EXPECT_EQ(ref_rng, rng) << what;
          }

          std::mt19937_64 ref_wrng(n * 37 + k), wrng(n * 37 + k);
          const auto want_w =
              weighted_seeds(x, weights, total_weight, k, ref_wrng);
          const KMeansResult got_w =
              weighted_kmeans(x, weights, k, wrng, seeds_only);
          expect_seed_rows(x, want_w, got_w.centroids, what.c_str());
          if (k < n) {
            EXPECT_EQ(ref_wrng, wrng) << what;
          }
        }
      }
    }
  }
}

/// Whether or not kmeans() runs its final assignment sweep, the returned
/// assignment, counts and inertia are those of a fresh nearest-centroid
/// pass against the returned centroids: for converged runs (the last
/// update moved nothing, so the sweep is skipped) and for runs cut off at
/// max_iterations.
TEST(KMeans, FinalAssignmentMatchesReturnedCentroids) {
  const linalg::Matrix x = blobs(60, 21);
  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  std::mt19937_64 noise_rng(22);
  std::uniform_real_distribution<double> unit(0.0, 10.0);
  linalg::Matrix spread(x.rows(), 2);
  for (double& v : spread.data()) v = unit(noise_rng);
  const linalg::SoaMatrix spread_s = linalg::SoaMatrix::from_rows(spread);
  struct Case {
    const linalg::Matrix* x;
    const linalg::SoaMatrix* xs;
    std::size_t k;
    std::size_t max_iterations;
    bool converges;
  };
  const Case cases[] = {{&x, &xs, 3, 25, true},
                        {&spread, &spread_s, 9, 100, true},
                        {&spread, &spread_s, 9, 1, false},
                        {&spread, &spread_s, 9, 2, false},
                        {&spread, &spread_s, 9, 0, false}};
  for (const Case& c : cases) {
    KMeansOptions opts;
    opts.max_iterations = c.max_iterations;
    std::mt19937_64 rng(23);
    const KMeansResult res = kmeans(*c.x, c.k, rng, opts);
    if (c.converges) {
      EXPECT_LT(res.iterations, c.max_iterations);
    } else {
      EXPECT_EQ(res.iterations, c.max_iterations);
    }
    const std::size_t n = c.x->rows();
    std::vector<std::size_t> assignment(n);
    std::vector<double> dist(n);
    assign_to_centroids(*c.xs, res.centroids, assignment, dist);
    double inertia = 0.0;
    std::vector<std::uint64_t> counts(c.k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      inertia += dist[i];
      ++counts[assignment[i]];
    }
    EXPECT_EQ(res.assignment, assignment) << "max_it=" << c.max_iterations;
    EXPECT_EQ(res.counts, counts) << "max_it=" << c.max_iterations;
    EXPECT_EQ(std::memcmp(&res.inertia, &inertia, sizeof inertia), 0)
        << "max_it=" << c.max_iterations;
  }
}

TEST(KMeans, ValidatesArguments) {
  std::mt19937_64 rng(1);
  EXPECT_THROW((void)kmeans(linalg::Matrix{}, 2, rng), std::invalid_argument);
  EXPECT_THROW((void)kmeans(blobs(5, 1), 0, rng), std::invalid_argument);
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  std::mt19937_64 rng(2);
  const linalg::Matrix x = blobs(50, 2);
  const KMeansResult res = kmeans(x, 3, rng);
  ASSERT_EQ(res.centroids.rows(), 3u);
  // Each true center has a centroid within 0.5.
  const double centers[3][2] = {{0.0, 0.0}, {5.0, 5.0}, {10.0, 0.0}};
  for (const auto& center : centers) {
    double best = 1e300;
    for (std::size_t c = 0; c < 3; ++c) {
      const double dx = res.centroids(c, 0) - center[0];
      const double dy = res.centroids(c, 1) - center[1];
      best = std::min(best, dx * dx + dy * dy);
    }
    EXPECT_LT(best, 0.25);
  }
  // Balanced counts.
  for (std::uint64_t count : res.counts) EXPECT_EQ(count, 50u);
}

TEST(KMeans, CountsSumToN) {
  std::mt19937_64 rng(3);
  const KMeansResult res = kmeans(blobs(40, 3), 7, rng);
  std::uint64_t total = 0;
  for (std::uint64_t c : res.counts) total += c;
  EXPECT_EQ(total, 120u);
  EXPECT_EQ(res.assignment.size(), 120u);
}

TEST(KMeans, AssignmentConsistentWithCounts) {
  std::mt19937_64 rng(4);
  const linalg::Matrix x = blobs(30, 4);
  const KMeansResult res = kmeans(x, 5, rng);
  std::vector<std::uint64_t> recount(5, 0);
  for (std::size_t a : res.assignment) {
    ASSERT_LT(a, 5u);
    ++recount[a];
  }
  EXPECT_EQ(recount, res.counts);
}

TEST(KMeans, AssignmentIsNearest) {
  std::mt19937_64 rng(5);
  const linalg::Matrix x = blobs(20, 5);
  const KMeansResult res = kmeans(x, 4, rng);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double assigned = 0.0, best = 1e300;
    for (std::size_t c = 0; c < res.centroids.rows(); ++c) {
      double d = 0.0;
      for (std::size_t j = 0; j < x.cols(); ++j) {
        const double diff = x(i, j) - res.centroids(c, j);
        d += diff * diff;
      }
      if (c == res.assignment[i]) assigned = d;
      best = std::min(best, d);
    }
    EXPECT_NEAR(assigned, best, 1e-9);
  }
}

TEST(KMeans, KGreaterOrEqualNDegeneratesToIdentity) {
  std::mt19937_64 rng(6);
  const linalg::Matrix x = blobs(2, 6);  // 6 rows
  const KMeansResult res = kmeans(x, 10, rng);
  EXPECT_EQ(res.centroids.rows(), 6u);
  EXPECT_EQ(res.centroids, x);
  EXPECT_DOUBLE_EQ(res.inertia, 0.0);
}

TEST(KMeans, InertiaDecreasesWithMoreCentroids) {
  const linalg::Matrix x = blobs(40, 7);
  double last = 1e300;
  for (std::size_t k : {1u, 2u, 3u, 6u, 12u}) {
    std::mt19937_64 rng(7);
    const KMeansResult res = kmeans(x, k, rng);
    EXPECT_LE(res.inertia, last * 1.05) << "k=" << k;
    last = res.inertia;
  }
}

TEST(KMeans, PlusPlusBeatsRandomOnAverage) {
  // With few iterations, D^2 seeding should find lower inertia than naive
  // random seeding on clustered data (the reason the paper chose it).
  const linalg::Matrix x = blobs(60, 8);
  KMeansOptions fast;
  fast.max_iterations = 2;
  double pp_total = 0.0, rand_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng1(seed), rng2(seed);
    fast.init = KMeansInit::kPlusPlus;
    pp_total += kmeans(x, 3, rng1, fast).inertia;
    fast.init = KMeansInit::kRandom;
    rand_total += kmeans(x, 3, rng2, fast).inertia;
  }
  EXPECT_LT(pp_total, rand_total);
}

TEST(KMeans, IdenticalPointsHandled) {
  linalg::Matrix x(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = 2.0;
    x(i, 2) = 3.0;
  }
  std::mt19937_64 rng(9);
  const KMeansResult res = kmeans(x, 4, rng);
  EXPECT_DOUBLE_EQ(res.inertia, 0.0);
  std::uint64_t total = 0;
  for (std::uint64_t c : res.counts) total += c;
  EXPECT_EQ(total, 50u);
}

TEST(WeightedKMeans, ValidatesArguments) {
  std::mt19937_64 rng(1);
  const linalg::Matrix x = blobs(5, 1);
  const std::vector<std::uint64_t> wrong_size(3, 1);
  EXPECT_THROW((void)weighted_kmeans(x, wrong_size, 2, rng),
               std::invalid_argument);
  const std::vector<std::uint64_t> zeros(x.rows(), 0);
  EXPECT_THROW((void)weighted_kmeans(x, zeros, 2, rng),
               std::invalid_argument);
  const std::vector<std::uint64_t> ok(x.rows(), 1);
  EXPECT_THROW((void)weighted_kmeans(x, ok, 0, rng), std::invalid_argument);
}

TEST(WeightedKMeans, UnitWeightsMatchPlainSemantics) {
  const linalg::Matrix x = blobs(40, 12);
  const std::vector<std::uint64_t> unit(x.rows(), 1);
  std::mt19937_64 rng(12);
  const auto res = weighted_kmeans(x, unit, 3, rng);
  // Same well-separated blobs: recovered and balanced.
  for (std::uint64_t count : res.counts) EXPECT_EQ(count, 40u);
}

TEST(WeightedKMeans, CountsSumToTotalWeight) {
  const linalg::Matrix x = blobs(30, 13);
  std::vector<std::uint64_t> weights(x.rows());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + i % 7;
    total += weights[i];
  }
  std::mt19937_64 rng(13);
  const auto res = weighted_kmeans(x, weights, 5, rng);
  std::uint64_t sum = 0;
  for (std::uint64_t c : res.counts) sum += c;
  EXPECT_EQ(sum, total);
}

TEST(WeightedKMeans, HeavyPointPullsItsCentroid) {
  // Two points; one carries 99x the weight: the 1-centroid solution must
  // sit nearly on the heavy point.
  linalg::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  const std::vector<std::uint64_t> weights = {99, 1};
  std::mt19937_64 rng(14);
  const auto res = weighted_kmeans(x, weights, 1, rng);
  EXPECT_NEAR(res.centroids(0, 0), 0.01, 1e-9);
}

TEST(WeightedKMeans, KGreaterEqualNReturnsRowsWithWeights) {
  const linalg::Matrix x = blobs(2, 15);  // 6 rows
  const std::vector<std::uint64_t> weights = {1, 2, 3, 4, 5, 6};
  std::mt19937_64 rng(15);
  const auto res = weighted_kmeans(x, weights, 10, rng);
  EXPECT_EQ(res.centroids.rows(), 6u);
  EXPECT_EQ(res.counts, weights);
}

TEST(KMeans, DeterministicGivenRngState) {
  const linalg::Matrix x = blobs(30, 10);
  std::mt19937_64 rng1(11), rng2(11);
  const KMeansResult a = kmeans(x, 4, rng1);
  const KMeansResult b = kmeans(x, 4, rng2);
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.assignment, b.assignment);
}

}  // namespace
}  // namespace jaal::summarize

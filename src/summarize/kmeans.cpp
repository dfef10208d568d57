#include "summarize/kmeans.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/simd.hpp"
#include "runtime/thread_pool.hpp"

namespace jaal::summarize {
namespace {

/// Below this many points the fan-out overhead exceeds the win; the output
/// is identical either way, so the cutoff only affects speed.
constexpr std::size_t kParallelAssignMin = 128;

/// Points per pool task in the assignment step.  Blocks keep the SIMD
/// kernel fed with long runs; lanes are independent points, so any block
/// decomposition yields identical bits.
constexpr std::size_t kAssignBlock = 512;

}  // namespace

void assign_to_centroids(const linalg::SoaMatrix& x,
                         const linalg::Matrix& centroids,
                         std::span<std::size_t> assignment,
                         std::span<double> best_dist,
                         runtime::ThreadPool* pool) {
  const std::size_t n = x.rows();
  const std::size_t k = centroids.rows();
  if (centroids.cols() != x.cols()) {
    throw std::invalid_argument("assign_to_centroids: dimension mismatch");
  }
  if (assignment.size() != n || best_dist.size() != n) {
    throw std::invalid_argument("assign_to_centroids: output size mismatch");
  }
  if (n == 0) return;
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    linalg::simd::nearest_centroids(x.data(), x.stride(), x.cols(),
                                    centroids.data().data(), k, begin, end,
                                    assignment.data(), best_dist.data());
  };
  if (pool != nullptr && n >= kParallelAssignMin) {
    const std::size_t blocks = (n + kAssignBlock - 1) / kAssignBlock;
    pool->parallel_for(0, blocks, [&](std::size_t b) {
      run_block(b * kAssignBlock, std::min(n, (b + 1) * kAssignBlock));
    });
  } else {
    run_block(0, n);
  }
}

namespace {

/// k-means++ D^2 seeding from a given first seed: each next seed is drawn
/// with probability proportional to mass(i), a function of d2[i], the
/// squared distance from point i to its closest seed so far.  `d2` (size n)
/// is scratch.  The D^2 update runs per point through the SIMD kernel on the
/// SoA copy; the total and the pick scan stay serial in point order, so the
/// seeds do not depend on the dispatch level.
template <class Mass>
std::vector<std::size_t> seed_d2(const linalg::Matrix& x,
                                 const linalg::SoaMatrix& xs,
                                 std::size_t first, std::size_t k,
                                 std::mt19937_64& rng, std::span<double> d2,
                                 Mass mass) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> seeds;
  seeds.reserve(k);
  seeds.push_back(first);
  std::fill(d2.begin(), d2.end(), std::numeric_limits<double>::max());
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  while (seeds.size() < k) {
    linalg::simd::min_sq_dist(xs.data(), xs.stride(), xs.cols(),
                              x.row(seeds.back()).data(), n, d2.data());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += mass(i);
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; pick arbitrarily.
      seeds.push_back(rng() % n);
      continue;
    }
    double target = unit(rng) * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= mass(i);
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    seeds.push_back(pick);
  }
  return seeds;
}

std::vector<std::size_t> seed_random(const linalg::Matrix& x, std::size_t k,
                                     std::mt19937_64& rng) {
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t i = 0; i < k; ++i) chosen.push_back(rng() % x.rows());
  return chosen;
}

linalg::Matrix gather_rows(const linalg::Matrix& x,
                           const std::vector<std::size_t>& rows) {
  linalg::Matrix out(rows.size(), x.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = x.row(rows[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

}  // namespace

KMeansResult kmeans(const linalg::Matrix& x, std::size_t k,
                    std::mt19937_64& rng, const KMeansOptions& opts) {
  if (k == 0) throw std::invalid_argument("kmeans: k must be positive");
  if (x.empty()) throw std::invalid_argument("kmeans: empty input");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  KMeansResult res;
  if (k >= n) {
    // Degenerate case: every packet is its own representative.
    res.centroids = x;
    res.assignment.resize(n);
    res.counts.assign(n, 1);
    for (std::size_t i = 0; i < n; ++i) res.assignment[i] = i;
    return res;
  }

  // One SoA conversion per call; seeding's D^2 updates and every Lloyd
  // assignment step read the same column-major copy.  best_dist doubles as
  // the seeding's D^2 scratch.
  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  std::vector<double> best_dist(n, 0.0);
  res.centroids = gather_rows(
      x, opts.init == KMeansInit::kPlusPlus
             ? seed_d2(x, xs, rng() % n, k, rng, best_dist,
                       [&](std::size_t i) { return best_dist[i]; })
             : seed_random(x, k, rng));
  res.assignment.assign(n, 0);
  res.counts.assign(k, 0);
  linalg::Matrix sums(k, d);
  bool settled = false;  // the last update left every centroid unchanged
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    // Assignment step: the nearest-centroid search fans out over the pool;
    // the floating-point reductions below stay serial in point order so the
    // result is bit-identical to a threads=1 run.
    assign_to_centroids(xs, res.centroids, res.assignment, best_dist,
                        opts.pool);
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    std::fill(sums.data().begin(), sums.data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = x.row(i);
      const std::size_t best_c = res.assignment[i];
      res.inertia += best_dist[i];
      ++res.counts[best_c];
      auto sum_row = sums.row(best_c);
      for (std::size_t j = 0; j < d; ++j) sum_row[j] += row[j];
    }
    // Update step.
    double moved = 0.0;
    settled = true;
    for (std::size_t c = 0; c < k; ++c) {
      auto centroid = res.centroids.row(c);
      if (res.counts[c] == 0) continue;  // empty cluster keeps its centroid
      const auto sum_row = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        const double updated =
            sum_row[j] / static_cast<double>(res.counts[c]);
        moved = std::max(moved, std::abs(updated - centroid[j]));
        settled = settled && updated == centroid[j];
        centroid[j] = updated;
      }
    }
    if (moved < opts.tolerance) break;
  }

  // Final assignment consistent with the returned centroids.  When the last
  // update moved no centroid (settled; a NaN never compares equal, and
  // +0/-0 give the same distances) the last assignment step already used
  // them, so assignment, counts and inertia are exact as they stand.
  if (!settled) {
    assign_to_centroids(xs, res.centroids, res.assignment, best_dist,
                        opts.pool);
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      res.inertia += best_dist[i];
      ++res.counts[res.assignment[i]];
    }
  }
  return res;
}

KMeansResult weighted_kmeans(const linalg::Matrix& x,
                             std::span<const std::uint64_t> weights,
                             std::size_t k, std::mt19937_64& rng,
                             const KMeansOptions& opts) {
  if (k == 0) throw std::invalid_argument("weighted_kmeans: k must be positive");
  if (x.empty()) throw std::invalid_argument("weighted_kmeans: empty input");
  if (weights.size() != x.rows()) {
    throw std::invalid_argument("weighted_kmeans: weights/rows mismatch");
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  std::uint64_t total_weight = 0;
  for (std::uint64_t w : weights) total_weight += w;
  if (total_weight == 0) {
    throw std::invalid_argument("weighted_kmeans: zero total weight");
  }

  KMeansResult res;
  if (k >= n) {
    res.centroids = x;
    res.assignment.resize(n);
    res.counts.assign(weights.begin(), weights.end());
    for (std::size_t i = 0; i < n; ++i) res.assignment[i] = i;
    return res;
  }

  const linalg::SoaMatrix xs = linalg::SoaMatrix::from_rows(x);
  std::vector<double> best_dist(n, 0.0);
  // Weighted D^2 seeding: the first seed is weight-proportional, each next
  // one proportional to weight x squared distance (the weighted k-means++
  // generalization).
  double target = std::uniform_real_distribution<double>(0.0, 1.0)(rng) *
                  static_cast<double>(total_weight);
  std::size_t first = n - 1;
  for (std::size_t i = 0; i < n; ++i) {
    target -= static_cast<double>(weights[i]);
    if (target <= 0.0) {
      first = i;
      break;
    }
  }
  res.centroids = gather_rows(
      x, seed_d2(x, xs, first, k, rng, best_dist, [&](std::size_t i) {
        return best_dist[i] * static_cast<double>(weights[i]);
      }));
  res.assignment.assign(n, 0);
  res.counts.assign(k, 0);
  linalg::Matrix sums(k, d);
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    res.iterations = iter + 1;
    // Assignment via the SIMD kernel; the weighted accumulation stays
    // serial in point order so results do not depend on scheduling.
    assign_to_centroids(xs, res.centroids, res.assignment, best_dist,
                        opts.pool);
    res.inertia = 0.0;
    std::fill(res.counts.begin(), res.counts.end(), 0);
    std::fill(sums.data().begin(), sums.data().end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = x.row(i);
      const std::size_t best_c = res.assignment[i];
      const double w = static_cast<double>(weights[i]);
      res.inertia += best_dist[i] * w;
      res.counts[best_c] += weights[i];
      auto sum_row = sums.row(best_c);
      for (std::size_t j = 0; j < d; ++j) sum_row[j] += row[j] * w;
    }
    double moved = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (res.counts[c] == 0) continue;
      auto centroid = res.centroids.row(c);
      const auto sum_row = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) {
        const double updated =
            sum_row[j] / static_cast<double>(res.counts[c]);
        moved = std::max(moved, std::abs(updated - centroid[j]));
        centroid[j] = updated;
      }
    }
    if (moved < opts.tolerance) break;
  }
  return res;
}

}  // namespace jaal::summarize

#include "linalg/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

// Compiled with -ffp-contract=off (see src/CMakeLists.txt): fused
// multiply-adds would let one dispatch level contract a*b+c where another
// does not, breaking the bit-identity contract between levels.

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JAAL_SIMD_X86 1
#endif

namespace jaal::linalg::simd {
namespace {

#ifdef JAAL_SIMD_X86
typedef double v4d __attribute__((vector_size(32)));
typedef double v8d __attribute__((vector_size(64)));
#endif

// In-place fills rather than by-value returns: a vector-returning helper
// without a target attribute changes ABI between dispatch levels (-Wpsabi).
template <class VD>
[[gnu::always_inline]] inline void splat(VD& v, double x) noexcept {
  for (std::size_t l = 0; l < sizeof(VD) / sizeof(double); ++l) v[l] = x;
}

template <class VI>
[[gnu::always_inline]] inline void splat_i(VI& v, long long x) noexcept {
  for (std::size_t l = 0; l < sizeof(VI) / sizeof(long long); ++l) v[l] = x;
}

// ---------------------------------------------------------------------------
// Per-point kernels over an SoA batch (nearest_centroids, min_sq_dist):
// lanes are points, and each lane sums its fields serially in order from
// 0.0, so every level is bit-identical to the scalar scan.

/// Squared distance from point i of the batch to a row-major centre.
[[gnu::always_inline]] inline double sq_dist_one(const double* x,
                                                 std::size_t stride,
                                                 std::size_t d,
                                                 const double* centre,
                                                 std::size_t i) noexcept {
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double diff = x[j * stride + i] - centre[j];
    acc += diff * diff;
  }
  return acc;
}

void nearest_centroids_scalar(const double* x, std::size_t stride,
                              std::size_t d, const double* centroids,
                              std::size_t k, std::size_t begin,
                              std::size_t end, std::size_t* assignment,
                              double* best_dist) noexcept {
  for (std::size_t i = begin; i < end; ++i) {
    double best = std::numeric_limits<double>::max();
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double acc = sq_dist_one(x, stride, d, centroids + c * d, i);
      if (acc < best) {
        best = acc;
        best_c = c;
      }
    }
    assignment[i] = best_c;
    best_dist[i] = best;
  }
}

#ifdef JAAL_SIMD_X86
/// acc += (p[0..kW) - c)^2 lane by lane: one field of kW points.
template <class VD>
[[gnu::always_inline]] inline void add_sq_diff(VD& acc, const double* p,
                                               const VD& c) noexcept {
  VD xv;
  std::memcpy(&xv, p, sizeof xv);
  const VD diff = xv - c;
  acc += diff * diff;
}

/// acc = squared distances from the kW points starting at xi to a row-major
/// centre: sq_dist_one lane by lane.
template <class VD>
[[gnu::always_inline]] inline void sq_dist_vec(VD& acc, const double* xi,
                                               std::size_t stride,
                                               std::size_t d,
                                               const double* centre) noexcept {
  splat(acc, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    VD cj;
    splat(cj, centre[j]);
    add_sq_diff(acc, xi + j * stride, cj);
  }
}

/// Lanes where acc < best take acc and centroid index c; the strict < makes
/// the first index win ties, as in the scalar scan.
template <class VD, class VI>
[[gnu::always_inline]] inline void keep_closer(const VD& acc, const VI& c,
                                               VD& best, VI& best_c) noexcept {
  const VI closer = acc < best;
  best = closer ? acc : best;
  best_c = closer ? c : best_c;
}

template <class VD, class VI>
[[gnu::always_inline]] inline void store_nearest(
    const VD& best, const VI& best_c, std::size_t i, std::size_t* assignment,
    double* best_dist) noexcept {
  for (std::size_t l = 0; l < sizeof(VD) / sizeof(double); ++l) {
    assignment[i + l] = static_cast<std::size_t>(best_c[l]);
    best_dist[i + l] = best[l];
  }
}

template <class VD>
[[gnu::always_inline]] inline void nearest_centroids_impl(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t begin,
    std::size_t end, std::size_t* assignment, double* best_dist) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  using VI = decltype(std::declval<VD>() < std::declval<VD>());
  VD far;
  splat(far, std::numeric_limits<double>::max());
  VI first;
  splat_i(first, 0);
  std::size_t i = begin;
  // Four point vectors per centroid step: each centroid field is broadcast
  // once per 4*kW points and the four accumulation chains overlap.  Named
  // accumulators, not an array: GCC keeps `VD acc[4]` in memory.
  for (; i + 4 * kW <= end; i += 4 * kW) {
    VD best0 = far, best1 = far, best2 = far, best3 = far;
    VI bc0 = first, bc1 = first, bc2 = first, bc3 = first;
    for (std::size_t c = 0; c < k; ++c) {
      const double* cen = centroids + c * d;
      VD acc0;
      splat(acc0, 0.0);
      VD acc1 = acc0, acc2 = acc0, acc3 = acc0;
      for (std::size_t j = 0; j < d; ++j) {
        const double* col = x + j * stride + i;
        VD cj;
        splat(cj, cen[j]);
        add_sq_diff(acc0, col, cj);
        add_sq_diff(acc1, col + kW, cj);
        add_sq_diff(acc2, col + 2 * kW, cj);
        add_sq_diff(acc3, col + 3 * kW, cj);
      }
      VI ci;
      splat_i(ci, static_cast<long long>(c));
      keep_closer(acc0, ci, best0, bc0);
      keep_closer(acc1, ci, best1, bc1);
      keep_closer(acc2, ci, best2, bc2);
      keep_closer(acc3, ci, best3, bc3);
    }
    store_nearest(best0, bc0, i, assignment, best_dist);
    store_nearest(best1, bc1, i + kW, assignment, best_dist);
    store_nearest(best2, bc2, i + 2 * kW, assignment, best_dist);
    store_nearest(best3, bc3, i + 3 * kW, assignment, best_dist);
  }
  for (; i + kW <= end; i += kW) {
    VD best = far;
    VI best_c = first;
    for (std::size_t c = 0; c < k; ++c) {
      VD acc;
      sq_dist_vec(acc, x + i, stride, d, centroids + c * d);
      VI ci;
      splat_i(ci, static_cast<long long>(c));
      keep_closer(acc, ci, best, best_c);
    }
    store_nearest(best, best_c, i, assignment, best_dist);
  }
  nearest_centroids_scalar(x, stride, d, centroids, k, i, end, assignment,
                           best_dist);
}

__attribute__((target("avx2"))) void nearest_centroids_avx2(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t begin,
    std::size_t end, std::size_t* assignment, double* best_dist) noexcept {
  nearest_centroids_impl<v4d>(x, stride, d, centroids, k, begin, end,
                              assignment, best_dist);
}

__attribute__((target("avx512f"))) void nearest_centroids_avx512(
    const double* x, std::size_t stride, std::size_t d,
    const double* centroids, std::size_t k, std::size_t begin,
    std::size_t end, std::size_t* assignment, double* best_dist) noexcept {
  nearest_centroids_impl<v8d>(x, stride, d, centroids, k, begin, end,
                              assignment, best_dist);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// min_sq_dist (the k-means++ D^2 update) keeps std::min(d2, acc), i.e.
// `acc < d2 ? acc : d2`, in every lane, so a NaN distance never replaces d2.

void min_sq_dist_scalar(const double* x, std::size_t stride, std::size_t d,
                        const double* centre, std::size_t n,
                        double* d2) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    d2[i] = std::min(d2[i], sq_dist_one(x, stride, d, centre, i));
  }
}

#ifdef JAAL_SIMD_X86
template <class VD>
[[gnu::always_inline]] inline void min_sq_dist_impl(
    const double* x, std::size_t stride, std::size_t d, const double* centre,
    std::size_t n, double* d2) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  using VI = decltype(std::declval<VD>() < std::declval<VD>());
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    VD acc;
    sq_dist_vec(acc, x + i, stride, d, centre);
    VD cur;
    std::memcpy(&cur, d2 + i, sizeof cur);
    const VI closer = acc < cur;
    cur = closer ? acc : cur;
    std::memcpy(d2 + i, &cur, sizeof cur);
  }
  min_sq_dist_scalar(x + i, stride, d, centre, n - i, d2 + i);
}

__attribute__((target("avx2"))) void min_sq_dist_avx2(
    const double* x, std::size_t stride, std::size_t d, const double* centre,
    std::size_t n, double* d2) noexcept {
  min_sq_dist_impl<v4d>(x, stride, d, centre, n, d2);
}

__attribute__((target("avx512f"))) void min_sq_dist_avx512(
    const double* x, std::size_t stride, std::size_t d, const double* centre,
    std::size_t n, double* d2) noexcept {
  min_sq_dist_impl<v8d>(x, stride, d, centre, n, d2);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// Reductions: canonical 4-accumulator order at EVERY level.  Virtual lane
// l accumulates elements i with i % 4 == l in ascending i; the final
// combine is (l0 + l1) + (l2 + l3).  The scalar body below IS the
// specification; the AVX2 body reproduces it with one vector accumulator.
// There is deliberately no 8-wide reduction: folding 8 lanes into 4 would
// regroup the partial sums and break bit-identity with this order.

double dot_scalar(const double* a, const double* b, std::size_t n) noexcept {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    lane[0] += a[i] * b[i];
    lane[1] += a[i + 1] * b[i + 1];
    lane[2] += a[i + 2] * b[i + 2];
    lane[3] += a[i + 3] * b[i + 3];
  }
  for (std::size_t t = 0; i + t < n; ++t) lane[t] += a[i + t] * b[i + t];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

PairDots pair_dots_scalar(const double* a, const double* b,
                          std::size_t n) noexcept {
  double la[4] = {0.0, 0.0, 0.0, 0.0};
  double lb[4] = {0.0, 0.0, 0.0, 0.0};
  double lg[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      la[l] += a[i + l] * a[i + l];
      lb[l] += b[i + l] * b[i + l];
      lg[l] += a[i + l] * b[i + l];
    }
  }
  for (std::size_t t = 0; i + t < n; ++t) {
    la[t] += a[i + t] * a[i + t];
    lb[t] += b[i + t] * b[i + t];
    lg[t] += a[i + t] * b[i + t];
  }
  PairDots out;
  out.alpha = (la[0] + la[1]) + (la[2] + la[3]);
  out.beta = (lb[0] + lb[1]) + (lb[2] + lb[3]);
  out.gamma = (lg[0] + lg[1]) + (lg[2] + lg[3]);
  return out;
}

#ifdef JAAL_SIMD_X86
__attribute__((target("avx2"))) double dot_avx2(const double* a,
                                                const double* b,
                                                std::size_t n) noexcept {
  v4d acc;
  splat(acc, 0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d av, bv;
    std::memcpy(&av, a + i, sizeof av);
    std::memcpy(&bv, b + i, sizeof bv);
    acc += av * bv;
  }
  double lane[4] = {acc[0], acc[1], acc[2], acc[3]};
  for (std::size_t t = 0; i + t < n; ++t) lane[t] += a[i + t] * b[i + t];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

__attribute__((target("avx2"))) PairDots pair_dots_avx2(
    const double* a, const double* b, std::size_t n) noexcept {
  v4d aa;
  splat(aa, 0.0);
  v4d bb = aa;
  v4d ab = aa;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d av, bv;
    std::memcpy(&av, a + i, sizeof av);
    std::memcpy(&bv, b + i, sizeof bv);
    aa += av * av;
    bb += bv * bv;
    ab += av * bv;
  }
  double la[4] = {aa[0], aa[1], aa[2], aa[3]};
  double lb[4] = {bb[0], bb[1], bb[2], bb[3]};
  double lg[4] = {ab[0], ab[1], ab[2], ab[3]};
  for (std::size_t t = 0; i + t < n; ++t) {
    la[t] += a[i + t] * a[i + t];
    lb[t] += b[i + t] * b[i + t];
    lg[t] += a[i + t] * b[i + t];
  }
  PairDots out;
  out.alpha = (la[0] + la[1]) + (la[2] + la[3]);
  out.beta = (lb[0] + lb[1]) + (lb[2] + lb[3]);
  out.gamma = (lg[0] + lg[1]) + (lg[2] + lg[3]);
  return out;
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// rotate_pair: elementwise, so any width is bit-identical.

void rotate_pair_scalar(double* a, double* b, std::size_t n, double cs,
                        double sn) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = a[i];
    a[i] = cs * ai - sn * b[i];
    b[i] = sn * ai + cs * b[i];
  }
}

#ifdef JAAL_SIMD_X86
template <class VD>
[[gnu::always_inline]] inline void rotate_pair_impl(double* a, double* b,
                                                    std::size_t n, double cs,
                                                    double sn) noexcept {
  constexpr std::size_t kW = sizeof(VD) / sizeof(double);
  VD csv, snv;
  splat(csv, cs);
  splat(snv, sn);
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    VD av, bv;
    std::memcpy(&av, a + i, sizeof av);
    std::memcpy(&bv, b + i, sizeof bv);
    const VD ar = csv * av - snv * bv;
    const VD br = snv * av + csv * bv;
    std::memcpy(a + i, &ar, sizeof ar);
    std::memcpy(b + i, &br, sizeof br);
  }
  for (; i < n; ++i) {
    const double ai = a[i];
    a[i] = cs * ai - sn * b[i];
    b[i] = sn * ai + cs * b[i];
  }
}

__attribute__((target("avx2"))) void rotate_pair_avx2(
    double* a, double* b, std::size_t n, double cs, double sn) noexcept {
  rotate_pair_impl<v4d>(a, b, n, cs, sn);
}

__attribute__((target("avx512f"))) void rotate_pair_avx512(
    double* a, double* b, std::size_t n, double cs, double sn) noexcept {
  rotate_pair_impl<v8d>(a, b, n, cs, sn);
}
#endif  // JAAL_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch state.

Level detect_cpu() noexcept {
#ifdef JAAL_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level clamp(Level level) noexcept {
  return level <= detected() ? level : detected();
}

Level env_level(Level best) noexcept {
  const char* env = std::getenv("JAAL_SIMD");
  if (env == nullptr) return best;
  const std::string_view v(env);
  if (v == "scalar" || v == "off" || v == "0") return Level::kScalar;
  if (v == "avx2") return clamp(Level::kAvx2);
  if (v == "avx512") return clamp(Level::kAvx512);
  return best;  // unknown value: keep the detected level
}

std::atomic<Level>& active_state() noexcept {
  static std::atomic<Level> state{env_level(detect_cpu())};
  return state;
}

}  // namespace

Level detected() noexcept {
  static const Level level = detect_cpu();
  return level;
}

Level active() noexcept {
  return active_state().load(std::memory_order_relaxed);
}

Level force_level(Level level) noexcept {
  const Level effective = clamp(level);
  active_state().store(effective, std::memory_order_relaxed);
  return effective;
}

std::string_view level_name(Level level) noexcept {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

double dot(const double* a, const double* b, std::size_t n) noexcept {
#ifdef JAAL_SIMD_X86
  // Reductions dispatch to the 4-wide body at most (determinism contract).
  if (active() != Level::kScalar) return dot_avx2(a, b, n);
#endif
  return dot_scalar(a, b, n);
}

PairDots pair_dots(const double* a, const double* b, std::size_t n) noexcept {
#ifdef JAAL_SIMD_X86
  if (active() != Level::kScalar) return pair_dots_avx2(a, b, n);
#endif
  return pair_dots_scalar(a, b, n);
}

void rotate_pair(double* a, double* b, std::size_t n, double cs,
                 double sn) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return rotate_pair_avx512(a, b, n, cs, sn);
    case Level::kAvx2:
      return rotate_pair_avx2(a, b, n, cs, sn);
    case Level::kScalar:
      break;
  }
#endif
  rotate_pair_scalar(a, b, n, cs, sn);
}

void min_sq_dist(const double* x, std::size_t stride, std::size_t d,
                 const double* centre, std::size_t n, double* d2) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return min_sq_dist_avx512(x, stride, d, centre, n, d2);
    case Level::kAvx2:
      return min_sq_dist_avx2(x, stride, d, centre, n, d2);
    case Level::kScalar:
      break;
  }
#endif
  min_sq_dist_scalar(x, stride, d, centre, n, d2);
}

void nearest_centroids(const double* x, std::size_t stride, std::size_t d,
                       const double* centroids, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::size_t* assignment, double* best_dist) noexcept {
#ifdef JAAL_SIMD_X86
  switch (active()) {
    case Level::kAvx512:
      return nearest_centroids_avx512(x, stride, d, centroids, k, begin, end,
                                      assignment, best_dist);
    case Level::kAvx2:
      return nearest_centroids_avx2(x, stride, d, centroids, k, begin, end,
                                    assignment, best_dist);
    case Level::kScalar:
      break;
  }
#endif
  nearest_centroids_scalar(x, stride, d, centroids, k, begin, end, assignment,
                           best_dist);
}

}  // namespace jaal::linalg::simd

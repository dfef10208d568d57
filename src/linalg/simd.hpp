// Runtime-dispatched SIMD kernels for the summarization hot path.
//
// Two loop families dominate a monitor's epoch latency: the k-means
// point-to-centroid distance searches (O(n k p) for k-means++ seeding and
// per Lloyd iteration) and the one-sided Jacobi column sweeps of the SVD
// (O(n p^2) per sweep).  This header exposes portable 4/8-wide kernels for
// both, written with GCC vector extensions and dispatched at runtime
// (scalar everywhere, AVX2 / AVX-512 on x86-64 hosts that support them;
// JAAL_SIMD=scalar|avx2|avx512 overrides, force_level() pins a level for
// tests and benches).
//
// Determinism contract (see DESIGN.md "SIMD kernels & SoA layout"):
//  * Per-point kernels (min_sq_dist, nearest_centroids) reduce over the p
//    fields serially per lane, and lanes never interact — results are
//    bit-identical to the scalar path at every dispatch level.
//  * Reduction kernels (dot, pair_dots) use a fixed canonical 4-accumulator
//    order at every level; the 8-wide level deliberately runs the 4-wide
//    reduction body because folding 8 lanes to 4 would regroup the sums.
//  * Elementwise kernels (rotate_pair) perform the same arithmetic per
//    element in every lane — trivially bit-identical.
// Together: seeded Summarizer output is byte-identical across dispatch
// levels and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jaal::linalg::simd {

/// Dispatch level, ordered by vector width.  kAvx2 runs 4 doubles per
/// operation, kAvx512 runs 8 (except reductions, which stay 4-wide — see
/// the determinism contract above).
enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best level this CPU supports (computed once).
[[nodiscard]] Level detected() noexcept;

/// Level the kernels currently dispatch to: detected(), lowered by the
/// JAAL_SIMD environment variable (read once) or force_level().
[[nodiscard]] Level active() noexcept;

/// Pins the dispatch level (clamped to detected()); for tests/benches
/// comparing scalar vs SIMD on the same host.  Returns the level actually
/// in effect after clamping.
Level force_level(Level level) noexcept;

[[nodiscard]] std::string_view level_name(Level level) noexcept;

/// alpha = <a,a>, beta = <b,b>, gamma = <a,b> in one pass — the Gram block
/// a Jacobi rotation needs for one column pair.
struct PairDots {
  double alpha = 0.0;
  double beta = 0.0;
  double gamma = 0.0;
};

/// Dot product over n entries, canonical 4-accumulator reduction order.
[[nodiscard]] double dot(const double* a, const double* b,
                         std::size_t n) noexcept;

/// The three Jacobi dot products in one fused pass (same canonical order).
[[nodiscard]] PairDots pair_dots(const double* a, const double* b,
                                 std::size_t n) noexcept;

/// Elementwise plane rotation: (a[i], b[i]) <- (cs*a[i] - sn*b[i],
/// sn*a[i] + cs*b[i]).
void rotate_pair(double* a, double* b, std::size_t n, double cs,
                 double sn) noexcept;

/// k-means++ D^2 update for points [0, n) of an SoA batch (layout as in
/// nearest_centroids) against one new centre of length d:
/// d2[i] = std::min(d2[i], |x_i - centre|^2), the distance summed over the
/// fields in order from 0.0 exactly as the scalar loop does.
void min_sq_dist(const double* x, std::size_t stride, std::size_t d,
                 const double* centre, std::size_t n, double* d2) noexcept;

/// Nearest-centroid search for points [begin, end) of an SoA batch: column
/// j of the batch lives at x + j*stride.  `centroids` is row-major k x d.
/// Fills assignment[i] (first index wins ties, matching the scalar scan)
/// and best_dist[i] for i in [begin, end).  Lanes are points, so any block
/// decomposition of [0, n) yields identical bits.
void nearest_centroids(const double* x, std::size_t stride, std::size_t d,
                       const double* centroids, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::size_t* assignment, double* best_dist) noexcept;

}  // namespace jaal::linalg::simd

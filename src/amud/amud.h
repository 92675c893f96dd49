#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/graph/digraph.h"
#include "src/graph/patterns.h"

namespace adpa {

class Rng;

/// AMUD's verdict for a natural digraph (Sec. III-C): keep the directed
/// edges, or apply the coarse undirected transformation before learning.
enum class AmudDecision { kUndirected, kDirected };

/// Tuning knobs for the AMUD computation.
struct AmudOptions {
  /// Decision threshold θ of Sec. III-C; S > θ keeps directed edges.
  double threshold = 0.5;
  /// Per-row fill-in cap of each DP product of order >= 2, applied exactly
  /// as PatternSet::Reachability(pattern, max_row_nnz) applies it (a row
  /// keeps its strongest entries). 0 disables the guard (exact
  /// reachability).
  int64_t max_row_nnz = 0;
};

/// Correlation of one DP with the node profiles.
struct PatternCorrelation {
  DirectedPattern pattern;
  double r = 0.0;         ///< Pearson r(G_d, N), Eq. (7)
  double r_squared = 0.0; ///< R² = r², the linear-fit determination
};

/// Full AMUD report: per-pattern correlations (the 2 first-order operators
/// are included for inspection; the guidance score uses the 4 second-order
/// ones per Sec. III-C), the guidance score S of Eq. (8), and the decision.
struct AmudReport {
  std::vector<PatternCorrelation> correlations;
  double score = 0.0;
  AmudDecision decision = AmudDecision::kUndirected;

  std::string ToString() const;
};

/// Pearson correlation (Eq. 4–7) between the boolean pair variable
/// G_d(u,v) — "v is reachable from u through `reachability`" — and the node
/// profile agreement N(u,v) = 1[labels_u == labels_v], over all ordered
/// pairs u != v. Both variables are binary, so this is the phi coefficient
/// and is computed exactly from integer contingency counts in O(nnz + n).
/// ComputeAmud and SelectPatternsByCorrelation get the same counts without
/// building `reachability`: they stream the rows of the first hop times the
/// rest of the pattern through SparseMatrix::ForEachProductRow, the row
/// kernel of MultiplySparse, in O(Σ_u Σ_{w∈N(u)} deg(w)) time and O(n)
/// memory per thread, nothing materialized for order <= 2. Bitwise equal to this
/// function on PatternSet::Reachability(pattern, max_row_nnz).
double PatternLabelCorrelation(const SparseMatrix& reachability,
                               const std::vector<int64_t>& labels);

/// Same correlation restricted to ordered pairs whose *both* endpoints are
/// in `known_idx` — the semi-supervised variant used for DP selection,
/// where only training labels may be consulted (Sec. IV-B).
double PatternLabelCorrelationMasked(const SparseMatrix& reachability,
                                     const std::vector<int64_t>& labels,
                                     const std::vector<int64_t>& known_idx);

/// The paper's DP-selection rule (Sec. IV-B): enumerate all patterns up to
/// `max_order`, rank them by r(G_d, N) computed on the labeled subset, and
/// return the `keep` most positively correlated ones. Guides ADPA toward
/// the operators whose propagation rule matches the label structure.
Result<std::vector<DirectedPattern>> SelectPatternsByCorrelation(
    const Digraph& graph, const std::vector<int64_t>& labels,
    const std::vector<int64_t>& known_idx, int max_order, int keep,
    const AmudOptions& options = {});

/// Monte-Carlo estimate of the same correlation from `num_samples` uniformly
/// sampled ordered pairs. Used by tests to validate the closed form and
/// available for graphs too large to materialize reachability.
double PatternLabelCorrelationSampled(const Digraph& graph,
                                      const DirectedPattern& pattern,
                                      const std::vector<int64_t>& labels,
                                      int64_t num_samples, Rng* rng);

/// Runs the full AMUD analysis on a natural digraph: computes R²(G_d, N)
/// for the first- and second-order DPs, derives the guidance score
/// S = α · sqrt(Σ_{i≠j} ‖R²_i − R²_j‖² / C(4,2)) with α = 1/max R² (Eq. 8,
/// scale-invariant reading; see the .cc for rationale), and recommends
/// directed modeling iff S > θ. If no second-order DP correlates with the
/// profiles at all (max R² below a noise floor), S is defined as 0 —
/// directed topology without label signal cannot help directed models.
Result<AmudReport> ComputeAmud(const Digraph& graph,
                               const std::vector<int64_t>& labels,
                               int64_t num_classes,
                               const AmudOptions& options = {});

/// Convenience: applies the AMUD decision, returning either the graph
/// itself (kDirected) or its undirected transformation (kUndirected).
Digraph ApplyAmudDecision(const Digraph& graph, AmudDecision decision);

}  // namespace adpa


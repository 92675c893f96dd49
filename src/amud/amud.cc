#include "src/amud/amud.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/core/logging.h"
#include "src/core/random.h"
#include "src/core/strings.h"

namespace adpa {
namespace {

/// Phi coefficient of two binary variables from contingency counts:
///   x = 1[pair is pattern-connected], y = 1[pair endpoints share a label]
/// over the population of all ordered pairs u != v.
double PhiCoefficient(double total_pairs, double connected_pairs,
                      double same_label_pairs,
                      double connected_same_label_pairs) {
  const double n11 = connected_same_label_pairs;
  const double n1x = connected_pairs;
  const double nx1 = same_label_pairs;
  const double numerator = total_pairs * n11 - n1x * nx1;
  const double denominator = std::sqrt(n1x * (total_pairs - n1x)) *
                             std::sqrt(nx1 * (total_pairs - nx1));
  if (denominator < 1e-12) return 0.0;
  return numerator / denominator;
}

/// Ordered pairs u != v that an operator connects, and how many of them
/// share a label. Integer counts, so block partial sums are exact.
struct PairCounts {
  int64_t connected = 0;
  int64_t connected_same = 0;
};

/// Counts the pairs (u, v), u != v, stored nonzero in `first · rest`, or in
/// `first` itself when `rest` is null, without building the product: the
/// rows come from SparseMatrix::ForEachProductRow, so the counted set is
/// exactly the stored pattern of first.MultiplySparse(*rest, max_row_nnz).
/// `known` (empty = every node) restricts both endpoints. Counts are summed
/// per fixed row block and then in block order, so they do not depend on
/// the thread count.
PairCounts CountConnectedPairs(const SparseMatrix& first,
                               const SparseMatrix* rest, int64_t max_row_nnz,
                               const std::vector<int64_t>& labels,
                               const std::vector<uint8_t>& known) {
  const int64_t n = first.rows();
  constexpr int64_t kBlock = SparseMatrix::kProductRowBlock;
  std::vector<PairCounts> block_counts((n + kBlock - 1) / kBlock);
  const auto count_row = [&](int64_t block, int64_t u,
                             const std::vector<int64_t>& cols) {
    PairCounts& counts = block_counts[block];
    for (int64_t v : cols) {
      if (v == u || (!known.empty() && !known[v])) continue;
      ++counts.connected;
      counts.connected_same += labels[u] == labels[v];
    }
  };
  if (rest != nullptr) {
    first.ForEachProductRow(
        *rest, max_row_nnz, known,
        [&](int64_t block, int64_t u, const std::vector<int64_t>& cols,
            const std::vector<float>& /*values*/) {
          count_row(block, u, cols);
        });
  } else {
    // The operator's own stored nonzeros.
    std::vector<int64_t> cols;
    for (int64_t u = 0; u < n; ++u) {
      if (!known.empty() && !known[u]) continue;
      cols.clear();
      for (int64_t p = first.row_ptr()[u]; p < first.row_ptr()[u + 1]; ++p) {
        if (first.values()[p] != 0.0f) cols.push_back(first.col_idx()[p]);
      }
      count_row(u / kBlock, u, cols);
    }
  }
  PairCounts total;
  for (const PairCounts& counts : block_counts) {
    total.connected += counts.connected;
    total.connected_same += counts.connected_same;
  }
  return total;
}

/// r(G_d, N) of Eq. 4–7 for the pairs CountConnectedPairs counts, over the
/// ordered pairs of `known_idx` (every node when null).
double PairCorrelation(const SparseMatrix& first, const SparseMatrix* rest,
                       int64_t max_row_nnz, const std::vector<int64_t>& labels,
                       const std::vector<int64_t>* known_idx) {
  const int64_t n = first.rows();
  ADPA_CHECK_EQ(first.cols(), n);
  ADPA_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  const int64_t members =
      known_idx != nullptr ? static_cast<int64_t>(known_idx->size()) : n;
  if (members < 2) return 0.0;
  std::vector<uint8_t> known;
  if (known_idx != nullptr) {
    known.assign(n, 0);
    for (int64_t i : *known_idx) {
      ADPA_CHECK_GE(i, 0);
      ADPA_CHECK_LT(i, n);
      known[i] = 1;
    }
  }

  // Same-label ordered pairs: Σ_c n_c (n_c - 1).
  std::vector<int64_t> class_counts;
  for (int64_t i = 0; i < members; ++i) {
    const int64_t label = labels[known_idx != nullptr ? (*known_idx)[i] : i];
    ADPA_CHECK_GE(label, 0);
    if (label >= static_cast<int64_t>(class_counts.size())) {
      class_counts.resize(label + 1, 0);
    }
    ++class_counts[label];
  }
  double same_label_pairs = 0.0;
  for (int64_t count : class_counts) {
    same_label_pairs += static_cast<double>(count) * (count - 1);
  }

  const PairCounts counts =
      CountConnectedPairs(first, rest, max_row_nnz, labels, known);
  const double m = static_cast<double>(members);
  return PhiCoefficient(m * (m - 1.0), static_cast<double>(counts.connected),
                        same_label_pairs,
                        static_cast<double>(counts.connected_same));
}

/// r of one DP without materializing its reachability: the first hop's raw
/// operator times the rest of the word. For order 2 the rest is the raw
/// second-hop operator; for higher orders it is Reachability(word[1..]),
/// exactly the operand Reachability multiplies last, so capped counts match
/// Reachability(pattern, max_row_nnz) at every order.
double DirectedPatternCorrelation(const PatternSet& patterns,
                                  const DirectedPattern& pattern,
                                  const std::vector<int64_t>& labels,
                                  const std::vector<int64_t>* known_idx,
                                  int64_t max_row_nnz) {
  const auto raw = [&](Hop hop) -> const SparseMatrix& {
    return hop == Hop::kOut ? patterns.raw_out() : patterns.raw_in();
  };
  const SparseMatrix& first = raw(pattern.word.front());
  if (pattern.order() == 1) {
    return PairCorrelation(first, nullptr, 0, labels, known_idx);
  }
  DirectedPattern tail;
  tail.word.assign(pattern.word.begin() + 1, pattern.word.end());
  const SparseMatrix held = tail.order() > 1
                                ? patterns.Reachability(tail, max_row_nnz)
                                : SparseMatrix();
  const SparseMatrix& rest = tail.order() > 1 ? held : raw(tail.word[0]);
  return PairCorrelation(first, &rest, max_row_nnz, labels, known_idx);
}

}  // namespace

double PatternLabelCorrelation(const SparseMatrix& reachability,
                               const std::vector<int64_t>& labels) {
  return PairCorrelation(reachability, /*rest=*/nullptr, /*max_row_nnz=*/0,
                         labels, /*known_idx=*/nullptr);
}

double PatternLabelCorrelationMasked(const SparseMatrix& reachability,
                                     const std::vector<int64_t>& labels,
                                     const std::vector<int64_t>& known_idx) {
  return PairCorrelation(reachability, /*rest=*/nullptr, /*max_row_nnz=*/0,
                         labels, &known_idx);
}

Result<std::vector<DirectedPattern>> SelectPatternsByCorrelation(
    const Digraph& graph, const std::vector<int64_t>& labels,
    const std::vector<int64_t>& known_idx, int max_order, int keep,
    const AmudOptions& options) {
  if (max_order < 1) return Status::InvalidArgument("max_order must be >= 1");
  if (keep < 1) return Status::InvalidArgument("keep must be >= 1");
  if (known_idx.size() < 2) {
    return Status::FailedPrecondition(
        "DP selection needs at least two labeled nodes");
  }
  PatternSet patterns(graph.AdjacencyMatrix(), /*conv_r=*/0.5,
                      /*self_loops=*/false);
  std::vector<std::pair<double, DirectedPattern>> scored;
  for (const DirectedPattern& p : EnumeratePatterns(max_order)) {
    const double r = DirectedPatternCorrelation(patterns, p, labels,
                                                &known_idx, options.max_row_nnz);
    scored.emplace_back(r, p);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<DirectedPattern> selected;
  const int count = std::min<int>(keep, static_cast<int>(scored.size()));
  for (int i = 0; i < count; ++i) selected.push_back(scored[i].second);
  return selected;
}

double PatternLabelCorrelationSampled(const Digraph& graph,
                                      const DirectedPattern& pattern,
                                      const std::vector<int64_t>& labels,
                                      int64_t num_samples, Rng* rng) {
  ADPA_CHECK(rng != nullptr);
  ADPA_CHECK_GT(num_samples, 0);
  const int64_t n = graph.num_nodes();
  ADPA_CHECK_GE(n, 2);

  // Reachability probe: walk the pattern word from u collecting the frontier
  // (bounded breadth via sets) and test membership of v. For sampling we
  // instead materialize per-source frontiers lazily.
  PatternSet patterns(graph.AdjacencyMatrix(), /*conv_r=*/0.5,
                      /*self_loops=*/false);
  const SparseMatrix reach = patterns.Reachability(pattern);

  double connected = 0.0, same = 0.0, connected_same = 0.0;
  for (int64_t s = 0; s < num_samples; ++s) {
    const int64_t u = rng->UniformInt(n);
    int64_t v = rng->UniformInt(n - 1);
    if (v >= u) ++v;  // uniform over ordered pairs with u != v
    const bool is_connected = reach.At(u, v) != 0.0f;
    const bool is_same = labels[u] == labels[v];
    connected += is_connected;
    same += is_same;
    connected_same += is_connected && is_same;
  }
  return PhiCoefficient(static_cast<double>(num_samples), connected, same,
                        connected_same);
}

std::string AmudReport::ToString() const {
  std::ostringstream out;
  out << "AMUD score S = " << FormatDouble(score, 3) << " -> "
      << (decision == AmudDecision::kDirected ? "retain directed edges"
                                              : "undirected transformation")
      << "\n";
  for (const PatternCorrelation& c : correlations) {
    out << "  r(" << c.pattern.Name() << ", N) = " << FormatDouble(c.r, 4)
        << "  R^2 = " << FormatDouble(c.r_squared, 4) << "\n";
  }
  return out.str();
}

Result<AmudReport> ComputeAmud(const Digraph& graph,
                               const std::vector<int64_t>& labels,
                               int64_t num_classes,
                               const AmudOptions& options) {
  if (graph.num_nodes() < 2) {
    return Status::InvalidArgument("AMUD requires at least two nodes");
  }
  if (static_cast<int64_t>(labels.size()) != graph.num_nodes()) {
    return Status::InvalidArgument("labels size must equal num_nodes");
  }
  for (int64_t label : labels) {
    if (label < 0 || label >= num_classes) {
      return Status::OutOfRange("label out of range");
    }
  }
  if (graph.num_edges() == 0) {
    return Status::FailedPrecondition("AMUD requires a non-empty edge set");
  }

  PatternSet patterns(graph.AdjacencyMatrix(), /*conv_r=*/0.5,
                      /*self_loops=*/false);

  AmudReport report;
  // First-order operators, reported for inspection / DP selection.
  for (Hop hop : {Hop::kOut, Hop::kIn}) {
    DirectedPattern p{{hop}};
    const double r = DirectedPatternCorrelation(patterns, p, labels,
                                                nullptr, options.max_row_nnz);
    report.correlations.push_back({p, r, r * r});
  }
  // Second-order operators drive the Eq. (8) score.
  std::vector<double> second_order_r2;
  for (const DirectedPattern& p : SecondOrderPatterns()) {
    const double r = DirectedPatternCorrelation(patterns, p, labels,
                                                nullptr, options.max_row_nnz);
    report.correlations.push_back({p, r, r * r});
    second_order_r2.push_back(r * r);
  }

  // Eq. (8): S = α sqrt(Σ_{i≠j} ||R²_i − R²_j||² / C(4,2)), α = 1 / max R².
  // This is the scale-invariant reading of the paper's formula: the RMS
  // disparity among the four 2-order DP correlations, measured relative to
  // the strongest correlation. Equal correlations (direction carries no
  // extra label signal) give S ≈ 0; a split between strong and near-zero
  // patterns (direction-dependent structure) gives S ≈ 1.15.
  double max_r2 = 0.0;
  for (double r2 : second_order_r2) max_r2 = std::max(max_r2, r2);
  double disparity = 0.0;
  for (size_t i = 0; i < second_order_r2.size(); ++i) {
    for (size_t j = 0; j < second_order_r2.size(); ++j) {
      if (i == j) continue;
      const double diff = second_order_r2[i] - second_order_r2[j];
      disparity += diff * diff;
    }
  }
  constexpr double kPairCount = 6.0;  // C(4, 2)
  constexpr double kMinSignal = 1e-5;
  if (max_r2 < kMinSignal) {
    // No second-order operator correlates with the profiles at all:
    // directed topology carries no signal, recommend undirected modeling.
    report.score = 0.0;
  } else {
    report.score = std::sqrt(disparity / kPairCount) / max_r2;
  }
  report.decision = report.score > options.threshold
                        ? AmudDecision::kDirected
                        : AmudDecision::kUndirected;
  return report;
}

Digraph ApplyAmudDecision(const Digraph& graph, AmudDecision decision) {
  return decision == AmudDecision::kDirected ? graph : graph.ToUndirected();
}

}  // namespace adpa

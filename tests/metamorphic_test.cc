// Parity and metamorphic oracles for AMUD's pair counting. ComputeAmud and
// SelectPatternsByCorrelation count each directed pattern's connected pairs
// row by row without building its reachability matrix; these tests pin
// that count, bit for bit, to the materialized PatternSet::Reachability
// oracle, and check that the correlations move exactly as the definitions
// say under node relabelling, class renaming, edge reversal and full
// reciprocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "src/amud/amud.h"
#include "src/core/parallel.h"
#include "src/core/random.h"
#include "src/data/generators.h"

namespace adpa {
namespace {

constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr int64_t kCaps[] = {0, 8, 64};
constexpr int kThreadCounts[] = {1, 2, 8};
constexpr int64_t kClasses = 4;

/// Directed DSBM with a cyclic class progression: dense enough that a
/// two-hop row has more than 8 (often more than 64) entries, so every cap
/// actually cuts.
Dataset MakeGraph(uint64_t seed) {
  DsbmConfig config;
  config.num_nodes = 300;
  config.num_classes = kClasses;
  config.avg_out_degree = 9.0;
  config.class_transition = CyclicTransition(kClasses, 0.7, 0.1);
  config.feature_dim = 2;
  config.seed = seed;
  return std::move(GenerateDsbm(config)).value();
}

/// Every third-or-so node, a stand-in for a training split.
std::vector<int64_t> KnownNodes(int64_t n, uint64_t seed) {
  std::vector<int64_t> known;
  for (int64_t i = 0; i < n; ++i) {
    if ((i * 7 + static_cast<int64_t>(seed)) % 5 < 2) known.push_back(i);
  }
  return known;
}

std::vector<int64_t> AllNodes(int64_t n) {
  std::vector<int64_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

AmudReport Analyze(const Digraph& graph, const std::vector<int64_t>& labels,
                   int64_t cap = 0) {
  AmudOptions options;
  options.max_row_nnz = cap;
  return std::move(ComputeAmud(graph, labels, kClasses, options)).value();
}

double RFor(const AmudReport& report, const char* name) {
  for (const PatternCorrelation& c : report.correlations) {
    if (c.pattern.Name() == name) return c.r;
  }
  ADD_FAILURE() << "no pattern " << name;
  return 0.0;
}

class AmudParityTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(0); }
};

TEST_F(AmudParityTest, ComputeAmudMatchesMaterializedReachability) {
  for (uint64_t seed : kSeeds) {
    const Dataset ds = MakeGraph(seed);
    const PatternSet patterns(ds.graph.AdjacencyMatrix(), 0.5, false);
    for (int64_t cap : kCaps) {
      for (int threads : kThreadCounts) {
        SetNumThreads(threads);
        const AmudReport report = Analyze(ds.graph, ds.labels, cap);
        ASSERT_EQ(report.correlations.size(), 6u);
        for (const PatternCorrelation& c : report.correlations) {
          const double expected = PatternLabelCorrelation(
              patterns.Reachability(c.pattern, cap), ds.labels);
          EXPECT_TRUE(SameBits(c.r, expected))
              << c.pattern.Name() << " seed " << seed << " cap " << cap
              << " threads " << threads << ": " << c.r << " vs " << expected;
          EXPECT_TRUE(SameBits(c.r_squared, expected * expected));
        }
      }
    }
  }
}

// Selection reports only its ranking, so parity is checked on the full
// ranking (keep = every pattern up to order 3) against the one the
// materialized masked correlations give under the same stable sort. With
// every node known the masked count is the unmasked one.
TEST_F(AmudParityTest, SelectionMatchesMaterializedRanking) {
  constexpr int kMaxOrder = 3;
  const int num_patterns =
      static_cast<int>(EnumeratePatterns(kMaxOrder).size());
  for (uint64_t seed : kSeeds) {
    const Dataset ds = MakeGraph(seed);
    const PatternSet patterns(ds.graph.AdjacencyMatrix(), 0.5, false);
    for (const std::vector<int64_t>& known :
         {KnownNodes(ds.num_nodes(), seed), AllNodes(ds.num_nodes())}) {
      for (int64_t cap : kCaps) {
        std::vector<std::pair<double, DirectedPattern>> scored;
        for (const DirectedPattern& p : EnumeratePatterns(kMaxOrder)) {
          scored.emplace_back(
              PatternLabelCorrelationMasked(patterns.Reachability(p, cap),
                                            ds.labels, known),
              p);
        }
        std::stable_sort(scored.begin(), scored.end(),
                         [](const auto& a, const auto& b) {
                           return a.first > b.first;
                         });
        AmudOptions options;
        options.max_row_nnz = cap;
        for (int threads : kThreadCounts) {
          SetNumThreads(threads);
          const std::vector<DirectedPattern> ranking =
              std::move(SelectPatternsByCorrelation(ds.graph, ds.labels, known,
                                                    kMaxOrder, num_patterns,
                                                    options))
                  .value();
          ASSERT_EQ(ranking.size(), scored.size());
          for (size_t i = 0; i < ranking.size(); ++i) {
            EXPECT_EQ(ranking[i].Name(), scored[i].second.Name())
                << "rank " << i << " seed " << seed << " cap " << cap
                << " threads " << threads << " known " << known.size();
          }
        }
      }
    }
  }
}

// AᵀAᵀ = (AA)ᵀ and label agreement is symmetric, so the two patterns count
// the same pairs; likewise A and Aᵀ.
TEST(AmudMetamorphicTest, TransposedPatternsCorrelateIdentically) {
  for (uint64_t seed : kSeeds) {
    const Dataset ds = MakeGraph(seed);
    const AmudReport report = Analyze(ds.graph, ds.labels);
    EXPECT_TRUE(SameBits(RFor(report, "A"), RFor(report, "AT")));
    EXPECT_TRUE(SameBits(RFor(report, "A*A"), RFor(report, "AT*AT")));
  }
}

TEST(AmudMetamorphicTest, RelabellingNodesAndClassesChangesNothing) {
  for (uint64_t seed : kSeeds) {
    const Dataset ds = MakeGraph(seed);
    const int64_t n = ds.num_nodes();
    std::vector<int64_t> perm = AllNodes(n);
    Rng rng(seed + 100);
    rng.Shuffle(&perm);
    std::vector<Edge> edges;
    for (const Edge& e : ds.graph.edges()) {
      edges.push_back({perm[e.src], perm[e.dst]});
    }
    std::vector<int64_t> labels(n);
    for (int64_t u = 0; u < n; ++u) {
      labels[perm[u]] = (3 * ds.labels[u] + 1) % kClasses;  // a bijection
    }
    const AmudReport before = Analyze(ds.graph, ds.labels);
    const AmudReport after =
        Analyze(Digraph::CreateOrDie(n, std::move(edges)), labels);
    ASSERT_EQ(before.correlations.size(), after.correlations.size());
    for (size_t i = 0; i < before.correlations.size(); ++i) {
      EXPECT_TRUE(SameBits(before.correlations[i].r, after.correlations[i].r))
          << before.correlations[i].pattern.Name() << " seed " << seed;
    }
    EXPECT_TRUE(SameBits(before.score, after.score));
    EXPECT_EQ(before.decision, after.decision);
  }
}

TEST(AmudMetamorphicTest, ReversingEdgesSwapsPatterns) {
  for (uint64_t seed : kSeeds) {
    const Dataset ds = MakeGraph(seed);
    std::vector<Edge> reversed;
    for (const Edge& e : ds.graph.edges()) reversed.push_back({e.dst, e.src});
    const AmudReport forward = Analyze(ds.graph, ds.labels);
    const AmudReport backward = Analyze(
        Digraph::CreateOrDie(ds.num_nodes(), std::move(reversed)), ds.labels);
    const std::pair<const char*, const char*> swaps[] = {
        {"A", "AT"}, {"A*A", "AT*AT"}, {"A*AT", "AT*A"}};
    for (const auto& [p, q] : swaps) {
      EXPECT_TRUE(SameBits(RFor(forward, p), RFor(backward, q))) << p;
      EXPECT_TRUE(SameBits(RFor(forward, q), RFor(backward, p))) << q;
    }
    // S sums the same squared differences in another order.
    EXPECT_NEAR(forward.score, backward.score,
                1e-12 * std::max(1.0, std::fabs(forward.score)));
    EXPECT_EQ(forward.decision, backward.decision);
  }
}

TEST(AmudMetamorphicTest, ReciprocatedGraphHasEqualSecondOrderR2) {
  for (uint64_t seed : kSeeds) {
    const Dataset ds = MakeGraph(seed);
    EXPECT_EQ(Analyze(ds.graph, ds.labels).decision, AmudDecision::kDirected);
    const Digraph reciprocated = ds.graph.ToUndirected();
    ASSERT_TRUE(reciprocated.IsSymmetric());
    const AmudReport report = Analyze(reciprocated, ds.labels);
    std::vector<double> r2;
    for (const PatternCorrelation& c : report.correlations) {
      if (c.pattern.order() == 2) r2.push_back(c.r_squared);
    }
    ASSERT_EQ(r2.size(), 4u);
    for (double value : r2) EXPECT_TRUE(SameBits(value, r2[0]));
    EXPECT_EQ(report.decision, AmudDecision::kUndirected);
  }
}

}  // namespace
}  // namespace adpa

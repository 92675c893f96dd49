// AMUD framework tests: the Eq. (4-7) correlation, the Eq. (8) score, and
// the modeling guidance over constructed and calibrated graphs.

#include <gtest/gtest.h>

#include "src/amud/amud.h"
#include "src/core/random.h"
#include "src/data/benchmarks.h"
#include "src/data/generators.h"

namespace adpa {
namespace {

TEST(AmudCorrelationTest, PositiveWhenConnectionPredictsSameLabel) {
  // Reachability exactly equals "same label" -> phi well above zero.
  // Same-label pairs connected, cross pairs not.
  SparseMatrix reach = SparseMatrix::FromTriplets(
      4, 4, {{0, 1, 1.0f}, {1, 0, 1.0f}, {2, 3, 1.0f}, {3, 2, 1.0f}});
  const double r = PatternLabelCorrelation(reach, {0, 0, 1, 1});
  EXPECT_NEAR(r, 1.0, 1e-9);  // perfect agreement over all 12 ordered pairs
}

TEST(AmudCorrelationTest, NegativeWhenConnectionPredictsDifferentLabel) {
  SparseMatrix reach = SparseMatrix::FromTriplets(
      4, 4, {{0, 2, 1.0f}, {0, 3, 1.0f}, {1, 2, 1.0f}, {1, 3, 1.0f}});
  const double r = PatternLabelCorrelation(reach, {0, 0, 1, 1});
  EXPECT_NEAR(r, -0.5, 1e-6);  // exact phi for this contingency table
}

TEST(AmudCorrelationTest, ZeroWhenNoConnections) {
  SparseMatrix reach = SparseMatrix::FromTriplets(4, 4, {});
  EXPECT_DOUBLE_EQ(PatternLabelCorrelation(reach, {0, 0, 1, 1}), 0.0);
}

TEST(AmudCorrelationTest, DiagonalEntriesAreIgnored) {
  SparseMatrix with_diag = SparseMatrix::FromTriplets(
      4, 4, {{0, 0, 1.0f}, {1, 1, 1.0f}, {0, 1, 1.0f}, {1, 0, 1.0f},
             {2, 3, 1.0f}, {3, 2, 1.0f}});
  SparseMatrix without = SparseMatrix::FromTriplets(
      4, 4, {{0, 1, 1.0f}, {1, 0, 1.0f}, {2, 3, 1.0f}, {3, 2, 1.0f}});
  EXPECT_DOUBLE_EQ(PatternLabelCorrelation(with_diag, {0, 0, 1, 1}),
                   PatternLabelCorrelation(without, {0, 0, 1, 1}));
}

TEST(AmudCorrelationTest, MaskedIgnoresPairsWithAnUnknownEndpoint) {
  // Known {0, 1, 2}: 6 ordered pairs, 2 of them same-label (0<->1). The
  // entries 0->3 and 3->2 touch the unknown node 3 and must not count, so
  // the connected pairs are exactly the same-label ones: phi = 1.
  SparseMatrix reach = SparseMatrix::FromTriplets(
      4, 4, {{0, 1, 1.0f}, {1, 0, 1.0f}, {0, 3, 1.0f}, {3, 2, 1.0f}});
  EXPECT_NEAR(PatternLabelCorrelationMasked(reach, {0, 0, 1, 1}, {0, 1, 2}),
              1.0, 1e-12);
}

TEST(AmudCorrelationTest, SampledEstimatorAgreesWithExact) {
  DsbmConfig config;
  config.num_nodes = 300;
  config.num_classes = 4;
  config.avg_out_degree = 6.0;
  config.class_transition = CyclicTransition(4, 0.8, 0.1);
  config.feature_dim = 4;
  config.seed = 5;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  PatternSet patterns(ds.graph.AdjacencyMatrix(), 0.5, false);
  Rng rng(17);
  for (const DirectedPattern& p : SecondOrderPatterns()) {
    const double exact =
        PatternLabelCorrelation(patterns.Reachability(p), ds.labels);
    const double sampled = PatternLabelCorrelationSampled(
        ds.graph, p, ds.labels, /*num_samples=*/200000, &rng);
    EXPECT_NEAR(sampled, exact, 0.02) << p.Name();
  }
}

TEST(AmudScoreTest, InputValidation) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}});
  EXPECT_FALSE(ComputeAmud(g, {0, 1}, 2).ok());               // size mismatch
  EXPECT_FALSE(ComputeAmud(g, {0, 1, 5, 0}, 2).ok());         // label range
  Digraph empty = Digraph::CreateOrDie(4, {});
  EXPECT_FALSE(ComputeAmud(empty, {0, 1, 0, 1}, 2).ok());     // no edges
}

TEST(AmudScoreTest, ReportContainsSixPatternCorrelations) {
  Digraph g = Digraph::CreateOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  AmudReport report = std::move(ComputeAmud(g, {0, 1, 0, 1}, 2)).value();
  EXPECT_EQ(report.correlations.size(), 6u);  // A, AT + four 2-order DPs
  EXPECT_EQ(report.correlations[0].pattern.Name(), "A");
  EXPECT_EQ(report.correlations[1].pattern.Name(), "AT");
  for (const auto& c : report.correlations) {
    EXPECT_NEAR(c.r_squared, c.r * c.r, 1e-12);
  }
}

TEST(AmudScoreTest, SymmetricGraphScoresNearZero) {
  // On a symmetric graph all four 2-order reachabilities coincide exactly,
  // so the disparity — and the score — must vanish.
  DsbmConfig config;
  config.num_nodes = 400;
  config.num_classes = 3;
  config.avg_out_degree = 5.0;
  config.class_transition = HomophilousTransition(3, 0.7);
  config.reciprocal_prob = 1.0;
  config.feature_dim = 4;
  config.seed = 9;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, 3)).value();
  EXPECT_LT(report.score, 1e-6);
  EXPECT_EQ(report.decision, AmudDecision::kUndirected);
}

TEST(AmudScoreTest, CyclicClassProgressionScoresHigh) {
  // The paper's Fig. 3 situation: A·Aᵀ homophilous, A·A walks two classes
  // ahead. Disparity among 2-order DPs must push S above θ.
  DsbmConfig config;
  config.num_nodes = 500;
  config.num_classes = 5;
  config.avg_out_degree = 5.0;
  config.class_transition = CyclicTransition(5, 0.85, 0.05);
  config.feature_dim = 4;
  config.seed = 10;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, 5)).value();
  EXPECT_GT(report.score, 0.5);
  EXPECT_EQ(report.decision, AmudDecision::kDirected);
  // And the co-target pattern must be the homophilous one: r(A·Aᵀ) high.
  double r_aat = 0.0, r_aa = 0.0;
  for (const auto& c : report.correlations) {
    if (c.pattern.Name() == "A*AT") r_aat = c.r;
    if (c.pattern.Name() == "A*A") r_aa = c.r;
  }
  EXPECT_GT(r_aat, 0.1);
  EXPECT_LT(r_aa, r_aat);
}

TEST(AmudScoreTest, ThresholdIsConfigurable) {
  DsbmConfig config;
  config.num_nodes = 400;
  config.num_classes = 5;
  config.avg_out_degree = 5.0;
  config.class_transition = CyclicTransition(5, 0.85, 0.05);
  config.feature_dim = 4;
  config.seed = 12;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudOptions lenient;
  lenient.threshold = 1e9;  // nothing passes
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, 5, lenient)).value();
  EXPECT_EQ(report.decision, AmudDecision::kUndirected);
}

TEST(AmudScoreTest, RowCapApproximationStaysOnTheRightSide) {
  DsbmConfig config;
  config.num_nodes = 500;
  config.num_classes = 5;
  config.avg_out_degree = 8.0;
  config.class_transition = CyclicTransition(5, 0.8, 0.1);
  config.feature_dim = 4;
  config.seed = 13;
  Dataset ds = std::move(GenerateDsbm(config)).value();
  AmudOptions capped;
  capped.max_row_nnz = 64;
  AmudReport exact = std::move(ComputeAmud(ds.graph, ds.labels, 5)).value();
  AmudReport approx =
      std::move(ComputeAmud(ds.graph, ds.labels, 5, capped)).value();
  EXPECT_EQ(exact.decision, approx.decision);
}

TEST(AmudDecisionTest, ApplyDecisionTransformsGraph) {
  Digraph g = Digraph::CreateOrDie(3, {{0, 1}, {1, 2}});
  Digraph kept = ApplyAmudDecision(g, AmudDecision::kDirected);
  EXPECT_EQ(kept.num_edges(), 2);
  EXPECT_FALSE(kept.IsSymmetric());
  Digraph undirected = ApplyAmudDecision(g, AmudDecision::kUndirected);
  EXPECT_TRUE(undirected.IsSymmetric());
  EXPECT_EQ(undirected.num_edges(), 4);
}

// Calibration property: every registry dataset must reproduce the paper's
// U-/D- guidance (Table II), including the two "abnormal" heterophilous
// cases Actor and Amazon-rating.
class RegistryAmudTest : public ::testing::TestWithParam<int> {};

TEST_P(RegistryAmudTest, DecisionMatchesPaper) {
  const BenchmarkSpec& spec = BenchmarkSuite()[GetParam()];
  Dataset ds = std::move(BuildBenchmark(spec, /*seed=*/0)).value();
  AmudReport report =
      std::move(ComputeAmud(ds.graph, ds.labels, ds.num_classes)).value();
  EXPECT_EQ(report.decision, spec.expect_directed
                                 ? AmudDecision::kDirected
                                 : AmudDecision::kUndirected)
      << spec.name << " S=" << report.score;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RegistryAmudTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return BenchmarkSuite()[info.param].name;
                         });

}  // namespace
}  // namespace adpa

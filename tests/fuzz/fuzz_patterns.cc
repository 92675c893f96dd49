// Fuzz target: PatternSet construction and application on arbitrary small
// digraphs.
//
// Invariants under test:
//  * PatternSet construction (degree normalization with conv_r exponents,
//    optional self loops) is total over every valid adjacency, including
//    isolated nodes, empty graphs, self-edges, and single-node graphs;
//  * Apply/ApplyHop/Reachability never crash or trip ASan/UBSan;
//    Reachability honors its row fill-in cap on every product (order >= 2),
//    and of an order-1 pattern is exactly raw_out()/raw_in(), uncapped;
//  * AMUD's row-by-row pair count agrees with the materialized oracle bit
//    for bit: over fuzzed labels, at caps 8 and 0, every ComputeAmud r of
//    EnumeratePatterns(2) equals PatternLabelCorrelation of
//    Reachability(pattern, cap), and over a fuzzed known mask the DP
//    selection ranking equals the one the materialized masked r gives.
//
// The adjacency is built from fuzz-derived edges reduced mod n, deduped
// via FromTriplets' coalescing, so every byte string maps to a valid graph
// — the structure space (not the validator) is what's being explored here.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/amud/amud.h"
#include "src/graph/digraph.h"
#include "src/graph/patterns.h"
#include "src/graph/sparse_matrix.h"
#include "src/tensor/matrix.h"
#include "tests/fuzz/fuzz_util.h"

using adpa::AmudOptions;
using adpa::AmudReport;
using adpa::Digraph;
using adpa::DirectedPattern;
using adpa::Hop;
using adpa::Matrix;
using adpa::PatternSet;
using adpa::SparseMatrix;
using adpa::Triplet;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  adpa::fuzz::Input in(data, size);
  const int64_t n = in.TakeInRange(1, 24);
  const int64_t num_edges = in.TakeInRange(0, 64);
  const double conv_r = static_cast<double>(in.TakeInRange(0, 4)) / 4.0;
  const bool self_loops = (in.TakeByte() & 1) != 0;

  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(num_edges));
  for (int64_t i = 0; i < num_edges; ++i) {
    const int64_t src = in.TakeInRange(0, n - 1);
    const int64_t dst = in.TakeInRange(0, n - 1);
    triplets.push_back({src, dst, 1.0f});
  }
  const SparseMatrix adjacency = SparseMatrix::FromTriplets(n, n, triplets);
  const PatternSet patterns(adjacency, conv_r, self_loops);

  const Matrix x(n, 2, 0.25f);
  double checksum = 0.0;
  for (const DirectedPattern& pattern : adpa::EnumeratePatterns(2)) {
    const Matrix propagated = patterns.Apply(pattern, x);
    checksum += propagated.At(0, 0);
    const SparseMatrix reach =
        patterns.Reachability(pattern, /*max_row_nnz=*/8);
    if (pattern.order() == 1) {
      // An order-1 pattern is the uncapped raw operator, stored zeros and all.
      const SparseMatrix& hop = pattern.word[0] == Hop::kOut
                                    ? patterns.raw_out()
                                    : patterns.raw_in();
      if (reach.row_ptr() != hop.row_ptr() ||
          reach.col_idx() != hop.col_idx() || reach.values() != hop.values()) {
        __builtin_trap();  // order 1 is not the raw operator
      }
      continue;
    }
    const std::vector<int64_t>& reach_ptr = reach.row_ptr();
    for (int64_t r = 0; r < reach.rows(); ++r) {
      if (reach_ptr[r + 1] - reach_ptr[r] > 8) {
        __builtin_trap();  // fill-in cap violated
      }
    }
  }
  const Matrix out_hop = patterns.ApplyHop(Hop::kOut, x);
  const Matrix in_hop = patterns.ApplyHop(Hop::kIn, x);
  checksum += out_hop.At(n - 1, 0) + in_hop.At(n - 1, 1);
  if (checksum > 1e300) __builtin_trap();  // keep the pipeline observable

  // AMUD parity on the same edges, minus self loops (a Digraph has none).
  const int64_t num_classes = in.TakeInRange(1, 4);
  std::vector<int64_t> labels(static_cast<size_t>(n));
  std::vector<int64_t> known_idx;
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t byte = in.TakeByte();
    labels[i] = byte % num_classes;
    if ((byte & 0x80) != 0) known_idx.push_back(i);
  }
  std::vector<adpa::Edge> edges;
  for (const Triplet& t : triplets) {
    if (t.row != t.col) edges.push_back({t.row, t.col});
  }
  const Digraph graph = Digraph::CreateOrDie(n, std::move(edges));
  if (n < 2 || graph.num_edges() == 0) return 0;
  const PatternSet raw(graph.AdjacencyMatrix(), /*conv_r=*/0.5,
                       /*self_loops=*/false);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (int64_t cap : {8, 0}) {
    AmudOptions options;
    options.max_row_nnz = cap;
    adpa::Result<AmudReport> report =
        adpa::ComputeAmud(graph, labels, num_classes, options);
    if (!report.ok()) __builtin_trap();
    for (const DirectedPattern& pattern : adpa::EnumeratePatterns(2)) {
      const auto it = std::find_if(
          report->correlations.begin(), report->correlations.end(),
          [&](const adpa::PatternCorrelation& c) {
            return c.pattern == pattern;
          });
      if (it == report->correlations.end()) __builtin_trap();
      const double expected = adpa::PatternLabelCorrelation(
          raw.Reachability(pattern, cap), labels);
      if (!same_bits(it->r, expected)) __builtin_trap();
    }
    if (known_idx.size() < 2) continue;
    std::vector<std::pair<double, DirectedPattern>> scored;
    for (const DirectedPattern& pattern : adpa::EnumeratePatterns(2)) {
      scored.emplace_back(
          adpa::PatternLabelCorrelationMasked(raw.Reachability(pattern, cap),
                                              labels, known_idx),
          pattern);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    adpa::Result<std::vector<DirectedPattern>> ranking =
        adpa::SelectPatternsByCorrelation(graph, labels, known_idx,
                                          /*max_order=*/2,
                                          static_cast<int>(scored.size()),
                                          options);
    if (!ranking.ok() || ranking->size() != scored.size()) __builtin_trap();
    for (size_t i = 0; i < scored.size(); ++i) {
      if (!((*ranking)[i] == scored[i].second)) __builtin_trap();
    }
  }
  return 0;
}

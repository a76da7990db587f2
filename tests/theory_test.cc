// Executable checks of the paper's theory results (§2): the MAX-k-COVER
// reduction gadget behind Theorem 1, the Lemma 1 counterexample, the
// characterization observations, and Observation 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "baselines/exact.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace {

// ---------------------------------------------------------------- Theorem 1

// The Figure 1 gadget: s -> S_i (candidate edges, prob 1) -> u_j (prob 1 iff
// u_j in S_i) -> t (prob p). After adding k set-edges covering q elements,
// R(s, t) = 1 - (1 - p)^q — so maximizing reliability IS MAX-k-COVER.
struct ReductionGadget {
  UncertainGraph graph = UncertainGraph::Directed(0);
  NodeId s = 0;
  NodeId t = 0;
  std::vector<NodeId> set_nodes;
  std::vector<Edge> candidates;  // the s -> S_i edges

  ReductionGadget(const std::vector<std::set<int>>& sets, int num_elements,
                  double p) {
    const NodeId n = static_cast<NodeId>(2 + sets.size() + num_elements);
    graph = UncertainGraph::Directed(n);
    s = 0;
    t = n - 1;
    for (size_t i = 0; i < sets.size(); ++i) {
      set_nodes.push_back(static_cast<NodeId>(1 + i));
    }
    const NodeId element_base = static_cast<NodeId>(1 + sets.size());
    for (int u = 0; u < num_elements; ++u) {
      EXPECT_TRUE(graph.AddEdge(element_base + u, t, p).ok());
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      for (int u : sets[i]) {
        EXPECT_TRUE(graph.AddEdge(set_nodes[i], element_base + u, 1.0).ok());
      }
      candidates.push_back({s, set_nodes[i], 1.0});
    }
  }
};

TEST(Theorem1Test, GadgetReliabilityCountsCoveredElements) {
  // S1 = {0,1}, S2 = {1,2}, S3 = {3}; p = 0.4.
  const ReductionGadget gadget({{0, 1}, {1, 2}, {3}}, 4, 0.4);
  // Adding S1 and S2 covers q = 3 elements: R = 1 - 0.6^3.
  UncertainGraph g = gadget.graph;
  ASSERT_TRUE(g.AddEdge(gadget.candidates[0].src, gadget.candidates[0].dst,
                        1.0)
                  .ok());
  ASSERT_TRUE(g.AddEdge(gadget.candidates[1].src, gadget.candidates[1].dst,
                        1.0)
                  .ok());
  EXPECT_NEAR(ExactReliabilityFactoring(g, gadget.s, gadget.t).value(),
              1.0 - 0.6 * 0.6 * 0.6, 1e-12);
}

TEST(Theorem1Test, OptimalEdgesSolveMaxCover) {
  // Ground set {0..4}; optimal 2-cover is {S1, S3} covering all 5.
  const std::vector<std::set<int>> sets = {{0, 1, 2}, {1, 2}, {3, 4}, {4}};
  const ReductionGadget gadget(sets, 5, 0.3);
  SolverOptions options;
  options.budget_k = 2;
  options.num_samples = 2000;
  options.seed = 3;
  auto chosen = SelectExact(gadget.graph, gadget.s, gadget.t,
                            gadget.candidates, options);
  ASSERT_TRUE(chosen.ok());
  std::set<NodeId> picked;
  for (const Edge& e : *chosen) picked.insert(e.dst);
  EXPECT_EQ(picked,
            (std::set<NodeId>{gadget.set_nodes[0], gadget.set_nodes[2]}));
}

// ----------------------------------------------------------------- Lemma 1

// Figure 2: V = {s, A, t}, all probabilities 0.5. f(E') := R(s, t) with
// edge set E'.
double Fig2Reliability(bool st, bool sa, bool at) {
  UncertainGraph g = UncertainGraph::Directed(3);
  if (st) {
    EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  }
  if (sa) {
    EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  }
  if (at) {
    EXPECT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  }
  return ExactReliabilityFactoring(g, 0, 2).value();
}

TEST(Lemma1Test, NotSubmodular) {
  // X = {st} ⊆ Y = {st, sA}, x = At:
  // f(X ∪ x) - f(X) = 0; f(Y ∪ x) - f(Y) = 0.125 > 0.
  const double fx = Fig2Reliability(true, false, false);
  const double fxx = Fig2Reliability(true, false, true);
  const double fy = Fig2Reliability(true, true, false);
  const double fyx = Fig2Reliability(true, true, true);
  EXPECT_NEAR(fx, 0.5, 1e-12);
  EXPECT_NEAR(fxx, 0.5, 1e-12);
  EXPECT_NEAR(fy, 0.5, 1e-12);
  EXPECT_NEAR(fyx, 0.625, 1e-12);
  EXPECT_LT(fxx - fx, fyx - fy);  // submodularity would require >=
}

TEST(Lemma1Test, NotSupermodular) {
  // X' = {sA} ⊆ Y' = {sA, st}, x = At:
  // f(X' ∪ x) - f(X') = 0.25; f(Y' ∪ x) - f(Y') = 0.125.
  const double fx = Fig2Reliability(false, true, false);
  const double fxx = Fig2Reliability(false, true, true);
  const double fy = Fig2Reliability(true, true, false);
  const double fyx = Fig2Reliability(true, true, true);
  EXPECT_NEAR(fxx - fx, 0.25, 1e-12);
  EXPECT_NEAR(fyx - fy, 0.125, 1e-12);
  EXPECT_GT(fxx - fx, fyx - fy);  // supermodularity would require <=
}

// ----------------------------------------------------------- Observations

// Figure 3 (undirected): edges AB, At at prob alpha; candidates sA, sB, Bt
// at prob zeta. Enumerate optimal subsets exactly.
std::set<std::string> OptimalFig3Solution(double alpha, double zeta, int k) {
  UncertainGraph base = UncertainGraph::Undirected(4);
  const NodeId s = 0, a = 1, b = 2, t = 3;
  EXPECT_TRUE(base.AddEdge(a, b, alpha).ok());
  EXPECT_TRUE(base.AddEdge(a, t, alpha).ok());
  const std::vector<std::pair<std::string, Edge>> candidates = {
      {"sA", {s, a, zeta}}, {"sB", {s, b, zeta}}, {"Bt", {b, t, zeta}}};

  std::set<std::string> best;
  double best_reliability = -1.0;
  for (uint32_t mask = 0; mask < 8; ++mask) {
    if (__builtin_popcount(mask) != k) continue;
    UncertainGraph g = base;
    std::set<std::string> names;
    for (int i = 0; i < 3; ++i) {
      if ((mask >> i) & 1) {
        EXPECT_TRUE(
            g.AddEdge(candidates[i].second.src, candidates[i].second.dst,
                      candidates[i].second.prob)
                .ok());
        names.insert(candidates[i].first);
      }
    }
    const double reliability = ExactReliabilityFactoring(g, s, t).value();
    if (reliability > best_reliability) {
      best_reliability = reliability;
      best = names;
    }
  }
  return best;
}

TEST(ObservationsTest, Obs1OptimumDependsOnZeta) {
  // Same alpha, different zeta -> different optimal set.
  EXPECT_EQ(OptimalFig3Solution(0.5, 0.7, 2),
            (std::set<std::string>{"sB", "Bt"}));
  EXPECT_EQ(OptimalFig3Solution(0.5, 0.3, 2),
            (std::set<std::string>{"sA", "sB"}));
}

TEST(ObservationsTest, Obs2OptimumDependsOnExistingProbabilities) {
  // Same zeta, different alpha -> different optimal set.
  EXPECT_EQ(OptimalFig3Solution(0.5, 0.7, 2),
            (std::set<std::string>{"sB", "Bt"}));
  EXPECT_EQ(OptimalFig3Solution(0.9, 0.7, 2),
            (std::set<std::string>{"sA", "sB"}));
}

TEST(ObservationsTest, Obs3SmallerBudgetNotNested) {
  // k = 1 optimum {sA} is NOT a subset of the k = 2 optimum {sB, Bt}.
  const auto k1 = OptimalFig3Solution(0.5, 0.7, 1);
  const auto k2 = OptimalFig3Solution(0.5, 0.7, 2);
  EXPECT_EQ(k1, (std::set<std::string>{"sA"}));
  EXPECT_EQ(k2, (std::set<std::string>{"sB", "Bt"}));
  EXPECT_FALSE(std::includes(k2.begin(), k2.end(), k1.begin(), k1.end()));
}

// Observation 4, property-tested: on random graphs where the direct st edge
// is addable, no single alternative edge beats it.
class Observation4Sweep : public testing::TestWithParam<int> {};

TEST_P(Observation4Sweep, DirectEdgeDominatesAnySingleAddition) {
  Rng rng(7000 + GetParam());
  const NodeId n = static_cast<NodeId>(rng.NextInt(4, 7));
  UncertainGraph g = GetParam() % 2 == 0 ? UncertainGraph::Directed(n)
                                         : UncertainGraph::Undirected(n);
  const NodeId s = 0;
  const NodeId t = n - 1;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if ((u == s && v == t) || (!g.directed() && u == t && v == s)) continue;
      if (rng.NextBernoulli(0.4)) {
        ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.1, 0.9)).ok());
      }
    }
  }
  const double zeta = rng.NextDouble(0.2, 0.9);
  const UncertainGraph with_st = [&] {
    UncertainGraph copy = g;
    EXPECT_TRUE(copy.AddEdge(s, t, zeta).ok());
    return copy;
  }();
  const double st_reliability =
      ExactReliabilityFactoring(with_st, s, t).value();

  for (const Edge& e : AllMissingEdges(g, zeta, -1)) {
    UncertainGraph copy = g;
    ASSERT_TRUE(copy.AddEdge(e.src, e.dst, zeta).ok());
    const double alt = ExactReliabilityFactoring(copy, s, t).value();
    EXPECT_LE(alt, st_reliability + 1e-12)
        << "edge (" << e.src << ", " << e.dst << ") beats direct st";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Observation4Sweep, testing::Range(0, 10));

}  // namespace
}  // namespace relmax

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace {

// Closed-form sanity cases ---------------------------------------------------

TEST(ExactReliabilityTest, SingleEdge) {
  UncertainGraph g = UncertainGraph::Directed(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.3).ok());
  EXPECT_NEAR(ExactReliabilityBruteForce(g, 0, 1).value(), 0.3, 1e-12);
  EXPECT_NEAR(ExactReliabilityFactoring(g, 0, 1).value(), 0.3, 1e-12);
}

TEST(ExactReliabilityTest, SourceEqualsTarget) {
  UncertainGraph g = UncertainGraph::Directed(2);
  EXPECT_DOUBLE_EQ(ExactReliabilityBruteForce(g, 1, 1).value(), 1.0);
  EXPECT_DOUBLE_EQ(ExactReliabilityFactoring(g, 1, 1).value(), 1.0);
}

TEST(ExactReliabilityTest, Disconnected) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  EXPECT_DOUBLE_EQ(ExactReliabilityBruteForce(g, 0, 2).value(), 0.0);
  EXPECT_DOUBLE_EQ(ExactReliabilityFactoring(g, 0, 2).value(), 0.0);
}

TEST(ExactReliabilityTest, SeriesPath) {
  // R = p1 * p2 for a 2-edge chain.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.4).ok());
  EXPECT_NEAR(ExactReliabilityBruteForce(g, 0, 2).value(), 0.2, 1e-12);
  EXPECT_NEAR(ExactReliabilityFactoring(g, 0, 2).value(), 0.2, 1e-12);
}

TEST(ExactReliabilityTest, ParallelEdgesViaTwoRoutes) {
  // Two disjoint 1-hop routes s->a->t and s->b->t:
  // R = 1 - (1 - pa1*pa2)(1 - pb1*pb2).
  UncertainGraph g = UncertainGraph::Directed(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.6).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.7).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.8).ok());
  const double expected = 1.0 - (1.0 - 0.3) * (1.0 - 0.56);
  EXPECT_NEAR(ExactReliabilityBruteForce(g, 0, 3).value(), expected, 1e-12);
  EXPECT_NEAR(ExactReliabilityFactoring(g, 0, 3).value(), expected, 1e-12);
}

TEST(ExactReliabilityTest, UndirectedBridge) {
  // Undirected triangle s-a, a-t, s-t: R = 1-(1-p_st)(1-p_sa*p_at).
  UncertainGraph g = UncertainGraph::Undirected(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  const double expected = 1.0 - (1.0 - 0.5) * (1.0 - 0.25);
  EXPECT_NEAR(ExactReliabilityBruteForce(g, 0, 2).value(), expected, 1e-12);
  EXPECT_NEAR(ExactReliabilityFactoring(g, 0, 2).value(), expected, 1e-12);
}

TEST(ExactReliabilityTest, DeterministicEdgesShortCircuit) {
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.0).ok());
  EXPECT_DOUBLE_EQ(ExactReliabilityBruteForce(g, 0, 1).value(), 1.0);
  EXPECT_DOUBLE_EQ(ExactReliabilityBruteForce(g, 0, 2).value(), 0.0);
  EXPECT_DOUBLE_EQ(ExactReliabilityFactoring(g, 0, 2).value(), 0.0);
}

// Paper examples --------------------------------------------------------------

// Figure 2 graph: V = {s, A, t}; edges st (0.5), sA (0.5), At (0.5); the
// Lemma 1 counterexample values.
TEST(ExactReliabilityTest, PaperFigure2Values) {
  const NodeId s = 0;
  const NodeId a = 1;
  const NodeId t = 2;
  {
    // X = {st}: R = 0.5.
    UncertainGraph g = UncertainGraph::Directed(3);
    ASSERT_TRUE(g.AddEdge(s, t, 0.5).ok());
    EXPECT_NEAR(ExactReliabilityFactoring(g, s, t).value(), 0.5, 1e-12);
  }
  {
    // X ∪ {At} = {st, At}: still 0.5 (At alone is useless).
    UncertainGraph g = UncertainGraph::Directed(3);
    ASSERT_TRUE(g.AddEdge(s, t, 0.5).ok());
    ASSERT_TRUE(g.AddEdge(a, t, 0.5).ok());
    EXPECT_NEAR(ExactReliabilityFactoring(g, s, t).value(), 0.5, 1e-12);
  }
  {
    // Y ∪ {At} = {st, sA, At}: 1 - (1-0.5)(1-0.25) = 0.625.
    UncertainGraph g = UncertainGraph::Directed(3);
    ASSERT_TRUE(g.AddEdge(s, t, 0.5).ok());
    ASSERT_TRUE(g.AddEdge(s, a, 0.5).ok());
    ASSERT_TRUE(g.AddEdge(a, t, 0.5).ok());
    EXPECT_NEAR(ExactReliabilityFactoring(g, s, t).value(), 0.625, 1e-12);
  }
  {
    // X' ∪ {At} = {sA, At}: 0.25.
    UncertainGraph g = UncertainGraph::Directed(3);
    ASSERT_TRUE(g.AddEdge(s, a, 0.5).ok());
    ASSERT_TRUE(g.AddEdge(a, t, 0.5).ok());
    EXPECT_NEAR(ExactReliabilityFactoring(g, s, t).value(), 0.25, 1e-12);
  }
}

// Table 2 solutions on the Figure 3 graph: nodes {s, A, B, t}, existing
// edges AB and At with probability alpha; candidate solutions add edges with
// probability zeta.
double Figure3Reliability(double alpha, double zeta, bool add_sa, bool add_sb,
                          bool add_bt) {
  // The paper's closed forms for this example treat edges as undirected
  // (e.g. solution {sA, sB} uses the walk s-B-A-t across edge AB).
  UncertainGraph g = UncertainGraph::Undirected(4);
  const NodeId s = 0;
  const NodeId a = 1;
  const NodeId b = 2;
  const NodeId t = 3;
  EXPECT_TRUE(g.AddEdge(a, b, alpha).ok());
  EXPECT_TRUE(g.AddEdge(a, t, alpha).ok());
  if (add_sa) {
    EXPECT_TRUE(g.AddEdge(s, a, zeta).ok());
  }
  if (add_sb) {
    EXPECT_TRUE(g.AddEdge(s, b, zeta).ok());
  }
  if (add_bt) {
    EXPECT_TRUE(g.AddEdge(b, t, zeta).ok());
  }
  return ExactReliabilityFactoring(g, s, t).value();
}

TEST(ExactReliabilityTest, PaperTable2Row1) {
  // alpha = 0.5, zeta = 0.7.
  EXPECT_NEAR(Figure3Reliability(0.5, 0.7, true, true, false), 0.403, 6e-4);
  EXPECT_NEAR(Figure3Reliability(0.5, 0.7, true, false, true), 0.473, 6e-4);
  EXPECT_NEAR(Figure3Reliability(0.5, 0.7, false, true, true), 0.543, 6e-4);
}

TEST(ExactReliabilityTest, PaperTable2Row2) {
  // alpha = 0.5, zeta = 0.3: optimal flips to {sA, sB}.
  EXPECT_NEAR(Figure3Reliability(0.5, 0.3, true, true, false), 0.203, 6e-4);
  EXPECT_NEAR(Figure3Reliability(0.5, 0.3, true, false, true), 0.173, 6e-4);
  EXPECT_NEAR(Figure3Reliability(0.5, 0.3, false, true, true), 0.143, 6e-4);
}

TEST(ExactReliabilityTest, PaperTable2Row3) {
  // alpha = 0.9, zeta = 0.7.
  EXPECT_NEAR(Figure3Reliability(0.9, 0.7, true, true, false), 0.800, 6e-4);
  EXPECT_NEAR(Figure3Reliability(0.9, 0.7, true, false, true), 0.674, 6e-4);
  EXPECT_NEAR(Figure3Reliability(0.9, 0.7, false, true, true), 0.660, 6e-4);
}

// Agreement between the two exact methods on random graphs -------------------

TEST(ExactReliabilityTest, BruteForceMatchesFactoringOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.NextInt(3, 7));
    UncertainGraph g = trial % 2 == 0 ? UncertainGraph::Directed(n)
                                      : UncertainGraph::Undirected(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        if (rng.NextBernoulli(0.4)) {
          ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
        }
      }
    }
    if (g.num_edges() > 18) continue;  // keep brute force fast
    const NodeId s = 0;
    const NodeId t = n - 1;
    auto brute = ExactReliabilityBruteForce(g, s, t, 18);
    auto factored = ExactReliabilityFactoring(g, s, t);
    ASSERT_TRUE(brute.ok());
    ASSERT_TRUE(factored.ok());
    EXPECT_NEAR(brute.value(), factored.value(), 1e-10)
        << "trial " << trial << " n=" << n << " m=" << g.num_edges();
  }
}

// Guard rails -----------------------------------------------------------------

TEST(ExactReliabilityTest, RefusesLargeGraphs) {
  UncertainGraph g = UncertainGraph::Directed(40);
  for (NodeId i = 0; i + 1 < 40; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 1, 0.5).ok());
  }
  EXPECT_EQ(ExactReliabilityBruteForce(g, 0, 39, 24).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExactReliabilityFactoring(g, 0, 39, 24).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExactReliabilityTest, RejectsOutOfRangeQuery) {
  UncertainGraph g = UncertainGraph::Directed(2);
  EXPECT_EQ(ExactReliabilityBruteForce(g, 0, 5).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ExactReliabilityFactoring(g, 5, 0).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace relmax

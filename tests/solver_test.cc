#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/solver.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace {

// Small two-cluster graph: a dense cluster around s and one around t, joined
// by a single weak bridge — plenty of room for useful shortcut edges.
UncertainGraph TwoClusters(uint64_t seed = 3) {
  Rng rng(seed);
  UncertainGraph g = UncertainGraph::Undirected(12);
  auto connect_cluster = [&](NodeId lo, NodeId hi) {
    for (NodeId u = lo; u < hi; ++u) {
      for (NodeId v = u + 1; v <= hi; ++v) {
        if (rng.NextBernoulli(0.8)) {
          (void)g.AddEdge(u, v, rng.NextDouble(0.4, 0.8));
        }
      }
    }
  };
  connect_cluster(0, 5);
  connect_cluster(6, 11);
  EXPECT_TRUE(g.AddEdge(5, 6, 0.15).ok());  // weak bridge
  return g;
}

SolverOptions FastOptions(int k = 3) {
  SolverOptions options;
  options.budget_k = k;
  options.zeta = 0.5;
  options.top_r = 12;
  options.top_l = 15;
  options.hop_h = -1;
  options.elimination_samples = 400;
  options.num_samples = 400;
  options.seed = 21;
  return options;
}

TEST(SolverTest, ImprovesReliabilityWithinBudget) {
  const UncertainGraph g = TwoClusters();
  for (CoreMethod method :
       {CoreMethod::kBatchEdges, CoreMethod::kIndividualPaths,
        CoreMethod::kMostReliablePath}) {
    auto solution = MaximizeReliability(g, 0, 11, FastOptions(), method);
    ASSERT_TRUE(solution.ok()) << CoreMethodName(method);
    EXPECT_LE(solution->added_edges.size(), 3u) << CoreMethodName(method);
    EXPECT_FALSE(solution->added_edges.empty()) << CoreMethodName(method);
    EXPECT_GT(solution->gain(), 0.05) << CoreMethodName(method);
    for (const Edge& e : solution->added_edges) {
      EXPECT_FALSE(g.HasEdge(e.src, e.dst));
      EXPECT_DOUBLE_EQ(e.prob, 0.5);
    }
  }
}

TEST(SolverTest, DeterministicForFixedSeed) {
  const UncertainGraph g = TwoClusters();
  auto a = MaximizeReliability(g, 0, 11, FastOptions());
  auto b = MaximizeReliability(g, 0, 11, FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->added_edges.size(), b->added_edges.size());
  for (size_t i = 0; i < a->added_edges.size(); ++i) {
    EXPECT_EQ(a->added_edges[i].src, b->added_edges[i].src);
    EXPECT_EQ(a->added_edges[i].dst, b->added_edges[i].dst);
  }
  EXPECT_DOUBLE_EQ(a->reliability_after, b->reliability_after);
}

TEST(SolverTest, DistinctEdgesNoDuplicates) {
  const UncertainGraph g = TwoClusters();
  auto solution = MaximizeReliability(g, 0, 11, FastOptions(5));
  ASSERT_TRUE(solution.ok());
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : solution->added_edges) {
    const auto key = std::minmax(e.src, e.dst);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second);
  }
}

// Observation 4: when the direct st edge is allowed, the top-k solution
// includes it (it dominates any alternative use of one budget slot here).
TEST(SolverTest, Observation4DirectEdgeChosen) {
  UncertainGraph g = UncertainGraph::Undirected(6);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.4).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.4).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.4).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 0.4).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 0.4).ok());
  SolverOptions options = FastOptions(1);
  options.top_r = 6;
  auto solution = MaximizeReliability(g, 0, 5, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->added_edges.size(), 1u);
  const Edge& e = solution->added_edges[0];
  EXPECT_TRUE((e.src == 0 && e.dst == 5) || (e.src == 5 && e.dst == 0));
}

TEST(SolverTest, StatsArePopulated) {
  const UncertainGraph g = TwoClusters();
  auto solution = MaximizeReliability(g, 0, 11, FastOptions());
  ASSERT_TRUE(solution.ok());
  EXPECT_GT(solution->stats.candidate_edges, 0u);
  EXPECT_GT(solution->stats.paths_considered, 0u);
  EXPECT_GE(solution->stats.total_seconds,
            solution->stats.selection_seconds);
  EXPECT_GT(solution->stats.peak_rss_bytes, 0u);
}

TEST(SolverTest, HonorsRssEstimator) {
  const UncertainGraph g = TwoClusters();
  SolverOptions options = FastOptions();
  options.estimator = Estimator::kRss;
  options.num_samples = 200;
  options.elimination_samples = 200;
  auto solution = MaximizeReliability(g, 0, 11, options);
  ASSERT_TRUE(solution.ok());
  EXPECT_GT(solution->gain(), 0.0);
}

TEST(SolverTest, DegenerateAndInvalidQueries) {
  const UncertainGraph g = TwoClusters();
  auto self = MaximizeReliability(g, 4, 4, FastOptions());
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ(self->reliability_before, 1.0);
  EXPECT_TRUE(self->added_edges.empty());

  EXPECT_EQ(MaximizeReliability(g, 0, 99, FastOptions()).status().code(),
            StatusCode::kOutOfRange);
  SolverOptions bad = FastOptions();
  bad.budget_k = 0;
  EXPECT_EQ(MaximizeReliability(g, 0, 11, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverTest, DegenerateQueryPopulatesStatsAndSkipsElimination) {
  // Regression: the s == t early return used to come back with empty stats
  // (no peak_rss_bytes), and MaximizeReliability still paid the full
  // candidate-elimination pass for a query whose answer is fixed.
  const UncertainGraph g = TwoClusters();
  auto self = MaximizeReliability(g, 4, 4, FastOptions());
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ(self->reliability_before, 1.0);
  EXPECT_DOUBLE_EQ(self->reliability_after, 1.0);
  EXPECT_GT(self->stats.peak_rss_bytes, 0u);
  // Elimination is skipped entirely, not just timed at ~0.
  EXPECT_DOUBLE_EQ(self->stats.elimination_seconds, 0.0);
  EXPECT_EQ(self->stats.candidate_edges, 0u);

  // The WithCandidates variant reports the caller's candidate count.
  CandidateSet candidates;
  candidates.edges = {{0, 11, 0.5}, {1, 10, 0.5}};
  auto with = MaximizeReliabilityWithCandidates(g, 4, 4, candidates,
                                                FastOptions());
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with->stats.candidate_edges, 2u);
  EXPECT_GT(with->stats.peak_rss_bytes, 0u);
}

TEST(SolverTest, ReuseWorldsOnAndOffPickSameEdgesWhenGainsAreDistinct) {
  // reuse_worlds parity pin at solver level: on the two-cluster fixture the
  // useful shortcuts have clearly distinct marginal gains, so the shared
  // world bank and per-evaluation re-sampling must select identical edges at
  // an equal sample budget. (On workloads with exactly symmetric candidates
  // the two modes may break such ties differently — that tolerance is
  // documented in README.)
  const UncertainGraph g = TwoClusters();
  for (CoreMethod method :
       {CoreMethod::kBatchEdges, CoreMethod::kIndividualPaths}) {
    SolverOptions on = FastOptions();
    on.num_samples = 4000;
    on.reuse_worlds = true;
    SolverOptions off = on;
    off.reuse_worlds = false;
    auto with = MaximizeReliability(g, 0, 11, on, method);
    auto without = MaximizeReliability(g, 0, 11, off, method);
    ASSERT_TRUE(with.ok() && without.ok());
    EXPECT_FALSE(with->added_edges.empty());
    EXPECT_EQ(with->added_edges, without->added_edges)
        << CoreMethodName(method);
  }
}

TEST(SolverTest, CustomCandidateSetWithPerEdgeProbabilities) {
  // Table 16 scenario: the caller supplies candidate edges with differing
  // probabilities instead of a fixed zeta.
  UncertainGraph g = UncertainGraph::Directed(4);
  ASSERT_TRUE(g.AddEdge(1, 3, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.9).ok());
  CandidateSet candidates;
  candidates.edges = {{0, 1, 0.8}, {0, 2, 0.2}};
  SolverOptions options = FastOptions(1);
  auto solution =
      MaximizeReliabilityWithCandidates(g, 0, 3, candidates, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->added_edges.size(), 1u);
  // The stronger candidate (0 -> 1 at 0.8) must win.
  EXPECT_EQ(solution->added_edges[0].dst, 1u);
  EXPECT_DOUBLE_EQ(solution->added_edges[0].prob, 0.8);
}

TEST(SolverTest, MalformedCandidatesFailTheSameWayForEveryMethod) {
  // Caller-supplied candidates are validated once, with AddEdge's own test:
  // BE and IP used to abort on an out-of-range endpoint and silently drop a
  // self-loop or a bad probability, while MRP returned a typed error.
  const UncertainGraph g = TwoClusters();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    Edge edge;
    StatusCode code;
  };
  const Case cases[] = {
      {{0, 12, 0.5}, StatusCode::kOutOfRange},
      {{99, 11, 0.5}, StatusCode::kOutOfRange},
      {{3, 3, 0.5}, StatusCode::kInvalidArgument},
      {{0, 11, 1.5}, StatusCode::kInvalidArgument},
      {{0, 11, -0.5}, StatusCode::kInvalidArgument},
      {{0, 11, nan}, StatusCode::kInvalidArgument},
  };
  for (const Case& bad : cases) {
    CandidateSet candidates;
    candidates.edges = {{1, 10, 0.5}, bad.edge};
    for (CoreMethod method :
         {CoreMethod::kBatchEdges, CoreMethod::kIndividualPaths,
          CoreMethod::kMostReliablePath}) {
      EXPECT_EQ(MaximizeReliabilityWithCandidates(g, 0, 11, candidates,
                                                  FastOptions(), method)
                    .status()
                    .code(),
                bad.code)
          << CoreMethodName(method) << " on (" << bad.edge.src << ", "
          << bad.edge.dst << ", " << bad.edge.prob << ")";
    }
  }
}

// Budget sweep: gains are monotone (within sampling noise) in k, matching
// the paper's Tables 12-13 trend.
class SolverBudgetSweep : public testing::TestWithParam<int> {};

TEST_P(SolverBudgetSweep, GainGrowsWithBudget) {
  const UncertainGraph g = TwoClusters();
  const int k = GetParam();
  auto small = MaximizeReliability(g, 0, 11, FastOptions(k));
  auto large = MaximizeReliability(g, 0, 11, FastOptions(k + 2));
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_GE(large->gain(), small->gain() - 0.08);  // sampling tolerance
}

INSTANTIATE_TEST_SUITE_P(Budgets, SolverBudgetSweep, testing::Values(1, 2, 4));

}  // namespace
}  // namespace relmax

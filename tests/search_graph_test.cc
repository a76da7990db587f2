#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "apps/influence.h"
#include "common/rng.h"
#include "core/budget_extension.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/multi.h"
#include "gen/datasets.h"
#include "gen/queries.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace {

// --------------------------------------------- builder == augment + induce

UncertainGraph RandomGraph(uint64_t seed, NodeId n, bool directed) {
  Rng rng(seed);
  UncertainGraph g = directed ? UncertainGraph::Directed(n)
                              : UncertainGraph::Undirected(n);
  for (int i = 0; i < 3 * static_cast<int>(n); ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) (void)g.AddEdge(u, v, rng.NextDouble(0.05, 0.95));
  }
  return g;
}

std::vector<NodeId> RandomNodes(Rng& rng, NodeId n, int count) {
  std::vector<NodeId> nodes;
  for (int i = 0; i < count; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.NextUint64(n)));
  }
  return nodes;
}

// A candidate set exercising every way AugmentGraph can skip or reorder a
// candidate: random pairs across C(s) × C(t), a copy of an existing edge,
// a repeated candidate, both orientations of one pair, and a candidate whose
// endpoints lie outside C(s) ∪ C(t).
CandidateSet HostileCandidates(const UncertainGraph& g, uint64_t seed) {
  Rng rng(seed);
  const NodeId n = g.num_nodes();
  CandidateSet c;
  c.from_source = RandomNodes(rng, n, 6);
  c.to_target = RandomNodes(rng, n, 6);
  for (NodeId u : c.from_source) {
    for (NodeId v : c.to_target) {
      if (u != v && rng.NextBernoulli(0.5)) {
        c.edges.push_back({u, v, rng.NextDouble(0.1, 0.9)});
      }
    }
  }
  const Edge existing = g.EdgeById(static_cast<EdgeId>(
      rng.NextUint64(g.num_edges())));
  c.edges.push_back({existing.src, existing.dst, 0.5});
  if (!c.edges.empty()) c.edges.push_back(c.edges.front());
  c.edges.push_back({c.from_source[0], c.to_target[1], 0.3});
  c.edges.push_back({c.to_target[1], c.from_source[0], 0.7});
  // Both endpoints drawn from the whole graph, usually outside the lists.
  for (int i = 0; i < 3; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId v = static_cast<NodeId>((u + 1 + rng.NextUint64(n - 1)) % n);
    c.edges.push_back({u, v, rng.NextDouble(0.1, 0.9)});
  }
  // Self-loops from the random lists are not valid candidates.
  std::erase_if(c.edges, [](const Edge& e) { return e.src == e.dst; });
  return c;
}

class SearchGraphEquivalenceSweep
    : public testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(SearchGraphEquivalenceSweep, MatchesAugmentThenInduce) {
  const auto [directed, seed] = GetParam();
  const UncertainGraph g = RandomGraph(700 + seed, 40, directed);
  const CandidateSet c = HostileCandidates(g, 900 + seed);
  const std::vector<NodeId> query = {c.from_source[0], c.to_target[0]};

  auto search = BuildSearchGraph(g, query, c);
  ASSERT_TRUE(search.ok()) << search.status().ToString();

  // Query nodes lead, then C(s), C(t) and the remaining endpoints, once each.
  EXPECT_EQ(search->nodes[0], query[0]);
  if (query[1] != query[0]) {
    EXPECT_EQ(search->nodes[1], query[1]);
  }
  std::vector<NodeId> sorted = search->nodes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  ASSERT_EQ(search->compact_id.size(), g.num_nodes());
  for (NodeId i = 0; i < search->nodes.size(); ++i) {
    EXPECT_EQ(search->compact_id[search->nodes[i]], i);
  }
  ASSERT_EQ(search->candidates.size(), c.edges.size());
  for (size_t i = 0; i < c.edges.size(); ++i) {
    EXPECT_EQ(search->nodes[search->candidates[i].src], c.edges[i].src);
    EXPECT_EQ(search->nodes[search->candidates[i].dst], c.edges[i].dst);
    EXPECT_EQ(search->candidates[i].prob, c.edges[i].prob);
  }

  auto expected = AugmentGraph(g, c.edges).InducedSubgraph(search->nodes);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(search->graph.directed(), expected->directed());
  EXPECT_EQ(search->graph.num_nodes(), expected->num_nodes());
  EXPECT_EQ(search->graph.EdgesById(), expected->EdgesById());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SearchGraphEquivalenceSweep,
                         testing::Combine(testing::Bool(),
                                          testing::Range(0, 12)));

TEST(SearchGraphTest, RejectsMalformedInput) {
  const UncertainGraph g = RandomGraph(3, 10, /*directed=*/false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(BuildSearchGraph(g, {0, 10}, {}).status().code(),
            StatusCode::kOutOfRange);
  CandidateSet lists;
  lists.from_source = {11};
  EXPECT_EQ(BuildSearchGraph(g, {0, 1}, lists).status().code(),
            StatusCode::kOutOfRange);
  struct Case {
    Edge edge;
    StatusCode code;
  };
  const Case cases[] = {
      {{0, 10, 0.5}, StatusCode::kOutOfRange},
      {{2, 2, 0.5}, StatusCode::kInvalidArgument},
      {{0, 1, 1.5}, StatusCode::kInvalidArgument},
      {{0, 1, -0.1}, StatusCode::kInvalidArgument},
      {{0, 1, nan}, StatusCode::kInvalidArgument},
  };
  for (const Case& bad : cases) {
    CandidateSet candidates;
    candidates.edges = {bad.edge};
    EXPECT_EQ(BuildSearchGraph(g, {0, 1}, candidates).status().code(),
              bad.code);
  }
}

// ------------------------------------------------------------ golden pins
//
// Solutions of the three path-based callers beyond the single-pair solver,
// recorded before they moved onto BuildSearchGraph. The search graph is
// edge-for-edge the one they used to induce, so every added edge and every
// reported value must stay put.

void ExpectEdges(const std::vector<Edge>& got,
                 const std::vector<Edge>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src) << "edge " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "edge " << i;
    EXPECT_DOUBLE_EQ(got[i].prob, want[i].prob) << "edge " << i;
  }
}

TEST(SearchGraphGolden, MultiAverageOnDirectedAsTopology) {
  auto dataset = MakeDataset("as_topology", 0.05, 2);
  ASSERT_TRUE(dataset.ok());
  auto query = GenerateMultiQuery(dataset->graph, 3, {.seed = 7});
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->sources, (std::vector<NodeId>{260, 75, 113}));
  ASSERT_EQ(query->targets, (std::vector<NodeId>{101, 28, 305}));
  SolverOptions options;
  options.budget_k = 5;
  options.top_r = 30;
  options.top_l = 10;
  options.elimination_samples = 300;
  options.num_samples = 400;
  options.seed = 11;
  auto solution = MaximizeMultiReliability(dataset->graph, query->sources,
                                           query->targets, Aggregate::kAverage,
                                           options);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_DOUBLE_EQ(solution->aggregate_before, 0.10055555555555556);
  EXPECT_DOUBLE_EQ(solution->aggregate_after, 0.43083333333333335);
  EXPECT_EQ(solution->stats.paths_considered, 90u);
  EXPECT_EQ(solution->stats.candidate_edges, 2045u);
  ExpectEdges(solution->added_edges, {{260, 101, 0.5},
                                      {260, 28, 0.5},
                                      {260, 305, 0.5},
                                      {75, 101, 0.5},
                                      {75, 28, 0.5}});
}

TEST(SearchGraphGolden, InfluenceOnUndirectedDblp) {
  auto dataset = MakeDataset("dblp", 0.03, 2);
  ASSERT_TRUE(dataset.ok());
  auto scenario = MakeCollaborationScenario(dataset->graph, 4, 30, 3);
  ASSERT_TRUE(scenario.ok());
  SolverOptions options;
  options.budget_k = 5;
  options.top_r = 40;
  options.top_l = 10;
  options.elimination_samples = 300;
  options.num_samples = 400;
  options.seed = 13;
  auto result = MaximizeInfluenceSpread(dataset->graph, scenario->seniors,
                                        scenario->juniors, options,
                                        /*pair_cap=*/24);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->spread_before, 7.2125000000000004);
  EXPECT_DOUBLE_EQ(result->spread_after, 9.1925000000000008);
  ExpectEdges(result->recommended_edges, {{21, 467, 0.5},
                                          {21, 397, 0.5},
                                          {21, 571, 0.5},
                                          {21, 583, 0.5},
                                          {21, 446, 0.5}});
}

TEST(SearchGraphGolden, ProbabilityBudgetOnUndirectedLastfm) {
  auto dataset = MakeDataset("lastfm", 0.05, 2);
  ASSERT_TRUE(dataset.ok());
  auto queries = GenerateQueries(dataset->graph, 1, {.seed = 3});
  ASSERT_TRUE(queries.ok());
  const auto [s, t] = (*queries)[0];
  ASSERT_EQ(s, 237u);
  ASSERT_EQ(t, 222u);
  SolverOptions options;
  options.top_r = 30;
  options.top_l = 15;
  options.elimination_samples = 300;
  options.num_samples = 400;
  options.seed = 17;
  const BudgetOptions budget{.total_budget = 1.5, .max_edges = 4, .units = 10,
                             .max_edge_prob = 0.8};
  auto solution = MaximizeReliabilityWithProbabilityBudget(
      dataset->graph, s, t, budget, options);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_DOUBLE_EQ(solution->reliability_before, 0.0);
  EXPECT_DOUBLE_EQ(solution->reliability_after, 0.84250000000000003);
  EXPECT_DOUBLE_EQ(solution->budget_used, 1.5000000000000002);
  ExpectEdges(solution->added_edges, {{6, 222, 0.25000000000000017},
                                      {237, 6, 0.44999999999999996},
                                      {237, 222, 0.80000000000000004}});
}

}  // namespace
}  // namespace relmax

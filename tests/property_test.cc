// Property-based sweeps over randomly generated graphs: invariants every
// estimator and solver component must satisfy regardless of topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "oracle_util.h"
#include "paths/most_reliable_path.h"
#include "paths/yen.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "sampling/bitlane.h"
#include "sampling/lazy_propagation.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density,
                           bool directed) {
  Rng rng(seed);
  UncertainGraph g =
      directed ? UncertainGraph::Directed(n) : UncertainGraph::Undirected(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (rng.NextBernoulli(density)) {
        EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
      }
    }
  }
  return g;
}

class ReliabilityInvariantSweep : public testing::TestWithParam<int> {};

// R is sandwiched between the most reliable path's probability (one way to
// connect) and 1; and the union bound over the top paths dominates both.
TEST_P(ReliabilityInvariantSweep, PathProbabilityBounds) {
  const UncertainGraph g =
      RandomGraph(100 + GetParam(), 7, 0.35, GetParam() % 2 == 0);
  const NodeId s = 0;
  const NodeId t = 6;
  const double exact = ExactReliabilityFactoring(g, s, t, 50).value();
  const auto mrp = MostReliablePath(g, s, t);
  if (!mrp.has_value()) {
    EXPECT_DOUBLE_EQ(exact, 0.0);
    return;
  }
  // Lower bound: any single path's existence implies connection.
  EXPECT_GE(exact + 1e-12, mrp->probability);
  // Upper bound: union bound over all simple paths.
  double union_bound = 0.0;
  for (const PathResult& p : TopLReliablePaths(g, s, t, 1000)) {
    union_bound += p.probability;
  }
  EXPECT_LE(exact, std::min(1.0, union_bound) + 1e-12);
}

// Raising any edge probability cannot decrease reliability.
TEST_P(ReliabilityInvariantSweep, MonotoneInEdgeProbability) {
  UncertainGraph g = RandomGraph(200 + GetParam(), 6, 0.4, true);
  if (g.num_edges() == 0) return;
  const double base = ExactReliabilityFactoring(g, 0, 5, 50).value();
  Rng rng(300 + GetParam());
  const auto edges = g.Edges();
  const Edge& edge = edges[rng.NextUint64(edges.size())];
  const double bumped = std::min(1.0, edge.prob + 0.3);
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, bumped).ok());
  EXPECT_GE(ExactReliabilityFactoring(g, 0, 5, 50).value() + 1e-12, base);
}

// Adding any edge cannot decrease reliability.
TEST_P(ReliabilityInvariantSweep, MonotoneInEdgeAddition) {
  const UncertainGraph g =
      RandomGraph(400 + GetParam(), 6, 0.3, GetParam() % 2 == 1);
  const double base = ExactReliabilityFactoring(g, 0, 5, 50).value();
  for (const Edge& e : AllMissingEdges(g, 0.5, -1)) {
    UncertainGraph aug = g;
    ASSERT_TRUE(aug.AddEdge(e.src, e.dst, 0.5).ok());
    EXPECT_GE(ExactReliabilityFactoring(aug, 0, 5, 50).value() + 1e-12, base)
        << "(" << e.src << "," << e.dst << ")";
    break;  // one edge per seed keeps the sweep fast
  }
}

// MC and RSS agree with the exact value within sampling error.
TEST_P(ReliabilityInvariantSweep, EstimatorsAgreeWithExact) {
  const UncertainGraph g =
      RandomGraph(500 + GetParam(), 6, 0.4, GetParam() % 2 == 0);
  const double exact = ExactReliabilityFactoring(g, 0, 5, 50).value();
  const double mc =
      EstimateReliability(g, 0, 5, {.num_samples = 30000, .seed = 1});
  EXPECT_NEAR(mc, exact, 0.015);
  double rss_mean = 0.0;
  Rng seeds(600 + GetParam());
  for (int run = 0; run < 20; ++run) {
    rss_mean += EstimateReliabilityRss(
        g, 0, 5, {.num_samples = 400, .seed = seeds.Next()});
  }
  EXPECT_NEAR(rss_mean / 20, exact, 0.03);
}

// InfluenceSpread specializes to reliability when |S| = |T| = 1, and the
// pairwise matrix agrees with single-pair estimation.
TEST_P(ReliabilityInvariantSweep, SpreadAndPairwiseConsistency) {
  const UncertainGraph g = RandomGraph(700 + GetParam(), 7, 0.35, true);
  const double exact = ExactReliabilityFactoring(g, 0, 6, 50).value();
  EXPECT_NEAR(InfluenceSpread(g, {0}, {6}, 30000, 9), exact, 0.015);
  const auto matrix = PairwiseReliability(g, {0}, {6}, 30000, 9);
  EXPECT_NEAR(matrix[0][0], exact, 0.015);
}

// Parallel MC and RSS agree with exact factoring within 3σ confidence
// bounds on random DAGs, for every thread count. A DAG (edges only from
// lower to higher ids) keeps the exact oracle cheap while still exercising
// multi-path strata.
TEST_P(ReliabilityInvariantSweep, ParallelEstimatorsWithin3SigmaOnRandomDag) {
  Rng rng(900 + GetParam());
  const NodeId n = 8;
  UncertainGraph g = UncertainGraph::Directed(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.NextBernoulli(0.4)) {
        ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.1, 0.9)).ok());
      }
    }
  }
  const NodeId s = 0;
  const NodeId t = n - 1;
  const double exact = ExactReliabilityFactoring(g, s, t, 50).value();

  const int kSamples = 20000;
  // One MC sample is Bernoulli(R): σ = sqrt(R(1-R)/Z). RSS only has lower
  // variance, so the same bound holds for it a fortiori.
  const double sigma =
      std::sqrt(std::max(exact * (1.0 - exact), 1e-6) / kSamples);
  for (int threads : {1, 2, 8}) {
    const double mc = EstimateReliability(
        g, s, t,
        {.num_samples = kSamples, .seed = 77, .num_threads = threads});
    EXPECT_NEAR(mc, exact, 3.0 * sigma) << "MC, num_threads = " << threads;
    const double rss = EstimateReliabilityRss(
        g, s, t,
        {.num_samples = kSamples, .seed = 78, .num_threads = threads});
    EXPECT_NEAR(rss, exact, 3.0 * sigma) << "RSS, num_threads = " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliabilityInvariantSweep,
                         testing::Range(0, 10));

// ------------------------------------------- exact-oracle conformance sweep

// The brute-force oracle itself is checked against closed forms and the
// factoring oracle before it referees the estimators.
TEST(ExactOracleTest, OracleMatchesClosedFormsAndFactoring) {
  // Two parallel s-t edges: R = 1 − (1 − p1)(1 − p2). Parallel edges are not
  // supported, so route the second path through a p = 1 relay.
  UncertainGraph g = UncertainGraph::Directed(3);
  ASSERT_TRUE(g.AddEdge(0, 2, 0.6).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.5).ok());
  EXPECT_NEAR(oracle::BruteForceReliability(g, 0, 2),
              1.0 - (1.0 - 0.6) * (1.0 - 0.5), 1e-12);

  // Series chain: R = Π p_i.
  UncertainGraph chain = UncertainGraph::Undirected(4);
  ASSERT_TRUE(chain.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(chain.AddEdge(1, 2, 0.8).ok());
  ASSERT_TRUE(chain.AddEdge(2, 3, 0.7).ok());
  EXPECT_NEAR(oracle::BruteForceReliability(chain, 0, 3), 0.9 * 0.8 * 0.7,
              1e-12);

  // Against the independent factoring oracle on random topologies.
  for (int seed = 0; seed < 6; ++seed) {
    const UncertainGraph r =
        oracle::SmallRandomGraph(40 + seed, 6, 9, seed % 2 == 0);
    const NodeId t = r.num_nodes() - 1;
    EXPECT_NEAR(oracle::BruteForceReliability(r, 0, t),
                ExactReliabilityFactoring(r, 0, t, 50).value(), 1e-9)
        << "seed " << seed;
  }
}

// Every estimator backend — MC (serial and batched-parallel), RSS, lazy
// propagation, and the WorldBank word-parallel fixpoint — agrees with the
// brute-force enumeration oracle within 3σ, on random directed and
// undirected graphs of ≤ 10 edges. All streams are fixed-seed, so the
// tolerance is deterministic, not flaky.
class ExactOracleConformanceSweep : public testing::TestWithParam<int> {};

TEST_P(ExactOracleConformanceSweep, EstimatorsMatchBruteForceEnumeration) {
  const int param = GetParam();
  const bool directed = param % 2 == 0;
  const NodeId n = 5 + param % 3;
  const UncertainGraph g =
      oracle::SmallRandomGraph(1300 + param, n, 10, directed);
  const NodeId s = 0;
  const NodeId t = n - 1;
  const double exact = oracle::BruteForceReliability(g, s, t);

  const int kSamples = 20000;
  const double band = oracle::ThreeSigma(exact, kSamples);

  // MC: within the band, and bit-identical across thread counts and lane
  // kernels (the estimate is a pure function of (Z, seed)).
  const double mc_ref = EstimateReliability(
      g, s, t, {.num_samples = kSamples, .seed = 91, .num_threads = 1});
  EXPECT_NEAR(mc_ref, exact, band) << "MC";
  for (const bitlane::LaneMode mode :
       {bitlane::LaneMode::kBlocked, bitlane::LaneMode::kScalar}) {
    const bitlane::ScopedLaneMode scoped(mode);
    for (int threads : {1, 3}) {
      const double mc = EstimateReliability(
          g, s, t,
          {.num_samples = kSamples, .seed = 91, .num_threads = threads});
      EXPECT_EQ(mc, mc_ref)
          << "MC, " << bitlane::ModeName(mode) << ", threads = " << threads;
    }
  }
  const double rss = EstimateReliabilityRss(
      g, s, t, {.num_samples = kSamples, .seed = 92});
  EXPECT_NEAR(rss, exact, band) << "RSS";

  const double lazy = EstimateReliabilityLazy(g, s, t, kSamples, 93);
  EXPECT_NEAR(lazy, exact, band) << "lazy propagation";

  // The WorldBank fixpoint answer must be within the band AND bit-identical
  // across lane kernels: scalar and blocked walk the same monotone algebra,
  // whose fixpoint is unique.
  const WorldBank bank(g, {.num_samples = kSamples, .seed = 94});
  double fixpoint_ref = -1.0;
  for (const bitlane::LaneMode mode :
       {bitlane::LaneMode::kBlocked, bitlane::LaneMode::kScalar}) {
    const bitlane::ScopedLaneMode scoped(mode);
    const double fixpoint = bank.ConnectedFraction(s, t, bank.AllEdges(), {});
    if (fixpoint_ref < 0.0) {
      fixpoint_ref = fixpoint;
      EXPECT_NEAR(fixpoint, exact, band) << "WorldBank fixpoint";
    } else {
      EXPECT_EQ(fixpoint, fixpoint_ref)
          << "WorldBank fixpoint differs under " << bitlane::ModeName(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactOracleConformanceSweep,
                         testing::Range(0, 12));

// ------------------------------------- batch query engine conformance sweep

// The batch engine's two resolution paths against the ≤10-edge oracle
// fixtures: the per-query fallback must reproduce EstimateReliability
// bit-for-bit (it IS the single-query public API), and the shared-world
// path must sit within 3σ of the brute-force enumeration while being
// bit-identical across thread counts and batch compositions.
class BatchQueryConformanceSweep : public testing::TestWithParam<int> {};

TEST_P(BatchQueryConformanceSweep, BatchedAnswersMatchPerQueryAndOracle) {
  const int param = GetParam();
  const bool directed = param % 2 == 0;
  const NodeId n = 5 + param % 3;
  const UncertainGraph g =
      oracle::SmallRandomGraph(2100 + param, n, 10, directed);
  const int kSamples = 20000;

  std::vector<StQuery> pairs;
  QuerySet set;
  for (NodeId s = 0; s < 2; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      pairs.push_back({s, t});
      set.AddSt(s, t);
    }
  }

  QueryEngineOptions options;
  options.num_samples = kSamples;
  options.seed = 81;

  // (1) Fallback path: batched answers equal per-query EstimateReliability
  // exactly — same Z, seed, and thread count, bitwise.
  QueryEngineOptions fallback = options;
  fallback.reuse_worlds = false;
  QueryEngine per_query(g, fallback);
  const auto fallback_result = per_query.Answer(set);
  ASSERT_TRUE(fallback_result.ok());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(fallback_result->st_values[i],
              EstimateReliability(g, pairs[i].s, pairs[i].t,
                                  {.num_samples = kSamples, .seed = 81}))
        << "(" << pairs[i].s << ", " << pairs[i].t << ")";
  }

  // (2) Shared-world path: one bank for the whole batch; the answers must
  // be bit-identical across thread counts and lane kernels (the
  // (threads, lane-width)-invariance contract), and within 3σ of the exact
  // enumeration.
  std::vector<double> reference;
  for (const bitlane::LaneMode mode :
       {bitlane::LaneMode::kBlocked, bitlane::LaneMode::kScalar}) {
    const bitlane::ScopedLaneMode scoped(mode);
    for (const int threads : {1, 3}) {
      QueryEngineOptions shared = options;
      shared.num_threads = threads;
      QueryEngine engine(g, shared);
      const auto result = engine.Answer(set);
      ASSERT_TRUE(result.ok());
      if (reference.empty()) {
        reference = result->st_values;
      } else {
        EXPECT_EQ(result->st_values, reference)
            << bitlane::ModeName(mode) << ", threads = " << threads;
      }
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double exact =
        oracle::BruteForceReliability(g, pairs[i].s, pairs[i].t);
    EXPECT_NEAR(reference[i], exact, oracle::ThreeSigma(exact, kSamples))
        << "(" << pairs[i].s << ", " << pairs[i].t << ")";
    QueryEngine solo(g, options);
    EXPECT_EQ(solo.EstimateSt(pairs[i].s, pairs[i].t).value(), reference[i])
        << "single-query batch must agree bit-for-bit";
  }

  // (3) Index path: per-world component/SCC labels over the same bank must
  // reproduce the shared-flood answers bit-for-bit (hence also within 3σ of
  // the oracle), for any thread count and lane kernel.
  for (const bitlane::LaneMode mode :
       {bitlane::LaneMode::kBlocked, bitlane::LaneMode::kScalar}) {
    const bitlane::ScopedLaneMode scoped(mode);
    for (const int threads : {1, 3}) {
      QueryEngineOptions indexed = options;
      indexed.use_index = true;
      indexed.num_threads = threads;
      QueryEngine engine(g, indexed);
      const auto result = engine.Answer(set);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->st_values, reference)
          << "index, " << bitlane::ModeName(mode)
          << ", threads = " << threads;
      EXPECT_EQ(result->stats.floods, 0u);
      EXPECT_EQ(result->stats.index_answers, result->stats.distinct_pairs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchQueryConformanceSweep,
                         testing::Range(0, 8));

// ------------------------------------------ bank-consumer conformance sweep

// Every bank consumer — the evaluate primitive (ConnectedFraction), greedy
// hill-climbing selection, the batch query engine, and the reliability-index
// path — must produce bit-equal answers across {blocked, scalar} lane
// kernels × {1, 3} threads. Z = 4030 (4030 % 64 = 62) keeps the
// tail-masking word live in every combination: a fill or flood that leaks
// pad bits shows up here as a popcount mismatch.
class BankConsumerConformanceSweep : public testing::TestWithParam<int> {};

TEST_P(BankConsumerConformanceSweep, ConsumersBitEqualAcrossLanesThreads) {
  const int param = GetParam();
  const bool directed = param % 2 == 0;
  const NodeId n = 6 + param % 3;
  const UncertainGraph g =
      oracle::SmallRandomGraph(3100 + param, n, 12, directed);
  const int kSamples = 4030;
  const NodeId s = 0;
  const NodeId t = n - 1;

  std::vector<Edge> candidates;
  for (const Edge& e : AllMissingEdges(g, 0.5, -1)) {
    candidates.push_back(e);
    if (candidates.size() == 4) break;
  }

  QuerySet set;
  for (NodeId v = 0; v < n; ++v) set.AddSt(s, v);

  const auto endpoints = [](const std::vector<Edge>& edges) {
    std::vector<std::pair<NodeId, NodeId>> out;
    out.reserve(edges.size());
    for (const Edge& e : edges) out.emplace_back(e.src, e.dst);
    return out;
  };

  bool have_ref = false;
  double evaluate_ref = 0.0;
  std::vector<std::pair<NodeId, NodeId>> greedy_ref;
  std::vector<double> batch_ref;
  for (const bitlane::LaneMode mode :
       {bitlane::LaneMode::kBlocked, bitlane::LaneMode::kScalar}) {
    const bitlane::ScopedLaneMode scoped(mode);
    for (const int threads : {1, 3}) {
      const std::string where = std::string(bitlane::ModeName(mode)) +
                                ", threads = " + std::to_string(threads);

      // Evaluate path: the flood-lane primitive behind EstimateWithOptions
      // and PathSetEvaluator.
      const WorldBank bank(
          g, {.num_samples = kSamples, .seed = 61, .num_threads = threads});
      const double frac = bank.ConnectedFraction(s, t, bank.AllEdges());

      // Greedy selection path: hill climbing scores candidates over a
      // shared bank.
      SolverOptions solver;
      solver.budget_k = 2;
      solver.num_samples = kSamples;
      solver.elimination_samples = kSamples;
      solver.seed = 62;
      solver.num_threads = threads;
      const auto picked = SelectHillClimbing(g, s, t, candidates, solver);
      ASSERT_TRUE(picked.ok()) << where;

      // Batch query path.
      QueryEngineOptions batch_options;
      batch_options.num_samples = kSamples;
      batch_options.seed = 63;
      batch_options.num_threads = threads;
      QueryEngine engine(g, batch_options);
      const auto batch = engine.Answer(set);
      ASSERT_TRUE(batch.ok()) << where;

      // Index path: must equal this combination's flood answers exactly.
      QueryEngineOptions index_options = batch_options;
      index_options.use_index = true;
      QueryEngine index_engine(g, index_options);
      const auto indexed = index_engine.Answer(set);
      ASSERT_TRUE(indexed.ok()) << where;
      EXPECT_EQ(indexed->st_values, batch->st_values) << "index, " << where;

      if (!have_ref) {
        have_ref = true;
        evaluate_ref = frac;
        greedy_ref = endpoints(*picked);
        batch_ref = batch->st_values;
      } else {
        EXPECT_EQ(frac, evaluate_ref) << "evaluate, " << where;
        EXPECT_EQ(endpoints(*picked), greedy_ref) << "greedy, " << where;
        EXPECT_EQ(batch->st_values, batch_ref) << "batch, " << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankConsumerConformanceSweep,
                         testing::Range(0, 6));

// ------------------------------------------------------- failure injection

TEST(FailureInjectionTest, AllZeroProbabilityGraph) {
  UncertainGraph g = UncertainGraph::Directed(4);
  for (NodeId i = 0; i + 1 < 4; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1, 0.0).ok());
  EXPECT_DOUBLE_EQ(
      EstimateReliability(g, 0, 3, {.num_samples = 100, .seed = 1}), 0.0);
  EXPECT_DOUBLE_EQ(EstimateReliabilityRss(g, 0, 3), 0.0);
  EXPECT_FALSE(MostReliablePath(g, 0, 3).has_value());
  EXPECT_DOUBLE_EQ(ExactReliabilityFactoring(g, 0, 3).value(), 0.0);
}

TEST(FailureInjectionTest, AllOneProbabilityGraph) {
  UncertainGraph g = UncertainGraph::Undirected(5);
  for (NodeId i = 0; i + 1 < 5; ++i) ASSERT_TRUE(g.AddEdge(i, i + 1, 1.0).ok());
  EXPECT_DOUBLE_EQ(
      EstimateReliability(g, 0, 4, {.num_samples = 100, .seed = 1}), 1.0);
  EXPECT_DOUBLE_EQ(EstimateReliabilityRss(g, 0, 4), 1.0);
  EXPECT_DOUBLE_EQ(MostReliablePath(g, 0, 4)->probability, 1.0);
}

TEST(FailureInjectionTest, SingletonAndEdgelessGraphs) {
  UncertainGraph lonely = UncertainGraph::Directed(1);
  EXPECT_DOUBLE_EQ(
      EstimateReliability(lonely, 0, 0, {.num_samples = 10, .seed = 1}), 1.0);

  UncertainGraph empty = UncertainGraph::Undirected(10);
  EXPECT_DOUBLE_EQ(
      EstimateReliability(empty, 0, 9, {.num_samples = 100, .seed = 1}), 0.0);
  EXPECT_TRUE(TopLReliablePaths(empty, 0, 9, 5).empty());
}

TEST(FailureInjectionTest, EliminationOnDisconnectedQuery) {
  // s and t in different components: the candidate set must still form
  // (C(s) x C(t)) so the solver can bridge the components.
  UncertainGraph g = UncertainGraph::Undirected(6);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 0.9).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 0.9).ok());
  SolverOptions options;
  options.hop_h = -1;
  options.top_r = 6;
  auto candidates = SelectCandidates(g, 0, 5, options);
  ASSERT_TRUE(candidates.ok());
  EXPECT_FALSE(candidates->edges.empty());
  // With the h-hop constraint the components cannot be bridged: no
  // candidates should survive (distance between components is infinite).
  options.hop_h = 3;
  auto constrained = SelectCandidates(g, 0, 5, options);
  ASSERT_TRUE(constrained.ok());
  for (const Edge& e : constrained->edges) {
    // Any surviving candidate must stay within one component.
    const bool src_left = e.src <= 2;
    const bool dst_left = e.dst <= 2;
    EXPECT_EQ(src_left, dst_left);
  }
}

TEST(FailureInjectionTest, ExtremeProbabilitiesInRss) {
  // Mix of 0, 1, and mid probabilities must not break stratification.
  UncertainGraph g = UncertainGraph::Directed(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 4, 0.9).ok());
  const double exact = ExactReliabilityFactoring(g, 0, 4).value();
  EXPECT_NEAR(exact, 0.5, 1e-12);
  double mean = 0.0;
  Rng seeds(4);
  for (int run = 0; run < 30; ++run) {
    mean += EstimateReliabilityRss(g, 0, 4,
                                   {.num_samples = 200, .seed = seeds.Next()});
  }
  EXPECT_NEAR(mean / 30, exact, 0.03);
}

}  // namespace
}  // namespace relmax

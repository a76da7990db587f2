// Batch query engine: file-format parsing, validation, shared-world
// amortization, result caching, and the determinism contracts (thread and
// batch-composition invariance; per-query fallback exactly equal to the
// single-query public API).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/memory.h"
#include "common/rng.h"
#include "core/evaluate.h"
#include "graph/uncertain_graph.h"
#include "query/query_engine.h"
#include "query/query_set.h"
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

// ------------------------------------------------------------ QuerySet

TEST(QuerySetTest, ParsesPairsCommentsAndBlankLines) {
  const auto set = QuerySet::Parse(
      "# header comment\n"
      "0 3\n"
      "\n"
      "  2 1   # trailing comment\n"
      "4 4\r\n");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set->st_queries().size(), 3u);
  EXPECT_EQ(set->st_queries()[0], (StQuery{0, 3}));
  EXPECT_EQ(set->st_queries()[1], (StQuery{2, 1}));
  EXPECT_EQ(set->st_queries()[2], (StQuery{4, 4}));
}

TEST(QuerySetTest, RejectsMalformedLines) {
  EXPECT_FALSE(QuerySet::Parse("0\n").ok());
  EXPECT_FALSE(QuerySet::Parse("0 1 2\n").ok());
  EXPECT_FALSE(QuerySet::Parse("a b\n").ok());
  EXPECT_FALSE(QuerySet::Parse("# only comments\n\n").ok());
  EXPECT_FALSE(QuerySet::Parse(std::string("0 1\n\0 2\n", 8)).ok());
  // Ids that do not fit NodeId must fail loudly, not wrap to another node;
  // signs are rejected outright (sscanf would silently wrap "-1").
  EXPECT_FALSE(QuerySet::Parse("4294967296 1\n").ok());
  EXPECT_FALSE(QuerySet::Parse("-1 2\n").ok());
  EXPECT_FALSE(QuerySet::Parse("+1 2\n").ok());
  EXPECT_TRUE(QuerySet::Parse("4294967295 1\n").ok());  // == NodeId max
}

TEST(QuerySetTest, ValidateCatchesBadQueries) {
  const UncertainGraph g = RandomGraph(1, 5, 0.5, true);
  QuerySet out_of_range;
  out_of_range.AddSt(0, 5);
  EXPECT_FALSE(out_of_range.Validate(g).ok());

  QuerySet empty_aggregate;
  empty_aggregate.AddAggregate({{}, {1}, Aggregate::kAverage});
  EXPECT_FALSE(empty_aggregate.Validate(g).ok());

  QuerySet bad_k;
  bad_k.AddTopK({{{0, 1}}, 0});
  EXPECT_FALSE(bad_k.Validate(g).ok());

  QuerySet ok;
  ok.AddSt(0, 4);
  ok.AddAggregate({{0, 1}, {3, 4}, Aggregate::kMinimum});
  ok.AddTopK({{{0, 1}, {0, 2}}, 1});
  EXPECT_TRUE(ok.Validate(g).ok());
}

// --------------------------------------------------------- QueryEngine

QueryEngineOptions EngineOptions(int num_samples = 2000, uint64_t seed = 7) {
  QueryEngineOptions options;
  options.num_samples = num_samples;
  options.seed = seed;
  return options;
}

TEST(QueryEngineTest, PerQueryFallbackEqualsEstimateReliabilityExactly) {
  for (const bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(11, 12, 0.25, directed);
    QueryEngineOptions options = EngineOptions();
    options.reuse_worlds = false;
    QueryEngine engine(g, options);
    QuerySet set;
    for (NodeId t = 1; t < 8; ++t) set.AddSt(0, t);
    const auto result = engine.Answer(set);
    ASSERT_TRUE(result.ok());
    for (NodeId t = 1; t < 8; ++t) {
      const double expected = EstimateReliability(
          g, 0, t,
          {.num_samples = options.num_samples, .seed = options.seed});
      // Bitwise equality: the fallback IS the single-query public API.
      EXPECT_EQ(result->st_values[t - 1], expected) << "t = " << t;
    }
  }
}

TEST(QueryEngineTest, RssEstimatorEqualsEstimateReliabilityRssExactly) {
  const UncertainGraph g = RandomGraph(13, 10, 0.3, true);
  QueryEngineOptions options = EngineOptions(1000);
  options.estimator = Estimator::kRss;
  QueryEngine engine(g, options);
  QuerySet set;
  set.AddSt(0, 9);
  set.AddSt(1, 8);
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  RssOptions rss = options.rss;
  rss.num_samples = options.num_samples;
  rss.seed = options.seed;
  rss.num_threads = options.num_threads;
  EXPECT_EQ(result->st_values[0], EstimateReliabilityRss(g, 0, 9, rss));
  EXPECT_EQ(result->st_values[1], EstimateReliabilityRss(g, 1, 8, rss));
}

TEST(QueryEngineTest, SharedWorldAnswersAreThreadInvariant) {
  const UncertainGraph g = RandomGraph(17, 20, 0.15, false);
  QuerySet set;
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId t = 10; t < 20; ++t) set.AddSt(s, t);
  }
  std::vector<double> reference;
  for (const int threads : {1, 2, 4}) {
    QueryEngineOptions options = EngineOptions();
    options.num_threads = threads;
    QueryEngine engine(g, options);
    const auto result = engine.Answer(set);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = result->st_values;
    } else {
      EXPECT_EQ(result->st_values, reference) << "threads = " << threads;
    }
  }
}

TEST(QueryEngineTest, AnswersAreIndependentOfBatchComposition) {
  const UncertainGraph g = RandomGraph(19, 15, 0.2, true);
  QuerySet batch;
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 5; t < 15; ++t) batch.AddSt(s, t);
  }
  QueryEngine batched(g, EngineOptions());
  const auto result = batched.Answer(batch);
  ASSERT_TRUE(result.ok());
  size_t i = 0;
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 5; t < 15; ++t, ++i) {
      // A fresh engine answering only this pair must agree bit-for-bit:
      // every answer is a pure function of (graph, estimator, seed, Z,
      // query), not of what else was in the batch.
      QueryEngine solo(g, EngineOptions());
      EXPECT_EQ(solo.EstimateSt(s, t).value(), result->st_values[i])
          << "(" << s << ", " << t << ")";
    }
  }
}

TEST(QueryEngineTest, SharedWorldAnswersMatchWorldBankFraction) {
  // The shared path is definitionally the WorldBank connected fraction.
  const UncertainGraph g = RandomGraph(23, 10, 0.3, false);
  QueryEngine engine(g, EngineOptions(1280, 3));
  const WorldBank bank(g, {.num_samples = 1280, .seed = 3});
  for (NodeId t = 1; t < 10; ++t) {
    EXPECT_EQ(engine.EstimateSt(0, t).value(),
              bank.ConnectedFraction(0, t, bank.AllEdges(), {}))
        << "t = " << t;
  }
}

TEST(QueryEngineTest, SourceEqualsTargetIsCertain) {
  const UncertainGraph g = RandomGraph(29, 6, 0.3, true);
  for (const bool reuse : {true, false}) {
    QueryEngineOptions options = EngineOptions(128);
    options.reuse_worlds = reuse;
    QueryEngine engine(g, options);
    EXPECT_DOUBLE_EQ(engine.EstimateSt(3, 3).value(), 1.0);
  }
}

TEST(QueryEngineTest, CachesAcrossAnswerCallsUntilGraphMutates) {
  UncertainGraph g = RandomGraph(31, 10, 0.3, false);
  QueryEngine engine(g, EngineOptions(512));
  QuerySet set;
  set.AddSt(0, 9);
  set.AddSt(1, 9);
  set.AddSt(0, 9);  // duplicate inside one batch

  const auto first = engine.Answer(set);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.num_queries, 3u);
  EXPECT_EQ(first->stats.distinct_pairs, 2u);
  EXPECT_EQ(first->stats.cache_hits, 0u);
  EXPECT_EQ(first->stats.floods, 2u);  // two distinct sources
  EXPECT_EQ(engine.cache_size(), 2u);
  EXPECT_EQ(first->st_values[0], first->st_values[2]);

  const auto second = engine.Answer(set);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cache_hits, 2u);
  EXPECT_EQ(second->stats.floods, 0u);  // fully served from the cache
  EXPECT_EQ(second->st_values, first->st_values);

  // Any graph mutation invalidates the memoized answers wholesale.
  const Edge edge = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, 1.0).ok());
  const auto third = engine.Answer(set);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.cache_hits, 0u);
  EXPECT_EQ(third->stats.floods, 2u);
  EXPECT_EQ(engine.cache_size(), 2u);
}

TEST(QueryEngineTest, CacheCanBeDisabled) {
  const UncertainGraph g = RandomGraph(37, 8, 0.3, true);
  QueryEngineOptions options = EngineOptions(256);
  options.cache_results = false;
  QueryEngine engine(g, options);
  QuerySet set;
  set.AddSt(0, 7);
  ASSERT_TRUE(engine.Answer(set).ok());
  EXPECT_EQ(engine.cache_size(), 0u);
  const auto again = engine.Answer(set);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, 0u);
}

TEST(QueryEngineTest, AggregateEqualsAggregateOfPairAnswers) {
  const UncertainGraph g = RandomGraph(41, 12, 0.25, false);
  QueryEngine engine(g, EngineOptions());
  const std::vector<NodeId> sources = {0, 1, 2};
  const std::vector<NodeId> targets = {9, 10, 11};
  QuerySet set;
  for (const Aggregate agg :
       {Aggregate::kAverage, Aggregate::kMinimum, Aggregate::kMaximum}) {
    set.AddAggregate({sources, targets, agg});
  }
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  std::vector<std::vector<double>> matrix(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (const NodeId t : targets) {
      matrix[i].push_back(engine.EstimateSt(sources[i], t).value());
    }
  }
  EXPECT_EQ(result->aggregate_values[0],
            AggregateMatrix(matrix, Aggregate::kAverage));
  EXPECT_EQ(result->aggregate_values[1],
            AggregateMatrix(matrix, Aggregate::kMinimum));
  EXPECT_EQ(result->aggregate_values[2],
            AggregateMatrix(matrix, Aggregate::kMaximum));
}

TEST(QueryEngineTest, TopKRanksByReliabilityWithStableTies) {
  // Deterministic graph (p ∈ {0, 1}) so the ranking is exact: candidates
  // with equal reliability must keep their list order.
  UncertainGraph g = UncertainGraph::Directed(5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3, 0.0).ok());
  QueryEngine engine(g, EngineOptions(64));
  QuerySet set;
  set.AddTopK({{{0, 3}, {0, 1}, {0, 2}, {0, 4}}, 3});
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->top_k.size(), 1u);
  const auto& ranked = result->top_k[0];
  ASSERT_EQ(ranked.size(), 3u);
  // (0,1) and (0,2) tie at 1.0 and keep candidate order; (0,3) ties (0,4)
  // at 0.0 and precedes it, so rank 3 is candidate index 0.
  EXPECT_EQ(ranked[0].first, 1u);
  EXPECT_DOUBLE_EQ(ranked[0].second, 1.0);
  EXPECT_EQ(ranked[1].first, 2u);
  EXPECT_DOUBLE_EQ(ranked[1].second, 1.0);
  EXPECT_EQ(ranked[2].first, 0u);
  EXPECT_DOUBLE_EQ(ranked[2].second, 0.0);

  // k larger than the candidate list clamps.
  QuerySet big_k;
  big_k.AddTopK({{{0, 1}, {0, 2}}, 10});
  const auto clamped = engine.Answer(big_k);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->top_k[0].size(), 2u);
}

TEST(QueryEngineTest, MixedBatchSharesFloodsAcrossQueryKinds) {
  const UncertainGraph g = RandomGraph(43, 10, 0.3, false);
  QueryEngine engine(g, EngineOptions(512));
  QuerySet set;
  set.AddSt(0, 9);
  set.AddAggregate({{0, 1}, {8, 9}, Aggregate::kAverage});
  set.AddTopK({{{0, 8}, {1, 9}}, 1});
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_queries, 3u);
  // Pairs: (0,9), (0,8), (1,8), (1,9) — 4 distinct over 2 sources.
  EXPECT_EQ(result->stats.distinct_pairs, 4u);
  EXPECT_EQ(result->stats.floods, 2u);
  // The aggregate cells, st answer, and top-k scores reuse the same pair
  // values: the top-1 candidate's score must equal the matching st answer.
  const StQuery& best =
      set.top_k_queries()[0].candidates[result->top_k[0][0].first];
  EXPECT_EQ(result->top_k[0][0].second,
            engine.EstimateSt(best.s, best.t).value());
}

TEST(QueryEngineTest, AnswerRejectsInvalidQueriesWithoutComputing) {
  const UncertainGraph g = RandomGraph(47, 5, 0.4, true);
  QueryEngine engine(g, EngineOptions(64));
  QuerySet set;
  set.AddSt(0, 99);
  EXPECT_FALSE(engine.Answer(set).ok());
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(QueryEngineTest, EstimateStPropagatesValidationErrors) {
  // Out-of-range nodes must surface as a Status, not abort the process
  // (EstimateSt used to RELMAX_CHECK the batch result).
  const UncertainGraph g = RandomGraph(53, 5, 0.4, false);
  QueryEngine engine(g, EngineOptions(64));
  const auto bad_target = engine.EstimateSt(0, 99);
  EXPECT_FALSE(bad_target.ok());
  EXPECT_EQ(bad_target.status().code(), StatusCode::kInvalidArgument);
  const auto bad_source = engine.EstimateSt(99, 0);
  EXPECT_FALSE(bad_source.ok());
  // The engine stays usable after a rejected query.
  EXPECT_DOUBLE_EQ(engine.EstimateSt(0, 0).value(), 1.0);
}

TEST(QueryEngineTest, CacheEvictionKeepsEntryCapAndCountsEvictions) {
  const UncertainGraph g = RandomGraph(59, 12, 0.3, false);
  QueryEngineOptions options = EngineOptions(128);
  options.max_cache_entries = 4;
  QueryEngine engine(g, options);
  QuerySet set;
  for (NodeId t = 1; t < 10; ++t) set.AddSt(0, t);  // 9 distinct pairs
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.cache_evictions, 5u);  // 9 inserted, 4 kept
  EXPECT_EQ(engine.cache_size(), 4u);
  // The survivors are the 5 most recently inserted minus the first one —
  // i.e. pairs (0,6)..(0,9); asking those again is pure cache hits while
  // the evicted ones recompute, and values stay bit-identical either way.
  const auto again = engine.Answer(set);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache_hits, 4u);
  EXPECT_EQ(again->st_values, result->st_values);
  EXPECT_EQ(engine.cache_size(), 4u);
}

TEST(QueryEngineTest, FallbackPathCountsEstimatesNotFloods) {
  const UncertainGraph g = RandomGraph(61, 8, 0.3, true);
  QueryEngineOptions options = EngineOptions(128);
  options.reuse_worlds = false;
  QueryEngine engine(g, options);
  QuerySet set;
  set.AddSt(0, 7);
  set.AddSt(1, 7);
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.fallback_estimates, 2u);
  EXPECT_EQ(result->stats.floods, 0u);  // no shared-world flood ran
  EXPECT_EQ(result->stats.index_answers, 0u);
}

TEST(QueryEngineTest, TinyBankCapFallsBackAndCountsIt) {
  const UncertainGraph g = RandomGraph(63, 10, 0.3, false);
  QuerySet set;
  for (NodeId t = 1; t < 6; ++t) set.AddSt(0, t);

  QueryEngine shared(g, EngineOptions(256));
  const auto want_shared = shared.Answer(set);
  ASSERT_TRUE(want_shared.ok());
  EXPECT_EQ(want_shared->stats.bank_fallbacks, 0u);
  EXPECT_GT(want_shared->stats.floods, 0u);

  // A cap smaller than one edge row cannot host the bank: the batch must
  // fall off to per-query estimation, say so in the stats (and bump the
  // process-wide counter the stderr warning reports), and still produce
  // exactly the reuse_worlds=false answers.
  QueryEngineOptions capped = EngineOptions(256);
  capped.max_bank_bytes = 1;
  const int64_t before = BankFallbackCount();
  QueryEngine engine(g, capped);
  const auto result = engine.Answer(set);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.bank_fallbacks, 1u);
  EXPECT_EQ(result->stats.floods, 0u);
  EXPECT_EQ(result->stats.fallback_estimates, result->stats.distinct_pairs);
  EXPECT_GT(BankFallbackCount(), before);

  QueryEngineOptions per_query = EngineOptions(256);
  per_query.reuse_worlds = false;
  QueryEngine fallback(g, per_query);
  const auto expected = fallback.Answer(set);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->st_values, expected->st_values);
  // Asking for the slow path is not a fallback — the counter stays clean.
  EXPECT_EQ(expected->stats.bank_fallbacks, 0u);
}

TEST(QueryEngineTest, RaisedBankCapKeepsOverCapGraphOnSharedWorlds) {
  // A graph whose bank exceeds the cap falls back loudly, per pair; the way
  // back onto the shared-world path is to raise max_bank_bytes, which gives
  // answers bit-identical to an uncapped engine and reports the bank's
  // logical bytes.
  const UncertainGraph g = RandomGraph(29, 12, 0.4, false);
  QuerySet set;
  for (NodeId t = 1; t < 9; ++t) set.AddSt(0, t);
  const int kZ = 2048;

  QueryEngine reference(g, EngineOptions(kZ));
  const auto want = reference.Answer(set);
  ASSERT_TRUE(want.ok());
  EXPECT_GT(want->stats.floods, 0u);
  const size_t bank_bytes = BankBytes(g.num_edges(), kZ);
  EXPECT_EQ(want->stats.bank_bytes, bank_bytes);

  QueryEngineOptions capped = EngineOptions(kZ);
  capped.max_bank_bytes = bank_bytes / 2;
  const int64_t before = BankFallbackCount();
  QueryEngine tripped(g, capped);
  const auto fb = tripped.Answer(set);
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(fb->stats.bank_fallbacks, 1u);
  EXPECT_EQ(fb->stats.floods, 0u);
  EXPECT_EQ(fb->stats.bank_bytes, 0u);
  EXPECT_EQ(BankFallbackCount(), before + 1);

  QueryEngineOptions raised = capped;
  raised.max_bank_bytes = bank_bytes;
  QueryEngine admitted(g, raised);
  const auto got = admitted.Answer(set);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.bank_fallbacks, 0u);
  EXPECT_EQ(BankFallbackCount(), before + 1);
  EXPECT_GT(got->stats.floods, 0u);
  EXPECT_EQ(got->st_values, want->st_values);
  EXPECT_EQ(got->stats.bank_bytes, bank_bytes);
}

TEST(QueryEngineTest, IndexAnswersMatchFloodPathBitwise) {
  for (const bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(67, 14, 0.2, directed);
    QuerySet set;
    for (NodeId s = 0; s < 5; ++s) {
      for (NodeId t = 7; t < 14; ++t) set.AddSt(s, t);
    }
    QueryEngine flood(g, EngineOptions(512));
    QueryEngineOptions indexed_options = EngineOptions(512);
    indexed_options.use_index = true;
    QueryEngine indexed(g, indexed_options);
    const auto flood_result = flood.Answer(set);
    const auto index_result = indexed.Answer(set);
    ASSERT_TRUE(flood_result.ok());
    ASSERT_TRUE(index_result.ok());
    // Bit-identical, not statistically close: both paths read the same
    // sampled worlds exactly.
    EXPECT_EQ(index_result->st_values, flood_result->st_values)
        << "directed = " << directed;
    EXPECT_EQ(index_result->stats.floods, 0u);
    EXPECT_EQ(index_result->stats.index_answers,
              index_result->stats.distinct_pairs);
    ASSERT_NE(indexed.index(), nullptr);
  }
}

TEST(QueryEngineTest, IndexSyncRelabelsOnlyAffectedWorlds) {
  UncertainGraph g = RandomGraph(71, 12, 0.3, false);
  QueryEngineOptions options = EngineOptions(512);
  options.use_index = true;
  QueryEngine engine(g, options);
  QuerySet set;
  for (NodeId t = 1; t < 12; ++t) set.AddSt(0, t);
  ASSERT_TRUE(engine.Answer(set).ok());
  ASSERT_NE(engine.index(), nullptr);
  EXPECT_EQ(engine.index()->stats().builds, 1u);

  // Nudge one interior probability: only the worlds whose sampled presence
  // of that edge flips get relabeled — a small fraction of Z, not all of it.
  const Edge edge = g.EdgesById()[0];
  ASSERT_TRUE(g.UpdateEdgeProb(edge.src, edge.dst, edge.prob * 0.5).ok());
  const auto after = engine.Answer(set);
  ASSERT_TRUE(after.ok());
  ASSERT_NE(engine.index(), nullptr);
  const ReliabilityIndex::Stats& stats = engine.index()->stats();
  EXPECT_EQ(stats.builds, 1u);  // incremental, not a rebuild
  EXPECT_EQ(stats.incremental_updates, 1u);
  EXPECT_LT(stats.last_update_worlds, 512u);

  // The incrementally maintained answers equal a from-scratch engine's.
  QueryEngine fresh(g, options);
  const auto expected = fresh.Answer(set);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after->st_values, expected->st_values);

  // AddEdge extends the shape: still incremental, still bit-pure.
  ASSERT_TRUE(g.AddEdge(0, 11, 0.5).ok() || g.UpdateEdgeProb(0, 11, 0.5).ok());
  const auto extended = engine.Answer(set);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(engine.index()->stats().builds, 1u);
  QueryEngine fresh2(g, options);
  const auto expected2 = fresh2.Answer(set);
  ASSERT_TRUE(expected2.ok());
  EXPECT_EQ(extended->st_values, expected2->st_values);
}

}  // namespace
}  // namespace relmax

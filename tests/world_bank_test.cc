// WorldBank: the shared possible-world bit-matrix behind reuse_worlds. The
// bank must be bit-identical for any fill thread count, its estimates must
// track the exact factoring oracle, the word-parallel reachability fixpoint
// must agree with per-world brute force, and the answers must be
// bit-identical across lane kernels (scalar vs blocked/SIMD) — the
// (threads, lane-width)-invariance determinism contract.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/exact_reliability.h"
#include "graph/uncertain_graph.h"
#include "sampling/bitlane.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

UncertainGraph DiamondGraph() {
  // s=0 -> {1, 2} -> t=3, all edges 0.5, plus a direct 0->3 edge at 0.2.
  UncertainGraph g = UncertainGraph::Directed(4);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  EXPECT_TRUE(g.AddEdge(0, 3, 0.2).ok());
  return g;
}

UncertainGraph BridgeGraph() {
  // Two triangles joined by a bridge edge 2-3 (undirected).
  UncertainGraph g = UncertainGraph::Undirected(6);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.6).ok());
  EXPECT_TRUE(g.AddEdge(3, 4, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(4, 5, 0.7).ok());
  EXPECT_TRUE(g.AddEdge(3, 5, 0.7).ok());
  return g;
}

UncertainGraph RandomGraph(uint64_t seed, NodeId n, double density,
                           bool directed) {
  UncertainGraph g = directed ? UncertainGraph::Directed(n)
                              : UncertainGraph::Undirected(n);
  Rng rng(seed);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = directed ? 0 : u + 1; v < n; ++v) {
      if (u == v) continue;
      if (rng.NextDouble() < density) {
        EXPECT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.05, 0.95)).ok());
      }
    }
  }
  return g;
}

// Z = 150 exercises the Z % 64 != 0 tail (150 = 2*64 + 22) and leaves whole
// pad words inside the 512-bit lane block.
constexpr int kTailSamples = 150;

std::vector<uint64_t> ToVec(std::span<const uint64_t> bits) {
  return std::vector<uint64_t>(bits.begin(), bits.end());
}

std::vector<uint64_t> Row(const bitlane::BitMatrix& m, NodeId v) {
  return ToVec(m.row_span(v));
}

TEST(WorldBankTest, BitMatrixIdenticalAcrossThreadCounts) {
  const UncertainGraph g = BridgeGraph();
  WorldBank reference(g, {.num_samples = 1000, .seed = 7, .num_threads = 1});
  for (int threads : {2, 8}) {
    WorldBank bank(g, {.num_samples = 1000, .seed = 7,
                       .num_threads = threads});
    for (size_t e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(ToVec(bank.EdgeUpWorlds(static_cast<EdgeId>(e))),
                ToVec(reference.EdgeUpWorlds(static_cast<EdgeId>(e))))
          << "edge " << e << " threads " << threads;
    }
  }
}

// The determinism contract of this PR's kernel rewrite: flood answers are
// bit-identical across fill thread counts AND across lane kernels, for
// directed and undirected graphs, at a Z that is not a multiple of 64 (so
// the tail word and the lane-block padding are both exercised).
TEST(WorldBankTest, FloodBitsInvariantAcrossLaneModeAndThreads) {
  const UncertainGraph graphs[] = {DiamondGraph(), BridgeGraph()};
  for (const UncertainGraph& g : graphs) {
    // 500 % 64 != 0: the last logical word is a tail, and 500 bits also
    // leave whole pad words inside the 512-bit lane block.
    bitlane::BitMatrix expected;
    {
      bitlane::ScopedLaneMode set(bitlane::LaneMode::kBlocked);
      WorldBank bank(g, {.num_samples = 500, .seed = 29, .num_threads = 1});
      bank.ReachabilityFixpoint(0, /*backward=*/false, bank.AllEdges(),
                                &expected);
    }
    for (int threads : {1, 4}) {
      for (bitlane::LaneMode mode :
           {bitlane::LaneMode::kScalar, bitlane::LaneMode::kBlocked}) {
        bitlane::ScopedLaneMode set(mode);
        WorldBank bank(g,
                       {.num_samples = 500, .seed = 29,
                        .num_threads = threads});
        bitlane::BitMatrix reach;
        bank.ReachabilityFixpoint(0, /*backward=*/false, bank.AllEdges(),
                                  &reach);
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(Row(reach, v), Row(expected, v))
              << "node " << v << " threads " << threads << " mode "
              << bitlane::ModeName(mode)
              << (g.directed() ? " directed" : " undirected");
        }
        // Tail bits beyond num_worlds stay clear in every row.
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          EXPECT_EQ(WorldBank::CountBits(reach.row_span(v),
                                         static_cast<size_t>(
                                             bank.num_worlds())),
                    WorldBank::CountBits(reach.row_span(v),
                                         64 * bank.world_words()))
              << "node " << v;
        }
      }
    }
  }
}

// Every bit past num_worlds — the tail of the last logical word and every
// lane-block pad word — stays zero in every edge row; the fixpoint, the
// index file's validation and every popcount rely on it.
TEST(WorldBankTest, EdgeRowsKeepTailAndPadBitsClear) {
  for (bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(31, 24, 0.25, directed);
    const WorldBank bank(g, {.num_samples = kTailSamples, .seed = 13});
    ASSERT_EQ(bank.num_edges(), g.num_edges());
    for (size_t e = 0; e < g.num_edges(); ++e) {
      const uint64_t* const row =
          bank.EdgeUpWorlds(static_cast<EdgeId>(e)).data();
      EXPECT_EQ(row[bank.world_words() - 1] >> (kTailSamples & 63), 0u)
          << "edge " << e;
      for (size_t w = bank.world_words(); w < bitlane::kLaneWords; ++w) {
        EXPECT_EQ(row[w], 0u) << "edge " << e << " pad word " << w;
      }
    }
  }
}

// Frontier regression: a converged scratch re-run under kSeedsAreFacts must
// touch its seeded blocks once and propagate nothing.
TEST(WorldBankTest, ConvergedStateNeedsZeroExtraPropagation) {
  for (const UncertainGraph& g :
       {DiamondGraph(), BridgeGraph(), RandomGraph(9, 18, 0.25, false)}) {
    WorldBank bank(g, {.num_samples = 500, .seed = 31, .num_threads = 1});
    const std::vector<EdgeId> active = bank.AllEdges();
    bitlane::BitMatrix reach;
    const int64_t first =
        bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reach);
    EXPECT_GT(first, 0);
    const int64_t again =
        bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reach,
                                  WorldBank::SeedPolicy::kSeedsAreFacts);
    EXPECT_EQ(again, 0) << (g.directed() ? "directed" : "undirected");
  }
}

TEST(WorldBankTest, ConnectedFractionTracksExactOracle) {
  const UncertainGraph diamond = DiamondGraph();
  const UncertainGraph bridge = BridgeGraph();
  WorldBank diamond_bank(diamond,
                         {.num_samples = 60000, .seed = 3, .num_threads = 4});
  WorldBank bridge_bank(bridge,
                        {.num_samples = 60000, .seed = 5, .num_threads = 4});
  EXPECT_NEAR(
      diamond_bank.ConnectedFraction(0, 3, diamond_bank.AllEdges(), {}),
      ExactReliabilityFactoring(diamond, 0, 3).value(), 0.01);
  EXPECT_NEAR(
      bridge_bank.ConnectedFraction(0, 5, bridge_bank.AllEdges(), {}),
      ExactReliabilityFactoring(bridge, 0, 5).value(), 0.01);
}

TEST(WorldBankTest, EdgeFrequenciesMatchProbabilities) {
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 40000, .seed = 11, .num_threads = 2});
  for (size_t e = 0; e < g.num_edges(); ++e) {
    const int64_t up = WorldBank::CountBits(
        bank.EdgeUpWorlds(static_cast<EdgeId>(e)),
        static_cast<size_t>(bank.num_worlds()));
    EXPECT_NEAR(static_cast<double>(up) / bank.num_worlds(),
                g.EdgeById(static_cast<EdgeId>(e)).prob, 0.01)
        << "edge " << e;
  }
}

TEST(WorldBankTest, WorldsWithAllEdgesMatchesPerWorldScan) {
  const UncertainGraph g = BridgeGraph();
  WorldBank bank(g, {.num_samples = 500, .seed = 13, .num_threads = 1});
  const std::vector<EdgeId> subset = {0, 1, 3};  // arbitrary edge subset
  const std::vector<uint64_t> up = bank.WorldsWithAllEdges(subset);
  for (int w = 0; w < bank.num_worlds(); ++w) {
    bool all = true;
    for (EdgeId e : subset) all = all && bank.EdgePresent(w, e);
    EXPECT_EQ((up[w / 64] >> (w % 64)) & 1u, all ? 1u : 0u) << "world " << w;
  }
  // Guard bits beyond num_worlds must stay clear (500 is not a multiple of
  // 64, so the last word has a tail).
  EXPECT_EQ(WorldBank::CountBits(up, static_cast<size_t>(bank.num_worlds())),
            WorldBank::CountBits(up, 64 * up.size()));
}

// Per-world reference: BFS over the edges present in world w.
bool BruteForceConnects(const WorldBank& bank, const UncertainGraph& g, int w,
                        NodeId s, NodeId t,
                        const std::vector<EdgeId>& active) {
  std::vector<char> edge_active(g.num_edges(), 0);
  for (EdgeId e : active) edge_active[e] = 1;
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> queue = {s};
  seen[s] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    for (const Arc& arc : g.OutArcs(queue[head])) {
      if (!edge_active[arc.edge_id] || !bank.EdgePresent(w, arc.edge_id) ||
          seen[arc.to]) {
        continue;
      }
      seen[arc.to] = 1;
      queue.push_back(arc.to);
    }
  }
  return seen[t];
}

TEST(WorldBankTest, ReachabilityFixpointMatchesPerWorldBfs) {
  for (const UncertainGraph& g : {DiamondGraph(), BridgeGraph()}) {
    const NodeId t = g.num_nodes() - 1;
    WorldBank bank(g, {.num_samples = 300, .seed = 17, .num_threads = 1});
    // Exercise a strict subset of edges too, not just the full universe.
    std::vector<EdgeId> partial;
    for (size_t e = 0; e + 1 < g.num_edges(); ++e) {
      partial.push_back(static_cast<EdgeId>(e));
    }
    for (const std::vector<EdgeId>& active : {bank.AllEdges(), partial}) {
      bitlane::BitMatrix reach;
      bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reach);
      for (int w = 0; w < bank.num_worlds(); ++w) {
        EXPECT_EQ((reach.row(t)[w / 64] >> (w % 64)) & 1u,
                  BruteForceConnects(bank, g, w, 0, t, active) ? 1u : 0u)
            << "world " << w << " |active| = " << active.size();
      }
    }
  }
}

// Random directed and undirected graphs at a tail-word Z, from several
// sources, forward and backward, over every edge and over every other edge:
// each world's flood bit must equal a BFS over that world's active up edges
// (backward floods follow arcs in reverse, so they are checked as "v
// reaches the source").
TEST(WorldBankTest, RandomGraphFloodsMatchPerWorldBfs) {
  for (bool directed : {false, true}) {
    const UncertainGraph g = RandomGraph(47, 16, 0.2, directed);
    const WorldBank bank(g, {.num_samples = kTailSamples, .seed = 5});
    std::vector<EdgeId> half;
    for (size_t e = 0; e < g.num_edges(); e += 2) {
      half.push_back(static_cast<EdgeId>(e));
    }
    for (const std::vector<EdgeId>& active : {bank.AllEdges(), half}) {
      for (NodeId source : {NodeId{0}, NodeId{7}, NodeId{15}}) {
        for (bool backward : {false, true}) {
          bitlane::BitMatrix reach;
          bank.ReachabilityFixpoint(source, backward, active, &reach);
          for (NodeId v = 0; v < g.num_nodes(); ++v) {
            for (int w = 0; w < bank.num_worlds(); ++w) {
              const bool want =
                  backward ? BruteForceConnects(bank, g, w, v, source, active)
                           : BruteForceConnects(bank, g, w, source, v, active);
              ASSERT_EQ((reach.row(v)[w / 64] >> (w % 64)) & 1u,
                        want ? 1u : 0u)
                  << (directed ? "directed" : "undirected") << " source "
                  << source << " v " << v << " world " << w << " backward "
                  << backward << " |active| " << active.size();
            }
          }
        }
      }
    }
  }
}

TEST(WorldBankTest, BackwardFixpointMatchesForwardOnTranspose) {
  // reach-to-t on g computed backward must equal reach-from-t forward with
  // every arc direction ignored for undirected graphs; for the directed
  // diamond, backward reach from t marks exactly the nodes that can reach t.
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 300, .seed = 19, .num_threads = 1});
  bitlane::BitMatrix to_t;
  bank.ReachabilityFixpoint(3, /*backward=*/true, bank.AllEdges(), &to_t);
  bitlane::BitMatrix from_s;
  bank.ReachabilityFixpoint(0, /*backward=*/false, bank.AllEdges(), &from_s);
  // s-t connectivity is symmetric between the two sweeps.
  EXPECT_EQ(Row(to_t, 0), Row(from_s, 3));
}

TEST(WorldBankTest, SeededReachIsKeptAndSound) {
  // Pre-seeded bits (the selection fast path: worlds where a whole path is
  // up) must be preserved under kSeedsAreFacts and must not change the final
  // connected count.
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 4096, .seed = 21, .num_threads = 1});
  const std::vector<EdgeId> active = bank.AllEdges();

  bitlane::BitMatrix plain;
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &plain);

  // Edges 0+2 form the path 0-1-3; edge 4 is the direct 0->3 edge.
  bitlane::BitMatrix seeded(g.num_nodes(), bank.world_words());
  const std::vector<uint64_t> path = bank.WorldsWithAllEdges({0, 2});
  const std::vector<uint64_t> direct = bank.WorldsWithAllEdges({4});
  uint64_t* const at_t = seeded.row(3);
  for (size_t i = 0; i < path.size(); ++i) at_t[i] = path[i] | direct[i];
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &seeded,
                            WorldBank::SeedPolicy::kSeedsAreFacts);

  EXPECT_EQ(Row(seeded, 3), Row(plain, 3));
}

TEST(WorldBankTest, ReusedScratchIsWipedByDefault) {
  // Regression: a size-matched scratch reused across sources used to keep
  // the previous flood's bits as "facts", silently inflating the next
  // answer. The kernel now wipes non-source rows itself under the default
  // policy — callers need no clear() between sources.
  const UncertainGraph g = DiamondGraph();
  WorldBank bank(g, {.num_samples = 512, .seed = 23, .num_threads = 1});
  const std::vector<EdgeId> active = bank.AllEdges();

  bitlane::BitMatrix fresh;
  bank.ReachabilityFixpoint(2, /*backward=*/false, active, &fresh);

  bitlane::BitMatrix reused;
  // First flood from the well-connected source 0 sets bits everywhere…
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &reused);
  // …which must not leak into a subsequent flood from source 2.
  bank.ReachabilityFixpoint(2, /*backward=*/false, active, &reused);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(Row(reused, v), Row(fresh, v)) << "node " << v;
  }

  // Opting in keeps the seeds, growing reachability monotonically (the
  // greedy BeginRound contract).
  bitlane::BitMatrix seeded;
  bank.ReachabilityFixpoint(0, /*backward=*/false, active, &seeded);
  const std::vector<uint64_t> from_zero = Row(seeded, 3);
  bank.ReachabilityFixpoint(2, /*backward=*/false, active, &seeded,
                            WorldBank::SeedPolicy::kSeedsAreFacts);
  for (size_t w = 0; w < bank.world_words(); ++w) {
    EXPECT_EQ(seeded.row(3)[w] & from_zero[w], from_zero[w]) << "word " << w;
  }
}

}  // namespace
}  // namespace relmax

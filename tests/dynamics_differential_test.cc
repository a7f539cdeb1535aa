// Differential fuzz for incremental dynamic-topology maintenance.
//
// The claim under test (the dynamics subsystem's load-bearing wall): for
// ANY sequence of graph deltas, patching in place — Graph::apply_delta on
// the CSR/bitset structures plus NeighborhoodCache::apply_delta's scoped
// ball invalidation — is *byte-identical* to throwing everything away and
// rebuilding from scratch every slot. Three layers of evidence:
//
//   1. Structural: random delta sequences applied to a Graph equal a
//      from-scratch rebuild of the same edge set, row by row and bit by bit,
//      and a cache maintained by apply_delta equals a fresh cache, also
//      when implicit-tier sizes are read only on some slots and so stay
//      stale across several deltas.
//   2. Engine: a DistributedRobustPtas kept alive across deltas via
//      on_graph_delta() takes byte-identical decisions (winners + weight +
//      message accounting) to a fresh engine per delta.
//   3. End to end: full dynamic simulations with dynamics.incremental on
//      and off produce identical SimulationResults across every solver mode
//      (distributed exact/greedy local, centralized PTAS, global greedy,
//      exact B&B).
//
// Counting sequences: each structural case and each end-to-end run applies
// one independently seeded random delta *sequence*; the total crosses the
// 200-sequence bar with margin (see kStructuralCases and the mode grid).
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "graph/generators.h"
#include "graph/hop.h"
#include "graph/neighborhood_cache.h"
#include "mwis/distributed_ptas.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace mhca {
namespace {

using scenario::Scenario;
using scenario::ScenarioRunner;

constexpr int kStructuralCases = 140;  // sequences in layer 1
constexpr int kEngineCases = 30;       // sequences in layer 2
constexpr int kDeltasPerCase = 12;

const char* kChurnScenario = R"(name = dyn-work
[topology]
kind = geometric
nodes = 30
avg_degree = 4.5
force_connected = false
[channel]
kind = gaussian
channels = 3
[policy]
kind = cab
[dynamics]
kind = churn
leave_prob = 0.05
join_prob = 0.3
[run]
slots = 40
count_messages = true
)";

// ---------------------------------------------------------------- helpers

std::vector<std::pair<int, int>> edges_of(const Graph& g) {
  std::vector<std::pair<int, int>> out;
  for (int v = 0; v < g.size(); ++v)
    for (int u : g.neighbors(v))
      if (u > v) out.emplace_back(v, u);
  return out;
}

Graph from_edge_list(int n, const std::vector<std::pair<int, int>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

/// Draw a random exact delta against `present` (mutated to the new truth).
void random_delta(int n, std::set<std::pair<int, int>>& present, Rng& rng,
                  std::vector<std::pair<int, int>>& added,
                  std::vector<std::pair<int, int>>& removed) {
  added.clear();
  removed.clear();
  const int removals = rng.uniform_int(0, 3);
  const int additions = rng.uniform_int(0, 3);
  for (int i = 0; i < removals && !present.empty(); ++i) {
    auto it = present.begin();
    std::advance(it, rng.uniform_int(0, static_cast<int>(present.size()) - 1));
    removed.push_back(*it);
    present.erase(it);
  }
  const std::set<std::pair<int, int>> just_removed(removed.begin(),
                                                   removed.end());
  for (int i = 0; i < additions; ++i) {
    for (int tries = 0; tries < 50; ++tries) {
      int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      // One delta is exact: it may not both remove and re-add an edge.
      if (present.count({u, v}) || just_removed.count({u, v})) continue;
      present.insert({u, v});
      added.emplace_back(u, v);
      break;
    }
  }
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());
}

std::vector<int> touched_of(const std::vector<std::pair<int, int>>& added,
                            const std::vector<std::pair<int, int>>& removed) {
  std::vector<int> touched;
  for (const auto& [u, v] : added) {
    touched.push_back(u);
    touched.push_back(v);
  }
  for (const auto& [u, v] : removed) {
    touched.push_back(u);
    touched.push_back(v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

/// Every vertex's r-ball and election ball in `cache` against a fresh
/// serial build over g: spans on the explicit tier, sizes on the implicit.
void expect_matches_fresh_build(const NeighborhoodCache& cache,
                                const Graph& g) {
  const NeighborhoodCache fresh(g, cache.r(), 1);
  ASSERT_EQ(cache.eball_tier(), fresh.eball_tier());
  const bool spans =
      cache.eball_tier() == NeighborhoodCache::EballTier::kExplicit;
  for (int v = 0; v < g.size(); ++v) {
    const auto ra = cache.r_ball(v);
    const auto rb = fresh.r_ball(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "r-ball " << v << " diverged";
    ASSERT_EQ(cache.election_ball_size(v), fresh.election_ball_size(v))
        << "e-ball size " << v << " diverged";
    if (!spans) continue;
    const auto ea = cache.election_ball(v);
    const auto eb = fresh.election_ball(v);
    ASSERT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()))
        << "election ball " << v << " diverged";
  }
}

// --------------------------------------------- layer 1: structural equality

TEST(DynamicsDifferential, GraphAndCacheMatchFreshBuildOnRandomSequences) {
  for (int c = 0; c < kStructuralCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(1000 + static_cast<std::uint64_t>(c) * 37);
    // Mix sizes and densities; every 4th case crosses the r=3 regime.
    const int n = 12 + (c % 5) * 9;
    const double degree = 2.0 + (c % 4);
    const int r = 1 + (c % 4) % 3;
    ConflictGraph base = random_geometric_avg_degree(
        n, degree, rng, /*force_connected=*/false);
    std::vector<std::pair<int, int>> edge_vec = edges_of(base.graph());
    std::set<std::pair<int, int>> present(edge_vec.begin(), edge_vec.end());

    Graph g = from_edge_list(n, edge_vec);
    NeighborhoodCache cache(g, r);

    std::vector<std::pair<int, int>> added, removed;
    for (int d = 0; d < kDeltasPerCase; ++d) {
      random_delta(n, present, rng, added, removed);
      if (added.empty() && removed.empty()) continue;
      g.apply_delta(added, removed);
      cache.apply_delta(g, touched_of(added, removed));

      const Graph rebuilt = from_edge_list(
          n, std::vector<std::pair<int, int>>(present.begin(), present.end()));
      ASSERT_EQ(g.num_edges(), rebuilt.num_edges());
      for (int v = 0; v < n; ++v) {
        const auto na = g.neighbors(v);
        const auto nb = rebuilt.neighbors(v);
        ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
            << "row " << v << " diverged at delta " << d;
        if (g.has_adjacency_matrix()) {
          const auto ra = g.adjacency_row(v);
          const auto rb = rebuilt.adjacency_row(v);
          ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
              << "bitset row " << v << " diverged at delta " << d;
        }
      }
      SCOPED_TRACE("delta " + std::to_string(d));
      ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, rebuilt));
    }
  }
}

TEST(DynamicsDifferential, SparseRowGraphMatchesFreshBuildBeyondMatrixLimit) {
  // Same structural claim past the dense-matrix limit: apply_delta must
  // keep the sharded sparse rows, and caches at r = 1, 2, 3 built over
  // them, identical to a cold rebuild. One sparse graph, many deltas.
  const int n = Graph::kAdjacencyMatrixLimit + 40;
  Rng rng(4242);
  std::set<std::pair<int, int>> present;
  // A long path keeps balls nontrivial; random chords stress the blocks.
  for (int i = 0; i + 1 < 400; ++i) present.insert({i, i + 1});
  for (int t = 0; t < 300; ++t) {
    int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    present.insert({u, v});
  }
  Graph g = from_edge_list(
      n, std::vector<std::pair<int, int>>(present.begin(), present.end()));
  ASSERT_TRUE(g.has_sparse_rows());
  std::vector<NeighborhoodCache> caches;
  for (int r = 1; r <= 3; ++r) caches.emplace_back(g, r);

  std::vector<std::pair<int, int>> added, removed;
  for (int d = 0; d < 20; ++d) {
    random_delta(n, present, rng, added, removed);
    if (added.empty() && removed.empty()) continue;
    g.apply_delta(added, removed);
    const std::vector<int> touched = touched_of(added, removed);
    for (auto& cache : caches) cache.apply_delta(g, touched);

    const Graph rebuilt = from_edge_list(
        n, std::vector<std::pair<int, int>>(present.begin(), present.end()));
    ASSERT_TRUE(rebuilt.has_sparse_rows());
    ASSERT_EQ(g.num_edges(), rebuilt.num_edges());
    for (int v = 0; v < n; ++v) {
      const auto ba = g.sparse_row_blocks(v);
      const auto bb = rebuilt.sparse_row_blocks(v);
      ASSERT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin(), bb.end()))
          << "sparse blocks of row " << v << " diverged at delta " << d;
      const auto wa = g.sparse_row_words(v);
      const auto wb = rebuilt.sparse_row_words(v);
      ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
          << "sparse words of row " << v << " diverged at delta " << d;
    }
    // Every vertex of every cache against a fresh build. This graph is
    // past the matrix limit, so the caches run the implicit e-ball tier:
    // apply_delta maintains e-ball sizes, not spans.
    for (const auto& cache : caches) {
      SCOPED_TRACE("r = " + std::to_string(cache.r()) + ", delta " +
                   std::to_string(d));
      ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));
    }
  }
}

TEST(DynamicsDifferential, ChordOnAPathRecomputesExactlyTheTwoRReach) {
  // The blast radius is tight, not just safe: one chord (a, b) added to a
  // path makes a and b touched, and a (2r+1)-ball can change only if its
  // owner is within 2r hops of them. Owners at exactly 2r+1 hops keep their
  // ball (the chord lies at its rim), so last_invalidated() must be
  // |reach(T, 2r)| = 2 (4r + 1) with the chord far from the path ends and
  // from each other, and the cache must still equal a fresh build.
  const int n = 120;
  const int a = 30, b = 80;
  for (int r = 1; r <= 3; ++r) {
    SCOPED_TRACE("r = " + std::to_string(r));
    std::vector<std::pair<int, int>> path;
    for (int i = 0; i + 1 < n; ++i) path.emplace_back(i, i + 1);
    Graph g = from_edge_list(n, path);
    NeighborhoodCache cache(g, r);
    const std::vector<std::pair<int, int>> chord = {{a, b}};
    const std::vector<int> touched = {a, b};

    g.apply_delta(chord, {});
    cache.apply_delta(g, touched);
    EXPECT_EQ(cache.last_invalidated(), 2 * (4 * r + 1));
    ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));

    g.apply_delta({}, chord);
    cache.apply_delta(g, touched);
    EXPECT_EQ(cache.last_invalidated(), 2 * (4 * r + 1));
    ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));
  }
}

// ------------------------------------ lazy implicit-tier e-ball sizes

TEST(DynamicsDifferential, LazySizesMatchFreshBuildWhenReadOnRandomSlots) {
  // Past the matrix limit the e-ball layer is implicit, and apply_delta
  // only marks the sizes it may have moved as stale. Sizes are read here on
  // a random subset of slots and vertices, so entries stay stale across
  // several deltas: every read must still equal a fresh build, apply_delta
  // itself must recount nothing, and the recounts must equal the stale
  // entries read (tracked independently from reach(T, 2r)).
  const int n = Graph::kAdjacencyMatrixLimit + 40;
  for (int r = 1; r <= 3; ++r) {
    SCOPED_TRACE("r = " + std::to_string(r));
    Rng rng(7100 + static_cast<std::uint64_t>(r));
    ConflictGraph base = random_geometric_avg_degree(
        n, 4.0, rng, /*force_connected=*/false);
    std::vector<std::pair<int, int>> edge_vec = edges_of(base.graph());
    std::set<std::pair<int, int>> present(edge_vec.begin(), edge_vec.end());
    Graph g = from_edge_list(n, edge_vec);
    NeighborhoodCache cache(g, r);
    ASSERT_EQ(cache.eball_tier(), NeighborhoodCache::EballTier::kImplicit);

    BfsScratch scratch(n);
    std::vector<char> stale(static_cast<std::size_t>(n), 0);
    std::vector<int> reach;
    std::vector<std::pair<int, int>> added, removed;
    int read_slots = 0;
    std::int64_t stale_reads = 0;
    for (int d = 0; d < 24; ++d) {
      SCOPED_TRACE("delta " + std::to_string(d));
      random_delta(n, present, rng, added, removed);
      if (added.empty() && removed.empty()) continue;
      g.apply_delta(added, removed);
      const std::vector<int> touched = touched_of(added, removed);
      const std::int64_t before = cache.size_recounts();
      cache.apply_delta(g, touched);
      ASSERT_EQ(cache.size_recounts(), before) << "apply_delta recounted";
      scratch.multi_source_k_hop(g, touched, 2 * r, reach);
      ASSERT_EQ(cache.last_invalidated(), static_cast<int>(reach.size()));
      for (int v : reach) stale[static_cast<std::size_t>(v)] = 1;

      if (!rng.bernoulli(0.3)) continue;  // sizes stay stale this slot
      ++read_slots;
      const NeighborhoodCache fresh(g, r, 1);
      std::int64_t expected = 0;
      for (int v = 0; v < n; ++v) {
        if (!rng.bernoulli(0.5)) continue;
        expected += stale[static_cast<std::size_t>(v)];
        stale[static_cast<std::size_t>(v)] = 0;
        ASSERT_EQ(cache.election_ball_size(v), fresh.election_ball_size(v))
            << "e-ball size " << v << " diverged";
      }
      ASSERT_EQ(cache.size_recounts() - before, expected);
      stale_reads += expected;
    }
    EXPECT_GE(read_slots, 3);
    EXPECT_GT(stale_reads, 0);
    // Whatever is still stale, a full read serves it correctly.
    ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));
  }
}

TEST(DynamicsDifferential, ImplicitTierRecountsOnlyTheStaleSizesRead) {
  // Deterministic work check on a path past the matrix limit: a chord
  // (a, b) invalidates exactly |reach(T, 2r)| = 2 (4r + 1) sizes, and
  // apply_delta recounts none of them. Reading every size recounts exactly
  // those, once; reading again recounts nothing. After the chord is
  // removed, reading a single stale size recounts one.
  const int n = Graph::kAdjacencyMatrixLimit + 40;
  const int a = 3000, b = 5000;
  for (int r = 1; r <= 3; ++r) {
    SCOPED_TRACE("r = " + std::to_string(r));
    std::vector<std::pair<int, int>> path;
    for (int i = 0; i + 1 < n; ++i) path.emplace_back(i, i + 1);
    Graph g = from_edge_list(n, path);
    NeighborhoodCache cache(g, r);
    ASSERT_EQ(cache.eball_tier(), NeighborhoodCache::EballTier::kImplicit);
    const std::vector<std::pair<int, int>> chord = {{a, b}};
    const std::vector<int> touched = {a, b};
    const int reach = 2 * (4 * r + 1);

    g.apply_delta(chord, {});
    cache.apply_delta(g, touched);
    EXPECT_EQ(cache.last_invalidated(), reach);
    EXPECT_EQ(cache.size_recounts(), 0);
    ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));
    EXPECT_EQ(cache.size_recounts(), reach);
    ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));
    EXPECT_EQ(cache.size_recounts(), reach);

    g.apply_delta({}, chord);
    cache.apply_delta(g, touched);
    EXPECT_EQ(cache.last_invalidated(), reach);
    EXPECT_EQ(cache.size_recounts(), reach);
    EXPECT_EQ(cache.election_ball_size(a), 2 * (2 * r + 1) + 1);
    EXPECT_EQ(cache.size_recounts(), reach + 1);
    ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(cache, g));
    EXPECT_EQ(cache.size_recounts(), 2 * reach);
  }
}

/// Forces the e-ball tier for the engines built in its scope.
class EballTierOverride {
 public:
  explicit EballTierOverride(const char* tier) {
    ::setenv("MHCA_EBALL_TIER", tier, /*overwrite=*/1);
  }
  ~EballTierOverride() { ::unsetenv("MHCA_EBALL_TIER"); }
};

TEST(DynamicsDifferential, SimulationReportsMaintenanceWork) {
  // SimulationResult carries the engine's maintenance counters. Both tiers
  // invalidate the same balls (same graph, same deltas); only the implicit
  // tier recounts sizes, and never more than were invalidated. A full
  // rebuild per change does no incremental work at all.
  Scenario s = scenario::parse_scenario(kChurnScenario);
  SimulationResult expl, impl;
  {
    EballTierOverride force("explicit");
    expl = ScenarioRunner(s).run();
  }
  {
    EballTierOverride force("implicit");
    impl = ScenarioRunner(s).run();
  }
  EXPECT_EQ(impl.last_strategy, expl.last_strategy);
  EXPECT_EQ(impl.total_messages, expl.total_messages);
  EXPECT_GT(expl.balls_invalidated, 0);
  EXPECT_EQ(impl.balls_invalidated, expl.balls_invalidated);
  EXPECT_EQ(expl.size_recounts, 0);
  EXPECT_GT(impl.size_recounts, 0);
  EXPECT_LE(impl.size_recounts, impl.balls_invalidated);

  scenario::apply_override(s, "dynamics.incremental=false");
  EballTierOverride force("implicit");
  const SimulationResult full = ScenarioRunner(s).run();
  EXPECT_EQ(full.total_messages, impl.total_messages);
  EXPECT_EQ(full.balls_invalidated, 0);
  EXPECT_EQ(full.size_recounts, 0);
}

// -------------------------------------------- batched delta coalescing

TEST(DynamicsDifferential, BatchedDeltasMatchEagerApplicationAtFlushSlots) {
  // DeltaBatch claim: accumulating k exact slot deltas and applying the
  // flushed net delta yields the graph that applying all k in order yields
  // — including when edges and nodes flip back and forth inside the window
  // (the high-churn draws below revisit the same small id range, so
  // cancellation actually happens).
  for (int c = 0; c < 40; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(5000 + static_cast<std::uint64_t>(c) * 71);
    const int n = 8 + (c % 4) * 6;
    std::set<std::pair<int, int>> present;
    for (int t = 0; t < n; ++t) {
      int u = rng.uniform_int(0, n - 1), v = rng.uniform_int(0, n - 1);
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      present.insert({u, v});
    }
    Graph eager = from_edge_list(
        n, std::vector<std::pair<int, int>>(present.begin(), present.end()));
    Graph batched = eager;

    dynamics::DeltaBatch batch;
    std::vector<std::pair<int, int>> added, removed;
    const int window = 2 + c % 5;
    for (int slot = 0; slot < window; ++slot) {
      random_delta(n, present, rng, added, removed);
      eager.apply_delta(added, removed);
      dynamics::GraphDelta d;
      d.added_edges = added;
      d.removed_edges = removed;
      batch.accumulate(d);
    }
    dynamics::GraphDelta net;
    batch.flush(net);
    batched.apply_delta(net.added_edges, net.removed_edges);
    ASSERT_EQ(eager.num_edges(), batched.num_edges());
    for (int v = 0; v < n; ++v) {
      const auto na = eager.neighbors(v);
      const auto nb = batched.neighbors(v);
      ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
          << "row " << v;
    }
    // The batch is reset by flush: a second flush is a no-op delta.
    dynamics::GraphDelta empty;
    batch.flush(empty);
    ASSERT_TRUE(empty.empty());
  }
}

TEST(DynamicsDifferential, BatchedNetworkMatchesEagerAtDecisionSlots) {
  // DynamicNetwork batch mode: same model, same seed, one network eager and
  // one batched to period P. At every flush slot the graphs, masks, and the
  // decisions of engines maintained over them must be byte-identical; in
  // between, the batched network must hold still.
  for (const int period : {2, 4, 7}) {
    SCOPED_TRACE("period " + std::to_string(period));
    Rng topo(31);
    ConflictGraph base = random_geometric_avg_degree(
        20, 4.0, topo, /*force_connected=*/false);
    const auto make_model = [&](std::uint64_t seed) {
      Rng rng(seed);
      scenario::ParamMap p;
      p.set("leave_prob", "0.15");
      p.set("join_prob", "0.4");
      const dynamics::DynamicsBuildContext ctx{&base, 100};
      return dynamics::dynamics_registry().create("churn", p, ctx, rng);
    };
    dynamics::DynamicNetwork eager(base, 3, make_model(9), true);
    dynamics::DynamicNetwork batched(base, 3, make_model(9), true);
    batched.set_batch_period(period);

    DistributedPtasConfig cfg;
    cfg.solver.D = 0;
    cfg.solver.parallelism = 0;
    cfg.solver.r = 2;
    DistributedRobustPtas eager_engine(eager.ecg().graph(), cfg);
    DistributedRobustPtas batched_engine(batched.ecg().graph(), cfg);

    Rng wrng(17);
    std::vector<double> w(
        static_cast<std::size_t>(eager.ecg().num_vertices()));
    int flushes = 0;
    for (std::int64_t t = 2; t <= 60; ++t) {
      const dynamics::SlotChange& ce = eager.advance(t);
      if (ce.changed) eager_engine.on_graph_delta(ce.touched_vertices);
      const dynamics::SlotChange& cb = batched.advance(t);
      if (cb.changed) batched_engine.on_graph_delta(cb.touched_vertices);

      const bool flush_slot = ((t - 1) % period) == 0;
      if (!flush_slot) {
        ASSERT_FALSE(cb.changed) << "batched network changed mid-window, t="
                                 << t;
        continue;
      }
      ++flushes;
      // Graph equality at the decision boundary.
      const Graph& ga = eager.ecg().graph();
      const Graph& gb = batched.ecg().graph();
      ASSERT_EQ(ga.num_edges(), gb.num_edges()) << "t=" << t;
      for (int v = 0; v < ga.size(); ++v) {
        const auto na = ga.neighbors(v);
        const auto nb = gb.neighbors(v);
        ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
            << "row " << v << " t=" << t;
      }
      ASSERT_EQ(eager.active_nodes(), batched.active_nodes()) << "t=" << t;
      // Decision equality over the maintained engines.
      for (auto& x : w) x = wrng.uniform(0.05, 1.0);
      const DistributedPtasResult a =
          eager_engine.run(w, eager.active_vertex_mask());
      const DistributedPtasResult b =
          batched_engine.run(w, batched.active_vertex_mask());
      ASSERT_EQ(a.winners, b.winners) << "t=" << t;
      ASSERT_EQ(a.weight, b.weight) << "t=" << t;
    }
    ASSERT_GT(flushes, 3);
  }
}

// ------------------------------------------------ layer 2: engine equality

TEST(DynamicsDifferential, LongLivedEngineMatchesFreshEnginePerDelta) {
  for (int c = 0; c < kEngineCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(9000 + static_cast<std::uint64_t>(c) * 101);
    const int n = 30 + (c % 3) * 20;
    ConflictGraph base = random_geometric_avg_degree(
        n, 4.0, rng, /*force_connected=*/false);
    std::vector<std::pair<int, int>> edge_vec = edges_of(base.graph());
    std::set<std::pair<int, int>> present(edge_vec.begin(), edge_vec.end());
    Graph g = from_edge_list(n, edge_vec);

    DistributedPtasConfig cfg;
    cfg.solver.D = 0;
    cfg.solver.parallelism = 0;
    cfg.solver.r = 1 + c % 3;
    cfg.count_messages = true;
    DistributedRobustPtas engine(g, cfg);

    std::vector<double> weights(static_cast<std::size_t>(n));
    std::vector<char> active(static_cast<std::size_t>(n), 1);
    std::vector<std::pair<int, int>> added, removed;
    for (int d = 0; d < kDeltasPerCase; ++d) {
      random_delta(n, present, rng, added, removed);
      g.apply_delta(added, removed);
      engine.on_graph_delta(touched_of(added, removed));
      for (auto& w : weights) w = rng.uniform(0.05, 1.0);
      // Mask a few vertices like a churn slot would.
      for (auto& a : active) a = rng.bernoulli(0.9) ? 1 : 0;

      DistributedRobustPtas fresh(g, cfg);
      const DistributedPtasResult got = engine.run(weights, active);
      const DistributedPtasResult want = fresh.run(weights, active);
      ASSERT_EQ(got.winners, want.winners) << "delta " << d;
      ASSERT_EQ(got.weight, want.weight) << "delta " << d;
      ASSERT_EQ(got.total_messages, want.total_messages) << "delta " << d;
      ASSERT_EQ(got.total_mini_timeslots, want.total_mini_timeslots);
      ASSERT_EQ(got.mini_rounds_used, want.mini_rounds_used);
      for (int w : got.winners)
        ASSERT_TRUE(active[static_cast<std::size_t>(w)])
            << "inactive vertex won";
      ASSERT_TRUE(g.is_independent_set(got.winners));
    }
  }
}

// --------------------------------------- layer 3: end-to-end sim equality

void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.last_strategy, b.last_strategy) << what;
  ASSERT_EQ(a.total_observed, b.total_observed) << what;
  ASSERT_EQ(a.total_effective, b.total_effective) << what;
  ASSERT_EQ(a.total_expected, b.total_expected) << what;
  ASSERT_EQ(a.total_messages, b.total_messages) << what;
  ASSERT_EQ(a.total_mini_timeslots, b.total_mini_timeslots) << what;
  ASSERT_EQ(a.avg_strategy_size, b.avg_strategy_size) << what;
  ASSERT_EQ(a.final_means, b.final_means) << what;
  ASSERT_EQ(a.final_counts, b.final_counts) << what;
  ASSERT_EQ(a.cumavg_effective, b.cumavg_effective) << what;
  ASSERT_EQ(a.cum_expected, b.cum_expected) << what;
}

const char* kBaseScenario = R"(name = dyn-diff
[topology]
kind = geometric
nodes = 16
avg_degree = 4.5
[channel]
kind = gaussian
channels = 3
[policy]
kind = cab
[dynamics]
kind = churn
leave_prob = 0.08
join_prob = 0.3
[run]
slots = 50
series_stride = 10
count_messages = true
)";

TEST(DynamicsDifferential, IncrementalEqualsFullRebuildAcrossAllSolverModes) {
  struct Mode {
    const char* solver;
    const char* local;
  };
  const std::vector<Mode> modes{{"distributed", "exact"},
                                {"distributed", "greedy"},
                                {"centralized", "exact"},
                                {"greedy", "exact"},
                                {"exact", "exact"}};
  const std::vector<std::string> models{"churn", "waypoint", "primary_user"};
  int sequences = 0;
  for (const auto& mode : modes) {
    for (const auto& model : models) {
      for (const std::uint64_t seed : {3u, 17u}) {
        SCOPED_TRACE(std::string(mode.solver) + "/" + mode.local + "/" +
                     model + "/seed=" + std::to_string(seed));
        Scenario s = scenario::parse_scenario(kBaseScenario);
        scenario::apply_override(s, std::string("solver.kind=") + mode.solver);
        scenario::apply_override(s,
                                 std::string("solver.local_solver=") +
                                     mode.local);
        s.dynamics.model.params = scenario::ParamMap{};
        scenario::apply_override(s, std::string("dynamics.kind=") + model);
        if (model == "churn") {
          scenario::apply_override(s, "dynamics.leave_prob=0.08");
          scenario::apply_override(s, "dynamics.join_prob=0.3");
        } else if (model == "waypoint") {
          scenario::apply_override(s, "dynamics.speed=0.25");
        } else {
          scenario::apply_override(s, "dynamics.on_prob=0.15");
          scenario::apply_override(s, "dynamics.off_prob=0.3");
        }
        scenario::apply_override(s, "run.seed=" + std::to_string(seed));
        // Exercise carried-strategy pruning on half the grid.
        if (seed == 17u) scenario::apply_override(s, "run.update_period=3");

        Scenario full = s;
        scenario::apply_override(full, "dynamics.incremental=false");
        const SimulationResult inc = ScenarioRunner(s).run();
        const SimulationResult ref = ScenarioRunner(full).run();
        expect_identical(inc, ref, "incremental vs full rebuild");
        ++sequences;
      }
    }
  }
  EXPECT_EQ(sequences, 30);
}

TEST(DynamicsDifferential, SequenceCountCrossesTheBar) {
  // 140 structural + 30 engine + 30 end-to-end = 200 independently seeded
  // random delta sequences minimum (documented acceptance criterion).
  EXPECT_GE(kStructuralCases + kEngineCases + 30, 200);
}

}  // namespace
}  // namespace mhca

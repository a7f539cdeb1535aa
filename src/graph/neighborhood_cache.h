// Precomputed r-hop neighborhood structure for repeated strategy decisions.
//
// The distributed robust PTAS re-reads the same static neighborhoods every
// decision slot: leader election looks at (2r+1)-hop balls, local MWIS at
// r-hop balls (paper §IV-C). Both depend only on the graph and r — never on
// the weights — so they are computed once here (one bounded BFS per vertex)
// and stored flat in CSR form. `DistributedRobustPtas` walks these spans
// instead of re-flooding max-relaxation rounds and re-running BFS per
// leader.
//
// The election-ball layer is *tiered*, selected per graph the same way
// `Graph::finalize()` selects dense-vs-sparse adjacency:
//
//   - kExplicit (n <= Graph::kAdjacencyMatrixLimit): every (2r+1)-ball is a
//     stored int32 CSR span, as the r-balls always are. Fast to scan, and
//     cheap at small n.
//   - kImplicit (larger graphs): only the per-vertex ball *size* is kept
//     (4 bytes/vertex, a memo refreshed on read after a graph change);
//     membership is re-enumerated on demand by bounded BFS
//     (`BfsScratch::k_hop_find`). At 50k vertices / r = 2 the explicit
//     e-ball spans are ~100 MB and dwarf everything else in the cache;
//     dropping them is what lets the cached decision path reach 10^6
//     vertices on a normal dev box. The election only ever runs an
//     existence scan (first blocker) over the ball, and its verdict is
//     scan-order independent, so decisions are byte-identical across tiers
//     (fuzzed by tests/tiered_simd_differential_test.cc).
//
// `MHCA_EBALL_TIER=explicit|implicit` overrides the size rule (read per
// construction — tests force both tiers on the same graph).
//
// Only ball membership is stored. The local solver's clique cover is not
// memoized here: it is rebuilt per solve in weight-descending order, a far
// tighter bound than any weight-free partition (src/mwis/README.md).
//
// Reuse contract: the cache borrows the graph; the graph must be finalized
// first. When the graph *does* change (dynamics, src/dynamics/README.md),
// `apply_delta` re-synchronizes the cache by invalidating only the balls
// that can have moved: a k-ball only if its owner is within k-1 hops of a
// touched vertex, so r-1 hops for r-balls and 2r for election balls. Spans
// are recomputed at once; implicit-tier sizes are only marked stale and
// recounted by the first `election_ball_size` read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/hop.h"
#include "util/assert.h"

namespace mhca {

class NeighborhoodCache {
 public:
  enum class EballTier { kExplicit, kImplicit };

  NeighborhoodCache() = default;

  /// Precompute, for every vertex v of g, the sorted r-hop ball J_r(v)
  /// (always an explicit CSR span) and the (2r+1)-hop election ball
  /// J_{2r+1}(v) — stored per the selected tier (see file comment). Both
  /// include v.
  ///
  /// `parallelism` fans the per-vertex BFS across worker threads with a
  /// two-pass count-then-fill layout into the CSR arrays (pass 1 sizes
  /// every ball, a prefix sum fixes each vertex's span, pass 2 re-runs the
  /// BFS writing into its disjoint slice), so the built cache is
  /// byte-identical at any worker count *and* at either tier. The implicit
  /// tier always builds this way, at one worker too: its e-ball sizes come
  /// from the count pass, and its fill pass enumerates r-balls only (and
  /// cross-checks their count). 1 = the serial single-pass build on the
  /// explicit tier; 0 = the MHCA_CACHE_BUILD_WORKERS environment variable
  /// if set (CI uses it to pin determinism across worker counts), else one
  /// worker per hardware thread.
  NeighborhoodCache(const Graph& g, int r, int parallelism = 0);

  bool built() const { return !r_offsets_.empty(); }
  int r() const { return r_; }
  int size() const { return size_; }
  EballTier eball_tier() const { return tier_; }

  /// Tier the constructor will pick for an n-vertex graph: the
  /// MHCA_EBALL_TIER override if set, else explicit iff
  /// n <= Graph::kAdjacencyMatrixLimit (the same threshold that selects the
  /// dense adjacency representation).
  static EballTier select_eball_tier(int n);

  /// Effective worker count the build will use for `parallelism` on an
  /// n-vertex graph (resolves 0 via MHCA_CACHE_BUILD_WORKERS, then
  /// hardware_concurrency, clamped to n). Exposed so benches can report
  /// the value actually used.
  static int build_workers(int parallelism, int n);

  /// Sorted vertices within r hops of v, including v.
  std::span<const int> r_ball(int v) const {
    return span_of(r_offsets_, r_data_, v);
  }

  /// Sorted vertices within 2r+1 hops of v, including v. Explicit tier
  /// only — the implicit tier stores no membership; enumerate with
  /// `BfsScratch::k_hop_find` / `k_hop_neighborhood` instead.
  std::span<const int> election_ball(int v) const {
    MHCA_ASSERT(tier_ == EballTier::kExplicit,
                "election_ball spans exist only on the explicit tier");
    return span_of(e_offsets_, e_data_, v);
  }

  int r_ball_size(int v) const {
    return static_cast<int>(r_ball(v).size());
  }

  /// |J_{2r+1}(v)|, on both tiers. Only the message accounting reads it
  /// (the WB and LD floods of previous winners and leaders), so the
  /// implicit tier keeps it as a memo: `apply_delta` marks the sizes it may
  /// have moved as stale, and the first read of a stale size recounts the
  /// ball on the graph last passed in (`BfsScratch::k_hop_size`) and stores
  /// it. Every read returns the current size; no caller sees a stale entry.
  /// A recounting read writes the memo, so concurrent readers are safe only
  /// while no size is stale (after construction, or once every size has
  /// been read).
  int election_ball_size(int v) const {
    if (tier_ == EballTier::kExplicit)
      return static_cast<int>(election_ball(v).size());
    int& s = e_sizes_[static_cast<std::size_t>(v)];
    if (s == kStale) s = recount_election_ball(v);
    return s;
  }

  /// Stale implicit-tier sizes recounted by `election_ball_size` since
  /// construction (always 0 on the explicit tier). Deterministic: it counts
  /// work, not time.
  std::int64_t size_recounts() const { return size_recounts_; }

  /// Total stored ball entries (memory introspection; the implicit tier
  /// contributes no e-ball entries).
  std::int64_t total_entries() const {
    return static_cast<std::int64_t>(r_data_.size() + e_data_.size());
  }

  /// Bytes actually held by the cache's arrays.
  std::int64_t resident_bytes() const;

  /// Bytes the cache would hold with the e-ball layer stored explicitly
  /// (the pre-tiered layout): equals resident_bytes() on the explicit
  /// tier. Reads every size through `election_ball_size`, so it recounts
  /// any stale one. bench_decision_path gates explicit_layout_bytes() /
  /// resident_bytes() >= 4 at the 50k / r=2 cell (`cache_bytes_ok`).
  std::int64_t explicit_layout_bytes() const;

  /// Re-synchronize with a graph that just changed. `touched` are the
  /// vertices incident to an added/removed edge (the graph must already be
  /// patched). A k-ball J_k(v) can change only if d(v, T) <= k-1 on the
  /// *new* graph, T = touched:
  ///   - gained member u: a new path v..a-b..u of length <= k uses an added
  ///     edge (a, b); take the first one, so d_new(v, a) <= k-1 and a is
  ///     touched;
  ///   - lost member u: an old path of length <= k used a removed edge
  ///     (a, b); the prefix v..a before the first one survives in the new
  ///     graph, so d_new(v, a) <= k-1 and a is touched.
  /// So each layer invalidates only its own reach: r-balls for owners
  /// within r-1 hops of T, election balls for owners within 2r hops, each
  /// found by one multi-source BFS on the new graph.
  ///
  /// Spans are recomputed here, and only moved bytes are written: spans
  /// whose size is unchanged, and every span before the first size change,
  /// keep their offsets and are patched in place; the suffix from the first
  /// size-changing owner on is rewritten once. On the implicit tier the
  /// e-ball sizes are only marked stale: no size BFS runs here, and
  /// `election_ball_size` recounts a stale size when it is read. Every read
  /// after the call equals a from-scratch rebuild
  /// (tests/dynamics_differential_test.cc fuzzes this claim).
  void apply_delta(const Graph& g, std::span<const int> touched);

  /// Election balls the last apply_delta invalidated: |reach(T, 2r)|, the
  /// owners within 2r hops of the touched vertices (introspection for
  /// benches and tests). The explicit tier recomputes each of them; the
  /// implicit tier marks their sizes stale. The r-ball layer recomputes a
  /// subset of these.
  int last_invalidated() const { return last_invalidated_; }

 private:
  static std::span<const int> span_of(const std::vector<std::int64_t>& off,
                                      const std::vector<int>& data, int v) {
    const auto b = static_cast<std::size_t>(off[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(off[static_cast<std::size_t>(v) + 1]);
    return {data.data() + b, e - b};
  }

  /// Marks an implicit-tier size that apply_delta may have moved.
  static constexpr int kStale = -1;

  /// Count |J_{2r+1}(v)| on the borrowed graph (a stale memo entry).
  int recount_election_ball(int v) const;

  const Graph* graph_ = nullptr;  ///< Borrowed; refreshed by apply_delta.
  int r_ = 0;
  int size_ = 0;
  EballTier tier_ = EballTier::kExplicit;
  std::vector<std::int64_t> r_offsets_;  ///< size_+1.
  std::vector<int> r_data_;
  std::vector<std::int64_t> e_offsets_;  ///< size_+1; explicit tier only.
  std::vector<int> e_data_;              ///< Explicit tier only.
  /// size_; implicit tier only. kStale until the next read recounts it.
  mutable std::vector<int> e_sizes_;
  /// apply_delta's BFS workspace, also used by the implicit tier's
  /// recounts. Sized on first use, so a static graph never allocates it.
  mutable BfsScratch scratch_;
  mutable std::int64_t size_recounts_ = 0;
  int last_invalidated_ = 0;
};

}  // namespace mhca

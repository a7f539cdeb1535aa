// Maximum Weighted Independent Set solver interface.
//
// The strategy-decision step of the channel-access scheme (paper eq. 4) is a
// MWIS instance over the extended conflict graph H with the learned indices
// as weights. All solvers share this interface so the learning layer can be
// paired with any oracle (exact, greedy, robust PTAS, distributed PTAS) —
// Theorem 1 guarantees bounded β-regret for any β-approximation oracle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace mhca {

/// Default per-solve branch-and-bound effort cap shared by every decision
/// path (lockstep engine, message-level runtime, simulator, facade). This is
/// the ONLY place the default lives: DistributedPtasConfig, SimulationConfig,
/// net::NetConfig, ChannelAccessConfig and scenario::SolverSpec all
/// initialize from it, and scenario.cc static_asserts they stay in sync —
/// the PR-2 drift (facade still at 200'000 while the solver moved to 2'000)
/// cannot recur. Tuned for the B&B search; see
/// DistributedPtasConfig::bnb_node_cap for the rationale.
inline constexpr std::int64_t kDefaultBnbNodeCap = 2'000;

/// Result of one MWIS solve.
struct MwisResult {
  std::vector<int> vertices;       ///< The independent set (sorted by id).
  double weight = 0.0;             ///< Its total weight.
  bool exact = true;               ///< False if a cap/approximation kicked in.
  std::int64_t nodes_explored = 0; ///< Search-effort statistic.
};

/// Abstract MWIS solver over a subset of a graph's vertices.
class MwisSolver {
 public:
  virtual ~MwisSolver() = default;

  virtual std::string name() const = 0;

  /// Solve MWIS restricted to `candidates` (a subset of g's vertices;
  /// weights are indexed by *original* vertex id). Must return an
  /// independent set that is a subset of `candidates`.
  virtual MwisResult solve(const Graph& g, std::span<const double> weights,
                           std::span<const int> candidates) = 0;

  /// Solve over all vertices of g.
  MwisResult solve_all(const Graph& g, std::span<const double> weights) {
    std::vector<int> all(static_cast<std::size_t>(g.size()));
    for (int v = 0; v < g.size(); ++v) all[static_cast<std::size_t>(v)] = v;
    return solve(g, weights, all);
  }
};

}  // namespace mhca

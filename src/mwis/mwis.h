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
/// path (lockstep engine, message-level runtime, centralized oracles).
/// Tuned for the B&B search (reductions + component split + refined
/// bound): the typical local solve completes exactly well under it, the
/// hard first-mini-round balls at r >= 3 fall back to the anytime contract
/// (measured < 0.7% decision-weight loss vs unlimited at n=800, r=3), and
/// per-slot decision latency stays bounded — the paper's robustness only
/// needs a β-approximate local oracle. Raise for offline/optimum-quality
/// runs.
inline constexpr std::int64_t kDefaultBnbNodeCap = 2'000;

/// Which MWIS oracle performs the strategy decision.
enum class SolverKind {
  kDistributedPtas,  ///< Algorithm 3 (lockstep engine) — the paper's scheme.
  kCentralizedPtas,  ///< Centralized robust PTAS (§IV-B).
  kGreedy,           ///< Global greedy heuristic.
  kExact,            ///< Exact branch-and-bound (small instances / optimum).
};

/// Which solver a LocalLeader runs on its r-hop candidate set.
enum class LocalSolverKind { kExact, kGreedy };

/// The strategy-decision oracle, fully specified: the paper's r, D, the
/// β-approximate local MWIS oracle and ε for the centralized PTAS. The one
/// declaration of every solver knob — the lockstep engine, the simulator,
/// the message-level runtime and the scenario layer all embed it by value.
/// Each consumer reads the fields it needs: the engine and the runtime
/// ignore `kind` and `epsilon`, the runtime also `parallelism`.
struct SolverSpec {
  SolverKind kind = SolverKind::kDistributedPtas;
  int r = 2;  ///< Local-neighborhood radius (paper simulations: r = 2).
  int D = 4;  ///< Mini-round budget per decision (0 = until all marked).
  LocalSolverKind local_solver = LocalSolverKind::kExact;
  std::int64_t node_cap = kDefaultBnbNodeCap;  ///< Per-solve B&B effort cap.
  /// Threads for per-leader local solves within one decision (0 = one per
  /// hardware thread, 1 = inline). Deterministic at any setting. Inline by
  /// default: simulations usually already fan out across replications, and
  /// nesting both oversubscribes.
  int parallelism = 1;
  double epsilon = 1.0;  ///< ε for the centralized robust PTAS.

  bool operator==(const SolverSpec&) const = default;
};

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

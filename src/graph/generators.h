// Network topology generators for experiments and tests.
#pragma once

#include "graph/conflict_graph.h"
#include "util/rng.h"

namespace mhca {

/// What `random_geometric` does when `force_connected` is set and none of
/// `max_attempts` samples is connected.
enum class OnDisconnected {
  kAbort,       ///< Throw, naming the scenario keys that fix it.
  kAcceptLast,  ///< Return the last sample, with a note on stderr.
};

/// Random geometric (unit-disk) network: n nodes uniform in a square of the
/// given side, conflict radius `radius`. If `force_connected`, re-samples
/// until connected, for at most `max_attempts` samples; then
/// `on_exhausted` decides.
ConflictGraph random_geometric(
    int n, double side, double radius, Rng& rng, bool force_connected = true,
    int max_attempts = 200,
    OnDisconnected on_exhausted = OnDisconnected::kAbort);

/// Random geometric network sized so the *expected* average degree is
/// approximately `avg_degree` (area side chosen as sqrt(n), radius from
/// n*pi*r^2/side^2 = avg_degree). Retries as random_geometric does.
ConflictGraph random_geometric_avg_degree(
    int n, double avg_degree, Rng& rng, bool force_connected = true,
    int max_attempts = 200,
    OnDisconnected on_exhausted = OnDisconnected::kAbort);

/// Path v0 - v1 - ... - v_{n-1} (the paper's Fig. 5 worst case). Nodes are
/// positioned on a line at unit spacing.
ConflictGraph linear_network(int n);

/// rows x cols grid with 4-neighborhood conflicts.
ConflictGraph grid_network(int rows, int cols);

/// Complete conflict graph: the single-hop setting of prior MAB works,
/// where every pair of users conflicts.
ConflictGraph complete_network(int n);

/// Erdős–Rényi G(n, p); *not* a unit-disk graph — used to exercise the
/// location-free algorithms on non-geometric topologies.
ConflictGraph erdos_renyi(int n, double p, Rng& rng);

}  // namespace mhca

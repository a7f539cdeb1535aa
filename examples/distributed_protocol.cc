// Scenario: watching the wire.
//
// Runs the *message-level* protocol runtime (per-vertex agents + flooding
// control channel) on a small network and prints, round by round, what the
// protocol does: weight-broadcast floods, leader elections, determinations,
// transmissions — together with the exact message/timeslot bill. This is
// the runtime the equivalence tests pit against the lockstep engine.
#include <iostream>

#include "channel/gaussian.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "net/runtime.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  const int kUsers = 12, kChannels = 3;

  Rng rng(42);
  ConflictGraph network = random_geometric_avg_degree(kUsers, 4.0, rng);
  ExtendedConflictGraph ecg(network, kChannels);
  GaussianChannelModel model(kUsers, kChannels, rng);

  net::NetConfig cfg;
  cfg.solver.r = 2;
  cfg.solver.D = 4;
  net::DistributedRuntime runtime(ecg, model, cfg);

  std::cout << "=== Message-level Algorithm 2 (" << kUsers << " users x "
            << kChannels << " channels, K = " << ecg.num_vertices()
            << " virtual vertices) ===\n"
            << "discovery cost: " << runtime.channel_stats().messages
            << " messages (one-time hello floods, ttl = 2r+1)\n"
            << "largest per-vertex table m = " << runtime.max_table_size()
            << " entries (space O(m))\n\n";

  TablePrinter table({"round", "transmitters", "observed sum (kbps)",
                      "mini-rounds", "msgs so far", "timeslots so far"});
  for (int round = 1; round <= 10; ++round) {
    const net::NetRoundResult res = runtime.step();
    table.row(res.round, res.strategy.size(),
              fixed(res.observed_sum * kRateScaleKbps, 0), res.mini_rounds,
              runtime.channel_stats().messages,
              runtime.channel_stats().mini_timeslots);
  }
  table.print(std::cout);

  // Show the final channel assignment.
  std::cout << "\nfinal strategy (node -> channel):";
  const net::NetRoundResult last = runtime.step();
  const Strategy s = ecg.to_strategy(last.strategy);
  for (int node = 0; node < kUsers; ++node) {
    const int chan = s.channel_of_node[static_cast<std::size_t>(node)];
    std::cout << "  " << node << "->"
              << (chan == Strategy::kNoChannel ? std::string("-")
                                               : std::to_string(chan));
  }
  std::cout << "\n";
  return 0;
}

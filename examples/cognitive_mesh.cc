// Scenario: a city-scale cognitive-radio mesh backbone.
//
// 120 secondary users relay traffic across a mesh; 10 licensed channels
// with heterogeneous quality; two of them carry intermittent primary-user
// traffic (TV broadcast towers) and go dark region-wide when active.
// The operator refreshes strategies only every 10 slots (update period y)
// to keep control-plane overhead at 5% (Table II timing: 19/20 realized).
//
// Demonstrates: large networks, the primary-user decorator, periodic
// update, and message accounting.
#include <iostream>
#include <memory>

#include "bandit/policy.h"
#include "channel/gaussian.h"
#include "channel/primary_user.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  const int kUsers = 120, kChannels = 10;

  Rng rng(2024);
  ConflictGraph mesh = random_geometric_avg_degree(kUsers, 7.0, rng);
  auto base = std::make_shared<GaussianChannelModel>(kUsers, kChannels, rng);

  // Channels 0 and 1 host primaries that are busy 60% / 30% of slots.
  std::vector<double> busy(kChannels, 0.0);
  busy[0] = 0.6;
  busy[1] = 0.3;
  PrimaryUserChannelModel spectrum(base, busy, rng.engine()());

  ExtendedConflictGraph ecg(mesh, kChannels);
  auto policy = make_policy(PolicyKind::kCab);

  SimulationConfig cfg;
  cfg.run.slots = 3000;
  cfg.run.update_period = 10;  // decide once per 10 slots
  cfg.solver.node_cap = 20'000;
  cfg.run.count_messages = true;
  cfg.run.series_stride = 300;
  Simulator sim(ecg, spectrum, *policy, cfg);
  const SimulationResult res = sim.run();

  std::cout << "=== Cognitive mesh backbone (" << kUsers << " users, "
            << kChannels << " channels, 2 primaries) ===\n\n";
  TablePrinter table({"metric", "value"});
  table.row("slots / decisions", std::to_string(res.total_slots) + " / " +
                                     std::to_string(res.decisions));
  table.row("avg transmitters per slot", fixed(res.avg_strategy_size, 1));
  table.row("network throughput (Mbps, effective)",
            fixed(res.total_effective / 3000.0 * kRateScaleKbps / 1000.0, 2));
  table.row("realized fraction (ideal 0.95)",
            fixed(res.total_effective / res.total_observed, 3));
  table.row("control messages per user per decision",
            fixed(static_cast<double>(res.total_messages) /
                      static_cast<double>(res.decisions) / ecg.num_vertices(),
                  1));
  table.print(std::cout);

  // How much load did the learner push onto the primary channels?
  std::int64_t primary_plays = 0, total_plays = 0;
  for (int v = 0; v < ecg.num_vertices(); ++v) {
    total_plays += res.final_counts[static_cast<std::size_t>(v)];
    if (ecg.channel_of(v) <= 1)
      primary_plays += res.final_counts[static_cast<std::size_t>(v)];
  }
  std::cout << "\nshare of plays on primary-occupied channels: "
            << fixed(100.0 * static_cast<double>(primary_plays) /
                         static_cast<double>(total_plays),
                     1)
            << "% (2 of 10 channels = 20% if oblivious)\n";
  return 0;
}

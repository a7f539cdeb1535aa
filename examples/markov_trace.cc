// Scenario: field trial with bursty channels and a replayable log.
//
// Real spectrum is bursty, not i.i.d.: a Gilbert–Elliott Markov chain per
// (node, channel) flips between a good and a bad state. We (1) run the
// scheme live on the Markov spectrum, (2) record the exact realization into
// a trace, (3) replay the trace against a different policy — a perfectly
// paired A/B comparison, the workflow you'd use with a measured dataset.
#include <iostream>

#include "bandit/policy.h"
#include "channel/markov.h"
#include "channel/trace.h"
#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "sim/export.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  const int kUsers = 16, kChannels = 4;
  const std::int64_t kSlots = 800;

  Rng rng(1313);
  ConflictGraph field = random_geometric_avg_degree(kUsers, 4.5, rng);
  ExtendedConflictGraph ecg(field, kChannels);

  // Bursty spectrum: bad state delivers 20% of the good rate; dwell times
  // of ~10-20 slots (transition probabilities 0.05-0.1).
  GilbertElliottChannelModel spectrum(kUsers, kChannels, rng, 0.2, 0.05, 0.1);

  // Record the realization once; both policies replay the identical slots.
  TraceChannelModel trace = record_trace(spectrum, kSlots);

  std::cout << "=== Bursty (Markov) spectrum + trace replay A/B ===\n"
            << "trace: " << trace.trace_length() << " slots x "
            << ecg.num_vertices() << " arms\n\n";

  TablePrinter table({"policy", "avg expected (kbps)", "avg effective (kbps)",
                      "estimate gap"});
  for (PolicyKind kind :
       {PolicyKind::kCab, PolicyKind::kLlr, PolicyKind::kGreedy}) {
    PolicyParams params;
    params.llr_max_strategy_len = kUsers;
    auto policy = make_policy(kind, params);
    SimulationConfig cfg;
    cfg.run.series_stride = 1;
    cfg.run.slots = kSlots;
    Simulator sim(ecg, trace, *policy, cfg);
    const SimulationResult res = sim.run();
    table.row(policy->name(),
              fixed(res.total_expected / kSlots * kRateScaleKbps, 1),
              fixed(res.total_effective / kSlots * kRateScaleKbps, 1),
              fixed(std::abs(res.cumavg_estimated.back() -
                             res.cumavg_effective.back()) /
                        res.cumavg_effective.back(),
                    3));
    if (kind == PolicyKind::kCab) {
      const std::string csv = "markov_trace_cab.csv";
      if (export_series_csv(res, csv, kRateScaleKbps))
        std::cout << "(CAB series exported to ./" << csv << ")\n";
    }
  }
  table.print(std::cout);
  std::cout << "\nBurstiness violates the i.i.d. assumption, yet the scheme\n"
            << "still converges to the good channels: the running means\n"
            << "estimate the chains' stationary marginals.\n";
  return 0;
}

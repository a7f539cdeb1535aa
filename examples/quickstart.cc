// Quickstart: the public API in ~40 lines.
//
// The entry point is the declarative Scenario API: describe the whole
// experiment (topology x channel x policy x solver x run) as data, and let
// ScenarioRunner build and drive it. A caller that owns the radio
// environment implements it as a ChannelModel (channel/channel_model.h) and
// runs a Simulator over it with runner.simulation_config().
#include <iostream>

#include "scenario/runner.h"
#include "sim/optimum.h"
#include "util/table.h"

int main() {
  using namespace mhca;

  // --- Scenario mode: the experiment as data (see src/scenario/README.md;
  // the same text can live in a .ini file and run via `mhca_sim run`). ---
  scenario::Scenario s = scenario::parse_scenario(R"(name = quickstart
[topology]
kind = geometric
nodes = 20
avg_degree = 5.0
[channel]
kind = gaussian
channels = 8
[policy]
kind = cab
[run]
slots = 500
seed = 7
)");
  // Any knob is one override away — no recompilation:
  scenario::apply_override(s, "solver.D=4");

  scenario::ScenarioRunner runner(s);
  const SimulationResult res = runner.run();
  const OptimumInfo opt =
      compute_optimum(runner.extended_graph(), runner.model());

  TablePrinter table({"metric", "value"});
  table.row("slots", res.total_slots);
  table.row("avg transmitters per slot", fixed(res.avg_strategy_size, 2));
  table.row("avg observed throughput (kbps)",
            fixed(res.total_observed / 500.0 * kRateScaleKbps, 1));
  table.row("avg effective throughput (kbps, theta-discounted)",
            fixed(res.total_effective / 500.0 * kRateScaleKbps, 1));
  table.row("static optimum R1 (kbps)", fixed(opt.weight * kRateScaleKbps, 1));
  table.row("expected/optimal ratio",
            fixed(res.total_expected / 500.0 / opt.weight, 3));
  table.print(std::cout);
  return 0;
}

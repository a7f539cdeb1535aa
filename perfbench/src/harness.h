// Runs one scenario instance through the program's own slot loop —
// Simulator::run() or DistributedRuntime::step() — with the layer probes
// around it, and runs the plain ScenarioRunner reference it must match.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fold.h"
#include "net/control_channel.h"
#include "scenario/scenario.h"
#include "workloads.h"

namespace perfbench {

/// What a run must reproduce bit for bit. Lockstep runs compare
/// total_observed and last_strategy; net runs also the two digests.
struct Fingerprint {
  double total_observed = 0.0;
  std::vector<int> last_strategy;
  std::uint64_t trace_hash = 0;
  std::uint64_t decision_digest = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct InstanceRun {
  Fingerprint fp;
  std::int64_t slots = 0;
  std::int64_t vertices = 0;  ///< |H|
  int conflicts = 0;          ///< rounds whose strategy conflicted
  bool final_independent = true;  ///< last_strategy on the final graph
  /// Untraced runs read the process CPU clock (cpu_seconds) for these
  /// three, traced runs the steady clock.
  double setup_s = 0.0;           ///< scenario in hand .. slot 1
  std::vector<double> slot_s;     ///< one entry per slot / round
  double loop_s = 0.0;            ///< slot 1 start .. last slot end
  /// Steady-clock time of the loop call: Simulator::run() (cache build
  /// included) or the rounds of step(). Both kinds of run.
  double loop_wall_s = 0.0;
  /// Control messages / bytes sent during the slots (net: per type, setup
  /// discovery excluded; lockstep: the engine's counted protocol messages).
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t msgs_by_type[mhca::net::kNumMsgTypes] = {0, 0, 0, 0, 0};
  std::int64_t bytes_by_type[mhca::net::kNumMsgTypes] = {0, 0, 0, 0, 0};
  std::int64_t table_size_max = 0;
  std::int64_t timeouts = 0, retries = 0, view_changes = 0,
               stale_decisions = 0;
  /// Lockstep: SimulationResult::decision_seconds.
  double engine_decision_s = 0.0;
  /// Traced runs only: layer totals in seconds (summed over the instance's
  /// setup or slots) and counts, keyed by metric stem.
  std::map<std::string, double> layer;
};

/// Untraced: one CPU-clock read per slot (lockstep: the policy's per-round
/// hook; net: around step()). Traced: every probe records, the component
/// build is split into its parts, and the program's spans are folded into
/// `fold` (required then).
InstanceRun run_instance(Engine engine, const mhca::scenario::Scenario& s,
                         bool traced, TraceFold* fold);

/// The plain reference: ScenarioRunner::run() (lockstep) or run_net().
Fingerprint reference_run(Engine engine, const mhca::scenario::Scenario& s);

/// The lockstep engine's decisions on a net scenario: last_strategy, and
/// decision_digest in the net runtime's formula (the net-vs-lockstep
/// property).
Fingerprint lockstep_decisions(const mhca::scenario::Scenario& s);

}  // namespace perfbench

#include "harness.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "dynamics/dynamic_network.h"
#include "dynamics/registries.h"
#include "net/runtime.h"
#include "obs/trace.h"
#include "probes.h"
#include "scenario/registries.h"
#include "scenario/runner.h"
#include "sim/simulator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mhca::ExtendedConflictGraph;
using mhca::SimulationResult;
using mhca::Simulator;
using mhca::dynamics::DynamicNetwork;
using mhca::scenario::Scenario;
using mhca::scenario::ScenarioRunner;

// Installs a trace recorder for one scope (the engines read the global).
class TraceScope {
 public:
  explicit TraceScope(mhca::obs::TraceRecorder& rec) {
    mhca::obs::set_trace(&rec);
  }
  ~TraceScope() { mhca::obs::set_trace(nullptr); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

void fold_into(const mhca::obs::TraceRecorder& rec, TraceFold* fold) {
  std::string err;
  if (!fold_chrome_trace(rec.to_json(), *fold, &err))
    throw std::runtime_error("trace fold: " + err);
}

// The components ScenarioRunner builds, built one by one through the same
// registries in the same Rng order (topology, then channel, from one
// Rng(run.seed)) so each part can be timed. The output check proves the
// result identical to ScenarioRunner's.
struct Parts {
  mhca::ConflictGraph network;
  std::unique_ptr<mhca::ChannelModel> model;
  std::unique_ptr<ExtendedConflictGraph> ecg;
};

Parts build_parts(const Scenario& s, InstanceRun& out) {
  namespace sc = mhca::scenario;
  sc::validate_fields(s);
  mhca::Rng rng(s.run.seed);
  double t = steady_seconds();
  const auto lap = [&t](double& into) {
    const double now = steady_seconds();
    into += now - t;
    t = now;
  };
  Parts p{sc::topology_registry().create(s.topology.kind, s.topology.params,
                                         rng),
          nullptr, nullptr};
  lap(out.layer["graph.topology"]);
  p.model = sc::channel_registry().create(
      s.channel.kind, s.channel.params,
      sc::ChannelBuildContext{p.network.num_nodes(), s.num_channels,
                              s.run.slots},
      rng);
  lap(out.layer["channel.model_build"]);
  p.ecg = std::make_unique<ExtendedConflictGraph>(p.network, s.num_channels);
  lap(out.layer["graph.ecg"]);
  return p;
}

void finish_lockstep(const SimulationResult& res, const SlotLedger& ledger,
                     const ExtendedConflictGraph& ecg, double t0,
                     InstanceRun& out) {
  out.fp.total_observed = res.total_observed;
  out.fp.last_strategy = res.last_strategy;
  out.slots = res.total_slots;
  out.vertices = ecg.num_vertices();
  out.final_independent = ecg.graph().is_independent_set(res.last_strategy);
  out.setup_s = ledger.marks().front().start - t0;
  out.slot_s = ledger.slot_seconds();
  out.loop_s = ledger.loop_seconds();
  out.messages = res.total_messages;
  out.engine_decision_s = res.decision_seconds;
}

InstanceRun lockstep_untraced(const Scenario& s) {
  InstanceRun out;
  const double t0 = cpu_seconds();
  const ScenarioRunner runner(s);
  SlotLedger ledger(/*detailed=*/false, cpu_seconds);
  const PolicyProbe policy(runner.policy(), ledger);
  const auto drive = [&](const ExtendedConflictGraph& ecg,
                         DynamicNetwork* dyn) {
    Simulator sim(ecg, runner.model(), policy, runner.simulation_config(),
                  dyn);
    const double w0 = steady_seconds();
    ledger.begin_run();
    const SimulationResult res = sim.run();
    ledger.end_run();
    out.loop_wall_s = steady_seconds() - w0;
    finish_lockstep(res, ledger, ecg, t0, out);
  };
  if (mhca::scenario::is_dynamic(s)) {
    DynamicNetwork dyn = runner.make_dynamic_network(s.run.seed);
    drive(dyn.ecg(), &dyn);
  } else {
    drive(runner.extended_graph(), nullptr);
  }
  return out;
}

InstanceRun lockstep_traced(const Scenario& s, TraceFold* fold) {
  InstanceRun out;
  SlotLedger ledger(/*detailed=*/true);
  const double t0 = steady_seconds();
  Parts p = build_parts(s, out);
  const std::unique_ptr<mhca::IndexPolicy> inner_policy =
      mhca::scenario::policy_registry().create(
          s.policy.kind, s.policy.params,
          mhca::scenario::PolicyBuildContext{p.network.num_nodes()});
  const PolicyProbe policy(*inner_policy, ledger);
  const ChannelProbe model(*p.model, ledger);
  mhca::obs::TraceRecorder rec;
  const auto drive = [&](const ExtendedConflictGraph& ecg,
                         DynamicNetwork* dyn) {
    Simulator sim(ecg, model, policy, mhca::scenario::to_simulation_config(s),
                  dyn);
    SimulationResult res;
    {
      const TraceScope scope(rec);
      ledger.begin_run();
      res = sim.run();
      ledger.end_run();
    }
    out.loop_wall_s = ledger.lead_in() + ledger.loop_seconds();
    finish_lockstep(res, ledger, ecg, t0, out);
  };
  if (mhca::scenario::is_dynamic(s)) {
    // ScenarioRunner::make_dynamic_network, with the model wrapped.
    const double tb = steady_seconds();
    mhca::Rng rng(mhca::scenario::dynamics_seed_of(s, s.run.seed));
    auto inner = mhca::dynamics::dynamics_registry().create(
        s.dynamics.model.kind, s.dynamics.model.params,
        mhca::dynamics::DynamicsBuildContext{&p.network, s.run.slots}, rng);
    DynamicNetwork dyn(p.network, s.num_channels,
                       std::make_unique<DynamicsProbe>(std::move(inner),
                                                       ledger),
                       s.dynamics.incremental);
    if (s.dynamics.batch && s.run.update_period > 1)
      dyn.set_batch_period(s.run.update_period);
    out.layer["dynamics.network_build"] += steady_seconds() - tb;
    drive(dyn.ecg(), &dyn);
  } else {
    drive(*p.ecg, nullptr);
  }
  fold_into(rec, fold);

  out.layer["graph.cache_build"] += ledger.lead_in();
  out.layer["setup.wall"] += out.setup_s;
  for (const SlotBuckets& b : ledger.buckets()) {
    out.layer["slot.wall"] += b.wall;
    out.layer["bandit.indices"] += b.indices;
    out.layer["mwis.decision"] += b.decision;
    out.layer["channel.sample"] += b.sample;
    out.layer["dynamics.model_step"] += b.model_step;
    out.layer["dynamics.maintain"] += b.maintain;
    out.layer["sim.residual"] += b.residual;
  }
  out.layer["dynamics.steps"] += static_cast<double>(ledger.steps());
  out.layer["dynamics.changed_steps"] +=
      static_cast<double>(ledger.changed_steps());
  out.layer["dynamics.delta_edges"] +=
      static_cast<double>(ledger.delta_edges());
  return out;
}

// The round loop of ScenarioRunner::run_net() for a static scenario, with
// one ledger-clock read on each side of step().
void drive_net(mhca::net::DistributedRuntime& rt,
               const ExtendedConflictGraph& ecg, const Scenario& s,
               SlotLedger& ledger, InstanceRun& out) {
  const mhca::net::ChannelStats before = rt.channel_stats();
  out.fp.decision_digest = 0xDEC15105;
  double total_observed = 0.0;
  double first = 0.0, last = 0.0;
  const double w0 = steady_seconds();
  for (std::int64_t round = 1; round <= s.run.slots; ++round) {
    ledger.on_round(round);
    const double a = ledger.marks().back().start;
    mhca::net::NetRoundResult res = rt.step();
    last = ledger.now();
    if (round == 1) first = a;
    out.slot_s.push_back(last - a);
    total_observed += res.observed_sum;
    if (res.conflict) ++out.conflicts;
    out.fp.decision_digest = mhca::hash_combine(
        out.fp.decision_digest, static_cast<std::uint64_t>(res.round));
    for (int v : res.strategy)
      out.fp.decision_digest = mhca::hash_combine(
          out.fp.decision_digest, static_cast<std::uint64_t>(v));
    out.fp.last_strategy = std::move(res.strategy);
  }
  ledger.end_run();
  out.loop_wall_s = steady_seconds() - w0;
  out.loop_s = last - first;
  out.slots = s.run.slots;
  out.vertices = ecg.num_vertices();
  out.fp.total_observed = total_observed;
  out.fp.trace_hash = rt.channel().trace_hash();
  out.final_independent = ecg.graph().is_independent_set(out.fp.last_strategy);
  const mhca::net::ChannelStats& after = rt.channel_stats();
  out.messages = after.messages - before.messages;
  out.bytes = after.bytes_on_wire - before.bytes_on_wire;
  for (int t = 0; t < mhca::net::kNumMsgTypes; ++t) {
    out.msgs_by_type[t] =
        after.messages_by_type[t] - before.messages_by_type[t];
    out.bytes_by_type[t] = after.bytes_by_type[t] - before.bytes_by_type[t];
  }
  out.table_size_max = static_cast<std::int64_t>(rt.max_table_size());
  const mhca::net::RuntimeCounters c = rt.counters();
  out.timeouts = c.timeouts;
  out.retries = c.retries;
  out.view_changes = c.view_changes;
  out.stale_decisions = c.stale_decisions;
}

void require_static(const Scenario& s) {
  if (mhca::scenario::is_dynamic(s))
    throw std::invalid_argument(
        "net workloads drive static scenarios only (" + s.name + ")");
}

InstanceRun net_untraced(const Scenario& s) {
  require_static(s);
  InstanceRun out;
  const double t0 = cpu_seconds();
  const ScenarioRunner runner(s);
  mhca::net::DistributedRuntime rt(
      runner.extended_graph(), runner.model(),
      mhca::scenario::to_net_config(s, runner.network().num_nodes()));
  out.setup_s = cpu_seconds() - t0;
  SlotLedger ledger(/*detailed=*/false, cpu_seconds);
  drive_net(rt, runner.extended_graph(), s, ledger, out);
  return out;
}

InstanceRun net_traced(const Scenario& s, TraceFold* fold) {
  require_static(s);
  InstanceRun out;
  SlotLedger ledger(/*detailed=*/true);
  const double t0 = steady_seconds();
  Parts p = build_parts(s, out);
  const ChannelProbe model(*p.model, ledger);
  const double tb = steady_seconds();
  mhca::net::DistributedRuntime rt(
      *p.ecg, model,
      mhca::scenario::to_net_config(s, p.network.num_nodes()));
  const double t1 = steady_seconds();
  out.layer["net.discovery"] += t1 - tb;
  out.setup_s = t1 - t0;
  out.layer["setup.wall"] += out.setup_s;
  mhca::obs::TraceRecorder rec;
  {
    const TraceScope scope(rec);
    drive_net(rt, *p.ecg, s, ledger, out);
  }
  fold_into(rec, fold);
  for (double w : out.slot_s) out.layer["slot.wall"] += w;
  for (const SlotMarks& m : ledger.marks())
    out.layer["channel.sample"] += m.sample_s;
  return out;
}

}  // namespace

InstanceRun run_instance(Engine engine, const Scenario& s, bool traced,
                         TraceFold* fold) {
  if (traced && fold == nullptr)
    throw std::invalid_argument("a traced run needs a fold");
  if (engine == Engine::kLockstep)
    return traced ? lockstep_traced(s, fold) : lockstep_untraced(s);
  return traced ? net_traced(s, fold) : net_untraced(s);
}

Fingerprint reference_run(Engine engine, const Scenario& s) {
  const ScenarioRunner runner(s);
  Fingerprint fp;
  if (engine == Engine::kLockstep) {
    const SimulationResult res = runner.run();
    fp.total_observed = res.total_observed;
    fp.last_strategy = res.last_strategy;
    return fp;
  }
  const mhca::scenario::NetRunSummary sum = runner.run_net();
  fp.total_observed = sum.total_observed;
  fp.last_strategy = sum.last_strategy;
  fp.trace_hash = sum.trace_hash;
  fp.decision_digest = sum.decision_digest;
  return fp;
}

Fingerprint lockstep_decisions(const Scenario& s) {
  const ScenarioRunner runner(s);
  SlotLedger ledger(/*detailed=*/false);
  const PolicyProbe policy(runner.policy(), ledger);
  const ChannelProbe model(runner.model(), ledger);
  Simulator sim(runner.extended_graph(), model, policy,
                runner.simulation_config());
  Fingerprint fp;
  fp.last_strategy = sim.run().last_strategy;
  fp.decision_digest = ledger.decision_digest();
  return fp;
}

}  // namespace perfbench

// perfbench — the end-to-end benchmark of the mhca library (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--source-digest HEX]
//
// Generates the workload's scenarios from the seed, runs whole passes over
// them through the program's own slot loop (as many as take about S seconds
// on the reference machine, at least one), checks every run against a plain
// ScenarioRunner run of the same scenario, and prints a table followed by
// one JSON line: the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).
// Exits 1 on a failed output check or coverage gate, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "fold.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/publish.h"
#include "probes.h"
#include "speed.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::Engine;
using perfbench::InstanceRun;
using perfbench::TraceFold;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--source-digest HEX]\nworkloads:";
  for (const perfbench::Workload& w : perfbench::workloads())
    std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--commit") a.commit = val;
      else if (key == "--source-digest") a.source_digest = val;
      else usage("unknown argument " + key);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string proc_field(const char* file, const std::string& key) {
  std::ifstream in(file);
  for (std::string line; std::getline(in, line);)
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      std::string v = colon == std::string::npos ? "" : line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  return "";
}

// VmHWM of this process, which runs one workload only.
double peak_rss_mb() {
  return std::atof(proc_field("/proc/self/status", "VmHWM").c_str()) / 1024.0;
}

// One timed run of one instance, with its output-check verdict.
struct Run {
  int instance = 0;
  InstanceRun r;
  bool ok = true;
};

struct Loop {
  std::vector<Run> runs;
  std::vector<std::string> errors;
};

// Runs whole passes over the instances, so every run weighs every instance
// equally: floor(seconds / w.pass_seconds) of them, at least one. With a
// traced loop, each instance runs untraced and then traced back to back, so
// slow drift of the machine affects both sides of the overhead ratio alike.
// The reference work is timed before the first run and after each one, into
// `speed_s`.
void run_passes(const perfbench::Workload& w,
                const std::vector<mhca::scenario::Scenario>& inst,
                double seconds, Loop& untraced, Loop* traced,
                TraceFold* fold, std::vector<double>& speed_s) {
  const std::size_t passes = static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds / w.pass_seconds)));
  perfbench::SpeedProbe speed;
  speed_s.push_back(speed.time_pass());
  for (std::size_t i = 0; i < passes * inst.size(); ++i) {
    const int instance = static_cast<int>(i % inst.size());
    const mhca::scenario::Scenario& s =
        inst[static_cast<std::size_t>(instance)];
    for (Loop* loop : {&untraced, traced}) {
      if (loop == nullptr) continue;
      Run run;
      run.instance = instance;
      try {
        run.r = perfbench::run_instance(w.engine, s, loop == traced, fold);
      } catch (const std::exception& e) {
        // An aborted run fails every slot it was to run.
        run.ok = false;
        run.r.slots = s.run.slots;
        loop->errors.push_back(s.name + " instance " +
                               std::to_string(instance) + ": " + e.what());
      }
      // Hand freed heap back so peak RSS tracks the largest instance rather
      // than how earlier instances fragmented the heap.
      malloc_trim(0);
      loop->runs.push_back(std::move(run));
      speed_s.push_back(speed.time_pass());
    }
  }
}

// The output check: every run reproduces the plain ScenarioRunner run of
// its scenario bit for bit, its final strategy is independent on the final
// graph, and (net-1600) the lockstep engine takes the same decisions.
void check_outputs(const perfbench::Workload& w,
                   const std::vector<mhca::scenario::Scenario>& inst,
                   std::vector<Loop*> loops,
                   std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const mhca::scenario::Scenario& s = inst[i];
    perfbench::Fingerprint ref;
    std::string fail;
    try {
      ref = perfbench::reference_run(w.engine, s);
      if (w.engine == Engine::kNet && s.net.membership == "omniscient") {
        const perfbench::Fingerprint lock = perfbench::lockstep_decisions(s);
        if (lock.decision_digest != ref.decision_digest ||
            lock.last_strategy != ref.last_strategy)
          fail = "lockstep engine decided differently from the net runtime";
      }
    } catch (const std::exception& e) {
      fail = std::string("reference run aborted: ") + e.what();
    }
    malloc_trim(0);
    for (Loop* loop : loops)
      for (Run& run : loop->runs) {
        if (run.instance != static_cast<int>(i) || !run.ok) continue;
        std::string why = fail;
        if (why.empty() && !(run.r.fp == ref))
          why = "differs from the plain ScenarioRunner run";
        if (why.empty() && !run.r.final_independent)
          why = "final strategy is not independent on the final graph";
        if (!why.empty()) {
          run.ok = false;
          errors.push_back(s.name + " instance " + std::to_string(i) + ": " +
                           why);
        }
      }
  }
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

Tally tally(const std::vector<Loop*>& loops) {
  Tally t;
  for (const Loop* loop : loops)
    for (const Run& run : loop->runs) {
      t.attempted += run.r.slots;
      t.failed += run.ok ? run.r.conflicts : run.r.slots;
    }
  return t;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed in the table only
};

// The first pass (one run per instance, in order): the deterministic
// figures are taken from it so they depend on the seed alone.
std::vector<const InstanceRun*> first_pass(const Loop& loop, int instances) {
  std::vector<const InstanceRun*> out;
  for (int i = 0; i < instances && i < static_cast<int>(loop.runs.size()); ++i)
    out.push_back(&loop.runs[static_cast<std::size_t>(i)].r);
  return out;
}

double vertex_rounds(const std::vector<const InstanceRun*>& pass) {
  double vr = 0.0;
  for (const InstanceRun* r : pass)
    vr += static_cast<double>(r->vertices) * static_cast<double>(r->slots);
  return vr;
}

// Timings are CPU time times `scale`, the run's speed scale (speed.h).
std::vector<Metric> end_to_end(const perfbench::Workload& w, const Loop& loop,
                               const Tally& t, double scale) {
  std::vector<double> setups, slot_s;
  double slots = 0.0, loop_s = 0.0;
  for (const Run& run : loop.runs) {
    setups.push_back(run.r.setup_s * scale);
    for (double slot : run.r.slot_s) slot_s.push_back(slot * scale);
    slots += static_cast<double>(run.r.slot_s.size());
    loop_s += run.r.loop_s * scale;
  }
  const auto tail = perfbench::tail_percentile(slot_s);
  const auto pass = first_pass(loop, w.instances);
  double observed = 0.0, pass_slots = 0.0, msgs = 0.0, bytes = 0.0;
  for (const InstanceRun* r : pass) {
    observed += r->fp.total_observed;
    pass_slots += static_cast<double>(r->slots);
    msgs += static_cast<double>(r->messages);
    bytes += static_cast<double>(r->bytes);
  }
  const double vr = vertex_rounds(pass);
  std::vector<Metric> m = {
      {"setup_s", perfbench::median(setups), "s",
       "CPU at the reference speed, median of " +
           std::to_string(setups.size()) + " set-ups"},
      {"slot_cpu_ms_p50", perfbench::median(slot_s) * 1e3, "ms",
       std::to_string(slot_s.size()) + " slots"},
      {"slot_cpu_ms_tail", tail ? tail->value * 1e3 : 0.0, "ms",
       tail ? "p" + std::to_string(tail->percentile) + " of " +
                  std::to_string(tail->samples) + " slots, " +
                  std::to_string(tail->beyond) + " beyond"
            : "fewer than 11 slots"},
      {"slots_per_cpu_s", loop_s > 0 ? slots / loop_s : 0.0, "1/s", ""},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"},
      {"throughput_per_slot", pass_slots > 0 ? observed / pass_slots : 0.0,
       "reward/slot", "first pass"},
      {"msgs_per_vertex_round", vr > 0 ? msgs / vr : 0.0, "count",
       w.engine == Engine::kNet ? "control channel, set-up excluded"
                                : "engine's counted protocol messages"},
  };
  if (w.engine == Engine::kNet)
    m.push_back({"bytes_per_vertex_round", vr > 0 ? bytes / vr : 0.0, "B",
                 "not in the JSON line: lockstep has no wire"});
  m.push_back({"failed_slot_ratio",
               t.attempted > 0 ? static_cast<double>(t.failed) /
                                     static_cast<double>(t.attempted)
                               : 0.0,
               "ratio", "JSON: failed / attempted"});
  return m;
}

// Every per-layer metric, in BENCHMARK.json order, zero where the workload
// does not exercise the layer.
std::vector<Metric> per_layer(const perfbench::Workload& w, const Loop& traced,
                              const Loop& untraced, const TraceFold& fold) {
  double slots = 0.0, runs = 0.0, engine_s = 0.0, table_max = 0.0;
  double timeouts = 0.0, retries = 0.0, vchg = 0.0, stale = 0.0;
  std::map<std::string, double> L;
  for (const Run& run : traced.runs) {
    slots += static_cast<double>(run.r.slot_s.size());
    runs += 1.0;
    engine_s += run.r.engine_decision_s;
    table_max = std::max(table_max, static_cast<double>(run.r.table_size_max));
    timeouts += static_cast<double>(run.r.timeouts);
    retries += static_cast<double>(run.r.retries);
    vchg += static_cast<double>(run.r.view_changes);
    stale += static_cast<double>(run.r.stale_decisions);
    for (const auto& [k, v] : run.r.layer) L[k] += v;
  }
  const auto per_run_ms = [&](const char* k) {
    return runs > 0 ? L[k] * 1e3 / runs : 0.0;
  };
  const auto per_slot_ms = [&](double total_ms) {
    return slots > 0 ? total_ms / slots : 0.0;
  };
  const auto self_ms = [&](const char* span) {
    return fold.get(span).self_ms;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const bool net = w.engine == Engine::kNet;

  std::vector<Metric> m;
  const auto add = [&m](std::string name, double v, std::string unit) {
    m.push_back({std::move(name), v, std::move(unit), ""});
  };
  add("graph.topology_ms", per_run_ms("graph.topology"), "ms");
  add("graph.ecg_ms", per_run_ms("graph.ecg"), "ms");
  add("graph.cache_build_ms", per_run_ms("graph.cache_build"), "ms");
  add("channel.model_build_ms", per_run_ms("channel.model_build"), "ms");
  add("channel.sample_ms", per_slot_ms(L["channel.sample"] * 1e3), "ms");
  add("bandit.indices_ms", per_slot_ms(L["bandit.indices"] * 1e3), "ms");
  add("mwis.decision_ms", per_slot_ms(L["mwis.decision"] * 1e3), "ms");
  add("mwis.setup_ms", per_slot_ms(self_ms("ptas.setup")), "ms");
  add("mwis.election_ms", per_slot_ms(self_ms("ptas.election")), "ms");
  add("mwis.gather_ms", per_slot_ms(self_ms("ptas.gather")), "ms");
  add("mwis.solve_ms", per_slot_ms(self_ms("ptas.solve")), "ms");
  add("mwis.apply_ms", per_slot_ms(self_ms("ptas.apply")), "ms");
  add("mwis.validate_ms", per_slot_ms(self_ms("ptas.validate")), "ms");
  add("mwis.other_ms", per_slot_ms(self_ms("ptas.decision")), "ms");
  add("mwis.outside_engine_ms",
      net ? 0.0
          : per_slot_ms(L["mwis.decision"] * 1e3 -
                        fold.get("ptas.decision").inclusive_ms),
      "ms");
  const perfbench::SpanTotals& decisions = fold.get("ptas.decision");
  const perfbench::SpanTotals& solves = fold.get("ptas.solve");
  add("mwis.mini_rounds",
      ratio(static_cast<double>(fold.get("ptas.election").count),
            static_cast<double>(decisions.count)),
      "count");
  add("mwis.leaders_per_mini_round",
      ratio(solves.arg_sums.count("leaders") ? solves.arg_sums.at("leaders")
                                             : 0.0,
            static_cast<double>(solves.count)),
      "count");
  add("mwis.decision_vs_engine_ratio",
      ratio(L["bandit.indices"] + L["mwis.decision"], engine_s), "ratio");
  add("dynamics.network_build_ms", per_run_ms("dynamics.network_build"), "ms");
  add("dynamics.model_step_ms", per_slot_ms(L["dynamics.model_step"] * 1e3),
      "ms");
  add("dynamics.maintain_ms", per_slot_ms(L["dynamics.maintain"] * 1e3), "ms");
  add("dynamics.changed_slot_ratio",
      ratio(L["dynamics.changed_steps"], L["dynamics.steps"]), "ratio");
  add("dynamics.delta_edges",
      ratio(L["dynamics.delta_edges"], L["dynamics.changed_steps"]), "count");

  // Net round buckets: phase self times (floods and sampling taken out),
  // flood time per message type, the agents' index pass (the round's gap
  // before its first election), and the rest of step() as the residual.
  const char* phases[] = {"weight_broadcast", "election", "determination",
                          "tx", "hello"};
  double net_named_ms = 0.0;
  for (const char* ph : phases) {
    double ms = self_ms((std::string("net.") + ph).c_str());
    if (std::string(ph) == "tx" && net) ms -= L["channel.sample"] * 1e3;
    net_named_ms += ms;
    add(std::string("net.") + ph + "_ms", per_slot_ms(ms), "ms");
  }
  for (int t = 0; t < mhca::net::kNumMsgTypes; ++t) {
    const std::string label = mhca::obs::msg_type_label(t);
    const double ms = fold.get("flood." + label).inclusive_ms;
    net_named_ms += ms;
    add("net.flood_ms." + label, per_slot_ms(ms), "ms");
  }
  double indices_ms = 0.0;
  for (const char* before : {"^", "net.hello", "net.weight_broadcast"})
    indices_ms +=
        fold.gap(std::string("net.round|") + before + "|net.election");
  net_named_ms += indices_ms;
  add("net.indices_ms", per_slot_ms(indices_ms), "ms");
  if (net) net_named_ms += L["channel.sample"] * 1e3;
  add("net.round_residual_ms",
      net ? per_slot_ms(L["slot.wall"] * 1e3 - net_named_ms) : 0.0, "ms");
  add("net.discovery_ms", per_run_ms("net.discovery"), "ms");
  const auto pass = first_pass(traced, w.instances);
  const double vr = vertex_rounds(pass);
  double bytes_total = 0.0;
  for (int t = 0; t < mhca::net::kNumMsgTypes; ++t) {
    double msgs = 0.0, bytes = 0.0;
    for (const InstanceRun* r : pass) {
      msgs += static_cast<double>(r->msgs_by_type[t]);
      bytes += static_cast<double>(r->bytes_by_type[t]);
    }
    bytes_total += bytes;
    const std::string label = mhca::obs::msg_type_label(t);
    add("net.msgs." + label, net ? ratio(msgs, vr) : 0.0, "count");
    add("net.bytes." + label, net ? ratio(bytes, vr) : 0.0, "B");
  }
  add("net.bytes_per_vertex_round", net ? ratio(bytes_total, vr) : 0.0, "B");
  add("net.table_size_max", table_max, "count");
  add("net.membership.timeouts", ratio(timeouts, slots), "count");
  add("net.membership.retries", ratio(retries, slots), "count");
  add("net.membership.view_changes", ratio(vchg, slots), "count");
  add("net.membership.stale_decisions", ratio(stale, slots), "count");
  add("sim.residual_ms", per_slot_ms(L["sim.residual"] * 1e3), "ms");

  // Named buckets over the whole traced wall (set-up + slots); the
  // residuals are the only unnamed time.
  const double setup_named =
      L["graph.topology"] + L["channel.model_build"] + L["graph.ecg"] +
      L["dynamics.network_build"] + L["graph.cache_build"] +
      L["net.discovery"];
  const double slot_named =
      net ? net_named_ms / 1e3
          : L["bandit.indices"] + L["mwis.decision"] + L["channel.sample"] +
                L["dynamics.model_step"] + L["dynamics.maintain"];
  add("sim.setup_residual_ms",
      per_run_ms("setup.wall") - (runs > 0 ? setup_named * 1e3 / runs : 0.0),
      "ms");
  add("obs.layer_coverage",
      ratio(setup_named + slot_named, L["setup.wall"] + L["slot.wall"]),
      "ratio");
  // Wall over wall: the traced runs read the steady clock, and each one
  // follows its untraced twin, so slow drift of the machine hits both.
  double traced_wall = 0.0, untraced_wall = 0.0;
  for (const Run& run : traced.runs) traced_wall += run.r.loop_wall_s;
  for (const Run& run : untraced.runs) untraced_wall += run.r.loop_wall_s;
  add("obs.trace_overhead_ratio", ratio(traced_wall, untraced_wall), "ratio");
  return m;
}

std::string cpu_model() {
  const std::string m = proc_field("/proc/cpuinfo", "model name");
  return m.empty() ? "unknown" : m;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6f %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

std::string metrics_json(const std::vector<Metric>& ms,
                         const std::vector<std::string>& skip) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : ms) {
    if (std::find(skip.begin(), skip.end(), m.name) != skip.end()) continue;
    out += first ? "" : ", ";
    first = false;
    out += mhca::obs::json_quote(m.name) + ": {\"value\": " +
           mhca::obs::json_number(m.value) +
           ", \"unit\": " + mhca::obs::json_quote(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const perfbench::Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  const std::vector<mhca::scenario::Scenario> inst =
      perfbench::make_instances(*w, args.seed);

  // --trace 1 adds a traced run after each untraced one; the untraced runs
  // are the overhead baseline.
  Loop untraced, traced;
  TraceFold fold;
  std::vector<double> speed_s;
  run_passes(*w, inst, args.seconds, untraced, args.trace ? &traced : nullptr,
             &fold, speed_s);
  const double scale = perfbench::SpeedProbe::scale(speed_s);

  std::vector<std::string> errors = untraced.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  std::vector<Loop*> loops = {&untraced};
  if (args.trace) loops.push_back(&traced);
  check_outputs(*w, inst, loops, errors);
  const Tally t = tally(loops);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "instances=%d runs=%zu\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, w->instances,
              untraced.runs.size() + traced.runs.size());
  std::printf("  speed scale %.4f: reference work took %.2f ms of CPU "
              "(median of %zu passes), %.2f ms at the reference speed\n",
              scale, perfbench::median(speed_s) * 1e3, speed_s.size(),
              perfbench::SpeedProbe::kNominalSeconds * 1e3);
  for (const Loop* loop : loops)
    for (const Run& run : loop->runs)
      std::printf("  run %s instance %d: setup %.4f %s, slot p50 %.3f %s over "
                  "%zu slots, loop wall %.3f s%s\n",
                  loop == &untraced ? "untraced" : "traced", run.instance,
                  run.r.setup_s, loop == &untraced ? "cpu-s" : "s",
                  perfbench::median(run.r.slot_s) * 1e3,
                  loop == &untraced ? "cpu-ms" : "ms", run.r.slot_s.size(),
                  run.r.loop_wall_s, run.ok ? "" : ", FAILED");
  const std::vector<Metric> e2e = end_to_end(*w, untraced, t, scale);
  print_table("end to end (untraced runs; CPU time at the reference speed):",
              e2e);
  std::vector<Metric> layers;
  if (args.trace) {
    layers = per_layer(*w, traced, untraced, fold);
    print_table("per layer (traced runs; ms are per slot or per set-up):",
                layers);
    // Where the residual of a round or a decision sits, between which
    // phases (total ms over the traced runs).
    for (const auto& [key, ms] : fold.gaps_ms)
      if (key.rfind("net.round|", 0) == 0 ||
          key.rfind("ptas.decision|", 0) == 0)
        std::printf("  gap %-52s %12.3f ms total\n", key.c_str(), ms);
    for (const Metric& m : layers)
      if (m.name == "obs.layer_coverage" && m.value < 0.95)
        errors.push_back("coverage gate: obs.layer_coverage " +
                         std::to_string(m.value) + " < 0.95");
  }
  for (const std::string& e : errors) std::printf("FAILED: %s\n", e.c_str());

  std::printf(
      "{\"provenance\": {\"commit\": %s, \"source_digest\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"cpu_model\": %s, "
      "\"hardware_threads\": %u, \"workload\": %s, \"seed\": %llu}}\n",
      mhca::obs::json_quote(args.commit).c_str(),
      mhca::obs::json_quote(args.source_digest).c_str(),
      mhca::obs::json_quote(PERFBENCH_COMPILER).c_str(),
      mhca::obs::json_quote(PERFBENCH_BUILD_TYPE).c_str(),
      mhca::obs::json_quote(cpu_model()).c_str(),
      std::thread::hardware_concurrency(),
      mhca::obs::json_quote(w->name).c_str(),
      static_cast<unsigned long long>(args.seed));

  const bool correct = errors.empty() && t.failed == 0;
  const std::string metrics =
      args.trace ? metrics_json(layers, {})
                 : metrics_json(e2e, {"bytes_per_vertex_round",
                                      "failed_slot_ratio"});
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Tests for src/obs — the telemetry spine. The load-bearing property is the
// zero-perturbation contract: with a TraceRecorder and MetricsRegistry
// installed (or not), every engine takes bit-identical decisions and
// produces bit-identical trace hashes; the artifacts the spine then emits
// must satisfy their own validators (the same ones the CI gate runs via
// tools/mhca_obs_validate) and the checked-in metrics schema.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/extended_graph.h"
#include "graph/generators.h"
#include "mwis/distributed_ptas.h"
#include "net/transport.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/tally.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace mhca {
namespace {

using obs::JsonValue;
using obs::MetricsRegistry;
using obs::TraceRecorder;
using scenario::Scenario;
using scenario::ScenarioRunner;

/// Re-installs a null recorder/registry/tally on scope exit, whatever the
/// test did — no test may leak observability into its neighbors.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_trace(nullptr);
    obs::set_metrics(nullptr);
    obs::set_write_tally(nullptr);
  }
};

const char* kNetScenario = R"(name = obs-contract
[topology]
kind = geometric
nodes = 14
avg_degree = 4.5
[channel]
kind = gaussian
channels = 3
[policy]
kind = cab
[run]
slots = 10
seed = 5
)";

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterSumsAcrossThreads) {
  obs::Counter c;
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&c] {
      for (int j = 0; j < kPerThread; ++j) c.inc();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  obs::Histogram h;
  h.observe(0.25);  // bucket 0: below 1
  h.observe(1.0);   // bucket 1: [1, 2)
  h.observe(3.0);   // bucket 2: [2, 4)
  h.observe(3.9);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 3.9);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 2);
}

TEST(Metrics, RegistryInternsAndReadsBack) {
  MetricsRegistry reg;
  reg.counter("channel.messages").add(7);
  EXPECT_EQ(&reg.counter("channel.messages"), &reg.counter("channel.messages"))
      << "lookup must intern: hot sites hold the reference";
  reg.gauge("decision.theta").set(0.5);
  EXPECT_EQ(reg.counter_value("channel.messages"), 7);
  EXPECT_DOUBLE_EQ(reg.gauge_value("decision.theta"), 0.5);
  EXPECT_EQ(reg.counter_value("no.such_key"), 0);

  JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::parse_json(reg.to_json(), doc, &err)) << err;
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("channel.messages"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("channel.messages")->number, 7.0);
}

TEST(Metrics, CsvFlattensEveryKind) {
  MetricsRegistry reg;
  reg.counter("a.b").inc();
  reg.gauge("c.d").set(2.5);
  reg.histogram("e.f").observe(4.0);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("counter,a.b,1"), std::string::npos) << csv;
  EXPECT_NE(csv.find("gauge,c.d,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("e.f"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram_p50,e.f,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram_p90,e.f,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram_p99,e.f,"), std::string::npos) << csv;
}

TEST(Metrics, HistogramPercentilesInterpolateAndClamp) {
  // Single value: every percentile clamps to the one observation exactly.
  obs::Histogram one;
  one.observe(10.0);
  const auto s1 = one.snapshot();
  EXPECT_DOUBLE_EQ(s1.percentile(50.0), 10.0);
  EXPECT_DOUBLE_EQ(s1.percentile(99.0), 10.0);

  // Empty histogram reports 0, not garbage.
  EXPECT_DOUBLE_EQ(obs::Histogram::Snapshot{}.percentile(50.0), 0.0);

  // A spread: percentiles are monotone in p, stay within [min, max], and
  // land in the right power-of-two bucket (90 of 100 observations below 2,
  // so p50 must sit under 2; rank 99 exhausts the [16, 32) bucket of the
  // 30.0 observations, and only p100 reaches the lone 100.0 tail, where
  // the clamp to the tracked max makes it exact).
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(1.5);
  for (int i = 0; i < 9; ++i) h.observe(30.0);
  h.observe(100.0);
  const auto s = h.snapshot();
  const double p50 = s.percentile(50.0);
  const double p90 = s.percentile(90.0);
  const double p99 = s.percentile(99.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p99, s.max);
  EXPECT_LT(p50, 2.0);
  EXPECT_GE(p99, 16.0);
  EXPECT_LE(p99, 32.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);

  // The JSON snapshot carries the percentile fields the checked-in schema
  // requires of every histogram.
  MetricsRegistry reg;
  reg.histogram("x.y").observe(3.0);
  const char* schema =
      R"({"required_histogram_fields":
          ["count","sum","min","max","p50","p90","p99","buckets"]})";
  const auto errors = obs::validate_metrics_snapshot(reg.to_json(), schema);
  EXPECT_TRUE(errors.empty())
      << "first violation: " << (errors.empty() ? "" : errors[0]);
}

// ------------------------------------------------------------------ trace

TEST(Trace, RecorderEmitsValidBalancedChromeTrace) {
  TraceRecorder rec;
  rec.begin(obs::kTidEngine, "ptas.decision", R"({"n":10})");
  rec.begin(obs::kTidEngine, "ptas.setup");
  rec.end(obs::kTidEngine);
  rec.instant(obs::kTidRuntime, "net.view_change");
  rec.end(obs::kTidEngine);
  const std::vector<std::string> violations =
      obs::validate_chrome_trace(rec.to_json());
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  EXPECT_EQ(rec.event_count(), 5u);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(Trace, ValidatorRejectsUnbalancedAndNonMonotonicTracks) {
  // An unclosed "B" on track (0, 1).
  const char* unbalanced = R"({"traceEvents":[
    {"ph":"B","pid":0,"tid":1,"ts":1.0,"name":"x"}]})";
  EXPECT_FALSE(obs::validate_chrome_trace(unbalanced).empty());
  // ts runs backwards within one track.
  const char* backwards = R"({"traceEvents":[
    {"ph":"i","pid":0,"tid":1,"ts":5.0,"name":"a","s":"t"},
    {"ph":"i","pid":0,"tid":1,"ts":4.0,"name":"b","s":"t"}]})";
  EXPECT_FALSE(obs::validate_chrome_trace(backwards).empty());
  // An "E" with no matching "B".
  const char* stray_end = R"({"traceEvents":[
    {"ph":"E","pid":0,"tid":1,"ts":1.0}]})";
  EXPECT_FALSE(obs::validate_chrome_trace(stray_end).empty());
  // Same events, separate tracks: fine.
  const char* two_tracks = R"({"traceEvents":[
    {"ph":"i","pid":0,"tid":1,"ts":5.0,"name":"a","s":"t"},
    {"ph":"i","pid":1,"tid":1,"ts":4.0,"name":"b","s":"t"}]})";
  EXPECT_TRUE(obs::validate_chrome_trace(two_tracks).empty());
}

TEST(Trace, ShardTagLandsInPid) {
  TraceRecorder rec;
  obs::set_current_shard(3);
  rec.instant(obs::kTidTransport, "transport.exchange");
  obs::set_current_shard(0);
  JsonValue doc;
  ASSERT_TRUE(obs::parse_json(rec.to_json(), doc, nullptr));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  EXPECT_DOUBLE_EQ(events->items[0].find("pid")->number, 3.0);
}

TEST(Trace, MergeInterleavesShardsAndRejectsPidCollisions) {
  // Two shards, overlapping in time: shard 1's events straddle shard 2's.
  const char* shard1 = R"({"traceEvents":[
    {"ph":"B","pid":1,"tid":1,"ts":1.0,"name":"a"},
    {"ph":"E","pid":1,"tid":1,"ts":9.0}]})";
  const char* shard2 = R"({"traceEvents":[
    {"ph":"i","pid":2,"tid":1,"ts":5.0,"name":"b","s":"t"}]})";
  std::vector<std::pair<std::string, std::string>> inputs = {
      {"shard1.json", shard1}, {"shard2.json", shard2}};
  std::vector<std::string> errors;
  const std::string merged = obs::merge_chrome_traces(inputs, errors);
  ASSERT_TRUE(errors.empty())
      << "first violation: " << (errors.empty() ? "" : errors[0]);
  EXPECT_TRUE(obs::validate_chrome_trace(merged).empty());
  JsonValue doc;
  ASSERT_TRUE(obs::parse_json(merged, doc, nullptr));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 3u);
  // Global ts order with track identity intact: B(1) < i(5) < E(9).
  EXPECT_DOUBLE_EQ(events->items[0].find("ts")->number, 1.0);
  EXPECT_DOUBLE_EQ(events->items[1].find("pid")->number, 2.0);
  EXPECT_DOUBLE_EQ(events->items[2].find("ts")->number, 9.0);

  // Two inputs claiming pid 1 cannot merge into one timeline.
  inputs[1] = {"dup.json", shard1};
  errors.clear();
  EXPECT_TRUE(obs::merge_chrome_traces(inputs, errors).empty());
  EXPECT_FALSE(errors.empty());

  // A broken shard (unclosed span) fails the merge, labeled by file.
  const char* broken = R"({"traceEvents":[
    {"ph":"B","pid":3,"tid":1,"ts":1.0,"name":"x"}]})";
  inputs[1] = {"broken.json", broken};
  errors.clear();
  EXPECT_TRUE(obs::merge_chrome_traces(inputs, errors).empty());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("broken.json"), std::string::npos) << errors[0];
}

// -------------------------------------------------------------- validators

TEST(Validate, MetricsSchemaCatchesMissingAndMalformedKeys) {
  const char* schema = R"({"required_domains":["channel"],
                           "required_counters":["channel.messages"]})";
  MetricsRegistry ok;
  ok.counter("channel.messages").inc();
  EXPECT_TRUE(obs::validate_metrics_snapshot(ok.to_json(), schema).empty());

  MetricsRegistry missing;
  missing.counter("channel.drops").inc();
  EXPECT_FALSE(
      obs::validate_metrics_snapshot(missing.to_json(), schema).empty());

  MetricsRegistry malformed;
  malformed.counter("channel.messages").inc();
  malformed.counter("NotADottedKey").inc();
  EXPECT_FALSE(
      obs::validate_metrics_snapshot(malformed.to_json(), schema).empty());
}

TEST(Validate, JsonParserRejectsTrailingGarbageAndBadEscapes) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(obs::parse_json(R"({"a":[1,2,{"b":"c\n"}],"d":null})", v, &err));
  EXPECT_FALSE(obs::parse_json("{} trailing", v, &err));
  EXPECT_FALSE(obs::parse_json(R"({"a":"\x"})", v, &err));
  EXPECT_FALSE(obs::parse_json("{\"a\":01}", v, &err));
}

// ------------------------------------------- the zero-perturbation contract

TEST(ObsContract, LockstepDecisionsIdenticalWithTracingOn) {
  ObsGuard guard;
  Scenario s = scenario::parse_scenario(kNetScenario);
  const ScenarioRunner runner(s);
  const SimulationResult off = runner.run();
  TraceRecorder rec;
  MetricsRegistry reg;
  obs::set_trace(&rec);
  obs::set_metrics(&reg);
  const SimulationResult on = runner.run();
  obs::set_trace(nullptr);
  obs::set_metrics(nullptr);
  EXPECT_EQ(off.last_strategy, on.last_strategy);
  EXPECT_EQ(off.total_observed, on.total_observed);
  EXPECT_EQ(off.total_expected, on.total_expected);
  EXPECT_GT(rec.event_count(), 0u) << "the engine must have emitted spans";
  EXPECT_TRUE(obs::validate_chrome_trace(rec.to_json()).empty());
}

TEST(ObsContract, DisabledDecisionRecordsNoTraceEventsOrRegistryWrites) {
  // The deterministic companion of bench_decision_path's timed tripwire:
  // with no recorder or registry installed, decisions on the cached and the
  // seed path — and a whole lockstep simulation — record no trace event
  // and write no registry value anywhere in the process.
  ObsGuard guard;
  obs::WriteTally tally;
  obs::set_write_tally(&tally);

  // The tally sees every write site: three registry writes, and exactly
  // the events a traced decision records.
  MetricsRegistry reg;
  reg.counter("k.c").add(2);
  reg.gauge("k.g").set(1.0);
  reg.histogram("k.h").observe(3.0);
  EXPECT_EQ(tally.registry_writes.load(), 3);

  Rng rng(17);
  ConflictGraph cg = random_geometric_avg_degree(40, 6.0, rng);
  ExtendedConflictGraph ecg(cg, 3);
  const Graph& h = ecg.graph();
  DistributedPtasConfig cached_cfg;
  cached_cfg.count_messages = true;
  cached_cfg.collect_stage_times = true;
  DistributedPtasConfig seed_cfg = cached_cfg;
  seed_cfg.use_decision_cache = false;
  DistributedRobustPtas cached(h, cached_cfg);
  DistributedRobustPtas seed(h, seed_cfg);
  std::vector<double> w(static_cast<std::size_t>(h.size()));
  for (auto& x : w) x = rng.uniform(0.05, 1.0);

  TraceRecorder rec;
  obs::set_trace(&rec);
  (void)cached.run(w);
  obs::set_trace(nullptr);
  ASSERT_GT(rec.event_count(), 0u);
  EXPECT_EQ(tally.trace_events.load(),
            static_cast<std::int64_t>(rec.event_count()));

  tally.trace_events = 0;
  tally.registry_writes = 0;
  for (int d = 0; d < 3; ++d) {
    for (auto& x : w) x = rng.uniform(0.05, 1.0);
    (void)cached.run(w);
    (void)seed.run(w);
  }
  const Scenario s = scenario::parse_scenario(kNetScenario);
  (void)ScenarioRunner(s).run();
  EXPECT_EQ(tally.trace_events.load(), 0);
  EXPECT_EQ(tally.registry_writes.load(), 0);
}

TEST(ObsContract, NetRunHashesIdenticalWithObservabilityOn) {
  ObsGuard guard;
  Scenario s = scenario::parse_scenario(kNetScenario);
  const ScenarioRunner runner(s);
  const scenario::NetRunSummary off = runner.run_net();
  TraceRecorder rec;
  MetricsRegistry reg;
  obs::set_trace(&rec);
  obs::set_metrics(&reg);
  const scenario::NetRunSummary on = runner.run_net();
  obs::set_trace(nullptr);
  obs::set_metrics(nullptr);
  EXPECT_EQ(off.trace_hash, on.trace_hash);
  EXPECT_EQ(off.decision_digest, on.decision_digest);
  EXPECT_EQ(off.last_strategy, on.last_strategy);
  EXPECT_EQ(off.bytes_on_wire, on.bytes_on_wire);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_GT(rec.event_count(), 0u);
  EXPECT_TRUE(obs::validate_chrome_trace(rec.to_json()).empty());
}

TEST(ObsContract, SummaryDerivedFromRegistryMatchesInstalledRegistry) {
  // run_net_impl publishes into the installed registry and *derives* the
  // summary from it — so the summary and a --metrics snapshot can never
  // disagree.
  ObsGuard guard;
  Scenario s = scenario::parse_scenario(kNetScenario);
  const ScenarioRunner runner(s);
  MetricsRegistry reg;
  obs::set_metrics(&reg);
  const scenario::NetRunSummary n = runner.run_net();
  obs::set_metrics(nullptr);
  EXPECT_EQ(n.messages, reg.counter_value("channel.messages"));
  EXPECT_EQ(n.bytes_on_wire, reg.counter_value("channel.bytes_on_wire"));
  EXPECT_EQ(n.rounds, reg.counter_value("decision.rounds"));
  EXPECT_EQ(n.messages_by_type[0], reg.counter_value("channel.messages.hello"));
  EXPECT_EQ(n.tx_abstained, reg.counter_value("decision.tx_abstained"));
}

TEST(ObsContract, TracedTwoShardMeshMatchesUntracedClassic) {
  // The sharded runtime tags each shard's events with its own pid while
  // both threads share one recorder — and the decisions still match an
  // untraced single-process run bit for bit.
  ObsGuard guard;
  Scenario s = scenario::parse_scenario(kNetScenario);
  const ScenarioRunner runner(s);
  const scenario::NetRunSummary classic = runner.run_net();

  TraceRecorder rec;
  obs::set_trace(&rec);
  net::MemoryMeshGroup mesh(2);
  scenario::NetRunSummary logs[2];
  std::thread t0(
      [&] { logs[0] = runner.run_net_sharded(mesh.endpoint(0)); });
  logs[1] = runner.run_net_sharded(mesh.endpoint(1));
  t0.join();
  obs::set_trace(nullptr);
  obs::set_current_shard(0);  // this thread ran as shard 1

  for (const auto& log : logs) {
    EXPECT_EQ(log.trace_hash, classic.trace_hash);
    EXPECT_EQ(log.decision_digest, classic.decision_digest);
    EXPECT_EQ(log.last_strategy, classic.last_strategy);
  }
  EXPECT_TRUE(obs::validate_chrome_trace(rec.to_json()).empty());
  // Both shards must appear as distinct pids in the merged timeline.
  JsonValue doc;
  ASSERT_TRUE(obs::parse_json(rec.to_json(), doc, nullptr));
  bool saw_pid[2] = {false, false};
  for (const JsonValue& e : doc.find("traceEvents")->items) {
    const int pid = static_cast<int>(e.find("pid")->number);
    if (pid == 0 || pid == 1) saw_pid[pid] = true;
  }
  EXPECT_TRUE(saw_pid[0] && saw_pid[1]);
}

// --------------------------------------------------- the checked-in schema

TEST(ObsSchema, NetRunSnapshotSatisfiesCheckedInSchema) {
  ObsGuard guard;
  const std::string schema =
      read_file(std::string(MHCA_SOURCE_DIR) + "/tools/metrics_schema.json");
  ASSERT_FALSE(schema.empty());
  Scenario s = scenario::parse_scenario(kNetScenario);
  // view_sync exercises the membership domain's counters too.
  scenario::apply_override(s, "net.membership=view_sync");
  const ScenarioRunner runner(s);
  MetricsRegistry reg;
  obs::set_metrics(&reg);
  (void)runner.run_net();
  obs::set_metrics(nullptr);
  const std::vector<std::string> violations =
      obs::validate_metrics_snapshot(reg.to_json(), schema);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
}

TEST(ObsSchema, SimulationSnapshotCoversDecisionDomain) {
  ObsGuard guard;
  Scenario s = scenario::parse_scenario(kNetScenario);
  const ScenarioRunner runner(s);
  MetricsRegistry reg;
  const SimulationResult res = runner.run();
  obs::publish_simulation(reg, res);
  EXPECT_EQ(reg.counter_value("decision.slots"), res.total_slots);
  EXPECT_EQ(reg.counter_value("decision.decisions"),
            static_cast<std::int64_t>(res.decisions));
  EXPECT_DOUBLE_EQ(reg.gauge_value("decision.total_observed"),
                   res.total_observed);
}

}  // namespace
}  // namespace mhca

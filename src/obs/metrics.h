#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/tally.h"

// The metrics half of the telemetry spine (src/obs/README.md).
//
// A MetricsRegistry holds named counters / gauges / histograms under a
// stable `domain.name` key scheme (e.g. "channel.bytes_on_wire",
// "membership.view_changes"). Producers publish into whichever registry is
// installed; consumers (CLI `--metrics`, `--json`, CI schema validation,
// NetRunSummary derivation) read one uniform snapshot instead of
// hand-copied struct fields.
//
// Contract: observability must never perturb results. Nothing in here
// touches RNG state, decision state or the wire — metrics are pure
// accounting, and the hot-path structs (ChannelStats, TransportStats,
// AgentCounters) keep accumulating exactly as before; they are *published*
// into a registry at snapshot points (obs/publish.h), not replaced.

namespace mhca::obs {

/// Monotonic integer counter with thread-sharded cache-line-padded cells:
/// concurrent `add` calls from different threads rarely contend on a line.
class Counter {
 public:
  void add(std::int64_t delta) {
    tally_registry_write();
    shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  std::int64_t value() const {
    std::int64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr int kShards = 8;
  static int shard_index();

  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Cell, kShards> shards_;
};

/// Last-write-wins double value (exact: atomic store/load, no arithmetic).
class Gauge {
 public:
  void set(double v) {
    tally_registry_write();
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two-bucketed distribution: bucket i counts observations in
/// [2^(i-1), 2^i) (bucket 0 holds everything below 1, the last bucket is
/// open-ended). Mutex-guarded — histograms record at decision/round
/// granularity, never in inner loops.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  struct Snapshot {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::int64_t, kBuckets> buckets{};

    /// Estimated p-th percentile (p in [0, 100]) from the power-of-two
    /// buckets: linear interpolation across the bucket holding the rank,
    /// clamped to the exact [min, max] the histogram tracked. Power-of-two
    /// bounds cap the relative error at 2x; the observed extremes pin the
    /// tails (p0 == min, p100 == max exactly). 0 when empty.
    double percentile(double p) const;
  };

  void observe(double v);
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  Snapshot s_;
};

/// Named registry. Lookup interns the key on first use; the returned
/// reference stays valid for the registry's lifetime, so hot sites resolve
/// the key once and then touch only the counter.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& key);
  Gauge& gauge(const std::string& key);
  Histogram& histogram(const std::string& key);

  /// Snapshot reads; 0 when the key was never registered.
  std::int64_t counter_value(const std::string& key) const;
  double gauge_value(const std::string& key) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  /// in sorted order (stable diffs, schema-checkable).
  std::string to_json() const;

  /// `kind,key,value` rows (histograms flatten to count/sum/min/max plus
  /// interpolated p50/p90/p99).
  std::string to_csv() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry used by `mhca_sim run --metrics` and tests.
/// Null (the default) means metrics are off; producers must null-check.
/// Not owned — the caller keeps the registry alive until set_metrics(nullptr).
void set_metrics(MetricsRegistry* reg);
MetricsRegistry* metrics();

}  // namespace mhca::obs

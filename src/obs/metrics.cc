#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <thread>

#include "obs/json.h"

namespace mhca::obs {

int Counter::shard_index() {
  thread_local const int idx = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      static_cast<std::size_t>(kShards));
  return idx;
}

void Histogram::observe(double v) {
  tally_registry_write();
  int b = 0;
  if (v >= 1.0) {
    b = std::min(kBuckets - 1,
                 1 + static_cast<int>(std::floor(std::log2(v))));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (s_.count == 0) {
    s_.min = v;
    s_.max = v;
  } else {
    s_.min = std::min(s_.min, v);
    s_.max = std::max(s_.max, v);
  }
  ++s_.count;
  s_.sum += v;
  ++s_.buckets[b];
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return s_;
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count);
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets[i]);
    if (static_cast<double>(seen) + in_bucket >= target) {
      // Bucket i spans [2^(i-1), 2^i) (bucket 0 starts at 0); walk the
      // target rank's fraction of the way through it.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
      const double hi = std::ldexp(1.0, i);
      double frac = (target - static_cast<double>(seen)) / in_bucket;
      frac = std::min(std::max(frac, 0.0), 1.0);
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, min), max);
    }
    seen += buckets[i];
  }
  return max;
}

Counter& MetricsRegistry::counter(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::int64_t MetricsRegistry::counter_value(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::gauge_value(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(key);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, key);
    out += ": " + json_number(c->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [key, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, key);
    out += ": " + json_number(g->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [key, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, key);
    out += ": {\"count\": " + json_number(s.count);
    out += ", \"sum\": " + json_number(s.sum);
    out += ", \"min\": " + json_number(s.min);
    out += ", \"max\": " + json_number(s.max);
    out += ", \"p50\": " + json_number(s.percentile(50.0));
    out += ", \"p90\": " + json_number(s.percentile(90.0));
    out += ", \"p99\": " + json_number(s.percentile(99.0));
    out += ", \"buckets\": [";
    int last = Histogram::kBuckets - 1;
    while (last > 0 && s.buckets[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i) out += ", ";
      out += json_number(s.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsRegistry::to_csv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "kind,key,value\n";
  for (const auto& [key, c] : counters_)
    out += "counter," + key + "," + json_number(c->value()) + "\n";
  for (const auto& [key, g] : gauges_)
    out += "gauge," + key + "," + json_number(g->value()) + "\n";
  for (const auto& [key, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out += "histogram_count," + key + "," + json_number(s.count) + "\n";
    out += "histogram_sum," + key + "," + json_number(s.sum) + "\n";
    out += "histogram_min," + key + "," + json_number(s.min) + "\n";
    out += "histogram_max," + key + "," + json_number(s.max) + "\n";
    out += "histogram_p50," + key + "," + json_number(s.percentile(50.0)) +
           "\n";
    out += "histogram_p90," + key + "," + json_number(s.percentile(90.0)) +
           "\n";
    out += "histogram_p99," + key + "," + json_number(s.percentile(99.0)) +
           "\n";
  }
  return out;
}

namespace {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
}  // namespace

void set_metrics(MetricsRegistry* reg) {
  g_metrics.store(reg, std::memory_order_release);
}

MetricsRegistry* metrics() {
  return g_metrics.load(std::memory_order_acquire);
}

}  // namespace mhca::obs

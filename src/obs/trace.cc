#include "obs/trace.h"

#include <cstdio>
#include <fstream>

#include "obs/json.h"
#include "obs/tally.h"

namespace mhca::obs {

namespace {

std::atomic<TraceRecorder*> g_trace{nullptr};
thread_local int t_shard = 0;

}  // namespace

void set_trace(TraceRecorder* rec) {
  g_trace.store(rec, std::memory_order_release);
}

TraceRecorder* trace() { return g_trace.load(std::memory_order_acquire); }

void set_current_shard(int shard) { t_shard = shard; }

int current_shard() { return t_shard; }

void TraceRecorder::begin(int tid, const char* name, std::string args_json) {
  tally_trace_event();
  const double ts = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({'B', t_shard, tid, ts, name, std::move(args_json)});
}

void TraceRecorder::end(int tid) {
  tally_trace_event();
  const double ts = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({'E', t_shard, tid, ts, nullptr, {}});
}

void TraceRecorder::instant(int tid, const char* name,
                            std::string args_json) {
  tally_trace_event();
  const double ts = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({'i', t_shard, tid, ts, name, std::move(args_json)});
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string TraceRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char buf[96];
  for (const Event& e : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"ph\": \"";
    out.push_back(e.ph);
    out += "\", \"pid\": ";
    std::snprintf(buf, sizeof(buf), "%d, \"tid\": %d, \"ts\": %.3f", e.pid,
                  e.tid, e.ts_us);
    out += buf;
    if (e.name) {
      out += ", \"name\": ";
      append_json_string(out, e.name);
    }
    if (e.ph == 'i') out += ", \"s\": \"t\"";
    if (!e.args.empty()) {
      out += ", \"args\": ";
      out += e.args;
    }
    out += "}";
  }
  out += first ? "]" : "\n]";
  out += ", \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string body = to_json();
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(f);
}

}  // namespace mhca::obs

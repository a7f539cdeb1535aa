#pragma once

#include <atomic>
#include <cstdint>

// Test hook for the disabled-path contract (src/obs/README.md): a
// process-wide tally of every trace event any TraceRecorder records and
// every value write (counter add, gauge set, histogram observe) any
// MetricsRegistry takes. tests/obs_test.cc installs one around decisions
// run with observability off and requires both counts to stay zero — the
// deterministic companion of the timed tripwire in bench_decision_path.
// With no tally installed, a write site pays one relaxed load.

namespace mhca::obs {

struct WriteTally {
  std::atomic<std::int64_t> trace_events{0};
  std::atomic<std::int64_t> registry_writes{0};
};

namespace detail {
inline std::atomic<WriteTally*> g_write_tally{nullptr};
}  // namespace detail

/// Installs (null removes) the process-wide tally. Not owned.
inline void set_write_tally(WriteTally* tally) {
  detail::g_write_tally.store(tally, std::memory_order_release);
}

inline void tally_trace_event() {
  if (WriteTally* t = detail::g_write_tally.load(std::memory_order_relaxed))
    t->trace_events.fetch_add(1, std::memory_order_relaxed);
}

inline void tally_registry_write() {
  if (WriteTally* t = detail::g_write_tally.load(std::memory_order_relaxed))
    t->registry_writes.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mhca::obs

// Folds a Chrome trace-event document (obs::TraceRecorder::to_json) into
// per-span-name totals: inclusive and self milliseconds, span counts, and
// sums of the spans' numeric args.
//
// Parentage: within one (pid, tid) track, spans nest by their B/E pairs.
// A span on another track of the same pid whose interval lies inside a
// span is that span's child as well (the net runtime's flood.* spans on the
// channel track run inside the round phases on the runtime track). Each
// span's parent is its smallest container, preferring the same-track parent
// on ties; self time is the span's duration minus the union of its
// children's intervals, so no instant is counted twice.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

struct SpanTotals {
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t count = 0;
  std::map<std::string, double> arg_sums;  ///< numeric args, summed
};

struct TraceFold {
  std::map<std::string, SpanTotals> by_name;
  /// Self time split by position: the ms between consecutive children of a
  /// span, keyed "parent|previous|next" with "^" for the parent's start and
  /// "$" for its end (children in start order). Names the work a span does
  /// between two of its phases. The gaps of a span add up to its self time.
  std::map<std::string, double> gaps_ms;

  /// Totals for `name`, or zeros when no such span was folded.
  const SpanTotals& get(const std::string& name) const;
  /// gaps_ms[key], or 0.
  double gap(const std::string& key) const;
};

/// Adds the spans of one trace document into `fold` (so several traces can
/// be folded into one total). Returns false and sets `error` on malformed
/// JSON, an "E" without an open "B" on its track, or a "B" never closed;
/// `fold` is left unchanged then.
bool fold_chrome_trace(std::string_view json, TraceFold& fold,
                       std::string* error);

}  // namespace perfbench

#include "fold.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "obs/validate.h"

namespace perfbench {

namespace {

struct Span {
  std::string name;
  int pid = 0;
  int tid = 0;
  int depth = 0;        ///< nesting depth on its own track
  double start = 0.0;   ///< microseconds
  double end = 0.0;
  int track_parent = -1;  ///< enclosing B/E span on the same track
  int parent = -1;        ///< smallest container on any track
  const mhca::obs::JsonValue* args = nullptr;
};

// True when a contains b in time (closed intervals).
bool contains(const Span& a, const Span& b) {
  return a.start <= b.start && b.end <= a.end;
}

// The tighter of two containers of the same span: later start, then
// earlier end; ties keep `a`.
int tighter(const std::vector<Span>& s, int a, int b) {
  if (a < 0) return b;
  if (b < 0) return a;
  if (s[b].start != s[a].start) return s[b].start > s[a].start ? b : a;
  return s[b].end < s[a].end ? b : a;
}

}  // namespace

const SpanTotals& TraceFold::get(const std::string& name) const {
  static const SpanTotals kZero;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kZero : it->second;
}

double TraceFold::gap(const std::string& key) const {
  const auto it = gaps_ms.find(key);
  return it == gaps_ms.end() ? 0.0 : it->second;
}

bool fold_chrome_trace(std::string_view json, TraceFold& fold,
                       std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error) *error = std::move(msg);
    return false;
  };
  mhca::obs::JsonValue doc;
  std::string perr;
  if (!mhca::obs::parse_json(json, doc, &perr)) return fail(perr);
  const mhca::obs::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr ||
      events->kind != mhca::obs::JsonValue::Kind::Array)
    return fail("no traceEvents array");

  // 1. Pair B/E per (pid, tid) track.
  std::vector<Span> spans;
  std::map<std::pair<int, int>, std::vector<int>> open;
  for (const mhca::obs::JsonValue& e : events->items) {
    const mhca::obs::JsonValue* ph = e.find("ph");
    const mhca::obs::JsonValue* ts = e.find("ts");
    if (ph == nullptr || ts == nullptr) return fail("event without ph/ts");
    const mhca::obs::JsonValue* pid = e.find("pid");
    const mhca::obs::JsonValue* tid = e.find("tid");
    const std::pair<int, int> track{
        pid ? static_cast<int>(pid->number) : 0,
        tid ? static_cast<int>(tid->number) : 0};
    std::vector<int>& stack = open[track];
    if (ph->str == "B") {
      const mhca::obs::JsonValue* name = e.find("name");
      Span s;
      s.name = name ? name->str : std::string();
      s.pid = track.first;
      s.tid = track.second;
      s.depth = static_cast<int>(stack.size());
      s.start = ts->number;
      s.track_parent = stack.empty() ? -1 : stack.back();
      s.args = e.find("args");
      stack.push_back(static_cast<int>(spans.size()));
      spans.push_back(std::move(s));
    } else if (ph->str == "E") {
      if (stack.empty())
        return fail("E without an open B on track pid=" +
                    std::to_string(track.first) +
                    " tid=" + std::to_string(track.second));
      spans[static_cast<std::size_t>(stack.back())].end = ts->number;
      stack.pop_back();
    }
  }
  for (const auto& [track, stack] : open)
    if (!stack.empty())
      return fail("unclosed span '" +
                  spans[static_cast<std::size_t>(stack.back())].name + "'");

  // 2. Smallest container on another track of the same pid: sweep spans by
  //    start (longer first on ties, then lower tid, then outer first) with
  //    a stack of spans that may still contain later ones.
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans[static_cast<std::size_t>(a)];
    const Span& y = spans[static_cast<std::size_t>(b)];
    if (x.pid != y.pid) return x.pid < y.pid;
    if (x.start != y.start) return x.start < y.start;
    if (x.end != y.end) return x.end > y.end;
    if (x.tid != y.tid) return x.tid < y.tid;
    return x.depth < y.depth;
  });
  std::vector<int> sweep;
  for (int idx : order) {
    Span& s = spans[static_cast<std::size_t>(idx)];
    while (!sweep.empty()) {
      const Span& top = spans[static_cast<std::size_t>(sweep.back())];
      if (top.pid == s.pid && top.end > s.start) break;
      sweep.pop_back();
    }
    int cross = -1;
    for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
      const Span& c = spans[static_cast<std::size_t>(*it)];
      if (c.tid != s.tid && contains(c, s)) {
        cross = *it;
        break;
      }
    }
    s.parent = tighter(spans, s.track_parent, cross);
    sweep.push_back(idx);
  }

  // 3. Self time = duration minus the union of the children's intervals,
  //    walked in start order so each uncovered stretch is also recorded as
  //    the gap between the two children around it.
  std::vector<std::vector<int>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      kids[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& ks = kids[i];
    std::sort(ks.begin(), ks.end(), [&](int a, int b) {
      return spans[static_cast<std::size_t>(a)].start <
             spans[static_cast<std::size_t>(b)].start;
    });
    double self = 0.0, cursor = s.start;
    std::string prev = "^";
    const auto gap_to = [&](double until, const std::string& next) {
      if (until > cursor) {
        self += until - cursor;
        fold.gaps_ms[s.name + "|" + prev + "|" + next] +=
            (until - cursor) / 1000.0;
        cursor = until;
      }
    };
    for (int k : ks) {
      const Span& c = spans[static_cast<std::size_t>(k)];
      gap_to(std::min(c.start, s.end), c.name);
      cursor = std::max(cursor, std::min(c.end, s.end));
      prev = c.name;
    }
    gap_to(s.end, "$");
    const double dur = s.end - s.start;
    SpanTotals& t = fold.by_name[s.name];
    t.inclusive_ms += dur / 1000.0;
    t.self_ms += self / 1000.0;
    ++t.count;
    if (s.args != nullptr)
      for (const auto& [key, v] : s.args->fields)
        if (v.kind == mhca::obs::JsonValue::Kind::Number)
          t.arg_sums[key] += v.number;
  }
  return true;
}

}  // namespace perfbench

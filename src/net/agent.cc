#include "net/agent.h"

#include <algorithm>
#include <utility>

#include "graph/hop.h"
#include "util/assert.h"

namespace mhca::net {

namespace {

/// First element whose id is >= `id` in a vector sorted by id.
template <typename Sorted>
auto lower_bound_id(Sorted& v, int id) {
  return std::lower_bound(v.begin(), v.end(), id,
                          [](const auto& a, int x) { return a.id < x; });
}

}  // namespace

VertexAgent::VertexAgent(int id, int r, MembershipMode mode,
                         LivenessParams liveness)
    : id_(id), r_(r), mode_(mode), liveness_(liveness) {
  MHCA_ASSERT(id >= 0, "negative vertex id");
  MHCA_ASSERT(r >= 1, "r must be at least 1");
  if (mode_ == MembershipMode::kViewSync) {
    MHCA_ASSERT(liveness_.hello_timeout_slots >= 2,
                "hello_timeout_slots = " +
                    std::to_string(liveness_.hello_timeout_slots) +
                    " must be >= 2 (keep-alives go out every "
                    "hello_timeout_slots - 1 rounds)");
    MHCA_ASSERT(liveness_.hello_max_retries >= 0,
                "hello_max_retries must be >= 0");
    MHCA_ASSERT(liveness_.backoff_base >= 1, "backoff_base must be >= 1");
  }
}

void VertexAgent::on_hello(const Message& msg) {
  MHCA_ASSERT(mode_ == MembershipMode::kOmniscient,
              "on_hello is the omniscient-discovery path; view-sync hellos "
              "go through on_membership_message");
  MHCA_ASSERT(!discovered_, "hello after discovery finalized");
  if (msg.origin == id_) return;
  Advert hello{msg.origin, msg.neighbor_list, msg.mean, msg.count};
  // Floods arrive in ascending origin order, so this is an append; a
  // duplicated delivery overwrites the earlier copy.
  const auto it = lower_bound_id(hellos_, msg.origin);
  if (it != hellos_.end() && it->id == msg.origin)
    *it = std::move(hello);
  else
    hellos_.insert(it, std::move(hello));
}

void VertexAgent::reset_discovery() {
  MHCA_ASSERT(discovered_, "reset_discovery before initial discovery");
  discovered_ = false;
  hellos_.clear();
  own_neighbors_.clear();
}

void VertexAgent::set_own_neighbors(std::vector<int> neighbors) {
  own_neighbors_ = std::move(neighbors);
}

template <typename Adverts>
void VertexAgent::install_view(const Adverts& adverts) {
  const std::size_t n = adverts.size() + 1;
  members_.clear();
  members_.reserve(n);
  self_local_ = -1;
  for (const Advert& a : adverts) {
    if (self_local_ < 0 && id_ < a.id) {
      self_local_ = static_cast<int>(members_.size());
      members_.push_back(id_);
    }
    members_.push_back(a.id);
  }
  if (self_local_ < 0) {
    self_local_ = static_cast<int>(members_.size());
    members_.push_back(id_);
  }
  const auto self = static_cast<std::size_t>(self_local_);
  const auto advert_of = [&](std::size_t i) -> const Advert& {
    return adverts[i < self ? i : i - 1];
  };

  // Seed the table from the adverts' carried statistics: zeros at initial
  // discovery (nothing learned yet), the sender's live (µ̃, m) when a
  // topology change brought it into this agent's horizon mid-run.
  table_.mean.assign(n, 0.0);
  table_.count.assign(n, 0);
  table_.index.assign(n, 0.0);
  table_.status.assign(n, VertexStatus::kCandidate);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == self) continue;
    table_.mean[i] = advert_of(i).mean;
    table_.count[i] = advert_of(i).count;
  }

  // Map each member's neighbor list to local ids. Each edge is added once,
  // from its lower endpoint; the higher endpoint only checks for an edge
  // that a stale view-sync adjacency lists on its side alone.
  index_.build(members_);
  local_graph_ = Graph(static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const int li = static_cast<int>(i);
    for (int u : i == self ? own_neighbors_ : advert_of(i).neighbors) {
      const int lu = local_id(u);
      if (lu > li)
        local_graph_.add_edge(li, lu);
      else if (lu >= 0 && !local_graph_.has_edge(lu, li))
        local_graph_.add_edge(lu, li);
    }
  }
  local_graph_.finalize();

  // Memoize the r-ball (computed on the *local* subgraph — identical to
  // global r-hop distance because every shortest path of length <= r stays
  // inside J_{2r+1}(me)): it is static between membership changes, while
  // indices change every round.
  BfsScratch scratch(local_graph_.size());
  r_ball_local_ = scratch.k_hop_neighborhood(local_graph_, self_local_, r_);
}

void VertexAgent::finalize_discovery() {
  MHCA_ASSERT(!discovered_, "discovery finalized twice");
  if (mode_ == MembershipMode::kViewSync) {
    // Initial discovery filled knowledge_ silently (no view bumps while the
    // whole network introduces itself at once); one rebuild closes it.
    install_view(knowledge_);
    needs_rebuild_ = false;
    membership_changed_ = false;
    discovered_ = true;
    return;
  }
  install_view(hellos_);
  hellos_ = std::vector<Advert>();  // frees the capacity: O(m) from here on
  discovered_ = true;
}

const VertexAgent::MemberKnowledge* VertexAgent::find_knowledge(int v) const {
  const auto it = lower_bound_id(knowledge_, v);
  return it != knowledge_.end() && it->id == v ? &*it : nullptr;
}

VertexAgent::MemberKnowledge* VertexAgent::find_knowledge(int v) {
  return const_cast<MemberKnowledge*>(std::as_const(*this).find_knowledge(v));
}

// ---------------------------------------------- view-synchronous membership

void VertexAgent::maybe_adopt(const ViewId& v) {
  if (v > view_) view_ = v;
}

void VertexAgent::bump_view() {
  view_ = ViewId{view_.seq + 1, id_};
  view_dirty_ = true;
  ++counters_.view_changes;
}

std::int64_t VertexAgent::backoff_delay(int attempt) const {
  std::int64_t d = 1;
  for (int i = 0; i < attempt; ++i) {
    d *= liveness_.backoff_base;
    if (d > 1'000'000) return 1'000'000;  // cap: schedules stay finite
  }
  return d;
}

void VertexAgent::on_membership_message(const Message& msg,
                                        std::int64_t now) {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "membership messages require view-sync mode");
  if (msg.origin == id_) return;
  maybe_adopt(msg.view);
  if (msg.probe_target == id_ || msg.solicit) hello_pending_ = true;

  const auto it = lower_bound_id(knowledge_, msg.origin);
  if (it == knowledge_.end() || it->id != msg.origin) {
    MemberKnowledge k;
    k.id = msg.origin;
    k.neighbors = msg.neighbor_list;
    k.mean = msg.mean;
    k.count = msg.count;
    k.last_heard = msg.round;
    k.last_hello_round = msg.round;
    knowledge_.insert(it, std::move(k));
    if (discovered_) {
      // Admission: a node entered this agent's horizon mid-run.
      needs_rebuild_ = true;
      membership_changed_ = true;
    }
    return;
  }

  MemberKnowledge& k = *it;
  k.last_heard = std::max(k.last_heard, msg.round);
  if (k.suspect && now - k.last_heard <= liveness_.hello_timeout_slots) {
    k.suspect = false;
    k.probes_sent = 0;
    --suspect_count_;
  }
  // Statistics are count-monotonic: a member's count only grows and its
  // mean is a function of its count, so "newer" is decidable without
  // trusting delivery order — duplicated or delayed payloads never regress.
  if (msg.count >= k.count) {
    k.count = msg.count;
    k.mean = msg.mean;
    // A member admitted since the last rebuild has no table slot yet.
    const int i = local_id(msg.origin);
    if (i >= 0) {
      table_.mean[static_cast<std::size_t>(i)] = msg.mean;
      table_.count[static_cast<std::size_t>(i)] = msg.count;
    }
  }
  // Adjacency is round-monotonic: accept only payloads at least as new as
  // the newest already applied (a delayed hello must not resurrect edges).
  if (msg.round >= k.last_hello_round) {
    k.last_hello_round = msg.round;
    if (msg.neighbor_list != k.neighbors) {
      k.neighbors = msg.neighbor_list;
      needs_rebuild_ = true;
    }
  }
}

std::vector<int> VertexAgent::liveness_pass(std::int64_t now) {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "liveness_pass requires view-sync mode");
  std::vector<int> probes;
  std::vector<int> evict;
  for (MemberKnowledge& k : knowledge_) {
    if (now - k.last_heard <= liveness_.hello_timeout_slots) {
      if (k.suspect) {
        k.suspect = false;
        k.probes_sent = 0;
        --suspect_count_;
      }
      continue;
    }
    if (!k.suspect) {
      k.suspect = true;
      k.probes_sent = 0;
      k.next_probe = now;
      ++suspect_count_;
      ++counters_.timeouts;
    }
    if (now < k.next_probe) continue;
    if (k.probes_sent < liveness_.hello_max_retries) {
      probes.push_back(k.id);
      ++k.probes_sent;
      ++counters_.retries;
      k.next_probe = now + backoff_delay(k.probes_sent);
    } else {
      evict.push_back(k.id);
    }
  }
  if (evict.empty()) return probes;
  // Evicted members keep their table slots until flush_membership().
  std::erase_if(knowledge_, [&](const MemberKnowledge& k) {
    if (!std::binary_search(evict.begin(), evict.end(), k.id)) return false;
    if (k.suspect) --suspect_count_;
    return true;
  });
  needs_rebuild_ = true;
  membership_changed_ = true;
  return probes;
}

void VertexAgent::flush_membership() {
  if (!needs_rebuild_) return;
  install_view(knowledge_);
  needs_rebuild_ = false;
  if (membership_changed_) {
    membership_changed_ = false;
    bump_view();
  }
}

bool VertexAgent::take_view_dirty() {
  const bool was = view_dirty_;
  view_dirty_ = false;
  return was;
}

bool VertexAgent::take_hello_pending() {
  const bool was = hello_pending_;
  hello_pending_ = false;
  return was;
}

bool VertexAgent::take_solicit() {
  const bool was = solicit_pending_;
  solicit_pending_ = false;
  return was;
}

void VertexAgent::on_rejoin() {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "on_rejoin requires view-sync mode");
  // Whatever this agent believed before going dark is stale; restart from
  // its own link-layer truth and ask the neighborhood to re-introduce
  // itself (solicited hellos).
  knowledge_.clear();
  suspect_count_ = 0;
  needs_rebuild_ = true;
  membership_changed_ = true;
  hello_pending_ = true;
  solicit_pending_ = true;
}

void VertexAgent::refresh_own_neighbors(std::vector<int> neighbors) {
  MHCA_ASSERT(mode_ == MembershipMode::kViewSync,
              "refresh_own_neighbors requires view-sync mode");
  if (neighbors == own_neighbors_) return;
  own_neighbors_ = std::move(neighbors);
  needs_rebuild_ = true;
  hello_pending_ = true;  // a real radio beacons on link change
}

bool VertexAgent::transmit_ok() const {
  if (mode_ != MembershipMode::kViewSync) return true;
  return !has_suspects() && decision_view_ == view_;
}

std::pair<double, std::int64_t> VertexAgent::member_stats(int v) const {
  if (mode_ == MembershipMode::kViewSync) {
    const MemberKnowledge* k = find_knowledge(v);
    MHCA_ASSERT(k != nullptr, "member_stats of unknown member");
    return {k->mean, k->count};
  }
  const int i = local_id(v);
  MHCA_ASSERT(i >= 0 && i != self_local_, "member_stats of unknown member");
  return {table_.mean[static_cast<std::size_t>(i)],
          table_.count[static_cast<std::size_t>(i)]};
}

const std::vector<int>* VertexAgent::member_neighbors(int v) const {
  const MemberKnowledge* k = find_knowledge(v);
  return k == nullptr ? nullptr : &k->neighbors;
}

// --------------------------------------------------------- round lifecycle

void VertexAgent::observe(double reward) {
  const double m_old = static_cast<double>(count_);
  ++count_;
  mean_ = (mean_ * m_old + reward) / static_cast<double>(count_);
}

void VertexAgent::begin_round(const IndexPolicy& policy, std::int64_t t,
                              int num_arms) {
  MHCA_ASSERT(discovered_, "begin_round before discovery");
  round_now_ = t;
  // An off-air node never contends: it enters every round pre-marked. Its
  // vertices are isolated by then (dynamics removed their edges), so no
  // live agent's table still lists them as competition.
  status_ = active_ ? VertexStatus::kCandidate : VertexStatus::kLoser;
  own_index_ = policy.index_from(mean_, count_, id_, t, num_arms);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (static_cast<int>(i) == self_local_) continue;
    table_.status[i] = VertexStatus::kCandidate;
    table_.index[i] = policy.index_from(table_.mean[i], table_.count[i],
                                        members_[i], t, num_arms);
  }
  if (mode_ == MembershipMode::kViewSync && active_ && has_suspects())
    ++counters_.stale_decisions;  // this round is decided under a stale view
}

void VertexAgent::on_weight_update(const Message& msg) {
  if (mode_ == MembershipMode::kViewSync) {
    maybe_adopt(msg.view);
    MemberKnowledge* const kp = find_knowledge(msg.origin);
    if (kp == nullptr) return;  // evicted; a keep-alive readmits
    MemberKnowledge& k = *kp;
    k.last_heard = std::max(k.last_heard, msg.round);
    if (msg.count < k.count) return;  // delayed/duplicated: stale payload
    k.mean = msg.mean;
    k.count = msg.count;
  }
  const int i = local_id(msg.origin);
  if (i < 0 || i == self_local_) return;  // beyond my 2r+1 horizon
  table_.mean[static_cast<std::size_t>(i)] = msg.mean;
  table_.count[static_cast<std::size_t>(i)] = msg.count;
}

bool VertexAgent::should_lead() const {
  if (status_ != VertexStatus::kCandidate) return false;
  // Conservative degradation: while membership is uncertain, never claim
  // leadership — a ghost entry might outrank this agent in reality, and a
  // missed contender is how double-claims happen.
  if (mode_ == MembershipMode::kViewSync && has_suspects()) return false;
  const std::pair<double, int> my_key{own_index_, -id_};
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (static_cast<int>(i) == self_local_ ||
        table_.status[i] != VertexStatus::kCandidate)
      continue;
    if (std::pair<double, int>{table_.index[i], -members_[i]} > my_key)
      return false;
  }
  return true;
}

void VertexAgent::gather_local_candidates() {
  MHCA_ASSERT(status_ == VertexStatus::kCandidate, "non-candidate leading");
  cand_buf_.clear();
  weight_buf_.assign(static_cast<std::size_t>(local_graph_.size()), 0.0);
  for (const int lv : r_ball_local_) {
    const auto i = static_cast<std::size_t>(lv);
    if (lv == self_local_) {
      cand_buf_.push_back(lv);
      weight_buf_[i] = own_index_;
    } else if (table_.status[i] == VertexStatus::kCandidate) {
      cand_buf_.push_back(lv);
      weight_buf_[i] = table_.index[i];
    }
  }
}

std::vector<StatusEntry> VertexAgent::verdicts_from(const MwisResult& res) {
  std::vector<char> is_winner(static_cast<std::size_t>(local_graph_.size()), 0);
  for (int lv : res.vertices) is_winner[static_cast<std::size_t>(lv)] = 1;
  std::vector<char> decided(static_cast<std::size_t>(local_graph_.size()), 0);
  std::vector<StatusEntry> verdicts;
  verdicts.reserve(cand_buf_.size());
  for (int lv : cand_buf_) {
    decided[static_cast<std::size_t>(lv)] = 1;
    verdicts.push_back(StatusEntry{
        members_[static_cast<std::size_t>(lv)],
        is_winner[static_cast<std::size_t>(lv)] ? VertexStatus::kWinner
                                                : VertexStatus::kLoser});
  }
  // Centralized-PTAS removal rule: Candidates adjacent to a fresh Winner
  // lose as well (they may sit at distance r+1, still inside the table).
  for (int lw : res.vertices) {
    for (int lu : local_graph_.neighbors(lw)) {
      const auto i = static_cast<std::size_t>(lu);
      if (decided[i]) continue;
      const VertexStatus st = lu == self_local_ ? status_ : table_.status[i];
      if (st != VertexStatus::kCandidate) continue;
      decided[i] = 1;
      verdicts.push_back(StatusEntry{members_[i], VertexStatus::kLoser});
    }
  }
  return verdicts;
}

std::vector<StatusEntry> VertexAgent::lead(MwisSolver& solver) {
  gather_local_candidates();
  const MwisResult res = solver.solve(local_graph_, weight_buf_, cand_buf_);
  return verdicts_from(res);
}

std::vector<StatusEntry> VertexAgent::lead(
    const BranchAndBoundMwisSolver& solver, SolveScratch& scratch) {
  gather_local_candidates();
  const MwisResult res =
      solver.solve_with_scratch(local_graph_, weight_buf_, cand_buf_, scratch);
  return verdicts_from(res);
}

void VertexAgent::on_determination(const Message& msg) {
  counters_.verdicts_received +=
      static_cast<std::int64_t>(msg.statuses.size());
  if (mode_ == MembershipMode::kViewSync) {
    maybe_adopt(msg.view);
    // A verdict from any round but the current one is a delayed wire's
    // ghost: the statuses it names were re-randomized at begin_round.
    if (msg.round != round_now_) return;
  }
  std::int64_t applied = 0;
  for (const StatusEntry& e : msg.statuses) {
    if (e.vertex == id_) {
      status_ = e.status;
      decision_view_ = msg.view;
      ++applied;
    } else if (const int i = local_id(e.vertex); i >= 0) {
      table_.status[static_cast<std::size_t>(i)] = e.status;
      ++applied;
    }
  }
  counters_.verdicts_applied += applied;
}

}  // namespace mhca::net

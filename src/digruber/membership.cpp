#include "digruber/digruber/membership.hpp"

#include <algorithm>

namespace digruber::digruber {

const char* member_state_name(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return "alive";
    case MemberState::kSuspect:
      return "suspect";
    case MemberState::kDead:
      return "dead";
    case MemberState::kLeft:
      return "left";
  }
  return "?";
}

MembershipTable::MembershipTable(DpId self, std::uint64_t self_node,
                                 MembershipOptions options)
    : options_(std::move(options)) {
  self_.dp = self;
  self_.node = self_node;
  self_.state = MemberState::kAlive;
}

int MembershipTable::severity(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return 0;
    case MemberState::kSuspect:
      return 1;
    case MemberState::kDead:
      return 2;
    // Highest: a graceful leave carries strictly more information than a
    // crash verdict about the same incarnation and must not be downgraded.
    case MemberState::kLeft:
      return 3;
  }
  return 0;
}

void MembershipTable::log_transition(DpId peer, MemberState to,
                                     std::uint32_t incarnation, sim::Time at) {
  transitions_.push_back(MembershipTransition{peer, to, incarnation, at});
}

void MembershipTable::seed(const std::vector<MemberInfo>& members,
                           sim::Time now) {
  seeds_ = members;
  for (const auto& info : members) {
    if (info.dp == self_.dp) {
      self_.incarnation = std::max(self_.incarnation, info.incarnation);
      continue;
    }
    Entry entry;
    entry.info = info;
    entry.info.state = MemberState::kAlive;
    entry.last_heard = now;
    entry.since = now;
    peers_[info.dp] = entry;
  }
  ++epoch_;
}

void MembershipTable::reset_to_seeds(sim::Time now,
                                     std::uint32_t self_incarnation) {
  // Crash recovery: everything learned at runtime was volatile state that
  // died with the process; only the deployment-time seed list survives.
  // Seeds restart as alive — the detector re-suspects any that are not.
  peers_.clear();
  self_.incarnation = self_incarnation;
  self_.state = MemberState::kAlive;
  for (const auto& info : seeds_) {
    if (info.dp == self_.dp) continue;
    Entry entry;
    entry.info = info;
    entry.info.state = MemberState::kAlive;
    entry.last_heard = now;
    entry.since = now;
    peers_[info.dp] = entry;
  }
  ++epoch_;
}

std::optional<MembershipTransition> MembershipTable::heard_from(
    DpId peer, std::uint64_t node, std::uint32_t incarnation, sim::Time now) {
  if (peer == self_.dp) return std::nullopt;
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    Entry entry;
    entry.info = MemberInfo{peer, node, MemberState::kAlive, incarnation};
    entry.last_heard = now;
    entry.since = now;
    peers_[peer] = entry;
    ++counters_.joins_observed;
    ++epoch_;
    log_transition(peer, MemberState::kAlive, incarnation, now);
    return transitions_.back();
  }
  Entry& entry = it->second;
  if (incarnation < entry.info.incarnation) return std::nullopt;  // stale life
  if (entry.info.state == MemberState::kDead ||
      entry.info.state == MemberState::kLeft) {
    // Terminal for that incarnation: an in-flight frame from the previous
    // life must not resurrect the entry. A strictly newer incarnation is a
    // restart and does.
    if (incarnation == entry.info.incarnation) return std::nullopt;
    entry.info = MemberInfo{peer, node, MemberState::kAlive, incarnation};
    entry.last_heard = now;
    entry.since = now;
    ++counters_.refutations;
    ++epoch_;
    log_transition(peer, MemberState::kAlive, incarnation, now);
    return transitions_.back();
  }
  entry.info.incarnation = incarnation;
  entry.info.node = node;
  entry.last_heard = now;
  if (entry.info.state == MemberState::kSuspect) {
    entry.info.state = MemberState::kAlive;
    entry.since = now;
    ++counters_.refutations;
    ++epoch_;
    log_transition(peer, MemberState::kAlive, incarnation, now);
    return transitions_.back();
  }
  return std::nullopt;
}

std::optional<MembershipTransition> MembershipTable::merge_one(
    const MemberInfo& info, sim::Time now) {
  if (info.dp == self_.dp) {
    // A peer claims something about us. Refute non-alive claims by
    // outliving the claimed incarnation; the bumped self entry gossips
    // back out and overrides the rumour everywhere.
    if (info.state != MemberState::kAlive &&
        info.state != MemberState::kLeft &&
        info.incarnation >= self_.incarnation &&
        self_.state == MemberState::kAlive) {
      self_.incarnation = info.incarnation + 1;
      ++counters_.refutations;
      ++epoch_;
    }
    return std::nullopt;
  }
  auto it = peers_.find(info.dp);
  if (it == peers_.end()) {
    Entry entry;
    entry.info = info;
    entry.last_heard = now;
    entry.since = now;
    peers_[info.dp] = entry;
    switch (info.state) {
      case MemberState::kAlive:
      case MemberState::kSuspect:
        ++counters_.joins_observed;
        break;
      case MemberState::kDead:
        ++counters_.deaths_declared;
        break;
      case MemberState::kLeft:
        ++counters_.leaves_observed;
        break;
    }
    ++epoch_;
    log_transition(info.dp, info.state, info.incarnation, now);
    return transitions_.back();
  }
  Entry& entry = it->second;
  const bool newer_life = info.incarnation > entry.info.incarnation;
  const bool same_life_worse =
      info.incarnation == entry.info.incarnation &&
      severity(info.state) > severity(entry.info.state);
  if (!newer_life && !same_life_worse) return std::nullopt;
  const MemberState old_state = entry.info.state;
  entry.info = info;
  entry.since = now;
  if (info.state == MemberState::kAlive) entry.last_heard = now;
  if (old_state == info.state && newer_life) return std::nullopt;
  switch (info.state) {
    case MemberState::kAlive:
      ++counters_.refutations;
      break;
    case MemberState::kSuspect:
      ++counters_.suspicions;
      break;
    case MemberState::kDead:
      ++counters_.deaths_declared;
      break;
    case MemberState::kLeft:
      ++counters_.leaves_observed;
      break;
  }
  ++epoch_;
  log_transition(info.dp, info.state, info.incarnation, now);
  return transitions_.back();
}

std::vector<MembershipTransition> MembershipTable::absorb(
    const MembershipUpdate& update, sim::Time now) {
  std::vector<MembershipTransition> changed;
  for (const auto& info : update.members) {
    if (auto t = merge_one(info, now)) changed.push_back(*t);
  }
  // Epochs are per-table but max-merged, so the mesh converges on (and a
  // client can compare against) a single monotone high-water mark.
  epoch_ = std::max(epoch_, update.epoch);
  return changed;
}

std::optional<MembershipTransition> MembershipTable::mark_left(
    DpId peer, std::uint32_t incarnation, sim::Time now) {
  MemberInfo info;
  info.dp = peer;
  info.state = MemberState::kLeft;
  info.incarnation = incarnation;
  auto it = peers_.find(peer);
  info.node = it != peers_.end() ? it->second.info.node : 0;
  if (it != peers_.end() && incarnation < it->second.info.incarnation) {
    return std::nullopt;
  }
  return merge_one(info, now);
}

MembershipTable::SweepResult MembershipTable::sweep(
    sim::Time now, sim::Duration heartbeat_interval,
    const std::vector<DpId>* watch) {
  SweepResult result;
  const double interval_s = heartbeat_interval.to_seconds();
  for (auto& [dp, entry] : peers_) {
    if (entry.info.state != MemberState::kAlive &&
        entry.info.state != MemberState::kSuspect) {
      continue;
    }
    if (watch && !std::binary_search(watch->begin(), watch->end(), dp)) {
      continue;
    }
    const double silent_s = (now - entry.last_heard).to_seconds();
    if (entry.info.state == MemberState::kAlive &&
        silent_s >= options_.suspect_after * interval_s) {
      entry.info.state = MemberState::kSuspect;
      entry.since = now;
      ++counters_.suspicions;
      ++epoch_;
      log_transition(dp, MemberState::kSuspect, entry.info.incarnation, now);
      result.transitions.push_back(transitions_.back());
    }
    if (entry.info.state == MemberState::kSuspect &&
        silent_s >= options_.dead_after * interval_s) {
      entry.info.state = MemberState::kDead;
      entry.since = now;
      ++counters_.deaths_declared;
      ++epoch_;
      log_transition(dp, MemberState::kDead, entry.info.incarnation, now);
      result.transitions.push_back(transitions_.back());
    }
  }
  return result;
}

void MembershipTable::start_watch_grace(const std::vector<DpId>& peers,
                                        sim::Time now) {
  for (const DpId dp : peers) {
    auto it = peers_.find(dp);
    if (it == peers_.end()) continue;
    it->second.last_heard = std::max(it->second.last_heard, now);
  }
}

void MembershipTable::set_self_incarnation(std::uint32_t incarnation) {
  if (incarnation == self_.incarnation) return;
  self_.incarnation = incarnation;
  ++epoch_;
}

void MembershipTable::set_self_state(MemberState state) {
  if (state == self_.state) return;
  self_.state = state;
  ++epoch_;
}

std::optional<MemberState> MembershipTable::state_of(DpId peer) const {
  if (peer == self_.dp) return self_.state;
  auto it = peers_.find(peer);
  if (it == peers_.end()) return std::nullopt;
  return it->second.info.state;
}

std::vector<MemberInfo> MembershipTable::members() const {
  std::vector<MemberInfo> out;
  out.reserve(peers_.size() + 1);
  bool self_emitted = false;
  for (const auto& [dp, entry] : peers_) {
    if (!self_emitted && self_.dp < dp) {
      out.push_back(self_);
      self_emitted = true;
    }
    out.push_back(entry.info);
  }
  if (!self_emitted) out.push_back(self_);
  return out;
}

MembershipUpdate MembershipTable::update() const {
  MembershipUpdate u;
  u.epoch = epoch_;
  u.members = members();
  return u;
}

std::vector<NodeId> MembershipTable::live_peer_nodes() const {
  std::vector<NodeId> nodes;
  for (const auto& [dp, entry] : peers_) {
    if (entry.info.state == MemberState::kAlive ||
        entry.info.state == MemberState::kSuspect) {
      nodes.push_back(NodeId(entry.info.node));
    }
  }
  return nodes;
}

}  // namespace digruber::digruber

#include "digruber/gruber/view.hpp"

#include <algorithm>
#include <map>

namespace digruber::gruber {

namespace {

/// splitmix64 finalizer: the digest mix. Stable across platforms — digests
/// travel on the wire, so the hash must not depend on implementation
/// details the way std::hash does.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t record_hash(const DispatchRecord& r) {
  std::uint64_t h = mix64(r.origin.value());
  h = mix64(h ^ r.seq);
  h = mix64(h ^ r.site.value());
  h = mix64(h ^ r.vo.value());
  h = mix64(h ^ r.group.value());
  h = mix64(h ^ r.user.value());
  h = mix64(h ^ std::uint64_t(std::uint32_t(r.cpus)));
  h = mix64(h ^ std::uint64_t(r.when.us()));
  h = mix64(h ^ std::uint64_t(r.est_runtime.us()));
  return h;
}

std::uint64_t snapshot_hash(const grid::SiteSnapshot& s) {
  std::uint64_t h = mix64(s.site.value());
  h = mix64(h ^ std::uint64_t(std::uint32_t(s.total_cpus)));
  h = mix64(h ^ std::uint64_t(std::uint32_t(s.free_cpus)));
  h = mix64(h ^ std::uint64_t(std::uint32_t(s.queued_jobs)));
  h = mix64(h ^ std::uint64_t(s.as_of.us()));
  for (const auto& [vo, cpus] : s.running_per_vo) {
    h = mix64(h ^ vo.value());
    h = mix64(h ^ std::uint64_t(std::uint32_t(cpus)));
  }
  return h;
}

}  // namespace

std::vector<VoId> diverged_vos(const ViewDigest& a, const ViewDigest& b) {
  std::vector<VoId> out;
  auto ia = a.vos.begin();
  auto ib = b.vos.begin();
  while (ia != a.vos.end() || ib != b.vos.end()) {
    if (ib == b.vos.end() || (ia != a.vos.end() && ia->vo < ib->vo)) {
      out.push_back(ia->vo);
      ++ia;
    } else if (ia == a.vos.end() || ib->vo < ia->vo) {
      out.push_back(ib->vo);
      ++ib;
    } else {
      if (!(*ia == *ib)) out.push_back(ia->vo);
      ++ia;
      ++ib;
    }
  }
  return out;
}

void GridView::bootstrap(const std::vector<grid::SiteSnapshot>& snapshots) {
  for (const auto& snapshot : snapshots) apply_snapshot(snapshot);
}

void GridView::apply_snapshot(const grid::SiteSnapshot& snapshot) {
  SiteState& state = sites_[snapshot.site];
  if (snapshot.as_of < state.base.as_of) return;  // stale: ignore
  state.base = snapshot;
  // Dispatches made before the snapshot are already reflected in it.
  std::erase_if(state.active, [&](const DispatchRecord& r) {
    return r.when <= snapshot.as_of;
  });
}

void GridView::record_dispatch(const DispatchRecord& record) {
  SiteState& state = sites_[record.site];
  state.active.push_back(record);
  ++recorded_;
}

void GridView::prune(SiteState& state, sim::Time now) const {
  std::erase_if(state.active, [&](const DispatchRecord& r) {
    return r.when + r.est_runtime <= now;
  });
}

const GridView::SiteState* GridView::find(SiteId site) const {
  const auto it = sites_.find(site);
  return it == sites_.end() ? nullptr : &it->second;
}

std::int32_t GridView::estimated_free(SiteId site, sim::Time now) const {
  const SiteState* state = find(site);
  if (!state) return 0;
  prune(const_cast<SiteState&>(*state), now);
  std::int32_t pending = 0;
  for (const auto& r : state->active) pending += r.cpus;
  return std::max(0, state->base.free_cpus - pending);
}

grid::SiteSnapshot GridView::estimated_snapshot(SiteId site, sim::Time now) const {
  const SiteState* state = find(site);
  if (!state) return {};
  prune(const_cast<SiteState&>(*state), now);
  grid::SiteSnapshot estimate = state->base;
  for (const auto& r : state->active) {
    estimate.free_cpus = std::max(0, estimate.free_cpus - r.cpus);
    estimate.running_per_vo[r.vo] += r.cpus;
  }
  estimate.as_of = now;
  return estimate;
}

std::int32_t GridView::active_for_group(SiteId site, GroupId group,
                                        sim::Time now) const {
  const SiteState* state = find(site);
  if (!state) return 0;
  prune(const_cast<SiteState&>(*state), now);
  std::int32_t cpus = 0;
  for (const auto& r : state->active) {
    if (r.group == group) cpus += r.cpus;
  }
  return cpus;
}

std::int32_t GridView::active_for_user(SiteId site, UserId user, sim::Time now) const {
  const SiteState* state = find(site);
  if (!state) return 0;
  prune(const_cast<SiteState&>(*state), now);
  std::int32_t cpus = 0;
  for (const auto& r : state->active) {
    if (r.user == user) cpus += r.cpus;
  }
  return cpus;
}

std::vector<DispatchRecord> GridView::active_records(sim::Time now) const {
  std::vector<DispatchRecord> out;
  for (auto& [site, state] : sites_) {
    prune(state, now);
    out.insert(out.end(), state.active.begin(), state.active.end());
  }
  return out;
}

std::vector<grid::SiteSnapshot> GridView::base_snapshots() const {
  std::vector<grid::SiteSnapshot> out;
  out.reserve(sites_.size());
  for (const auto& [site, state] : sites_) out.push_back(state.base);
  return out;
}

void GridView::clear() {
  sites_.clear();
  recorded_ = 0;
}

ViewDigest GridView::digest(sim::Time as_of, sim::Time horizon) const {
  ViewDigest out;
  out.as_of = as_of;
  out.horizon = horizon;
  std::map<VoId, VoDigest> vos;
  std::map<DpId, OriginEpoch> epochs;
  for (const auto& [site, state] : sites_) {
    out.base_hash ^= snapshot_hash(state.base);
    for (const DispatchRecord& r : state.active) {
      // Outside the settled window: too fresh to have propagated over
      // normal exchanges, or expiring too soon to survive the compare
      // round trip. Either would make healthy peers digest differently.
      if (r.when > as_of || r.when + r.est_runtime <= horizon) continue;
      VoDigest& vd = vos[r.vo];
      vd.vo = r.vo;
      vd.hash ^= record_hash(r);
      ++vd.records;
      vd.cpus += r.cpus;
      OriginEpoch& oe = epochs[r.origin];
      oe.origin = r.origin;
      oe.max_seq = std::max(oe.max_seq, r.seq);
      ++oe.records;
    }
  }
  out.vos.reserve(vos.size());
  for (auto& [vo, vd] : vos) out.vos.push_back(vd);
  out.epochs.reserve(epochs.size());
  for (auto& [origin, oe] : epochs) out.epochs.push_back(oe);
  return out;
}

std::vector<DispatchRecord> GridView::records_for_vos(
    const std::vector<VoId>& vos, sim::Time now) const {
  std::vector<DispatchRecord> out;
  for (auto& [site, state] : sites_) {
    prune(state, now);
    for (const DispatchRecord& r : state.active) {
      if (std::binary_search(vos.begin(), vos.end(), r.vo)) out.push_back(r);
    }
  }
  return out;
}

bool GridView::holds(const DispatchRecord& record) const {
  const SiteState* state = find(record.site);
  if (!state) return false;
  return std::any_of(state->active.begin(), state->active.end(),
                     [&](const DispatchRecord& r) {
                       return r.origin == record.origin && r.seq == record.seq;
                     });
}

std::size_t GridView::stale_site_count(sim::Time now,
                                       sim::Duration threshold) const {
  std::size_t stale = 0;
  for (const auto& [site, state] : sites_) {
    if (state.base.as_of > sim::Time::zero() &&
        now - state.base.as_of > threshold) {
      ++stale;
    }
  }
  return stale;
}

std::vector<SiteLoad> GridView::loads(sim::Time now) const {
  std::vector<SiteLoad> out;
  out.reserve(sites_.size());
  for (auto& [site, state] : sites_) {
    prune(state, now);
    std::int32_t pending = 0;
    for (const auto& r : state.active) pending += r.cpus;
    SiteLoad load;
    load.site = site;
    load.total_cpus = state.base.total_cpus;
    load.free_estimate = std::max(0, state.base.free_cpus - pending);
    load.raw_free = load.free_estimate;
    load.queued = state.base.queued_jobs;
    out.push_back(load);
  }
  return out;
}

}  // namespace digruber::gruber

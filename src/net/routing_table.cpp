#include "net/routing_table.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "support/assert.h"
#include "support/byte_codec.h"

namespace lm::net {

RoutingTable::RoutingTable(Address self, Duration route_timeout,
                           std::uint8_t max_metric, Role own_role)
    : self_(self),
      route_timeout_(route_timeout),
      max_metric_(max_metric),
      own_role_(own_role) {
  LM_REQUIRE(self != kUnassigned && self != kBroadcast);
  LM_REQUIRE(route_timeout > Duration::zero());
  LM_REQUIRE(max_metric >= 2);
}

std::vector<RouteEntry>::iterator RoutingTable::position(Address destination) {
  return std::lower_bound(entries_.begin(), entries_.end(), destination,
                          [](const RouteEntry& e, Address d) {
                            return e.destination < d;
                          });
}

RouteEntry* RoutingTable::find(Address destination) {
  const auto it = position(destination);
  if (it == entries_.end() || it->destination != destination) return nullptr;
  return &*it;
}

const RouteEntry* RoutingTable::find(Address destination) const {
  return const_cast<RoutingTable*>(this)->find(destination);
}

bool RoutingTable::apply_beacon(Address neighbor,
                                std::span<const RoutingEntry> entries,
                                TimePoint now) {
  LM_REQUIRE(neighbor != kBroadcast && neighbor != kUnassigned);
  if (neighbor == self_) return false;  // own beacon echoed back — ignore
  bool changed = false;
  const TimePoint deadline = now + route_timeout_;
  // Every hold timer written below is `deadline`, and step (a) writes one.
  earliest_expiry_ = std::min(earliest_expiry_, deadline);

  // (a) The sender itself is a 1-hop neighbor. Its role arrives with its
  // metric-0 self entry in step (b); keep whatever we know meanwhile.
  const auto direct = position(neighbor);
  if (direct != entries_.end() && direct->destination == neighbor) {
    if (direct->metric != 1 || direct->via != neighbor) {
      direct->metric = 1;
      direct->via = neighbor;
      changed = true;
      notify(*direct);
    }
    direct->expires_at = deadline;
  } else {
    notify(*entries_.insert(
        direct, RouteEntry{neighbor, neighbor, 1, roles::kNone, deadline}));
    changed = true;
  }

  // (b) Bellman-Ford on the advertised entries. The sender's own metric-0
  // entry lands here too (adv.address == neighbor): it refreshes the direct
  // route and carries the sender's role.
  //
  // Beacons list destinations in ascending order (advertisement() emits
  // them so), so one cursor merges the whole beacon into the table moving
  // only forward. An address not above the previous one (a malformed or
  // hostile frame) restarts the cursor at the top: same per-entry result
  // for any input.
  std::size_t at = 0;
  Address previous = kUnassigned;
  for (const RoutingEntry& adv : entries) {
    if (adv.address == self_ || adv.address == kBroadcast ||
        adv.address == kUnassigned) {
      continue;
    }
    // Only the sender may claim metric 0 (its self entry); a zero metric
    // for anyone else is a malformed or spoofed advertisement.
    if (adv.metric == 0 && adv.address != neighbor) continue;
    if (adv.address <= previous) at = 0;
    previous = adv.address;
    while (at < entries_.size() && entries_[at].destination < adv.address) ++at;
    const std::uint8_t candidate = static_cast<std::uint8_t>(
        std::min<int>(adv.metric + 1, max_metric_));
    if (at == entries_.size() || entries_[at].destination != adv.address) {
      if (candidate < max_metric_) {
        const auto it = entries_.insert(
            entries_.begin() + static_cast<std::ptrdiff_t>(at),
            RouteEntry{adv.address, neighbor, candidate, adv.role, deadline});
        changed = true;
        notify(*it);
      }
      continue;
    }
    RouteEntry* cur = &entries_[at];
    if (cur->via == neighbor) {
      // Our next hop re-advertised the route: follow it unconditionally
      // (bad news must stick), withdrawing on saturation.
      if (candidate >= max_metric_ && adv.address != neighbor) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(at));
        changed = true;
        continue;
      }
      if (cur->metric != candidate && adv.address != neighbor) {
        cur->metric = candidate;
        changed = true;
      }
      if (cur->role != adv.role) {
        cur->role = adv.role;
        changed = true;
      }
      cur->expires_at = deadline;
    } else if (candidate < cur->metric) {
      cur->via = neighbor;
      cur->metric = candidate;
      cur->role = adv.role;
      cur->expires_at = deadline;
      changed = true;
      notify(*cur);
    }
  }
  return changed;
}

bool RoutingTable::upsert(Address destination, Address via,
                          std::uint8_t metric, Role role, TimePoint now) {
  LM_REQUIRE(destination != kBroadcast && destination != kUnassigned);
  LM_REQUIRE(via != kBroadcast && via != kUnassigned);
  LM_REQUIRE(metric >= 1);
  if (destination == self_) return false;
  metric = std::min<std::uint8_t>(metric, max_metric_ - 1);
  const TimePoint deadline = now + route_timeout_;
  earliest_expiry_ = std::min(earliest_expiry_, deadline);
  const auto it = position(destination);
  if (it == entries_.end() || it->destination != destination) {
    notify(*entries_.insert(it, RouteEntry{destination, via, metric, role, deadline}));
    return true;
  }
  RouteEntry* cur = &*it;
  const bool new_pairing = cur->via != via;
  const bool changed =
      new_pairing || cur->metric != metric || cur->role != role;
  cur->via = via;
  cur->metric = metric;
  cur->role = role;
  cur->expires_at = deadline;
  if (new_pairing) notify(*cur);
  return changed;
}

bool RoutingTable::invalidate(Address destination) {
  const auto it = position(destination);
  if (it == entries_.end() || it->destination != destination) return false;
  entries_.erase(it);
  return true;
}

bool RoutingTable::touch(Address destination, TimePoint now) {
  RouteEntry* cur = find(destination);
  if (cur == nullptr) return false;
  cur->expires_at = now + route_timeout_;
  earliest_expiry_ = std::min(earliest_expiry_, cur->expires_at);
  return true;
}

std::size_t RoutingTable::expire(TimePoint now) {
  if (now < earliest_expiry_) return 0;  // no hold timer can have lapsed yet
  // Direct casualties: hold timer lapsed.
  std::size_t removed = std::erase_if(
      entries_, [now](const RouteEntry& e) { return e.expires_at <= now; });
  // Cascade: a route is only usable while its next hop is a live neighbor.
  // (Entries via a dead neighbor stop being refreshed and would lapse on
  // their own within one timeout; removing them now keeps the table
  // internally consistent — next_hop() never returns a vanished neighbor.)
  // Each pass marks entries against the table as it stood before the pass,
  // then sweeps them, until a pass marks nothing.
  if (removed != 0) {
    std::vector<bool> orphaned;
    for (;;) {
      orphaned.assign(entries_.size(), false);
      bool any = false;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const RouteEntry& e = entries_[i];
        if (e.via != e.destination && find(e.via) == nullptr) {
          orphaned[i] = true;
          any = true;
        }
      }
      if (!any) break;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!orphaned[i]) entries_[kept++] = entries_[i];
      }
      removed += entries_.size() - kept;
      entries_.resize(kept);
    }
  }
  earliest_expiry_ = TimePoint::max();
  for (const RouteEntry& e : entries_) {
    earliest_expiry_ = std::min(earliest_expiry_, e.expires_at);
  }
  return removed;
}

std::optional<RouteEntry> RoutingTable::route_to(Address destination) const {
  const RouteEntry* e = find(destination);
  if (e == nullptr || e->metric >= max_metric_) return std::nullopt;
  return *e;
}

std::optional<Address> RoutingTable::next_hop(Address destination) const {
  const auto r = route_to(destination);
  if (!r) return std::nullopt;
  return r->via;
}

std::vector<RouteEntry> RoutingTable::routes_with_role(Role role_mask) const {
  std::vector<RouteEntry> out;
  for (const RouteEntry& e : entries_) {
    if (e.metric < max_metric_ && (e.role & role_mask) == role_mask) {
      out.push_back(e);
    }
  }
  return out;
}

std::optional<RouteEntry> RoutingTable::nearest_with_role(Role role_mask) const {
  std::optional<RouteEntry> best;
  for (const RouteEntry& e : routes_with_role(role_mask)) {
    if (!best || e.metric < best->metric ||
        (e.metric == best->metric && e.destination < best->destination)) {
      best = e;
    }
  }
  return best;
}

support::PooledVector<RoutingEntry> RoutingTable::advertisement() const {
  // The frame keeps the self entry (metric 0, carrying our role) and the
  // nearest destinations: when everything does not fit, every entry below a
  // cut metric plus the lowest addresses at the cut until the frame is
  // full — what sorting by (metric, address) and truncating would keep,
  // emitted in one pass in address order. A histogram of metrics finds the
  // cut. Table entries have metric >= 1, so the self entry always survives.
  std::size_t cut = std::numeric_limits<std::uint8_t>::max() + 1;
  std::size_t room_at_cut = 0;
  if (entries_.size() + 1 > kMaxRoutingEntries) {
    std::array<std::uint32_t, std::numeric_limits<std::uint8_t>::max() + 1>
        per_metric{};
    for (const RouteEntry& e : entries_) ++per_metric[e.metric];
    std::size_t room = kMaxRoutingEntries - 1;  // after the self entry
    for (cut = 0; per_metric[cut] < room; ++cut) room -= per_metric[cut];
    room_at_cut = room;
  }

  support::PooledVector<RoutingEntry> adv;
  adv.reserve(std::min(entries_.size() + 1, kMaxRoutingEntries));
  const RoutingEntry own{self_, 0, own_role_};
  bool own_emitted = false;
  for (const RouteEntry& e : entries_) {
    if (!own_emitted && self_ < e.destination) {
      adv.push_back(own);
      own_emitted = true;
    }
    if (e.metric < cut) {
      adv.push_back(RoutingEntry{e.destination, e.metric, e.role});
    } else if (e.metric == cut && room_at_cut > 0) {
      adv.push_back(RoutingEntry{e.destination, e.metric, e.role});
      --room_at_cut;
    }
  }
  if (!own_emitted) adv.push_back(own);
  return adv;
}

namespace {
constexpr std::uint8_t kSnapshotVersion = 1;
}

std::vector<std::uint8_t> RoutingTable::serialize(TimePoint now) const {
  ByteWriter w;
  w.u8(kSnapshotVersion);
  w.u16(self_);
  w.u16(static_cast<std::uint16_t>(entries_.size()));
  for (const RouteEntry& e : entries_) {
    w.u16(e.destination);
    w.u16(e.via);
    w.u8(e.metric);
    w.u8(e.role);
    const Duration remaining = e.expires_at - now;
    w.u32(static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, remaining.ms())));
  }
  return w.take();
}

bool RoutingTable::restore(std::span<const std::uint8_t> snapshot, TimePoint now,
                           Duration downtime) {
  LM_REQUIRE(entries_.empty());
  LM_REQUIRE(!downtime.is_negative());
  ByteReader r(snapshot);
  if (r.u8() != kSnapshotVersion) return false;
  if (r.u16() != self_) return false;  // snapshot belongs to another node
  const std::uint16_t count = r.u16();
  std::vector<RouteEntry> restored;
  for (std::uint16_t i = 0; i < count; ++i) {
    RouteEntry e;
    e.destination = r.u16();
    e.via = r.u16();
    e.metric = r.u8();
    e.role = r.u8();
    const Duration remaining = Duration::milliseconds(r.u32()) - downtime;
    if (!r.ok()) return false;
    if (remaining <= Duration::zero()) continue;  // lapsed while powered off
    if (e.destination == self_ || e.destination == kBroadcast ||
        e.destination == kUnassigned || e.via == self_ ||
        e.via == kBroadcast || e.via == kUnassigned || e.metric == 0 ||
        e.metric > max_metric_) {
      return false;  // corrupt snapshot: refuse it wholesale
    }
    e.expires_at = now + remaining;
    restored.push_back(e);
  }
  if (!r.exhausted()) return false;
  std::vector<RouteEntry> sorted = restored;
  std::sort(sorted.begin(), sorted.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              return a.destination < b.destination;
            });
  const auto twice = std::adjacent_find(
      sorted.begin(), sorted.end(), [](const RouteEntry& a, const RouteEntry& b) {
        return a.destination == b.destination;
      });
  if (twice != sorted.end()) return false;  // one destination listed twice
  entries_ = std::move(sorted);
  for (const RouteEntry& e : entries_) {
    earliest_expiry_ = std::min(earliest_expiry_, e.expires_at);
  }
  for (const RouteEntry& e : restored) notify(e);  // in snapshot order
  return true;
}

std::string RoutingTable::to_string() const {
  std::string out = "routing table of " + lm::net::to_string(self_) + " (" +
                    std::to_string(entries_.size()) + " entries)\n";
  char line[128];
  for (const RouteEntry& e : entries_) {
    std::snprintf(line, sizeof line, "  dst=%s via=%s metric=%u role=%s\n",
                  lm::net::to_string(e.destination).c_str(),
                  lm::net::to_string(e.via).c_str(), e.metric,
                  role_to_string(e.role).c_str());
    out += line;
  }
  return out;
}

}  // namespace lm::net

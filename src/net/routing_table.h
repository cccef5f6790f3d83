// Distance-vector routing table — the heart of LoRaMesher.
//
// Every node periodically broadcasts its table as (destination, metric)
// pairs. A receiver (a) learns the sender as a 1-hop neighbor, and (b) runs
// the distributed Bellman-Ford update on each advertised entry: adopt a
// route when it is new or strictly better, and always follow the current
// next hop's own advertisement (even when it got worse) so bad news
// propagates. Convergence pathologies are bounded RIP-style: metrics
// saturate at kInfiniteMetric (treated as unreachable) and every entry
// carries a hold timer refreshed only by its own next hop, so silent
// neighbors age out together with everything learned through them.
//
// Storage is one vector sorted by destination: lookups binary-search it,
// a beacon (listed in address order) merges into it in one forward pass,
// and an expiry watermark lets the periodic sweep return at once until the
// earliest hold timer can have lapsed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/packet.h"
#include "support/time.h"

namespace lm::net {

/// Metric value meaning "unreachable" (RIP-style bounded infinity). With
/// hop-count metrics this also caps usable path length.
constexpr std::uint8_t kInfiniteMetric = 16;

struct RouteEntry {
  Address destination = kUnassigned;
  Address via = kUnassigned;  // next hop (a 1-hop neighbor)
  std::uint8_t metric = 0;    // hop count to destination
  Role role = roles::kNone;   // the destination's advertised role
  TimePoint expires_at;       // refreshed by advertisements from `via`

  friend bool operator==(const RouteEntry& a, const RouteEntry& b) {
    return a.destination == b.destination && a.via == b.via &&
           a.metric == b.metric && a.role == b.role;
  }
};

class RoutingTable {
 public:
  /// `self` is never stored as a destination; `route_timeout` is the hold
  /// time granted on each refresh; `own_role` is advertised with every
  /// beacon via the metric-0 self entry.
  RoutingTable(Address self, Duration route_timeout,
               std::uint8_t max_metric = kInfiniteMetric,
               Role own_role = roles::kNone);

  /// Applies one received beacon from `neighbor` (the frame's link source).
  /// Returns true when any entry was added, removed, or changed. Entries in
  /// ascending address order (as advertisement() emits them) merge in one
  /// forward pass; any other order gives the same result, only slower.
  bool apply_beacon(Address neighbor, std::span<const RoutingEntry> entries,
                    TimePoint now);
  bool apply_beacon(Address neighbor, std::initializer_list<RoutingEntry> entries,
                    TimePoint now) {
    return apply_beacon(
        neighbor, std::span<const RoutingEntry>(entries.begin(), entries.size()),
        now);
  }

  /// Strategy-directed route install (AODV reverse/forward routes, tree
  /// parent and backward-learned routes): adopts (via, metric, role)
  /// unconditionally — the caller, not Bellman-Ford, owns the policy — and
  /// refreshes the hold timer. Metrics saturating at max_metric are clamped
  /// to max_metric - 1 so the installed route stays usable. Fires the
  /// observer when the (destination, via) pairing is new. Returns true when
  /// anything beyond the hold timer changed.
  bool upsert(Address destination, Address via, std::uint8_t metric,
              Role role, TimePoint now);

  /// Drops the entry for `destination` immediately (RERR handling, broken
  /// next hop). Returns whether an entry was removed.
  bool invalidate(Address destination);

  /// Refreshes the hold timer of an existing route — "route in active use"
  /// semantics (AODV keeps a route alive only while data flows over it).
  /// Returns whether the destination was known.
  bool touch(Address destination, TimePoint now);

  /// Removes entries whose hold timer has lapsed. Returns how many.
  std::size_t expire(TimePoint now);

  /// Full route lookup. nullopt when the destination is unknown.
  std::optional<RouteEntry> route_to(Address destination) const;

  /// Next hop toward `destination`, if known.
  std::optional<Address> next_hop(Address destination) const;

  bool has_route(Address destination) const { return route_to(destination).has_value(); }

  /// All known destinations whose role matches every bit of `role_mask`.
  std::vector<RouteEntry> routes_with_role(Role role_mask) const;

  /// The closest destination carrying all bits of `role_mask` — e.g. the
  /// nearest gateway. Ties break toward the lower address (deterministic).
  std::optional<RouteEntry> nearest_with_role(Role role_mask) const;

  Role own_role() const { return own_role_; }

  /// Entries to advertise in the next beacon: a metric-0 self entry (which
  /// carries this node's role) and (destination, metric, role) tuples, all
  /// sorted by destination, truncated to what one frame can carry (the
  /// lowest-metric — nearest — destinations win when truncating, ties to
  /// the lower address, keeping the most reliable information flowing).
  /// Pool-backed: the result always fits one pool block, so the periodic
  /// beacon path recycles its storage.
  support::PooledVector<RoutingEntry> advertisement() const;

  /// Every entry, in ascending destination order.
  const std::vector<RouteEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  Address self() const { return self_; }

  /// Multi-line human-readable dump (demo output).
  std::string to_string() const;

  /// Called whenever a route gains a (destination, via) pairing it did not
  /// hold before — adoption, next-hop switch, or warm-boot restore. Used by
  /// the flight recorder; withdrawals and expiry are not reported.
  void set_observer(std::function<void(const RouteEntry&)> observer) {
    observer_ = std::move(observer);
  }

  // --- Warm-boot snapshot ------------------------------------------------------
  /// Serializes the table (destination, via, metric, role, remaining
  /// lifetime) relative to `now` — the bytes a device would keep in flash
  /// across a reboot.
  std::vector<std::uint8_t> serialize(TimePoint now) const;

  /// Restores a snapshot into an empty table, re-basing lifetimes on `now`
  /// minus `downtime` already elapsed (entries whose lifetime lapsed are
  /// skipped). Returns false — leaving the table unchanged — on malformed
  /// input, including a destination listed twice or a next hop that cannot
  /// be a neighbor. Entries may come in any order. Requires the table to be
  /// empty.
  bool restore(std::span<const std::uint8_t> snapshot, TimePoint now,
               Duration downtime = Duration::zero());

 private:
  std::vector<RouteEntry>::iterator position(Address destination);
  RouteEntry* find(Address destination);
  const RouteEntry* find(Address destination) const;

  void notify(const RouteEntry& entry) {
    if (observer_) observer_(entry);
  }

  Address self_;
  Duration route_timeout_;
  std::function<void(const RouteEntry&)> observer_;
  std::uint8_t max_metric_;
  Role own_role_;
  // Sorted by destination, one entry per destination. Forwarding does one
  // next_hop() lookup per data packet: a binary search over tens of
  // entries. Inserts and removals shift in place (the capacity is reused),
  // and a beacon merges in one forward pass (see apply_beacon).
  std::vector<RouteEntry> entries_;
  // A lower bound on every entry's expires_at: lowered at every write of a
  // hold timer, recomputed by each sweep. expire() does nothing before it.
  TimePoint earliest_expiry_ = TimePoint::max();
};

}  // namespace lm::net

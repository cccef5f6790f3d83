// Property tests for the routing table: invariants that must hold after
// ANY sequence of beacons and expirations, swept over random histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "net/routing_table.h"
#include "support/byte_codec.h"
#include "support/rng.h"

namespace lm::net {
namespace {

constexpr Address kSelf = 0x0042;

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

RoutingEntry random_entry(Rng& rng) {
  RoutingEntry e;
  // Small address pool so destinations collide and update paths trigger.
  e.address = static_cast<Address>(rng.uniform_int(0x0040, 0x0050));
  e.metric = static_cast<std::uint8_t>(rng.uniform_int(0, kInfiniteMetric + 2));
  e.role = static_cast<Role>(rng.uniform_int(0, 7));
  return e;
}

void check_invariants(const RoutingTable& t) {
  std::set<Address> seen;
  for (const RouteEntry& e : t.entries()) {
    // Never a route to ourselves or to reserved addresses.
    ASSERT_NE(e.destination, kSelf);
    ASSERT_NE(e.destination, kBroadcast);
    ASSERT_NE(e.destination, kUnassigned);
    ASSERT_NE(e.via, kBroadcast);
    ASSERT_NE(e.via, kUnassigned);
    // Metrics stay inside [1, kInfiniteMetric].
    ASSERT_GE(e.metric, 1);
    ASSERT_LE(e.metric, kInfiniteMetric);
    // Exactly one entry per destination.
    ASSERT_TRUE(seen.insert(e.destination).second);
    // Direct neighbors route through themselves.
    if (e.metric == 1) {
      ASSERT_EQ(e.via, e.destination);
    }
  }
  // route_to never returns an unusable (saturated) route.
  for (const RouteEntry& e : t.entries()) {
    const auto r = t.route_to(e.destination);
    if (r) {
      ASSERT_LT(r->metric, kInfiniteMetric);
    }
  }
}

TEST_P(RoutingProperty, InvariantsSurviveRandomBeaconHistories) {
  Rng rng(GetParam());
  RoutingTable t(kSelf, Duration::minutes(10));
  TimePoint now;
  for (int step = 0; step < 600; ++step) {
    now += Duration::seconds(rng.uniform_int(1, 120));
    if (rng.bernoulli(0.15)) {
      t.expire(now);
    } else {
      const auto neighbor = static_cast<Address>(rng.uniform_int(0x0040, 0x0050));
      if (neighbor == kSelf) continue;
      std::vector<RoutingEntry> entries;
      const auto n = rng.uniform_int(0, 6);
      for (std::int64_t i = 0; i < n; ++i) entries.push_back(random_entry(rng));
      t.apply_beacon(neighbor, entries, now);
    }
    check_invariants(t);
  }
  // Total silence eventually clears everything.
  t.expire(now + Duration::hours(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST_P(RoutingProperty, AdvertisementIsWellFormed) {
  Rng rng(GetParam() ^ 0xAD);
  RoutingTable t(kSelf, Duration::minutes(10), kInfiniteMetric, roles::kSink);
  TimePoint now;
  for (int step = 0; step < 200; ++step) {
    now += Duration::seconds(30);
    const auto neighbor = static_cast<Address>(rng.uniform_int(0x0001, 0x0200));
    std::vector<RoutingEntry> entries;
    for (int i = 0; i < 4; ++i) {
      RoutingEntry e;
      e.address = static_cast<Address>(rng.uniform_int(0x0001, 0x0200));
      e.metric = static_cast<std::uint8_t>(rng.uniform_int(0, 10));
      entries.push_back(e);
    }
    if (neighbor != kSelf) t.apply_beacon(neighbor, entries, now);

    const auto adv = t.advertisement();
    ASSERT_LE(adv.size(), kMaxRoutingEntries);
    // Sorted by address, unique, and the metric-0 self entry survives any
    // truncation (it sorts first by metric).
    bool has_self = false;
    for (std::size_t i = 0; i < adv.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(adv[i - 1].address, adv[i].address);
      }
      if (adv[i].address == kSelf) {
        has_self = true;
        ASSERT_EQ(adv[i].metric, 0);
        ASSERT_EQ(adv[i].role, roles::kSink);
      }
    }
    ASSERT_TRUE(has_self);
  }
}

TEST_P(RoutingProperty, TwoTablesExchangingBeaconsAgreeOnDistance) {
  // A micro-convergence property: if A hears B's table and vice versa
  // repeatedly (full exchange, no loss), their mutual metrics settle to 1
  // and shared destinations differ by at most 1 hop.
  Rng rng(GetParam() ^ 0x2B);
  RoutingTable a(0x00A0, Duration::minutes(10));
  RoutingTable b(0x00B0, Duration::minutes(10));
  TimePoint now;
  // Seed each with random third-party routes.
  for (int i = 0; i < 10; ++i) {
    now += Duration::seconds(1);
    a.apply_beacon(static_cast<Address>(0x0100 + i),
                   {random_entry(rng), random_entry(rng)}, now);
    b.apply_beacon(static_cast<Address>(0x0200 + i),
                   {random_entry(rng), random_entry(rng)}, now);
  }
  for (int round = 0; round < 4; ++round) {
    now += Duration::seconds(10);
    b.apply_beacon(0x00A0, a.advertisement(), now);
    a.apply_beacon(0x00B0, b.advertisement(), now);
  }
  ASSERT_EQ(a.route_to(0x00B0)->metric, 1);
  ASSERT_EQ(b.route_to(0x00A0)->metric, 1);
  for (const RouteEntry& e : a.entries()) {
    if (e.destination == 0x00B0) continue;
    const auto via_b = b.route_to(e.destination);
    if (via_b && a.route_to(e.destination)) {
      EXPECT_LE(std::abs(static_cast<int>(via_b->metric) -
                         static_cast<int>(e.metric)), 1)
          << "destination " << e.destination;
    }
  }
}

// --- Differential test against a reference model ----------------------------
//
// The reference keeps the table in a std::map, applies a beacon's entries
// one by one with a lookup each, advertises by sorting on (metric, address),
// truncating and sorting on address again, and expires with a full scan
// plus a cascade that tests next hops against the table as it stood before
// each pass. The real table must match it on every return value, on its
// contents, on every advertisement and on the observer's call sequence.

class ReferenceTable {
 public:
  ReferenceTable(Address self, Duration timeout, Role own_role)
      : self_(self), timeout_(timeout), own_role_(own_role) {}

  bool apply_beacon(Address neighbor, std::span<const RoutingEntry> entries,
                    TimePoint now) {
    if (neighbor == self_) return false;
    bool changed = false;
    const TimePoint deadline = now + timeout_;
    if (auto it = routes.find(neighbor); it != routes.end()) {
      RouteEntry& direct = it->second;
      if (direct.metric != 1 || direct.via != neighbor) {
        direct.metric = 1;
        direct.via = neighbor;
        changed = true;
        notified.push_back(direct);
      }
      direct.expires_at = deadline;
    } else {
      install(RouteEntry{neighbor, neighbor, 1, roles::kNone, deadline});
      changed = true;
    }
    for (const RoutingEntry& adv : entries) {
      if (adv.address == self_ || adv.address == kBroadcast ||
          adv.address == kUnassigned) {
        continue;
      }
      if (adv.metric == 0 && adv.address != neighbor) continue;
      const auto candidate = static_cast<std::uint8_t>(
          std::min<int>(adv.metric + 1, kInfiniteMetric));
      const auto it = routes.find(adv.address);
      if (it == routes.end()) {
        if (candidate < kInfiniteMetric) {
          install(RouteEntry{adv.address, neighbor, candidate, adv.role, deadline});
          changed = true;
        }
        continue;
      }
      RouteEntry& cur = it->second;
      if (cur.via == neighbor) {
        if (candidate >= kInfiniteMetric && adv.address != neighbor) {
          routes.erase(it);
          changed = true;
          continue;
        }
        if (cur.metric != candidate && adv.address != neighbor) {
          cur.metric = candidate;
          changed = true;
        }
        if (cur.role != adv.role) {
          cur.role = adv.role;
          changed = true;
        }
        cur.expires_at = deadline;
      } else if (candidate < cur.metric) {
        cur = RouteEntry{adv.address, neighbor, candidate, adv.role, deadline};
        changed = true;
        notified.push_back(cur);
      }
    }
    return changed;
  }

  bool upsert(Address destination, Address via, std::uint8_t metric, Role role,
              TimePoint now) {
    if (destination == self_) return false;
    metric = std::min<std::uint8_t>(metric, kInfiniteMetric - 1);
    const RouteEntry next{destination, via, metric, role, now + timeout_};
    const auto it = routes.find(destination);
    if (it == routes.end()) {
      install(next);
      return true;
    }
    const bool new_pairing = it->second.via != via;
    const bool changed = !(it->second == next);
    it->second = next;
    if (new_pairing) notified.push_back(next);
    return changed;
  }

  bool invalidate(Address destination) { return routes.erase(destination) != 0; }

  bool touch(Address destination, TimePoint now) {
    const auto it = routes.find(destination);
    if (it == routes.end()) return false;
    it->second.expires_at = now + timeout_;
    return true;
  }

  std::size_t expire(TimePoint now) {
    std::size_t removed = std::erase_if(
        routes, [now](const auto& kv) { return kv.second.expires_at <= now; });
    if (removed == 0) return 0;
    for (;;) {
      std::vector<Address> orphans;
      for (const auto& [destination, e] : routes) {
        if (e.via != destination && !routes.contains(e.via)) {
          orphans.push_back(destination);
        }
      }
      if (orphans.empty()) return removed;
      for (const Address a : orphans) routes.erase(a);
      removed += orphans.size();
    }
  }

  std::vector<RoutingEntry> advertisement() const {
    std::vector<RoutingEntry> adv{RoutingEntry{self_, 0, own_role_}};
    for (const auto& [destination, e] : routes) {
      adv.push_back(RoutingEntry{destination, e.metric, e.role});
    }
    std::sort(adv.begin(), adv.end(), [](const RoutingEntry& a, const RoutingEntry& b) {
      return a.metric != b.metric ? a.metric < b.metric : a.address < b.address;
    });
    if (adv.size() > kMaxRoutingEntries) adv.resize(kMaxRoutingEntries);
    std::sort(adv.begin(), adv.end(), [](const RoutingEntry& a, const RoutingEntry& b) {
      return a.address < b.address;
    });
    return adv;
  }

  /// True when truncation cuts through a run of equal metrics, so which
  /// tied destinations survive is decided by address.
  bool tie_straddles_cut() const {
    std::vector<std::uint8_t> metrics{0};
    for (const auto& [destination, e] : routes) metrics.push_back(e.metric);
    if (metrics.size() <= kMaxRoutingEntries) return false;
    std::sort(metrics.begin(), metrics.end());
    return metrics[kMaxRoutingEntries - 1] == metrics[kMaxRoutingEntries];
  }

  std::vector<std::uint8_t> serialize(TimePoint now) const {
    ByteWriter w;
    w.u8(1);
    w.u16(self_);
    w.u16(static_cast<std::uint16_t>(routes.size()));
    for (const auto& [destination, e] : routes) {
      w.u16(destination);
      w.u16(e.via);
      w.u8(e.metric);
      w.u8(e.role);
      w.u32(static_cast<std::uint32_t>(
          std::max<std::int64_t>(0, (e.expires_at - now).ms())));
    }
    return w.take();
  }

  bool restore(std::span<const std::uint8_t> snapshot, TimePoint now,
               Duration downtime) {
    ByteReader r(snapshot);
    if (r.u8() != 1 || r.u16() != self_) return false;
    const std::uint16_t count = r.u16();
    std::vector<RouteEntry> restored;
    std::map<Address, RouteEntry> table;
    for (std::uint16_t i = 0; i < count; ++i) {
      RouteEntry e;
      e.destination = r.u16();
      e.via = r.u16();
      e.metric = r.u8();
      e.role = r.u8();
      const Duration remaining = Duration::milliseconds(r.u32()) - downtime;
      if (!r.ok()) return false;
      if (remaining <= Duration::zero()) continue;
      if (e.destination == self_ || e.destination == kBroadcast ||
          e.destination == kUnassigned || e.via == self_ ||
          e.via == kBroadcast || e.via == kUnassigned || e.metric == 0 ||
          e.metric > kInfiniteMetric) {
        return false;
      }
      e.expires_at = now + remaining;
      if (!table.emplace(e.destination, e).second) return false;
      restored.push_back(e);
    }
    if (!r.exhausted()) return false;
    routes = std::move(table);
    notified.insert(notified.end(), restored.begin(), restored.end());
    return true;
  }

  std::map<Address, RouteEntry> routes;
  std::vector<RouteEntry> notified;

 private:
  void install(const RouteEntry& e) {
    routes.emplace(e.destination, e);
    notified.push_back(e);
  }

  Address self_;
  Duration timeout_;
  Role own_role_;
};

constexpr Address kHighestDestination = 0x0090;  // over two frames' worth
const Duration kDiffTimeout = Duration::minutes(10);

void expect_same_entry(const RouteEntry& got, const RouteEntry& want) {
  ASSERT_EQ(got, want) << "destination " << to_string(want.destination);
  ASSERT_EQ(got.expires_at, want.expires_at)
      << "destination " << to_string(want.destination);
}

void expect_same(const RoutingTable& t, const ReferenceTable& ref,
                 const std::vector<RouteEntry>& notified) {
  ASSERT_EQ(t.size(), ref.routes.size());
  auto want = ref.routes.begin();
  for (const RouteEntry& e : t.entries()) {
    ASSERT_EQ(e.destination, want->first);
    expect_same_entry(e, want->second);
    ++want;
  }
  for (Address d = 0; d <= kHighestDestination + 1; ++d) {
    const auto it = ref.routes.find(d);
    const RouteEntry* found = it == ref.routes.end() ? nullptr : &it->second;
    const auto r = t.route_to(d);
    ASSERT_EQ(r.has_value(), found != nullptr && found->metric < kInfiniteMetric);
    if (r) expect_same_entry(*r, *found);
  }
  const auto adv = t.advertisement();
  ASSERT_EQ(std::vector<RoutingEntry>(adv.begin(), adv.end()), ref.advertisement());
  ASSERT_EQ(notified.size(), ref.notified.size());
  for (std::size_t i = 0; i < notified.size(); ++i) {
    expect_same_entry(notified[i], ref.notified[i]);
  }
}

Address random_destination(Rng& rng) {
  if (rng.bernoulli(0.03)) return kSelf;
  if (rng.bernoulli(0.02)) return kBroadcast;
  if (rng.bernoulli(0.02)) return kUnassigned;
  return static_cast<Address>(rng.uniform_int(1, kHighestDestination));
}

// A beacon from `neighbor`: its own metric-0 entry and up to one frame of
// destinations, with metrics in a narrow band so ties straddle the
// truncation cut. Mostly in ascending address order like a real beacon;
// sometimes shuffled, sometimes with repeated addresses.
std::vector<RoutingEntry> random_beacon(Rng& rng, Address neighbor) {
  std::vector<RoutingEntry> beacon;
  if (rng.bernoulli(0.8)) {
    beacon.push_back({neighbor, 0, static_cast<Role>(rng.uniform_int(0, 3))});
  }
  const auto n = rng.uniform_int(0, kMaxRoutingEntries - 1);
  for (std::int64_t i = 0; i < n; ++i) {
    RoutingEntry e;
    e.address = random_destination(rng);
    e.metric = static_cast<std::uint8_t>(
        rng.bernoulli(0.05) ? rng.uniform_int(0, kInfiniteMetric + 1)
                            : rng.uniform_int(1, 3));
    e.role = static_cast<Role>(rng.uniform_int(0, 3));
    beacon.push_back(e);
  }
  const auto by_address = [](const RoutingEntry& a, const RoutingEntry& b) {
    return a.address < b.address;
  };
  const double shape = rng.uniform();
  if (shape < 0.7) {  // well formed: ascending, one entry per address
    std::stable_sort(beacon.begin(), beacon.end(), by_address);
    beacon.erase(std::unique(beacon.begin(), beacon.end(),
                             [](const RoutingEntry& a, const RoutingEntry& b) {
                               return a.address == b.address;
                             }),
                 beacon.end());
  } else if (shape < 0.85) {
    rng.shuffle(beacon);
  } else {  // ascending, with repeats
    std::stable_sort(beacon.begin(), beacon.end(), by_address);
  }
  return beacon;
}

// Snapshot bytes with their 10-byte entries reordered, sometimes with one
// entry listed twice or with a next hop that cannot be a neighbor.
std::vector<std::uint8_t> tamper(Rng& rng, std::vector<std::uint8_t> bytes) {
  constexpr std::size_t kHeader = 5;
  constexpr std::size_t kEntry = 10;
  std::vector<std::vector<std::uint8_t>> records;
  for (std::size_t at = kHeader; at + kEntry <= bytes.size(); at += kEntry) {
    records.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                         bytes.begin() + static_cast<std::ptrdiff_t>(at + kEntry));
  }
  if (records.empty()) return bytes;
  if (rng.bernoulli(0.5)) {
    records.push_back(records[rng.index(records.size())]);
  }
  if (rng.bernoulli(0.25)) {
    const Address reserved[] = {kBroadcast, kUnassigned, kSelf};
    const Address via = reserved[rng.index(3)];
    auto& record = records[rng.index(records.size())];
    record[2] = static_cast<std::uint8_t>(via & 0xFF);
    record[3] = static_cast<std::uint8_t>(via >> 8);
  }
  rng.shuffle(records);
  bytes.resize(kHeader);
  bytes[3] = static_cast<std::uint8_t>(records.size() & 0xFF);
  bytes[4] = static_cast<std::uint8_t>(records.size() >> 8);
  for (const auto& record : records) bytes.insert(bytes.end(), record.begin(), record.end());
  return bytes;
}

TEST_P(RoutingProperty, MatchesReferenceModelThroughRandomHistories) {
  Rng rng(GetParam() ^ 0xD1FF);
  std::vector<RouteEntry> notified;
  auto table = std::make_unique<RoutingTable>(kSelf, kDiffTimeout,
                                              kInfiniteMetric, roles::kSink);
  table->set_observer([&](const RouteEntry& e) { notified.push_back(e); });
  ReferenceTable ref(kSelf, kDiffTimeout, roles::kSink);

  TimePoint now = TimePoint::origin();
  std::size_t largest = 0;
  std::size_t tied_cuts = 0;
  std::size_t expired = 0;
  std::size_t restores = 0;
  std::size_t emptied = 0;
  // Calls carry `now`, or now and then an earlier time: the table must not
  // assume a monotone clock.
  const auto sometimes_earlier = [&](double p) {
    return rng.bernoulli(p) ? now - Duration::seconds(rng.uniform_int(0, 900)) : now;
  };
  for (int step = 0; step < 1500; ++step) {
    // Now and then every neighbor falls silent for longer than a hold time,
    // so the table empties and is rebuilt from nothing.
    now += rng.bernoulli(0.01) ? kDiffTimeout : Duration::seconds(rng.uniform_int(1, 20));
    const double op = rng.uniform();
    if (op < 0.55) {
      const auto neighbor = static_cast<Address>(rng.uniform_int(1, 24));
      const auto beacon = random_beacon(rng, neighbor);
      const TimePoint when = sometimes_earlier(0.05);
      ASSERT_EQ(table->apply_beacon(neighbor, beacon, when),
                ref.apply_beacon(neighbor, beacon, when));
    } else if (op < 0.65) {
      const auto destination =
          static_cast<Address>(rng.uniform_int(1, kHighestDestination));
      const auto via = static_cast<Address>(rng.uniform_int(1, 24));
      const auto metric = static_cast<std::uint8_t>(rng.uniform_int(1, kInfiniteMetric + 1));
      const auto role = static_cast<Role>(rng.uniform_int(0, 3));
      const TimePoint when = sometimes_earlier(0.3);
      ASSERT_EQ(table->upsert(destination, via, metric, role, when),
                ref.upsert(destination, via, metric, role, when));
    } else if (op < 0.7) {
      const auto destination = random_destination(rng);
      ASSERT_EQ(table->invalidate(destination), ref.invalidate(destination));
    } else if (op < 0.8) {
      const auto destination = random_destination(rng);
      const TimePoint when = sometimes_earlier(0.5);
      ASSERT_EQ(table->touch(destination, when), ref.touch(destination, when));
    } else if (op < 0.97) {
      const std::size_t removed = table->expire(now);
      ASSERT_EQ(removed, ref.expire(now));
      expired += removed;
      if (removed > 0 && table->size() == 0) ++emptied;
    } else {
      auto snapshot = table->serialize(now);
      ASSERT_EQ(snapshot, ref.serialize(now));
      if (rng.bernoulli(0.5)) snapshot = tamper(rng, std::move(snapshot));
      const Duration downtime = Duration::seconds(rng.uniform_int(0, 300));
      auto rebooted = std::make_unique<RoutingTable>(kSelf, kDiffTimeout,
                                                     kInfiniteMetric, roles::kSink);
      rebooted->set_observer([&](const RouteEntry& e) { notified.push_back(e); });
      ReferenceTable ref_rebooted(kSelf, kDiffTimeout, roles::kSink);
      ref_rebooted.notified = ref.notified;
      const bool ok = rebooted->restore(snapshot, now, downtime);
      ASSERT_EQ(ok, ref_rebooted.restore(snapshot, now, downtime));
      if (ok) {
        table = std::move(rebooted);
        ref = std::move(ref_rebooted);
        ++restores;
      } else {
        ASSERT_EQ(rebooted->size(), 0u);
      }
    }
    largest = std::max(largest, table->size());
    if (ref.tie_straddles_cut()) ++tied_cuts;
    expect_same(*table, ref, notified);
    if (HasFatalFailure()) FAIL() << "diverged at step " << step;
  }
  // The histories reached what they are meant to cover.
  EXPECT_GT(largest, kMaxRoutingEntries);
  EXPECT_GT(tied_cuts, 0u);
  EXPECT_GT(expired, 0u);
  EXPECT_GT(restores, 0u);
  EXPECT_GT(emptied, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(10u, 11u, 12u, 13u, 14u, 15u));

}  // namespace
}  // namespace lm::net

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>

#include "net/distance_vector_strategy.h"
#include "phy/path_loss.h"
#include "radio/channel.h"
#include "radio/energy.h"
#include "radio/pdes_bridge.h"
#include "radio/virtual_radio.h"
#include "sim/pdes/region_partition.h"
#include "support/rng.h"
#include "testbed/scenario.h"
#include "testbed/strategy_matrix.h"
#include "testbed/topology.h"
#include "memory.h"
#include "spans.h"
#include "traffic.h"
#include "wrappers.h"

namespace perfbench {

double counter(const Counters& c, const std::string& name) {
  for (const auto& [k, v] : c) {
    if (k == name) return v;
  }
  return 0.0;
}

std::string diff_counters(const Counters& a, const Counters& b) {
  std::string out;
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < a.size() && i < b.size() && a[i] == b[i]) continue;
    const std::string name = i < a.size() ? a[i].first : b[i].first;
    out += (out.empty() ? "" : ", ") + name + " (" +
           (i < a.size() ? std::to_string(a[i].second) : "missing") + " vs " +
           (i < b.size() ? std::to_string(b[i].second) : "missing") + ")";
  }
  return out;
}

namespace {

using lm::Duration;
using lm::TimePoint;
using lm::phy::Position;
using StrategyFactory = std::function<std::unique_ptr<lm::net::RoutingStrategy>()>;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

constexpr double kMB = 1024.0 * 1024.0;

double live_mb() { return static_cast<double>(MemoryMeter::live_bytes()) / kMB; }
double peak_mb() { return static_cast<double>(MemoryMeter::peak_bytes()) / kMB; }

double u(std::uint64_t v) { return static_cast<double>(v); }

Counters node_counters(const lm::net::NodeStats& s) {
  return {{"node.beacons_sent", u(s.beacons_sent)},
          {"node.beacons_received", u(s.beacons_received)},
          {"node.routing_changes", u(s.routing_changes)},
          {"node.datagrams_sent", u(s.datagrams_sent)},
          {"node.datagrams_delivered", u(s.datagrams_delivered)},
          {"node.broadcasts_sent", u(s.broadcasts_sent)},
          {"node.broadcasts_delivered", u(s.broadcasts_delivered)},
          {"node.packets_forwarded", u(s.packets_forwarded)},
          {"node.dropped_no_route", u(s.dropped_no_route)},
          {"node.dropped_ttl", u(s.dropped_ttl)},
          {"node.dropped_queue_full", u(s.dropped_queue_full)},
          {"node.malformed_frames", u(s.malformed_frames)},
          {"node.foreign_frames", u(s.foreign_frames)},
          {"node.beacons_ignored_low_quality", u(s.beacons_ignored_low_quality)},
          {"node.cad_busy_events", u(s.cad_busy_events)},
          {"node.forced_transmissions", u(s.forced_transmissions)},
          {"node.duty_cycle_delays", u(s.duty_cycle_delays)},
          {"node.control_bytes_sent", u(s.control_bytes_sent)},
          {"node.data_bytes_sent", u(s.data_bytes_sent)},
          {"node.control_airtime_us", static_cast<double>(s.control_airtime.us())},
          {"node.data_airtime_us", static_cast<double>(s.data_airtime.us())},
          {"node.acked_sent", u(s.acked_sent)},
          {"node.acked_confirmed", u(s.acked_confirmed)},
          {"node.acked_failed", u(s.acked_failed)},
          {"node.acked_retransmissions", u(s.acked_retransmissions)},
          {"node.acked_delivered", u(s.acked_delivered)},
          {"node.acked_duplicates", u(s.acked_duplicates)},
          {"node.acks_sent", u(s.acks_sent)},
          {"node.transfers_started", u(s.transfers_started)},
          {"node.transfers_completed", u(s.transfers_completed)},
          {"node.transfers_failed", u(s.transfers_failed)},
          {"node.transfers_received", u(s.transfers_received)},
          {"node.rx_sessions_rejected", u(s.rx_sessions_rejected)},
          {"node.fragments_sent", u(s.fragments_sent)},
          {"node.fragments_retransmitted", u(s.fragments_retransmitted)}};
}

Counters channel_counters(const lm::radio::ChannelStats& s) {
  return {{"channel.frames_transmitted", u(s.frames_transmitted)},
          {"channel.receptions_delivered", u(s.receptions_delivered)},
          {"channel.dropped_not_listening", u(s.dropped_not_listening)},
          {"channel.dropped_blocked_link", u(s.dropped_blocked_link)},
          {"channel.dropped_below_sensitivity", u(s.dropped_below_sensitivity)},
          {"channel.dropped_snr", u(s.dropped_snr)},
          {"channel.dropped_collision", u(s.dropped_collision)},
          {"channel.dropped_modulation_mismatch", u(s.dropped_modulation_mismatch)},
          {"channel.dropped_out_of_range", u(s.dropped_out_of_range)}};
}

Counters radio_counters(const lm::radio::RadioStats& s) {
  return {{"radio.tx_frames", u(s.tx_frames)},
          {"radio.rx_frames", u(s.rx_frames)},
          {"radio.cad_runs", u(s.cad_runs)},
          {"radio.cad_busy", u(s.cad_busy)}};
}

/// Element-wise sum of counter lists with identical names.
void accumulate(Counters& sum, const Counters& part) {
  if (sum.empty()) {
    sum = part;
    return;
  }
  for (std::size_t i = 0; i < part.size(); ++i) sum[i].second += part[i].second;
}

void append(Counters& out, const Counters& more) {
  out.insert(out.end(), more.begin(), more.end());
}

/// Events, channel (null: per-region channels, not reachable) and the
/// per-node NodeStats and RadioStats summed. Summed node by node because
/// MeshScenario::total_stats() leaves out the acked-datagram counters and
/// rx_sessions_rejected.
Counters deployment_counters(
    std::uint64_t events, const lm::radio::ChannelStats* channel, std::size_t n,
    const std::function<const lm::net::NodeStats&(std::size_t)>& node,
    const std::function<const lm::radio::RadioStats&(std::size_t)>& radio) {
  Counters out = {{"sim.events", u(events)}};
  if (channel != nullptr) append(out, channel_counters(*channel));
  Counters nodes;
  Counters radios;
  for (std::size_t i = 0; i < n; ++i) {
    accumulate(nodes, node_counters(node(i)));
    accumulate(radios, radio_counters(radio(i)));
  }
  append(out, nodes);
  append(out, radios);
  return out;
}

StrategyFactory traced_factory(StrategyFactory inner) {
  return [inner] {
    return std::make_unique<TracedStrategy>(
        inner ? inner() : std::make_unique<lm::net::DistanceVectorStrategy>());
  };
}

void finish_traffic(Episode& e, const Traffic& traffic) {
  e.ops = u(traffic.offered());
  e.ops_failed = u(traffic.offered() - traffic.delivered());
  e.pdr = u(traffic.delivered()) / u(traffic.offered());
  append(e.counters, {{"app.offered", u(traffic.offered())},
                      {"app.refused", u(traffic.refused())},
                      {"app.delivered", u(traffic.delivered())},
                      {"app.duplicates", u(traffic.duplicates())}});
  e.error = traffic.check();
}

/// A mesh deployment plus its application traffic.
struct MeshSpec {
  std::vector<Position> positions;
  std::vector<Msg> msgs;
  lm::testbed::ScenarioConfig config;
  Duration span;
};

/// The serial deployment MeshScenario::add_node builds, wired by hand so a
/// TracedRadio can sit between each VirtualRadio and its node's LinkLayer.
/// Construction order, addresses and seeds mirror the scenario exactly.
class HandWired {
 public:
  explicit HandWired(const lm::testbed::ScenarioConfig& config)
      : config_(config),
        channel_(sim_, config.propagation, config.channel, config.seed ^ 0xC0FFEE) {}
  ~HandWired() {
    nodes_.clear();
    energy_.clear();
    wraps_.clear();
    radios_.clear();
  }
  HandWired(const HandWired&) = delete;
  HandWired& operator=(const HandWired&) = delete;

  void add_node(Position position) {
    const std::size_t i = nodes_.size();
    const auto address = static_cast<lm::net::Address>(i + 1);
    radios_.push_back(std::make_unique<lm::radio::VirtualRadio>(
        sim_, channel_, static_cast<lm::radio::RadioId>(i + 1), position,
        config_.radio));
    wraps_.push_back(std::make_unique<TracedRadio>(*radios_.back()));
    nodes_.push_back(std::make_unique<lm::net::MeshNode>(
        sim_, *wraps_.back(), address, config_.mesh,
        config_.seed * 0x9E3779B97F4A7C15ULL + i + 1, config_.strategy_factory()));
    if (config_.energy.enabled) {
      energy_.push_back(
          std::make_unique<lm::radio::EnergyModel>(sim_, config_.energy, address));
      energy_.back()->attach(*radios_.back());
      energy_.back()->set_brownout([this, i] { nodes_[i]->stop(); });
      nodes_.back()->set_energy_model(energy_.back().get());
    }
  }

  lm::sim::Simulator& sim() { return sim_; }
  lm::radio::Channel& channel() { return channel_; }
  std::size_t size() const { return nodes_.size(); }
  lm::net::MeshNode& node(std::size_t i) { return *nodes_[i]; }
  const lm::radio::VirtualRadio& radio(std::size_t i) const { return *radios_[i]; }

 private:
  lm::testbed::ScenarioConfig config_;
  lm::sim::Simulator sim_;
  lm::radio::Channel channel_;
  std::vector<std::unique_ptr<lm::radio::VirtualRadio>> radios_;
  std::vector<std::unique_ptr<TracedRadio>> wraps_;
  std::vector<std::unique_ptr<lm::radio::EnergyModel>> energy_;
  std::vector<std::unique_ptr<lm::net::MeshNode>> nodes_;
};

class MeshWorkload final : public Workload {
 public:
  MeshWorkload(MeshSpec spec, int setup_batch, int memory_draws = 1)
      : spec_(std::move(spec)), setup_batch_(setup_batch), memory_draws_(memory_draws) {}

  Episode run(bool traced, bool setup_only) override {
    // A serial deployment is hand-wired when traced (the radio seam is
    // inside MeshScenario); a PDES one keeps MeshScenario and traces the
    // strategy seam, which its worker threads call.
    if (traced && spec_.config.pdes.workers == 0) return run_hand_wired();
    return run_scenario(traced, setup_only);
  }
  int setup_batch() const override { return setup_batch_; }
  int memory_draws() const override { return memory_draws_; }

 private:
  Episode run_scenario(bool traced, bool setup_only) {
    const Names& names = Names::get();
    Episode e;
    e.nodes = spec_.positions.size();
    lm::testbed::ScenarioConfig config = spec_.config;
    if (traced) config.strategy_factory = traced_factory(config.strategy_factory);
    lm::support::BlockPool::reset_stats();
    const double t0 = wall_now();
    lm::testbed::MeshScenario sc(config);
    {
      Span s(names.setup_add_nodes);
      sc.add_nodes(spec_.positions);
    }
    {
      Span s(names.setup_finalize);
      sc.region_count();  // builds the PDES decomposition; no-op when serial
    }
    Traffic traffic(spec_.msgs, e.nodes);
    for (std::size_t i = 0; i < e.nodes; ++i) traffic.attach(i, sc.node(i));
    {
      Span s(names.setup_start_all);
      sc.start_all();
    }
    traffic.start(
        [&sc](std::size_t i) -> lm::sim::Simulator& { return sc.simulator_for(i); },
        [&sc](std::size_t i) -> lm::net::MeshNode& { return sc.node(i); });
    e.setup_s = wall_now() - t0;
    e.setup_mem_mb = live_mb();
    if (setup_only) return e;

    const double c0 = cpu_now();
    const double t1 = wall_now();
    sc.run_until(TimePoint::origin() + spec_.span);
    e.run_wall_s = wall_now() - t1;
    e.cpu_s = cpu_now() - c0;
    e.mem_mb = peak_mb();
    e.sim_s = spec_.span.seconds_d();
    e.pool = lm::support::BlockPool::stats();

    // Per-region event counts through each node's home loop.
    std::set<lm::sim::Simulator*> loops;
    for (std::size_t i = 0; i < e.nodes; ++i) loops.insert(&sc.simulator_for(i));
    double max_events = 0.0;
    for (lm::sim::Simulator* loop : loops) {
      max_events = std::max(max_events, u(loop->events_processed()));
    }
    const double mean_events =
        u(sc.events_processed()) / static_cast<double>(sc.region_count());
    const bool serial = spec_.config.pdes.workers == 0;
    e.counters = deployment_counters(
        sc.events_processed(), serial ? &sc.channel().stats() : nullptr, e.nodes,
        [&sc](std::size_t i) -> const lm::net::NodeStats& { return sc.node(i).stats(); },
        [&sc](std::size_t i) -> const lm::radio::RadioStats& { return sc.radio(i).stats(); });
    append(e.counters, {{"pdes.regions", u(sc.region_count())},
                        {"pdes.windows", u(sc.pdes_windows_run())},
                        {"pdes.windows_widened", u(sc.pdes_windows_widened())},
                        {"pdes.ghosts", u(sc.pdes_messages_applied())},
                        {"pdes.region_imbalance", max_events / mean_events}});
    finish_traffic(e, traffic);
    return e;
  }

  Episode run_hand_wired() {
    const Names& names = Names::get();
    Episode e;
    e.nodes = spec_.positions.size();
    lm::testbed::ScenarioConfig config = spec_.config;
    config.strategy_factory = traced_factory(config.strategy_factory);
    lm::support::BlockPool::reset_stats();
    const double t0 = wall_now();
    HandWired hw(config);
    {
      Span s(names.setup_add_nodes);
      for (const Position& p : spec_.positions) hw.add_node(p);
    }
    Traffic traffic(spec_.msgs, e.nodes);
    for (std::size_t i = 0; i < e.nodes; ++i) traffic.attach(i, hw.node(i));
    {
      Span s(names.setup_start_all);
      for (std::size_t i = 0; i < e.nodes; ++i) hw.node(i).start();
    }
    traffic.start([&hw](std::size_t) -> lm::sim::Simulator& { return hw.sim(); },
                  [&hw](std::size_t i) -> lm::net::MeshNode& { return hw.node(i); });
    e.setup_s = wall_now() - t0;
    e.setup_mem_mb = live_mb();

    // Step event by event up to a sentinel at the end time: the sentinel
    // (scheduled last, so after every event already due then) bounds
    // step(), and run_until() then drains the remaining same-time events
    // exactly as the untraced run_until() would.
    const TimePoint end = TimePoint::origin() + spec_.span;
    bool reached = false;
    hw.sim().schedule_at(end, [&reached] { reached = true; });
    const double c0 = cpu_now();
    const double t1 = wall_now();
    while (!reached) {
      {
        Span s(names.sim_step);
        hw.sim().step();
      }
      note_pending(hw.sim().pending());
    }
    hw.sim().run_until(end);
    e.run_wall_s = wall_now() - t1;
    e.cpu_s = cpu_now() - c0;
    e.mem_mb = peak_mb();
    e.sim_s = spec_.span.seconds_d();
    e.pool = lm::support::BlockPool::stats();

    e.counters = deployment_counters(
        hw.sim().events_processed() - 1, &hw.channel().stats(), e.nodes,
        [&hw](std::size_t i) -> const lm::net::NodeStats& { return hw.node(i).stats(); },
        [&hw](std::size_t i) -> const lm::radio::RadioStats& { return hw.radio(i).stats(); });
    append(e.counters, {{"pdes.regions", 1.0},
                        {"pdes.windows", 0.0},
                        {"pdes.windows_widened", 0.0},
                        {"pdes.ghosts", 0.0},
                        {"pdes.region_imbalance", 1.0}});
    finish_traffic(e, traffic);
    return e;
  }

  MeshSpec spec_;
  int setup_batch_;
  int memory_draws_;
};

/// Poisson arrivals of `kind` messages of `size` bytes on [from, to)
/// seconds with mean gap `mean_s`; `pick` chooses (src, dst) for each.
void poisson(std::vector<Msg>& out, lm::Rng& rng, double from, double to,
             double mean_s, Kind kind, std::uint16_t size,
             const std::function<std::pair<std::uint32_t, std::uint32_t>()>& pick) {
  for (double t = from + rng.exponential(mean_s); t < to;
       t += rng.exponential(mean_s)) {
    const auto [src, dst] = pick();
    out.push_back(Msg{static_cast<std::int64_t>(t * 1e6), src, dst, kind, size});
  }
}

void sort_by_time(std::vector<Msg>& msgs) {
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const Msg& a, const Msg& b) { return a.at_us < b.at_us; });
}

Duration scaled(double seconds, const Options& o) {
  return Duration::from_seconds(seconds * o.span_scale);
}

/// The experiments' campus channel (bench::campus_config in
/// bench/bench_common.h): log-distance n=3.5 from 40 dB, no shadowing or
/// fading, so 400 m neighbours decode and 800 m ones do not.
lm::testbed::ScenarioConfig campus_config(std::uint64_t seed) {
  lm::testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = lm::phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  return c;
}

// --- mesh16: the paper-scale campus field ------------------------------------
// bench_engine's mesh16: 16 nodes in its connected random 2 km x 2 km field
// (links up to 550 m, layout seed 1016 whatever the benchmark seed, which
// varies the traffic and radio draws), the campus channel, hello 60 s,
// distance-vector routing, and four Poisson datagram flows i -> 15 - i
// (i = 0..3) with mean gap 30 s and 16 B payloads. Added here, from
// minute 5 once routes have converged:
//  - energy metering on an infinite battery;
//  - acked datagram flows i -> 15 - i (i = 4..7) of 16 B, one per
//    2 minutes like the remote_control example's confirmed commands;
//  - reliable transfers of 512 B (E5's smallest size) from node 15 to
//    node 0, one per 15 minutes. This rate is picked, not taken from an
//    experiment; with random pairs and half of them 2 KiB, pdr ranged
//    from 0.81 to 0.96 over five seeds.
MeshSpec mesh16(std::uint64_t seed, const Options& o) {
  lm::Rng layout_rng(1016);
  lm::Rng rng(seed ^ 0x3E5416);
  MeshSpec spec;
  spec.positions =
      lm::testbed::connected_random_field(16, 2000.0, 2000.0, 550.0, layout_rng);
  spec.config = campus_config(seed);
  spec.config.mesh.hello_interval = Duration::seconds(60);
  spec.config.energy.enabled = o.energy;
  spec.span = scaled(24 * 3600.0, o);
  const double from = 300.0;
  const double to = spec.span.seconds_d() - 300.0;  // drain before the end
  for (std::uint32_t i = 0; i < 8; ++i) {
    const bool acked = i >= 4;
    poisson(spec.msgs, rng, from, to, acked ? 120.0 : 30.0,
            acked ? Kind::Acked : Kind::Datagram, 16,
            [i] { return std::make_pair(i, 15 - i); });
  }
  poisson(spec.msgs, rng, from, to, 900.0, Kind::Reliable, 512,
          [] { return std::make_pair(15u, 0u); });
  sort_by_time(spec.msgs);
  return spec;
}

// --- field3k: a 3,000-node field at constant density -------------------------
// E14's density (bench_scale's field: one node per 1.5 km x 1.5 km under
// PropagationConfig::campus(), shadowing and fading on) on a jittered 60x50
// grid, so no node is isolated. Hello 30 s, the shortest interval of E3's
// sweep and the remote_control example's setting: picked short so beacons
// are most of the load. From 120 s, 400 acked-datagram flows between nodes
// 3-6 km apart (2-4 hops), each E1's flow shape (Poisson with mean gap
// 20 s, 16 B). The flow count is picked: many flows with few messages each
// keep pdr steady from seed to seed.
MeshSpec field3k(std::uint64_t seed, const Options& o) {
  lm::Rng rng(seed ^ 0xF1E1D3);
  constexpr int kCols = 60;
  constexpr int kRows = 50;
  constexpr double kPitch = 1500.0;
  MeshSpec spec;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      spec.positions.push_back({c * kPitch + rng.uniform(-375.0, 375.0),
                                r * kPitch + rng.uniform(-375.0, 375.0)});
    }
  }
  spec.config.seed = seed;
  spec.config.mesh.hello_interval = Duration::seconds(30);
  spec.span = scaled(200.0, o);
  const double from = 0.6 * spec.span.seconds_d();
  const double to = spec.span.seconds_d() - 20.0;
  const std::size_t n = spec.positions.size();
  for (int f = 0; f < 400; ++f) {
    const auto src = static_cast<std::uint32_t>(rng.index(n));
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t j = 0; j < n; ++j) {
      const double d = std::hypot(spec.positions[j].x - spec.positions[src].x,
                                  spec.positions[j].y - spec.positions[src].y);
      if (d >= 3000.0 && d <= 6000.0) candidates.push_back(j);
    }
    const std::uint32_t dst = candidates[rng.index(candidates.size())];
    poisson(spec.msgs, rng, from, to, 20.0, Kind::Acked, 16,
            [src, dst] { return std::make_pair(src, dst); });
  }
  sort_by_time(spec.msgs);
  return spec;
}

// --- chain10k_pdes: the 10,000-node chain on the PDES engine -----------------
// bench_scale's PDES chain (E14b): 10,000 nodes 400 m apart on the campus
// channel, so only adjacent nodes decode; hello 10 s, maintenance 2 s,
// 8 stripe regions, one simulated minute, on one PDES worker (see
// Options::workers). Added: two-hop acked-datagram flows of E1's shape
// (Poisson with mean gap 20 s, 16 B), 16 inside every region and 2 across
// every region boundary, from 24 s on.
MeshSpec chain10k(std::uint64_t seed, const Options& o) {
  lm::Rng rng(seed ^ 0xC4A1);
  constexpr std::uint32_t kNodes = 10'000;
  MeshSpec spec;
  spec.positions = lm::testbed::chain(kNodes, 400.0);
  spec.config = campus_config(seed);
  spec.config.mesh.hello_interval = Duration::seconds(10);
  spec.config.mesh.maintenance_interval = Duration::seconds(2);
  spec.config.pdes.workers = o.workers;
  spec.config.pdes.max_regions = 8;
  spec.span = scaled(60.0, o);

  std::vector<double> xs;
  for (const Position& p : spec.positions) xs.push_back(p.x);
  const auto partition = lm::sim::pdes::TilePartition::stripes(
      xs, lm::radio::pdes::interaction_radius_m(spec.config.propagation,
                                                spec.config.radio),
      spec.config.pdes.max_regions);
  std::vector<std::uint32_t> first_of_region{0};
  for (std::uint32_t i = 1; i < kNodes; ++i) {
    if (partition.region_of(xs[i], 0.0) != partition.region_of(xs[i - 1], 0.0)) {
      first_of_region.push_back(i);
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> flows;
  for (std::size_t r = 0; r < first_of_region.size(); ++r) {
    const std::uint32_t lo = first_of_region[r];
    const std::uint32_t hi = r + 1 < first_of_region.size() ? first_of_region[r + 1] : kNodes;
    for (std::uint32_t k = 1; k <= 16; ++k) {  // inside the region
      const std::uint32_t at = lo + k * (hi - lo) / 17;
      flows.emplace_back(at - 1, at + 1);
    }
    if (r > 0) {  // across the boundary, relayed on either side of it
      flows.emplace_back(lo - 1, lo + 1);
      flows.emplace_back(lo - 2, lo);
    }
  }
  // Two-hop routes form within two hello rounds.
  const double from = 0.4 * spec.span.seconds_d();
  const double to = spec.span.seconds_d() - 15.0;
  for (const auto& [src, dst] : flows) {
    const bool reverse = rng.bernoulli(0.5);
    const auto s = reverse ? dst : src;
    const auto d = reverse ? src : dst;
    poisson(spec.msgs, rng, from, to, 20.0, Kind::Acked, 16,
            [s, d] { return std::make_pair(s, d); });
  }
  sort_by_time(spec.msgs);
  return spec;
}

// --- matrix: every default strategy x topology through run_cell --------------
class MatrixWorkload final : public Workload {
 public:
  MatrixWorkload(std::uint64_t seed, const Options& o) {
    config_.seed = seed;
    config_.traffic_time = scaled(3600.0, o);
    config_.check_invariants = true;
  }

  Episode run(bool traced, bool) override {
    const Names& names = Names::get();
    Episode e;
    lm::support::BlockPool::reset_stats();
    const std::vector<lm::testbed::StrategySpec> strategies =
        lm::testbed::default_strategies();
    const std::vector<lm::testbed::MatrixTopology> topologies =
        lm::testbed::default_topologies();
    // run_cell hides its scenario. Set-up is timed from entering the cell
    // to the factory call for its last node (the end of add_node). The
    // simulated span is read from node 0's strategy, always wrapped, when
    // the cell tears it down: proactive cells stop warm-up once converged.
    double last_factory_call = 0.0;
    lm::TimePoint cell_end;
    std::vector<lm::testbed::CellResult> cells;
    double cell_peaks = 0.0;  // heap peak of each cell over its start
    const double c0 = cpu_now();
    double wall = 0.0;
    for (const lm::testbed::MatrixTopology& topology : topologies) {
      for (const lm::testbed::StrategySpec& strategy : strategies) {
        lm::testbed::StrategySpec spec = strategy;
        const StrategyFactory inner = strategy.factory;
        bool first = true;
        spec.factory = [inner, traced, &first, &last_factory_call, &cell_end] {
          last_factory_call = wall_now();
          std::unique_ptr<lm::net::RoutingStrategy> s =
              inner ? inner() : std::make_unique<lm::net::DistanceVectorStrategy>();
          if (!traced && !first) return s;
          lm::TimePoint* end = first ? &cell_end : nullptr;
          first = false;
          return std::unique_ptr<lm::net::RoutingStrategy>(
              std::make_unique<TracedStrategy>(std::move(s), end));
        };
        const std::int64_t live = MemoryMeter::live_bytes();
        MemoryMeter::reset_peak();
        const double t0 = wall_now();
        {
          Span s(names.run_cell, Ledger::instance().intern_tag(strategy.name));
          cells.push_back(lm::testbed::run_cell(spec, topology, config_));
        }
        wall += wall_now() - t0;
        cell_peaks += static_cast<double>(MemoryMeter::peak_bytes() - live);
        e.setup_s += last_factory_call - t0;
        const Duration simulated = cell_end - lm::TimePoint::origin();
        if (e.error.empty() &&
            (simulated < config_.traffic_time + config_.drain ||
             simulated > config_.warmup + config_.traffic_time + config_.drain)) {
          e.error = "cell." + strategy.name + "." + topology.name +
                    ": simulated span outside warm-up + traffic + drain";
        }
        e.sim_s += simulated.seconds_d();
        e.nodes += cells.back().nodes;
      }
    }
    lm::testbed::mark_pareto(cells);
    e.run_wall_s = wall - e.setup_s;
    e.cpu_s = cpu_now() - c0;
    // Cells run one after another, each peaking in its own trace buffer;
    // the mean cell peak is steadier than the largest one, whose vector
    // capacity jumps by doublings from seed to seed.
    e.mem_mb = cell_peaks / static_cast<double>(cells.size()) / kMB;
    e.pool = lm::support::BlockPool::stats();

    double attempted = 0.0;
    double delivered = 0.0;
    for (const lm::testbed::CellResult& c : cells) {
      const std::string key = "cell." + c.strategy + "." + c.topology + ".";
      append(e.counters,
             {{key + "attempted", u(c.attempted)},
              {key + "delivered", u(c.delivered)},
              {key + "refused", u(c.refused)},
              {key + "duplicates", u(c.duplicates)},
              {key + "forwarded", u(c.forwarded)},
              {key + "connected_flows", u(c.connected_flows)},
              {key + "invariant_violations", u(c.invariant_violations)},
              {key + "data_airtime_s", c.data_airtime_s},
              {key + "control_airtime_s", c.control_airtime_s},
              {key + "energy_mah", c.energy_mah},
              {key + "latency_mean_s", c.latency_mean_s},
              {key + "pareto", c.pareto ? 1.0 : 0.0}});
      attempted += u(c.attempted);
      delivered += u(c.delivered);
      if (e.error.empty() && c.invariant_violations != 0) {
        e.error = key + "invariant_violations = " + std::to_string(c.invariant_violations);
      }
      if (e.error.empty() && !c.all_connected_flows_delivered) {
        e.error = key + "a connected flow delivered nothing";
      }
      if (e.error.empty() && c.delivered + c.refused > c.attempted) {
        e.error = key + "more messages delivered or refused than offered";
      }
    }
    append(e.counters, {{"pdes.regions", 1.0}, {"pdes.region_imbalance", 1.0}});
    e.ops = attempted;
    e.ops_failed = attempted - delivered;
    e.pdr = attempted > 0.0 ? delivered / attempted : 0.0;
    if (e.error.empty() && delivered == 0.0) e.error = "no message was delivered";
    return e;
  }

 private:
  lm::testbed::MatrixConfig config_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Options& options) {
  if (name == "mesh16") {
    // mesh16's heap peak is the high-water mark of its bursty traffic: over
    // 30 seeds one in three peaked 0.12 MB (18%) above the rest, so one
    // episode's peak moved a ten-seed spread past mem_mb's bound. The mean
    // of twelve traffic draws keeps it steady.
    return std::make_unique<MeshWorkload>(mesh16(seed, options), 80, 12);
  }
  if (name == "field3k") {
    return std::make_unique<MeshWorkload>(field3k(seed, options), 3);
  }
  if (name == "chain10k_pdes") {
    return std::make_unique<MeshWorkload>(chain10k(seed, options), 1);
  }
  if (name == "matrix") return std::make_unique<MatrixWorkload>(seed, options);
  return nullptr;
}

}  // namespace perfbench

#include "radio/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "phy/airtime.h"
#include "phy/reception.h"
#include "radio/virtual_radio.h"
#include "support/assert.h"
#include "support/log.h"

namespace lm::radio {

namespace {

std::pair<RadioId, RadioId> link_key(RadioId a, RadioId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Stream tags keeping shadowing and fading draws on disjoint substreams.
constexpr std::uint64_t kShadowingTag = 0x5AD0'00D1;
constexpr std::uint64_t kFadingTag = 0xFAD3'00D2;

// Shadowing/fading samples are clamped to ±4 sigma. This bounds the
// strongest possible stochastic boost, which is what lets the spatial index
// derive a hard maximum decodable range (P(|z| > 4) ~ 6e-5 of the
// distribution is folded onto the clamp — far below every other modeling
// error in a log-normal channel).
constexpr double kSigmaClamp = 4.0;

}  // namespace

PropagationConfig PropagationConfig::campus() {
  PropagationConfig c;
  c.path_loss = phy::make_log_distance(3.0, 40.0);
  c.shadowing_sigma_db = 3.0;
  c.fading_sigma_db = 1.5;
  return c;
}

PropagationConfig PropagationConfig::free_space() {
  PropagationConfig c;
  c.path_loss = phy::make_free_space();
  c.shadowing_sigma_db = 0.0;
  c.fading_sigma_db = 0.0;
  return c;
}

PropagationConfig PropagationConfig::ideal() { return free_space(); }

Channel::Channel(sim::Simulator& sim, PropagationConfig config,
                 std::uint64_t seed)
    : Channel(sim, std::move(config), ChannelConfig{}, seed) {}

Channel::Channel(sim::Simulator& sim, PropagationConfig config,
                 ChannelConfig policy, std::uint64_t seed)
    : Channel(sim, std::move(config), policy, seed, seed) {}

Channel::Channel(sim::Simulator& sim, PropagationConfig config,
                 ChannelConfig policy, std::uint64_t seed,
                 std::uint64_t draw_seed)
    : sim_(sim),
      config_(std::move(config)),
      policy_(policy),
      seed_(seed),
      rng_(draw_seed) {
  LM_REQUIRE(config_.path_loss != nullptr);
  LM_REQUIRE(config_.shadowing_sigma_db >= 0.0);
  LM_REQUIRE(config_.fading_sigma_db >= 0.0);
  LM_REQUIRE(policy_.cell_size_m >= 0.0);
}

Channel::~Channel() = default;

void Channel::register_radio(VirtualRadio& radio) {
  LM_REQUIRE(!by_id_.contains(radio.id()));
  radio.channel_slot_ = static_cast<std::uint32_t>(radios_.size());
  radios_.push_back(&radio);
  radio.channel_ordinal_ = static_cast<std::uint32_t>(next_ordinal_++);
  by_id_.emplace(radio.id(), &radio);
  max_radio_eirp_dbm_ =
      std::max(max_radio_eirp_dbm_,
               radio.config().tx_power_dbm + radio.config().antenna_gain_db);
  max_rx_gain_db_ = std::max(max_rx_gain_db_, radio.config().antenna_gain_db);
  min_mod_sensitivity_dbm_ = std::min(
      min_mod_sensitivity_dbm_,
      phy::sensitivity_dbm(radio.modulation().sf, radio.modulation().bw));
  if (grids_ready_) radio_grid_.insert(&radio, radio.position());
  ++geometry_epoch_;
}

void Channel::unregister_radio(VirtualRadio& radio) {
  ++geometry_epoch_;
  const std::uint32_t slot = radio.channel_slot_;
  if (slot >= radios_.size() || radios_[slot] != &radio) return;  // not here
  by_id_.erase(radio.id());
  if (grids_ready_) radio_grid_.remove(&radio, radio.position());
  // Leave a hole instead of shifting the list: tearing down N radios costs
  // O(N) in total, and the survivors keep registration order for the
  // brute-force walk. Holes are squeezed out once they are half the list.
  radios_[slot] = nullptr;
  if (2 * by_id_.size() >= radios_.size()) return;
  std::size_t live = 0;
  for (VirtualRadio* r : radios_) {
    if (r == nullptr) continue;
    r->channel_slot_ = static_cast<std::uint32_t>(live);
    radios_[live++] = r;
  }
  radios_.resize(live);
}

void Channel::radio_moved(VirtualRadio& radio, const phy::Position& old_position) {
  ++position_changes_;
  ++geometry_epoch_;
  if (grids_ready_) radio_grid_.move(&radio, old_position, radio.position());
}

double Channel::derive_cell_size_m() const {
  // The widest query any frame can issue: the interference-relevance radius
  // for the strongest registered transmitter against the most sensitive
  // modulation in play, with every stochastic term at its clamp and the
  // 6 dB co-SF capture allowance. Half of it balances bucket occupancy
  // against the number of cells a query touches.
  const double margin_db = kSigmaClamp * (config_.shadowing_sigma_db +
                                          config_.fading_sigma_db);
  const double budget_db = max_radio_eirp_dbm_ + max_rx_gain_db_ + margin_db -
                           (min_mod_sensitivity_dbm_ - 6.0);
  const double range = config_.path_loss->max_range_m(budget_db);
  return std::max(range / 2.0, 1.0);
}

void Channel::ensure_grids() const {
  if (!policy_.spatial_index || grids_ready_) return;
  const double cell =
      policy_.cell_size_m > 0.0 ? policy_.cell_size_m : derive_cell_size_m();
  radio_grid_.reset(cell);
  for (VirtualRadio* r : radios_) {
    if (r != nullptr) radio_grid_.insert(r, r->position());
  }
  tx_grid_.reset(cell);
  for (Transmission* t : active_) tx_grid_.insert(t, t->tx_pos);
  grids_ready_ = true;
}

double Channel::decode_radius_m(const Transmission& t) const {
  const double margin_db = kSigmaClamp * (config_.shadowing_sigma_db +
                                          config_.fading_sigma_db);
  const double budget_db = t.tx_power_dbm + t.antenna_gain_db +
                           max_rx_gain_db_ + margin_db -
                           phy::sensitivity_dbm(t.mod.sf, t.mod.bw);
  return cached_max_range_m(budget_db);
}

double Channel::cached_max_range_m(double budget_db) const {
  // Exact-bit memoization: two budgets share an entry only when they are the
  // same double, so a hit returns precisely what the direct call would.
  // max_rx_gain_db_ growing on a later registration simply produces a new
  // budget value, i.e. a new key — no invalidation needed.
  const auto key = std::bit_cast<std::uint64_t>(budget_db);
  auto it = max_range_cache_.find(key);
  if (it == max_range_cache_.end()) {
    it = max_range_cache_
             .try_emplace(key, config_.path_loss->max_range_m(budget_db))
             .first;
  }
  return it->second;
}

double Channel::derived_normal_db(std::uint64_t tag, std::uint64_t a,
                                  std::uint64_t b, double sigma) const {
  if (sigma == 0.0) return 0.0;
  Rng stream(splitmix64(seed_ ^ splitmix64(tag ^ splitmix64(a ^ splitmix64(b)))));
  return std::clamp(stream.normal(0.0, sigma), -kSigmaClamp * sigma,
                    kSigmaClamp * sigma);
}

Channel::Transmission& Channel::acquire_transmission() {
  if (!spare_.empty()) {
    Transmission* t = spare_.back();
    spare_.pop_back();
    return *t;
  }
  return slab_.emplace_back();
}

void Channel::begin_tx(VirtualRadio& radio, std::span<const std::uint8_t> frame) {
  ensure_grids();
  Transmission& t = acquire_transmission();
  t.seq = next_seq_++;
  t.tx_id = radio.id();
  t.tx_ordinal = radio.channel_ordinal();
  t.tx_pos = radio.position();
  t.tx_power_dbm = radio.config().tx_power_dbm;
  t.antenna_gain_db = radio.config().antenna_gain_db;
  t.frequency_hz = radio.config().frequency_hz;
  t.mod = radio.modulation();
  t.start = sim_.now();
  const Duration airtime = phy::time_on_air(t.mod, frame.size());
  t.end = t.start + airtime;
  t.frame.assign(frame.begin(), frame.end());
  t.ended = false;
  t.ghost = false;  // the record may be a recycled ghost
  if (airtime > longest_airtime_) longest_airtime_ = airtime;
  stats_.frames_transmitted++;
  if (tracer_ != nullptr) {
    trace::TraceEvent e;
    e.t_us = t.start.us();
    e.node = t.tx_id;
    e.kind = trace::EventKind::TxStart;
    e.bytes = static_cast<std::uint32_t>(t.frame.size());
    e.tx_seq = t.seq;
    e.aux_us = airtime.us();
    tracer_->emit(e);
  }

  active_.push_back(&t);
  ++in_flight_n_;
  if (grids_ready_) tx_grid_.insert(&t, t.tx_pos);

  if (tx_observer_) {
    TxSnapshot s;
    s.seq = t.seq;
    s.tx_id = t.tx_id;
    s.tx_pos = t.tx_pos;
    s.tx_power_dbm = t.tx_power_dbm;
    s.antenna_gain_db = t.antenna_gain_db;
    s.frequency_hz = t.frequency_hz;
    s.mod = t.mod;
    s.frame = std::span<const std::uint8_t>(t.frame.data(), t.frame.size());
    s.start = t.start;
    s.end = t.end;
    tx_observer_(s);
  }

  // The slab address is stable and the record cannot be recycled before this
  // timer fires (recycling requires `ended`, which only this call sets), so
  // the end-of-frame event can carry the pointer instead of re-finding the
  // record by seq in active_.
  Transmission* tp = &t;
  sim_.schedule_at(t.end, [this, tp] { finish_tx(*tp); });
}

void Channel::inject_ghost(const TxSnapshot& snapshot) {
  LM_REQUIRE(snapshot.end >= sim_.now());
  ensure_grids();
  Transmission& t = acquire_transmission();
  t.seq = snapshot.seq;
  t.tx_id = snapshot.tx_id;
  // First ghost from this transmitter claims a fresh local ordinal so its
  // reach list can never alias a registered radio's (the home-region
  // ordinal is meaningless here).
  auto [it, inserted] = foreign_ordinal_.try_emplace(snapshot.tx_id, 0);
  if (inserted) it->second = static_cast<std::uint32_t>(next_ordinal_++);
  t.tx_ordinal = it->second;
  t.tx_pos = snapshot.tx_pos;
  t.tx_power_dbm = snapshot.tx_power_dbm;
  t.antenna_gain_db = snapshot.antenna_gain_db;
  t.frequency_hz = snapshot.frequency_hz;
  t.mod = snapshot.mod;
  t.start = snapshot.start;
  t.end = snapshot.end;
  t.frame.assign(snapshot.frame.begin(), snapshot.frame.end());
  t.ended = false;
  t.ghost = true;
  const Duration airtime = t.end - t.start;
  if (airtime > longest_airtime_) longest_airtime_ = airtime;
  // A foreign transmitter may out-power every local radio; fold it into the
  // monotone maxima so interference-search radii stay conservative. (The
  // grid cell size, if already frozen, is a perf knob only.)
  max_radio_eirp_dbm_ =
      std::max(max_radio_eirp_dbm_, t.tx_power_dbm + t.antenna_gain_db);
  min_mod_sensitivity_dbm_ = std::min(
      min_mod_sensitivity_dbm_, phy::sensitivity_dbm(t.mod.sf, t.mod.bw));

  active_.push_back(&t);
  ++in_flight_n_;
  if (grids_ready_) tx_grid_.insert(&t, t.tx_pos);
  Transmission* tp = &t;
  sim_.schedule_at(t.end, [this, tp] { finish_tx(*tp); });
}

void Channel::set_seq_base(std::uint64_t base) {
  LM_REQUIRE(next_seq_ == 1);  // before any traffic
  next_seq_ = base + 1;
}

void Channel::finish_tx(Transmission& frame) {
  LM_ASSERT(!frame.ended);
  frame.ended = true;
  --in_flight_n_;
  // A ghost's TxEnd trace and transmitter callback belong to its home
  // region's channel; here the frame only exists to be received.
  if (tracer_ != nullptr && !frame.ghost) {
    trace::TraceEvent e;
    e.t_us = sim_.now().us();
    e.node = frame.tx_id;
    e.kind = trace::EventKind::TxEnd;
    e.bytes = static_cast<std::uint32_t>(frame.frame.size());
    e.tx_seq = frame.seq;
    tracer_->emit(e);
  }

  // Return the transmitter to Standby first so its stack can re-arm; a frame
  // it starts *now* cannot overlap the one that just ended.
  if (!frame.ghost) {
    if (const auto tx_it = by_id_.find(frame.tx_id); tx_it != by_id_.end()) {
      tx_it->second->finish_tx();
    }
  }

  if (policy_.spatial_index) {
    ensure_grids();
    // The reach list — everything inside the provable maximum decodable
    // range — is the snapshot: deliveries may trigger immediate responses,
    // and those must not invalidate this iteration (a registration or move
    // they cause bumps the epoch, so the list is rebuilt at the next
    // finish_tx, never during this loop). Receivers outside it are tallied
    // in bulk; they could not have decoded the frame. Every registered radio
    // but the transmitter is a potential receiver; a ghost's transmitter,
    // or one destroyed mid-flight, is not registered here.
    const std::size_t others_total =
        by_id_.size() - (by_id_.contains(frame.tx_id) ? 1 : 0);
    const Reach& reach = reach_of(frame);
    for (const ReachEntry& e : reach.entries) {
      evaluate_reception(frame, *e.radio, e.loss_db);
    }
    const std::size_t culled = others_total - reach.entries.size();
    stats_.dropped_out_of_range += culled;
    if (tracer_ != nullptr && culled > 0) {
      // Culled receivers are tallied in bulk, matching the stats counter:
      // one event, `bytes` carrying how many opportunities it covers.
      trace::TraceEvent e;
      e.t_us = sim_.now().us();
      e.kind = trace::EventKind::ChannelDrop;
      e.reason = trace::DropReason::OutOfRange;
      e.bytes = static_cast<std::uint32_t>(culled);
      e.tx_seq = frame.seq;
      tracer_->emit(e);
    }
  } else {
    // Snapshot the radio list: deliveries may trigger immediate responses,
    // and those must not invalidate this iteration. The scratch vector is
    // reused so the steady state stays allocation-free.
    receivers_scratch_.assign(radios_.begin(), radios_.end());
    for (VirtualRadio* rx : receivers_scratch_) {
      if (rx == nullptr || rx->id() == frame.tx_id) continue;
      evaluate_reception(frame, *rx,
                         link_loss_db(frame.tx_pos, frame.tx_id, *rx));
    }
  }
  prune_history();
}

const Channel::Reach& Channel::reach_of(const Transmission& frame) {
  const double radius_m = decode_radius_m(frame);
  if (reach_.size() <= frame.tx_ordinal) {
    reach_.resize(static_cast<std::size_t>(frame.tx_ordinal) + 1);
  }
  Reach& reach = reach_[frame.tx_ordinal];
  if (reach.epoch == geometry_epoch_ && reach.tx_pos == frame.tx_pos &&
      reach.radius_m == radius_m) {
    return reach;
  }
  reach.entries.clear();
  radio_grid_.for_each_within(frame.tx_pos, radius_m, [&](VirtualRadio* r) {
    if (r->id() != frame.tx_id) {
      reach.entries.push_back({r->channel_ordinal(), r,
                               link_loss_db(frame.tx_pos, frame.tx_id, *r)});
    }
  });
  // Registration order = brute-force evaluation order; keeps the
  // sequential extra-loss/decode RNG draws bit-identical to brute force.
  std::sort(reach.entries.begin(), reach.entries.end(),
            [](const ReachEntry& a, const ReachEntry& b) {
              return a.ordinal < b.ordinal;
            });
  reach.epoch = geometry_epoch_;
  reach.tx_pos = frame.tx_pos;
  reach.radius_m = radius_m;
  return reach;
}

double Channel::link_shadowing_db(RadioId a, RadioId b) const {
  // Derived (not sequential) draw: the value depends only on the link and
  // the channel seed, so whether or when the spatial index visits this
  // link cannot shift any other draw.
  const auto key = link_key(a, b);
  return derived_normal_db(kShadowingTag, key.first, key.second,
                           config_.shadowing_sigma_db);
}

double Channel::link_loss_db(const phy::Position& tx_pos, RadioId tx_id,
                             const VirtualRadio& rx) const {
  return config_.path_loss->path_loss_db(
             phy::distance_m(tx_pos, rx.position())) +
         link_shadowing_db(tx_id, rx.id());
}

double Channel::mean_rssi_from(const Transmission& t, const VirtualRadio& rx,
                               double loss_db) const {
  return t.tx_power_dbm + t.antenna_gain_db + rx.config().antenna_gain_db -
         loss_db;
}

double Channel::fading_db(const Transmission& t, const VirtualRadio& rx) const {
  // Keyed by (frame, receiver): the signal and interference roles of one
  // frame at one receiver recompute the same value, so nothing is memoized.
  return derived_normal_db(kFadingTag, t.seq, rx.id(), config_.fading_sigma_db);
}

void Channel::trace_reception(const Transmission& t, const VirtualRadio& rx,
                              trace::DropReason reason, double rssi_dbm) const {
  trace::TraceEvent e;
  e.t_us = sim_.now().us();
  e.node = rx.id();
  e.kind = reason == trace::DropReason::None ? trace::EventKind::ChannelDeliver
                                             : trace::EventKind::ChannelDrop;
  e.reason = reason;
  e.bytes = static_cast<std::uint32_t>(t.frame.size());
  e.tx_seq = t.seq;
  e.value = rssi_dbm;
  tracer_->emit(e);
}

void Channel::evaluate_reception(const Transmission& t, VirtualRadio& rx,
                                 double loss_db) {
  // Different carrier: radios on other channels neither decode nor suffer
  // interference (channel spacing gives effectively complete rejection).
  if (rx.config().frequency_hz != t.frequency_hz) return;

  if (is_blocked(t.tx_id, rx.id())) {
    stats_.dropped_blocked_link++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::BlockedLink, 0.0);
    }
    return;
  }

  if (rx.modulation().sf != t.mod.sf || rx.modulation().bw != t.mod.bw) {
    stats_.dropped_modulation_mismatch++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::ModulationMismatch, 0.0);
    }
    return;
  }

  // Cheap state checks before any propagation math: a radio that was not in
  // continuous RX for the whole frame cannot decode it no matter the RSSI,
  // so skip the path-loss/fading work entirely.
  if (!rx.listening_since(t.start)) {
    stats_.dropped_not_listening++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::NotListening, 0.0);
    }
    return;
  }

  // Fading is clamped at +4 sigma and floating-point addition is monotone,
  // so a link whose mean RSSI misses sensitivity even at the clamp fails
  // whatever the draw: count it without drawing (the draw is keyed, so
  // skipping it shifts no other). Most candidates of a dense field end here.
  const double mean_rssi = mean_rssi_from(t, rx, loss_db);
  const double sensitivity = phy::sensitivity_dbm(t.mod.sf, t.mod.bw);
  const bool hopeless =
      mean_rssi + kSigmaClamp * config_.fading_sigma_db < sensitivity;
  if (hopeless && tracer_ == nullptr) {
    stats_.dropped_below_sensitivity++;
    return;
  }
  const double rssi = mean_rssi + fading_db(t, rx);
  if (rssi < sensitivity) {
    stats_.dropped_below_sensitivity++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::BelowSensitivity, rssi);
    }
    return;
  }

  const auto loss_it = extra_loss_.find(link_key(t.tx_id, rx.id()));
  if (loss_it != extra_loss_.end() && rng_.bernoulli(loss_it->second)) {
    stats_.dropped_blocked_link++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::BlockedLink, rssi);
    }
    return;
  }

  // Collision check over the vulnerable window: the receiver tolerates
  // interference that dies out before the last 5 preamble symbols (it can
  // still lock), but not during sync/payload.
  const Duration t_sym = t.mod.symbol_time();
  TimePoint vulnerable_start = t.start + phy::preamble_time(t.mod) - 5 * t_sym;
  if (vulnerable_start < t.start) vulnerable_start = t.start;

  auto overlaps_vulnerable = [&](const Transmission& o) {
    return o.start < t.end && o.end > vulnerable_start;
  };
  auto collides_with = [&](const Transmission& o) {
    if (o.seq == t.seq || o.tx_id == rx.id()) return false;
    if (o.frequency_hz != t.frequency_hz) return false;
    if (!overlaps_vulnerable(o)) return false;
    const double o_rssi =
        mean_rssi_from(o, rx, link_loss_db(o.tx_pos, o.tx_id, rx)) +
        fading_db(o, rx);
    return rssi - o_rssi < phy::sir_threshold_db(t.mod.sf, o.mod.sf);
  };

  bool collided = false;
  if (policy_.spatial_index) {
    // Noise-relevance culling: an interferer weaker at rx than
    // rssi - max SIR threshold can never destroy this frame, so only the
    // co-located slice of the traffic is touched. Collision is an
    // existence check with no sequential RNG, so visit order is free.
    const double floor_dbm = rssi - phy::max_sir_threshold_db(t.mod.sf);
    const double margin_db = kSigmaClamp * (config_.shadowing_sigma_db +
                                            config_.fading_sigma_db);
    // The budget varies with the (fading-dependent) rssi, so memoizing it
    // exactly would never hit. Rounding it up to the next whole dB keeps the
    // key set tiny and only ever *enlarges* the search radius: the extra
    // ring holds transmissions that provably fail the SIR test, and the
    // collision probe is an existence check with derived (order-free) RNG,
    // no stats and no trace per candidate — so the outcome is unchanged.
    const double radius = cached_max_range_m(
        std::ceil(max_radio_eirp_dbm_ + rx.config().antenna_gain_db +
                  margin_db - floor_dbm));
    tx_grid_.for_each_within(rx.position(), radius, [&](Transmission* o) {
      if (!collided && collides_with(*o)) collided = true;
    });
  } else {
    for (Transmission* o : active_) {
      if (collides_with(*o)) {
        collided = true;
        break;
      }
    }
  }
  if (collided) {
    stats_.dropped_collision++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::Collision, rssi);
    }
    return;
  }

  const double snr = phy::snr_db(rssi, t.mod.bw, config_.noise_figure_db);
  if (!rng_.bernoulli(phy::decode_probability(snr, t.mod.sf))) {
    stats_.dropped_snr++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::SnrDecode, rssi);
    }
    return;
  }

  FrameMeta meta;
  meta.rssi_dbm = rssi;
  meta.snr_db = snr;
  meta.start = t.start;
  meta.end = t.end;
  meta.transmitter = t.tx_id;
  stats_.receptions_delivered++;
  if (tracer_ != nullptr) {
    trace_reception(t, rx, trace::DropReason::None, rssi);
  }
  rx.deliver(t.frame, meta);
}

bool Channel::detectable_by(const Transmission& t,
                            const VirtualRadio& listener) const {
  if (t.tx_id == listener.id()) return false;
  if (t.frequency_hz != listener.config().frequency_hz) return false;
  // SX127x CAD correlates against the configured SF only.
  if (t.mod.sf != listener.modulation().sf ||
      t.mod.bw != listener.modulation().bw) {
    return false;
  }
  if (is_blocked(t.tx_id, listener.id())) return false;
  return mean_rssi_from(t, listener,
                        link_loss_db(t.tx_pos, t.tx_id, listener)) >=
         phy::sensitivity_dbm(t.mod.sf, t.mod.bw);
}

bool Channel::carrier_sensed_by(const VirtualRadio& listener) const {
  return carrier_sensed_during(listener, sim_.now());
}

bool Channel::carrier_sensed_during(const VirtualRadio& listener,
                                    TimePoint since) const {
  // On-air transmissions overlap [since, now] by construction; an ended one
  // only counts when it was still on the air after `since`.
  auto in_window = [&](const Transmission& t) {
    return !t.ended || t.end > since;
  };
  if (policy_.spatial_index) {
    ensure_grids();
    // Detection needs mean RSSI (no fading) at or above the listener-SF
    // sensitivity; the shadowing clamp bounds the reachable distance.
    const double radius = cached_max_range_m(
        max_radio_eirp_dbm_ + listener.config().antenna_gain_db +
        kSigmaClamp * config_.shadowing_sigma_db -
        phy::sensitivity_dbm(listener.modulation().sf,
                             listener.modulation().bw));
    bool sensed = false;
    tx_grid_.for_each_within(
        listener.position(), radius, [&](Transmission* t) {
          if (!sensed && in_window(*t) && detectable_by(*t, listener)) {
            sensed = true;
          }
        });
    return sensed;
  }
  for (const Transmission* t : active_) {
    if (in_window(*t) && detectable_by(*t, listener)) return true;
  }
  return false;
}

void Channel::block_link(RadioId a, RadioId b) { blocked_[link_key(a, b)] = true; }

void Channel::unblock_link(RadioId a, RadioId b) { blocked_.erase(link_key(a, b)); }

bool Channel::is_blocked(RadioId a, RadioId b) const {
  const auto it = blocked_.find(link_key(a, b));
  return it != blocked_.end() && it->second;
}

void Channel::set_link_extra_loss(RadioId a, RadioId b, double loss_probability) {
  LM_REQUIRE(loss_probability >= 0.0 && loss_probability <= 1.0);
  if (loss_probability == 0.0) {
    extra_loss_.erase(link_key(a, b));
  } else {
    extra_loss_[link_key(a, b)] = loss_probability;
  }
}

double Channel::mean_rssi_dbm(const VirtualRadio& tx, const VirtualRadio& rx) const {
  return tx.config().tx_power_dbm + tx.config().antenna_gain_db +
         rx.config().antenna_gain_db -
         link_loss_db(tx.position(), tx.id(), rx);
}

double Channel::link_quality(const VirtualRadio& tx, const VirtualRadio& rx) const {
  if (is_blocked(tx.id(), rx.id())) return 0.0;
  if (tx.config().frequency_hz != rx.config().frequency_hz) return 0.0;
  if (tx.modulation().sf != rx.modulation().sf ||
      tx.modulation().bw != rx.modulation().bw) {
    return 0.0;
  }
  const double rssi = mean_rssi_dbm(tx, rx);
  const auto& mod = tx.modulation();
  if (rssi < phy::sensitivity_dbm(mod.sf, mod.bw)) return 0.0;
  double quality = phy::decode_probability(
      phy::snr_db(rssi, mod.bw, config_.noise_figure_db), mod.sf);
  const auto loss_it = extra_loss_.find(link_key(tx.id(), rx.id()));
  if (loss_it != extra_loss_.end()) quality *= 1.0 - loss_it->second;
  return quality;
}

void Channel::prune_history() {
  // A record can still matter in two ways: as an interferer for a frame
  // currently in flight (that frame started at most longest_airtime_ ago, and
  // a record only overlaps its vulnerable window if it ended after the
  // frame's start), or as a carrier for a CAD window (which is always shorter
  // than any same-SF frame's airtime). Both bounds retire anything that
  // ended more than one longest-frame-airtime ago. An on-air frame at the
  // front cannot block anything prunable behind it: everything scheduled
  // after it started inside the horizon too.
  const TimePoint horizon = sim_.now() - longest_airtime_;
  while (!active_.empty() && active_.front()->ended &&
         active_.front()->end < horizon) {
    Transmission* retired = active_.front();
    if (grids_ready_) tx_grid_.remove(retired, retired->tx_pos);
    active_.pop_front();
    spare_.push_back(retired);  // keeps its frame buffer's capacity for reuse
  }
}

}  // namespace lm::radio

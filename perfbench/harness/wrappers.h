// Forwarding wrappers that put spans around the stack's public seams
// without touching the library: a radio::Radio that the LinkLayer drives
// (and whose RadioListener side the radio calls back), and a
// RoutingStrategy installed through ScenarioConfig::strategy_factory or
// StrategySpec::factory. Both only forward; tests/harness_test.cpp checks
// that a wrapped deployment reproduces the unwrapped counters exactly.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "net/routing_strategy.h"
#include "radio/radio_interface.h"
#include "spans.h"

namespace perfbench {

class TracedRadio final : public lm::radio::Radio,
                          private lm::radio::RadioListener {
 public:
  /// The LinkLayer detaches (set_listener(nullptr)) when it is destroyed,
  /// so the wrapper must outlive the node and `inner` must outlive both.
  explicit TracedRadio(lm::radio::Radio& inner) : inner_(inner) {}
  TracedRadio(const TracedRadio&) = delete;
  TracedRadio& operator=(const TracedRadio&) = delete;

  void set_listener(lm::radio::RadioListener* listener) override {
    listener_ = listener;
    inner_.set_listener(listener != nullptr ? this : nullptr);
  }
  void start_receive() override { inner_.start_receive(); }
  void standby() override { inner_.standby(); }
  void sleep() override { inner_.sleep(); }
  bool transmit(std::span<const std::uint8_t> frame) override {
    Span s(Names::get().radio_transmit);
    return inner_.transmit(frame);
  }
  bool start_cad() override {
    Span s(Names::get().radio_cad);
    return inner_.start_cad();
  }
  bool medium_busy() const override {
    Span s(Names::get().radio_medium_busy);
    return inner_.medium_busy();
  }
  lm::radio::RadioState state() const override { return inner_.state(); }
  const lm::phy::Modulation& modulation() const override {
    return inner_.modulation();
  }

 private:
  void on_frame_received(std::span<const std::uint8_t> frame,
                         const lm::radio::FrameMeta& meta) override {
    Span s(Names::get().link_rx);
    listener_->on_frame_received(frame, meta);
  }
  void on_tx_done() override {
    Span s(Names::get().link_tx_done);
    listener_->on_tx_done();
  }
  void on_cad_done(bool channel_active) override {
    Span s(Names::get().link_cad_done);
    listener_->on_cad_done(channel_active);
  }

  lm::radio::Radio& inner_;
  lm::radio::RadioListener* listener_ = nullptr;
};

class TracedStrategy final : public lm::net::RoutingStrategy {
 public:
  /// With `end`, the wrapper writes its loop's simulated time there when
  /// the deployment destroys it: the end of a run whose scenario the
  /// caller cannot see (run_cell).
  explicit TracedStrategy(std::unique_ptr<lm::net::RoutingStrategy> inner,
                          lm::TimePoint* end = nullptr)
      : inner_(std::move(inner)),
        tag_(Ledger::instance().intern_tag(inner_->name())),
        end_(end) {}
  ~TracedStrategy() override {
    // The base destructor cancels timers on the same loop, so it is alive.
    if (end_ != nullptr && ctx_ != nullptr) *end_ = ctx_->sim->now();
  }
  TracedStrategy(const TracedStrategy&) = delete;
  TracedStrategy& operator=(const TracedStrategy&) = delete;

  void start() override {
    Span s(Names::get().strategy_start, tag_);
    bind()->start();
  }
  void stop() override {
    Span s(Names::get().strategy_stop, tag_);
    bind()->stop();
  }
  void migrate(lm::sim::Simulator& from, lm::sim::Simulator& to) override {
    RoutingStrategy::migrate(from, to);
    bind()->migrate(from, to);
  }
  const char* name() const override { return inner_->name(); }
  bool has_route(lm::net::Address dst) const override {
    Span s(Names::get().strategy_has_route, tag_);
    return bind()->has_route(dst);
  }
  void note_demand(lm::net::Address dst) override {
    Span s(Names::get().strategy_note_demand, tag_);
    bind()->note_demand(dst);
  }
  bool allows_broadcast_destination() const override {
    return inner_->allows_broadcast_destination();
  }
  void on_routing(const lm::net::RoutingPacket& packet) override {
    Span s(Names::get().strategy_on_routing, tag_);
    sample_pending();
    bind()->on_routing(packet);
  }
  void handle(lm::net::Packet packet) override {
    Span s(Names::get().strategy_handle, tag_);
    sample_pending();
    bind()->handle(std::move(packet));
  }
  std::optional<lm::net::Address> resolve_next_hop(
      const lm::net::RouteHeader& route) override {
    Span s(Names::get().strategy_resolve, tag_);
    return bind()->resolve_next_hop(route);
  }

 private:
  /// RoutingStrategy::attach is not virtual, so the stack attaches this
  /// wrapper; the inner strategy is attached to the same context on first
  /// use (NetworkLayer attaches before any other call).
  lm::net::RoutingStrategy* bind() const {
    if (!bound_) {
      inner_->attach(*ctx_, *link_, *table_, deliver_);
      bound_ = true;
    }
    return inner_.get();
  }
  /// The sim.pending_max gauge for loops the benchmark does not step
  /// itself (PDES regions, matrix cells): sampled at strategy calls.
  void sample_pending() const {
    if (Ledger::instance().enabled()) note_pending(ctx_->sim->pending());
  }

  std::unique_ptr<lm::net::RoutingStrategy> inner_;
  std::uint8_t tag_;
  lm::TimePoint* end_;
  mutable bool bound_ = false;
};

}  // namespace perfbench

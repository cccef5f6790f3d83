#include "baseline/flooding_node.h"

#include <memory>
#include <utility>
#include <variant>

#include "support/assert.h"

namespace lm::baseline {

net::MeshConfig FloodingNode::to_mesh_config(const FloodConfig& config) {
  net::MeshConfig mesh;
  mesh.max_ttl = config.max_ttl;
  mesh.use_cad = config.use_cad;
  mesh.max_cad_retries = config.max_cad_retries;
  mesh.backoff_base = config.backoff_base;
  mesh.backoff_max = config.backoff_max;
  mesh.max_queue = config.max_queue;
  mesh.duty_cycle_limit = config.duty_cycle_limit;
  mesh.duty_cycle_window = config.duty_cycle_window;
  return mesh;
}

FloodingNode::FloodingNode(sim::Simulator& sim, radio::Radio& radio,
                           net::Address address, FloodConfig config,
                           std::uint64_t seed)
    : ctx_{&sim,          address, to_mesh_config(config),
           Rng(seed),     net::NodeStats{},
           /*tracer=*/nullptr,     /*running=*/false, sim::NodeClock{}},
      link_(ctx_, radio,
            net::LinkLayer::Callbacks{
                decltype(net::LinkLayer::Callbacks::resolve_next_hop)::bind<
                    &FloodingNode::resolve_next_hop_cb>(*this),
                decltype(net::LinkLayer::Callbacks::on_packet)::bind<
                    &FloodingNode::on_link_packet>(*this),
                decltype(net::LinkLayer::Callbacks::on_sent)::bind<
                    &FloodingNode::on_link_event>(*this),
                decltype(net::LinkLayer::Callbacks::on_dropped)::bind<
                    &FloodingNode::on_link_event>(*this)}),
      network_(ctx_, link_,
               std::make_unique<net::FloodingStrategy>(
                   net::FloodingStrategyConfig{config.rebroadcast_jitter,
                                               config.dedup_cache}),
               net::RoutingStrategy::DeliverFn::bind<&FloodingNode::deliver>(
                   *this)) {
  LM_REQUIRE(address != net::kUnassigned && address != net::kBroadcast);
}

std::optional<net::Address> FloodingNode::resolve_next_hop_cb(
    const net::RouteHeader& route) {
  return network_.resolve_next_hop(route);
}

void FloodingNode::on_link_packet(net::Packet packet) {
  network_.on_packet(std::move(packet));
}

void FloodingNode::on_link_event(const net::Packet&) {}

FloodingNode::~FloodingNode() = default;

void FloodingNode::start() {
  LM_REQUIRE(!ctx_.running);
  ctx_.running = true;
  link_.enter_receive();
  network_.start();  // flooding: no beacons, but keeps the seam uniform
}

void FloodingNode::stop() {
  if (!ctx_.running) return;
  ctx_.running = false;
  network_.stop();
  link_.cancel_timers();
  link_.clear_queues();
  link_.settle_radio();
}

bool FloodingNode::send(net::Address destination,
                        std::vector<std::uint8_t> payload) {
  return network_.send_datagram(destination, std::move(payload), nullptr);
}

void FloodingNode::deliver(net::Packet packet) {
  const auto* data = std::get_if<net::DataPacket>(&packet);
  if (data == nullptr) return;  // flooding carries plain datagrams only
  delivered_++;
  if (handler_) {
    handler_payload_.assign(data->payload.begin(), data->payload.end());
    // route.hops counts relays; the app sees radio links traversed.
    handler_(data->route.origin, handler_payload_,
             static_cast<std::uint8_t>(data->route.hops + 1));
  }
}

const FloodStats& FloodingNode::stats() const {
  const net::NodeStats& s = ctx_.stats;
  const auto& strategy =
      static_cast<const net::FloodingStrategy&>(network_.strategy());
  stats_.originated = s.datagrams_sent;
  stats_.relayed = s.packets_forwarded;
  stats_.delivered = delivered_;
  stats_.duplicates_suppressed = strategy.duplicates_suppressed();
  stats_.dropped_ttl = s.dropped_ttl;
  stats_.dropped_queue_full = s.dropped_queue_full;
  stats_.malformed_frames = s.malformed_frames;
  stats_.cad_busy_events = s.cad_busy_events;
  stats_.forced_transmissions = s.forced_transmissions;
  stats_.duty_cycle_delays = s.duty_cycle_delays;
  stats_.bytes_sent = s.control_bytes_sent + s.data_bytes_sent;
  stats_.airtime = s.control_airtime + s.data_airtime;
  return stats_;
}

}  // namespace lm::baseline

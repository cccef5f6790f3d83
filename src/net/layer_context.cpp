#include "net/layer_context.h"

namespace lm::net {

NodeStats& NodeStats::operator+=(const NodeStats& o) {
  beacons_sent += o.beacons_sent;
  beacons_received += o.beacons_received;
  routing_changes += o.routing_changes;
  datagrams_sent += o.datagrams_sent;
  datagrams_delivered += o.datagrams_delivered;
  broadcasts_sent += o.broadcasts_sent;
  broadcasts_delivered += o.broadcasts_delivered;
  packets_forwarded += o.packets_forwarded;
  dropped_no_route += o.dropped_no_route;
  dropped_ttl += o.dropped_ttl;
  dropped_queue_full += o.dropped_queue_full;
  malformed_frames += o.malformed_frames;
  foreign_frames += o.foreign_frames;
  beacons_ignored_low_quality += o.beacons_ignored_low_quality;
  cad_busy_events += o.cad_busy_events;
  forced_transmissions += o.forced_transmissions;
  duty_cycle_delays += o.duty_cycle_delays;
  control_bytes_sent += o.control_bytes_sent;
  data_bytes_sent += o.data_bytes_sent;
  control_airtime += o.control_airtime;
  data_airtime += o.data_airtime;
  acked_sent += o.acked_sent;
  acked_confirmed += o.acked_confirmed;
  acked_failed += o.acked_failed;
  acked_retransmissions += o.acked_retransmissions;
  acked_delivered += o.acked_delivered;
  acked_duplicates += o.acked_duplicates;
  acks_sent += o.acks_sent;
  transfers_started += o.transfers_started;
  transfers_completed += o.transfers_completed;
  transfers_failed += o.transfers_failed;
  transfers_received += o.transfers_received;
  rx_sessions_rejected += o.rx_sessions_rejected;
  fragments_sent += o.fragments_sent;
  fragments_retransmitted += o.fragments_retransmitted;
  return *this;
}

void LayerContext::trace_packet(trace::EventKind kind, const Packet& packet,
                                trace::DropReason reason, std::int64_t aux_us,
                                double value) {
  trace::TraceEvent e;
  e.t_us = sim->now().us();
  e.node = address;
  e.kind = kind;
  e.reason = reason;
  const LinkHeader& link = link_of(packet);
  e.packet_type = static_cast<std::uint8_t>(link.type);
  e.via = link.dst;
  if (const RouteHeader* route = route_of(packet)) {
    e.origin = route->origin;
    e.final_dst = route->final_dst;
    e.hops = route->hops;
    e.ttl = route->ttl;
    e.packet_id = route->packet_id;
  } else {
    e.origin = link.src;  // routing beacons carry no route header
  }
  e.bytes = static_cast<std::uint32_t>(encoded_size(packet));
  e.aux_us = aux_us;
  e.value = value;
  tracer->emit(e);
}

void LayerContext::trace_refusal(PacketType type, Address dst,
                                 std::size_t bytes, trace::DropReason reason) {
  trace::TraceEvent e;
  e.t_us = sim->now().us();
  e.node = address;
  e.kind = trace::EventKind::Drop;
  e.reason = reason;
  e.packet_type = static_cast<std::uint8_t>(type);
  e.origin = address;
  e.final_dst = dst;
  e.bytes = static_cast<std::uint32_t>(bytes);
  tracer->emit(e);
}

void LayerContext::trace_lifecycle(trace::EventKind kind) {
  trace::TraceEvent e;
  e.t_us = sim->now().us();
  e.node = address;
  e.kind = kind;
  tracer->emit(e);
}

}  // namespace lm::net

#include "traffic.h"

#include <numeric>

#include "spans.h"

namespace perfbench {

std::vector<std::uint8_t> make_payload(std::uint32_t id, std::size_t size) {
  std::vector<std::uint8_t> p(size);
  for (std::size_t k = 0; k < size; ++k) {
    p[k] = k < 4 ? static_cast<std::uint8_t>(id >> (8 * k))
                 : static_cast<std::uint8_t>(id * 131u + k * 7u);
  }
  return p;
}

Traffic::Traffic(const std::vector<Msg>& msgs, std::size_t nodes)
    : msgs_(msgs),
      chains_(nodes),
      attempted_(msgs.size()),
      refused_(msgs.size()),
      confirmed_(msgs.size()),
      delivered_(msgs.size()),
      dest_(nodes) {
  for (std::uint32_t id = 0; id < msgs.size(); ++id) {
    chains_.at(msgs[id].src).ids.push_back(id);
  }
}

void Traffic::attach(std::size_t i, lm::net::MeshNode& node) {
  node.set_datagram_handler(
      [this, i](lm::net::Address origin, const std::vector<std::uint8_t>& payload,
                std::uint8_t) { on_delivery(i, origin, payload); });
  node.set_reliable_handler(
      [this, i](lm::net::Address origin, std::vector<std::uint8_t> payload) {
        on_delivery(i, origin, payload);
      });
}

void Traffic::start(
    const std::function<lm::sim::Simulator&(std::size_t)>& sim_for,
    const std::function<lm::net::MeshNode&(std::size_t)>& node) {
  for (std::size_t src = 0; src < chains_.size(); ++src) {
    SourceChain& c = chains_[src];
    if (c.ids.empty()) continue;
    c.sim = &sim_for(src);
    c.node = &node(src);
    c.sim->schedule_at(lm::TimePoint::from_us(msgs_[c.ids.front()].at_us),
                       [this, src] { fire(src); });
  }
}

void Traffic::fire(std::size_t src) {
  SourceChain& c = chains_[src];
  const std::int64_t now = c.sim->now().us();
  while (c.next < c.ids.size() && msgs_[c.ids[c.next]].at_us <= now) {
    send(c, c.ids[c.next++]);
  }
  if (c.next < c.ids.size()) {
    c.sim->schedule_at(lm::TimePoint::from_us(msgs_[c.ids[c.next]].at_us),
                       [this, src] { fire(src); });
  }
}

void Traffic::send(SourceChain& chain, std::uint32_t id) {
  const Msg& m = msgs_[id];
  const auto dst = static_cast<lm::net::Address>(m.dst + 1);
  std::vector<std::uint8_t> payload = make_payload(id, m.size);
  auto done = [this, id](bool ok) {
    if (ok) confirmed_[id] = 1;
  };
  attempted_[id] = 1;
  bool ok = false;
  {
    Span s(Names::get().node_send);
    switch (m.kind) {
      case Kind::Datagram:
        ok = chain.node->send_datagram(dst, std::move(payload));
        break;
      case Kind::Acked:
        ok = chain.node->send_acked(dst, std::move(payload), done);
        break;
      case Kind::Reliable:
        ok = chain.node->send_reliable(dst, std::move(payload), done);
        break;
    }
  }
  if (!ok) refused_[id] = 1;
}

void Traffic::on_delivery(std::size_t at, lm::net::Address origin,
                          const std::vector<std::uint8_t>& payload) {
  DestState& d = dest_[at];
  const auto fail = [&d](std::string why) {
    if (d.bad++ == 0) d.first_bad = std::move(why);
  };
  if (payload.size() < 4) return fail("payload shorter than its id");
  std::uint32_t id = 0;
  for (std::size_t k = 0; k < 4; ++k) id |= std::uint32_t{payload[k]} << (8 * k);
  if (id >= msgs_.size()) return fail("unknown message id");
  const Msg& m = msgs_[id];
  if (m.dst != at) return fail("message delivered to the wrong node");
  if (origin != m.src + 1) return fail("message reports the wrong origin");
  if (payload != make_payload(id, m.size)) return fail("payload corrupted");
  if (delivered_[id] != 0) {
    d.duplicates++;
    return;
  }
  delivered_[id] = 1;
}

std::uint64_t Traffic::attempted() const {
  return std::accumulate(attempted_.begin(), attempted_.end(), std::uint64_t{0});
}
std::uint64_t Traffic::refused() const {
  return std::accumulate(refused_.begin(), refused_.end(), std::uint64_t{0});
}
std::uint64_t Traffic::delivered() const {
  return std::accumulate(delivered_.begin(), delivered_.end(), std::uint64_t{0});
}
std::uint64_t Traffic::duplicates() const {
  std::uint64_t n = 0;
  for (const DestState& d : dest_) n += d.duplicates;
  return n;
}

std::string Traffic::check() const {
  for (std::size_t i = 0; i < dest_.size(); ++i) {
    if (dest_[i].bad != 0) {
      return "node " + std::to_string(i) + ": " + dest_[i].first_bad;
    }
  }
  for (std::size_t id = 0; id < msgs_.size(); ++id) {
    if (attempted_[id] == 0) {
      return "message " + std::to_string(id) + " was never offered";
    }
    if (refused_[id] != 0 && delivered_[id] != 0) {
      return "message " + std::to_string(id) + " was refused yet delivered";
    }
    if (confirmed_[id] != 0 && delivered_[id] == 0) {
      return "message " + std::to_string(id) + " was confirmed, never delivered";
    }
  }
  if (delivered() == 0) return "no message was delivered";
  return {};
}

}  // namespace perfbench

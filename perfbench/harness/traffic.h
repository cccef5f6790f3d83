// Application traffic for the benchmark workloads: a send schedule made
// from the seed before the program runs, and the ledger that checks every
// offered message ends delivered, refused or lost — never corrupted,
// misrouted, or confirmed without having arrived.
//
// Loop model: open loop in simulated time. Each source fires its messages
// at their scheduled simulated instants whatever the mesh is doing; host
// time plays no part (runs are batch), so there is no generator lateness.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/mesh_node.h"
#include "sim/simulator.h"

namespace perfbench {

enum class Kind : std::uint8_t { Datagram, Acked, Reliable };

struct Msg {
  std::int64_t at_us = 0;  // simulated send time
  std::uint32_t src = 0;   // node indices
  std::uint32_t dst = 0;
  Kind kind = Kind::Datagram;
  std::uint16_t size = 0;  // payload bytes (>= 4: the id leads)
};

/// Payload of message `id`: the id (little endian) then a pattern derived
/// from it, so the receiver can verify every byte.
std::vector<std::uint8_t> make_payload(std::uint32_t id, std::size_t size);

class Traffic {
 public:
  /// `msgs` must be sorted by at_us and outlive the Traffic.
  Traffic(const std::vector<Msg>& msgs, std::size_t nodes);
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  /// Installs the delivery handlers on node `i` (address i + 1).
  void attach(std::size_t i, lm::net::MeshNode& node);
  /// Arms one send chain per source on that source's event loop. Each
  /// chain touches only its source's state and each delivery handler only
  /// its destination's, so PDES regions never share a write.
  void start(const std::function<lm::sim::Simulator&(std::size_t)>& sim_for,
             const std::function<lm::net::MeshNode&(std::size_t)>& node);

  std::uint64_t offered() const { return msgs_.size(); }
  std::uint64_t attempted() const;
  std::uint64_t refused() const;
  std::uint64_t delivered() const;
  std::uint64_t duplicates() const;
  /// Empty when every output check passes, else the first failure.
  std::string check() const;

 private:
  struct SourceChain {
    std::vector<std::uint32_t> ids;  // this source's messages, in time order
    std::size_t next = 0;
    lm::sim::Simulator* sim = nullptr;
    lm::net::MeshNode* node = nullptr;
  };
  struct DestState {
    std::uint64_t duplicates = 0;
    std::uint64_t bad = 0;  // unknown id, wrong node/origin, corrupt bytes
    std::string first_bad;
  };
  void fire(std::size_t src);
  void send(SourceChain& chain, std::uint32_t id);
  void on_delivery(std::size_t at, lm::net::Address origin,
                   const std::vector<std::uint8_t>& payload);

  const std::vector<Msg>& msgs_;
  std::vector<SourceChain> chains_;
  // Written by the source's loop: attempted / refused / end-to-end
  // confirmation (acked and reliable sends).
  std::vector<std::uint8_t> attempted_, refused_, confirmed_;
  // Written by the destination's loop only.
  std::vector<std::uint8_t> delivered_;
  std::vector<DestState> dest_;
};

}  // namespace perfbench

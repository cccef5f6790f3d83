#include "spans.h"

#include <algorithm>

namespace perfbench {

Summary summarize(const std::vector<const std::vector<SpanRec>*>& threads,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& tags) {
  Summary out;
  std::vector<std::string> groups;
  for (const std::string& n : names) groups.push_back(n.substr(0, n.rfind('.')));
  std::vector<std::uint64_t> child_ns;
  std::vector<std::size_t> open;  // ancestors of the current span
  for (const std::vector<SpanRec>* spans : threads) {
    child_ns.assign(spans->size(), 0);
    open.clear();
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const SpanRec& r = (*spans)[i];
      // Pre-order: every span deeper than this one has closed.
      if (open.size() > r.depth) open.resize(r.depth);
      if (r.depth > 0 && open.size() == r.depth) child_ns[open.back()] += r.dur_ns;
      if (r.tag != 0) {
        const bool nested = std::any_of(open.begin(), open.end(), [&](std::size_t a) {
          const SpanRec& p = (*spans)[a];
          return p.tag == r.tag && groups.at(p.name) == groups.at(r.name);
        });
        if (!nested) {
          out.by_group_tag_ns[groups.at(r.name) + "|" + tags.at(r.tag)] += r.dur_ns;
        }
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans->size(); ++i) {
      const SpanRec& r = (*spans)[i];
      SpanAgg& a = out.by_name[names.at(r.name)];
      a.calls++;
      a.total_ns += r.dur_ns;
      a.self_ns += r.dur_ns - std::min<std::uint64_t>(r.dur_ns, child_ns[i]);
      a.durations.push_back(r.dur_ns);
    }
  }
  for (auto& [name, agg] : out.by_name) {
    std::sort(agg.durations.begin(), agg.durations.end());
  }
  return out;
}

std::optional<double> highest_percentile(std::size_t n) {
  std::optional<double> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100).
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) best = p;
  }
  return best;
}

std::uint32_t percentile(const std::vector<std::uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank + 0.999999999);
  idx = std::clamp<std::size_t>(idx, 1, sorted.size());
  return sorted[idx - 1];
}

Ledger& Ledger::instance() {
  static Ledger ledger;
  return ledger;
}

std::uint16_t Ledger::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint16_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint8_t Ledger::intern_tag(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(tags_.begin(), tags_.end(), tag);
  if (it != tags_.end()) return static_cast<std::uint8_t>(it - tags_.begin());
  tags_.push_back(tag);
  return static_cast<std::uint8_t>(tags_.size() - 1);
}

void Ledger::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

Ledger::ThreadSpans& Ledger::local() {
  thread_local ThreadSpans* buf = nullptr;
  thread_local std::uint64_t buf_epoch = 0;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (buf_epoch != epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadSpans>());
    buffers_.back()->spans.reserve(1 << 16);
    buf = buffers_.back().get();
    buf_epoch = epoch;
  }
  return *buf;
}

Summary Ledger::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::vector<SpanRec>*> threads;
  for (const auto& b : buffers_) threads.push_back(&b->spans);
  Summary out = perfbench::summarize(threads, names_, tags_);
  for (const auto& b : buffers_) {
    out.pending_max = std::max(out.pending_max, b->pending_max);
  }
  return out;
}

const Names& Names::get() {
  static const Names names = [] {
    Ledger& l = Ledger::instance();
    Names n{};
    n.sim_step = l.intern("sim.step");
    n.radio_transmit = l.intern("radio.transmit");
    n.radio_cad = l.intern("radio.cad");
    n.radio_medium_busy = l.intern("radio.medium_busy");
    n.link_rx = l.intern("net.link.rx");
    n.link_tx_done = l.intern("net.link.tx_done");
    n.link_cad_done = l.intern("net.link.cad_done");
    n.strategy_start = l.intern("net.strategy.start");
    n.strategy_stop = l.intern("net.strategy.stop");
    n.strategy_on_routing = l.intern("net.strategy.on_routing");
    n.strategy_handle = l.intern("net.strategy.handle");
    n.strategy_resolve = l.intern("net.strategy.resolve_next_hop");
    n.strategy_has_route = l.intern("net.strategy.has_route");
    n.strategy_note_demand = l.intern("net.strategy.note_demand");
    n.node_send = l.intern("net.node.send");
    n.run_cell = l.intern("testbed.cell");
    n.setup_add_nodes = l.intern("testbed.setup.add_nodes");
    n.setup_start_all = l.intern("testbed.setup.start_all");
    n.setup_finalize = l.intern("testbed.setup.finalize");
    return n;
  }();
  return names;
}

}  // namespace perfbench

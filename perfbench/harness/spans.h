// In-memory span ledger for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator's public functions (the wrappers in wrappers.h and the workload
// code). Each thread appends to its own buffer, so PDES workers record
// without locking; buffers stay in memory until summarize() folds them into
// per-name totals after the run. Nothing is written while a run is timed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span as recorded: pre-order within its thread (a parent is
/// stored before its children), `depth` counts the spans open around it.
struct SpanRec {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint16_t name = 0;
  std::uint8_t depth = 0;
  std::uint8_t tag = 0;  // 0 = none; else an interned tag (e.g. strategy)
};

/// Per-name totals over every thread's spans.
struct SpanAgg {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  /// total_ns minus the time covered by each span's direct children.
  std::uint64_t self_ns = 0;
  /// Every duration, sorted ascending (for percentiles).
  std::vector<std::uint32_t> durations;
};

struct Summary {
  std::map<std::string, SpanAgg> by_name;
  /// Time inside tagged spans per (group, tag), keyed "group|tag", where a
  /// span's group is its name minus the last dot component
  /// ("net.strategy.handle" -> "net.strategy"). Only outermost spans of a
  /// (group, tag) count, so nested calls are not counted twice.
  std::map<std::string, std::uint64_t> by_group_tag_ns;
  /// Highest note_pending() value over all threads.
  std::size_t pending_max = 0;
};

/// Folds per-thread span buffers into per-name totals. `names` and `tags`
/// map the interned ids back to strings. Pure; the unit tests drive it
/// with hand-built buffers.
Summary summarize(const std::vector<const std::vector<SpanRec>*>& threads,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& tags);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has
/// at least ten samples beyond it in `n` samples; nullopt below 20.
std::optional<double> highest_percentile(std::size_t n);

/// Nearest-rank percentile of an ascending sample.
std::uint32_t percentile(const std::vector<std::uint32_t>& sorted, double p);

/// Process-wide recorder. Recording is off until enable(); reset() drops
/// every buffer (threads that recorded before re-register lazily).
class Ledger {
 public:
  static Ledger& instance();

  std::uint16_t intern(const std::string& name);
  std::uint8_t intern_tag(const std::string& tag);

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Drops all recorded spans. Call only while no thread is recording.
  void reset();
  /// Summarizes every thread's buffer. Call only while no thread is
  /// recording (after the run returned).
  Summary summarize() const;

  struct ThreadSpans {
    std::vector<SpanRec> spans;
    std::uint8_t depth = 0;  // spans currently open on this thread
    std::size_t pending_max = 0;
  };
  /// The calling thread's buffer for the current epoch.
  ThreadSpans& local();

 private:
  // Toggled only between runs; atomic so PDES workers may read it.
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_{1};
  mutable std::mutex mu_;  // guards buffers_, names_, tags_
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
  std::vector<std::string> names_{""};
  std::vector<std::string> tags_{""};
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII span. A no-op (one branch) while the ledger is disabled.
class Span {
 public:
  explicit Span(std::uint16_t name, std::uint8_t tag = 0) {
    Ledger& l = Ledger::instance();
    if (!l.enabled()) return;
    buf_ = &l.local();
    index_ = buf_->spans.size();
    buf_->spans.push_back(SpanRec{now_ns(), 0, name, buf_->depth++, tag});
  }
  ~Span() {
    if (buf_ == nullptr) return;
    SpanRec& r = buf_->spans[index_];
    const std::uint64_t d = now_ns() - r.start_ns;
    r.dur_ns = d > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(d);
    --buf_->depth;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger::ThreadSpans* buf_ = nullptr;
  std::size_t index_ = 0;
};

/// Raises the calling thread's pending-event gauge (sim.pending_max).
inline void note_pending(std::size_t pending) {
  Ledger::ThreadSpans& t = Ledger::instance().local();
  if (pending > t.pending_max) t.pending_max = pending;
}

/// Interned span names shared by the wrappers and the workload code.
struct Names {
  std::uint16_t sim_step, radio_transmit, radio_cad, radio_medium_busy,
      link_rx, link_tx_done, link_cad_done, strategy_start, strategy_stop,
      strategy_on_routing, strategy_handle, strategy_resolve,
      strategy_has_route, strategy_note_demand, node_send, run_cell,
      setup_add_nodes, setup_start_all, setup_finalize;
  static const Names& get();
};

}  // namespace perfbench

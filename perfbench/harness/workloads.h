// The benchmark's four workloads. Each is built from a seed (layout, flows
// and send schedule are generated here, before the program runs) and runs
// as repeatable episodes: set up a fresh deployment, run a fixed simulated
// span, read its counters, tear it down. The untraced episode drives the
// library exactly as the experiments do; the traced episode records spans
// around the same calls (see wrappers.h) and must reproduce every
// deterministic counter of the untraced one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/pool.h"

namespace perfbench {

/// Named values in a fixed order, so two runs compare field by field.
using Counters = std::vector<std::pair<std::string, double>>;

double counter(const Counters& c, const std::string& name);

struct Episode {
  double setup_s = 0.0;     // construction up to the first simulated event
  double run_wall_s = 0.0;  // host time of the simulated span
  double sim_s = 0.0;       // simulated seconds covered
  double cpu_s = 0.0;       // process CPU time over the simulated span
  // Heap readings (memory.h); meaningful when a MemoryMeter was started
  // just before the episode.
  double setup_mem_mb = 0.0;  // live at the end of set-up
  double mem_mb = 0.0;        // peak over the episode
  std::size_t nodes = 0;
  double ops = 0.0;         // application messages offered
  double ops_failed = 0.0;  // refused at send or not delivered by the end
  double pdr = 0.0;
  /// Deterministic counters (events, ChannelStats, summed NodeStats,
  /// RadioStats, traffic outcome, PDES engine): equal across episodes of
  /// one seed and between the traced and untraced episode.
  Counters counters;
  lm::support::PoolStats pool;  // this thread's BlockPool over the episode
  std::string error;            // first failed output check, if any
};

struct Options {
  /// Multiplies every workload's simulated span (tests shorten runs).
  double span_scale = 1.0;
  /// PDES worker threads for chain10k_pdes. One: on a host whose cores are
  /// shared, each barrier of a multi-worker run waits for whichever core
  /// another tenant holds (LEDGER.md), so the workload times the engine's
  /// windows and ghost exchange on one thread; the tests also run 4.
  std::size_t workers = 1;
  /// Energy metering on mesh16 (the ledger's on/off comparison).
  bool energy = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One episode. `setup_only` stops after set-up (setup_s samples).
  virtual Episode run(bool traced, bool setup_only) = 0;
  /// Set-up-only trials averaged into one setup_s sample, enough for a
  /// sample to take milliseconds. 0: the workload cannot stop after
  /// set-up, and each timed episode gives one sample.
  virtual int setup_batch() const { return 0; }
  /// Untimed episodes whose heap peaks are averaged into mem_mb: the
  /// reference episode, then episodes of seeds derived from the run's.
  virtual int memory_draws() const { return 1; }
};

/// mesh16, field3k, chain10k_pdes or matrix; null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Options& options = {});

/// Names of the counters that differ between two episodes ("" if none).
std::string diff_counters(const Counters& a, const Counters& b);

}  // namespace perfbench

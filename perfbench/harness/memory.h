// Heap accounting for the benchmark's memory metrics. The perfbench binary
// replaces the global operator new/delete with versions that, while a
// meter is running, keep a count of live bytes and its peak. Timed
// episodes run with the meter off, which costs one relaxed load per
// allocation; memory is read from a separate untimed episode.
#pragma once

#include <cstdint>

namespace perfbench {

class MemoryMeter {
 public:
  /// Starts counting from zero live bytes. Objects allocated before start()
  /// and freed while counting lower the count, so start before building
  /// the deployment and measure no earlier allocations.
  static void start();
  static void stop();
  /// Bytes allocated and not yet freed since start().
  static std::int64_t live_bytes();
  /// Highest live_bytes() since start() or the last reset_peak().
  static std::int64_t peak_bytes();
  /// Restarts the peak at the current live count.
  static void reset_peak();
};

}  // namespace perfbench

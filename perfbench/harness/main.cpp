// perfbench — runs one workload and prints its metrics.
//
//   perfbench --workload <mesh16|field3k|chain10k_pdes|matrix> --seed <n>
//             --seconds <s> --trace <0|1> [--energy off]
//
// Both modes first run one untimed reference episode with the heap meter
// on. --trace 0 then runs the workload's further memory draws, repeats
// untraced episodes for about --seconds and prints the end-to-end metrics. --trace 1 alternates untraced and traced
// episodes, checks that every episode reproduces the reference's
// deterministic counters, and prints the per-layer metrics. Every
// metric is printed as "name value unit"; the last line is one JSON object
// {correct, attempted, failed, metrics}. A failed output check prints
// correct=false and exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "memory.h"
#include "spans.h"
#include "workloads.h"

namespace {

using perfbench::Counters;
using perfbench::Episode;
using perfbench::counter;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The result line's operation counts. An operation is one application
/// message offered. Every repeated episode replays the reference episode's
/// messages and must reproduce its counters, so a run counts the reference
/// episode's messages once: the counts depend on the seed alone, not on how
/// many episodes the host fits into --seconds. A message fails when the
/// program mishandles it, which an output check catches and which fails
/// the episode; a message the simulated radio loses, or a send refused for
/// want of a route, is a simulated outcome that pdr measures.
struct Totals {
  double attempted = 0.0;
  double failed = 0.0;
};

void print_result(const std::vector<Metric>& metrics, bool correct,
                  const Totals& totals) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(static_cast<long long>(std::max(1.0, totals.attempted))) +
                     ", \"failed\": " +
                     std::to_string(static_cast<long long>(totals.failed)) +
                     ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void fail(const std::string& why, const Totals& totals) {
  std::fprintf(stderr, "perfbench: output check failed: %s\n", why.c_str());
  print_result({}, false, totals);
  std::exit(1);
}

/// A failed output check: every message of the episode counts as failed.
[[noreturn]] void fail_episode(const Episode& e, const std::string& why,
                               Totals& totals) {
  totals.failed = std::max(1.0, e.ops);
  fail(why, totals);
}

/// Checks one episode's outputs, and that its deterministic counters equal
/// the reference episode's (same seed, same program: they must).
void check(const Episode& e, const Episode* reference, const char* what,
           Totals& totals) {
  if (reference == nullptr) totals.attempted = e.ops;
  if (!e.error.empty()) fail_episode(e, e.error, totals);
  if (reference == nullptr) return;
  const std::string diff = perfbench::diff_counters(reference->counters, e.counters);
  if (!diff.empty()) fail_episode(e, std::string(what) + " differs: " + diff, totals);
}

/// The untimed reference episode: run first, in a fresh process, with the
/// heap meter on. It supplies the memory readings, the pool statistics and
/// the deterministic counters every later episode must reproduce.
Episode reference_episode(perfbench::Workload& w, Totals& totals) {
  perfbench::MemoryMeter::start();
  Episode e = w.run(false, false);
  perfbench::MemoryMeter::stop();
  check(e, nullptr, "", totals);
  return e;
}

/// setup_s samples: at least this many per run, spread over the run.
constexpr std::size_t kSetupSamples = 15;

/// mem_mb: the mean heap peak over the workload's memory draws — the
/// reference episode, then untimed episodes of seeds derived from the
/// run's, each built (inputs generated) before its meter starts.
double mean_peak_mb(const Episode& ref, int draws, const std::string& name,
                    std::uint64_t seed, const perfbench::Options& options,
                    Totals& totals) {
  double sum = ref.mem_mb;
  for (int j = 1; j < draws; ++j) {
    const std::uint64_t derived = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(j);
    std::unique_ptr<perfbench::Workload> w = perfbench::make_workload(name, derived, options);
    perfbench::MemoryMeter::start();
    const Episode e = w->run(false, false);
    perfbench::MemoryMeter::stop();
    if (!e.error.empty()) {
      fail_episode(e, "memory draw " + std::to_string(j) + ": " + e.error, totals);
    }
    sum += e.mem_mb;
  }
  return sum / draws;
}

std::vector<Metric> end_to_end(perfbench::Workload& w, const std::string& name,
                               std::uint64_t seed, const perfbench::Options& options,
                               double seconds, Totals& totals) {
  const Episode ref = reference_episode(w, totals);
  const int draws = std::max(1, w.memory_draws());
  const double mem_mb = mean_peak_mb(ref, draws, name, seed, options, totals);
  std::vector<double> rates;
  std::vector<double> setups;
  // One setup_s sample: the mean set-up time of a batch of set-up-only
  // trials, taken after every timed episode so the samples span the run.
  const int batch = w.setup_batch();
  const auto setup_sample = [&w, &setups, batch] {
    double sum = 0.0;
    for (int i = 0; i < batch; ++i) sum += w.run(false, true).setup_s;
    setups.push_back(sum / batch);
  };
  double sim_total = 0.0;
  double wall_total = 0.0;
  const double start = now_s();
  while (rates.size() < 3 || now_s() - start < seconds) {
    if (!rates.empty() && now_s() - start > 150.0) break;
    const Episode e = w.run(false, false);
    check(e, &ref, "a repeated episode", totals);
    rates.push_back(e.sim_s / e.run_wall_s);
    if (batch == 0) {
      setups.push_back(e.setup_s);
    } else {
      setup_sample();
    }
    sim_total += e.sim_s;
    wall_total += e.run_wall_s;
  }
  while (batch > 0 && setups.size() < kSetupSamples) setup_sample();
  const double frames = counter(ref.counters, "channel.frames_transmitted");
  const double data_us = counter(ref.counters, "node.data_airtime_us");
  const double control_us = counter(ref.counters, "node.control_airtime_us");
  std::printf("ops %.0f (refused %.0f, lost %.0f) per episode; %zu timed episodes "
              "of %.1f sim-s, %zu set-up samples of %d\n",
              ref.ops, counter(ref.counters, "app.refused"),
              ref.ops_failed - counter(ref.counters, "app.refused"), rates.size(),
              ref.sim_s, setups.size(), std::max(batch, 1));
  std::printf("per episode: %.0f events, %.0f frames, %.0f beacons sent, "
              "data share of airtime %.3f\n",
              counter(ref.counters, "sim.events"), frames,
              counter(ref.counters, "node.beacons_sent"),
              ratio(data_us, data_us + control_us));
  std::printf("heap peak %.4f MB (mean of %d draws)\n", mem_mb, draws);
  std::printf("episode sim_s_per_wall_s:");
  for (const double r : rates) std::printf(" %.6g", r);
  std::printf("\n");
  return {{"sim_s_per_wall_s", sim_total / wall_total, "1/s"},
          {"setup_s", median(setups), "s"},
          {"mem_mb", mem_mb, "MB"},
          {"pdr", ref.pdr, "ratio"}};
}

const char* const kStrategies[] = {"distance-vector", "flooding", "aodv",
                                   "gateway-tree", "energy-aware"};

std::vector<Metric> per_layer(perfbench::Workload& w, double seconds,
                              Totals& totals) {
  perfbench::Ledger& ledger = perfbench::Ledger::instance();
  const Episode base = reference_episode(w, totals);
  std::vector<double> untraced_rates;
  std::vector<double> events_per_s;
  std::vector<double> cpu_per_wall;
  std::vector<double> traced_rates;
  perfbench::Summary spans;
  const double start = now_s();
  do {
    const Episode e = w.run(false, false);
    check(e, &base, "a repeated episode", totals);
    untraced_rates.push_back(e.sim_s / e.run_wall_s);
    events_per_s.push_back(counter(e.counters, "sim.events") / e.run_wall_s);
    cpu_per_wall.push_back(e.cpu_s / e.run_wall_s);
    ledger.reset();
    ledger.enable(true);
    const Episode traced = w.run(true, false);
    ledger.enable(false);
    check(traced, &base, "the traced episode", totals);
    traced_rates.push_back(traced.sim_s / traced.run_wall_s);
    spans = ledger.summarize();
    ledger.reset();
  } while (now_s() - start < seconds && now_s() - start < 150.0);
  std::fprintf(stderr,
               "perfbench: traced episodes reproduced all %zu deterministic "
               "counters (%zu untraced, %zu traced timed episodes)\n",
               base.counters.size(), untraced_rates.size(), traced_rates.size());

  const auto agg = [&spans](const std::string& name) -> const perfbench::SpanAgg& {
    static const perfbench::SpanAgg empty;
    const auto it = spans.by_name.find(name);
    return it == spans.by_name.end() ? empty : it->second;
  };
  const auto ns = [&agg](const std::string& name) {
    return static_cast<double>(agg(name).total_ns);
  };
  const auto calls = [&agg](const std::string& name) {
    return static_cast<double>(agg(name).calls);
  };
  const auto group_ns = [&spans](const std::string& key) {
    const auto it = spans.by_group_tag_ns.find(key);
    return it == spans.by_group_tag_ns.end() ? 0.0 : static_cast<double>(it->second);
  };
  const Counters& c = base.counters;
  const auto n = [&c](const char* name) { return counter(c, name); };

  const perfbench::SpanAgg& step = agg("sim.step");
  const std::size_t steps = step.durations.size();
  const double top = perfbench::highest_percentile(steps).value_or(0.0);
  const double p50 = top >= 50.0 ? perfbench::percentile(step.durations, 50.0) : 0.0;
  const double p99 =
      top > 0.0 ? perfbench::percentile(step.durations, std::min(top, 99.0)) : 0.0;
  if (top > 0.0 && top < 99.0) {
    std::fprintf(stderr, "perfbench: sim.step.ns_p99 reports p%g (n=%zu)\n", top, steps);
  }
  const double frames = n("channel.frames_transmitted");
  const double evals = n("channel.receptions_delivered") +
                       n("channel.dropped_not_listening") +
                       n("channel.dropped_blocked_link") +
                       n("channel.dropped_below_sensitivity") + n("channel.dropped_snr") +
                       n("channel.dropped_collision") +
                       n("channel.dropped_modulation_mismatch");
  const double windows = n("pdes.windows");

  std::vector<Metric> m = {
      {"sim.events", n("sim.events"), "count"},
      {"sim.events_per_s", median(events_per_s), "1/s"},
      {"sim.step.ns_p50", p50, "ns"},
      {"sim.step.ns_p99", p99, "ns"},
      {"sim.step.self_share", ratio(static_cast<double>(step.self_ns),
                                    static_cast<double>(step.total_ns)), "ratio"},
      {"sim.pending_max", static_cast<double>(spans.pending_max), "count"},
      {"sim.pdes.windows", windows, "count"},
      {"sim.pdes.events_per_window", ratio(n("sim.events"), windows), "count"},
      {"sim.pdes.ghosts", n("pdes.ghosts"), "count"},
      {"sim.pdes.widened_share", ratio(n("pdes.windows_widened"), windows), "ratio"},
      {"sim.pdes.region_imbalance", n("pdes.region_imbalance"), "ratio"},
      {"sim.pdes.cpu_per_wall", median(cpu_per_wall), "ratio"},
      {"radio.transmit.calls", calls("radio.transmit"), "count"},
      {"radio.transmit.ns", ns("radio.transmit"), "ns"},
      {"radio.cad.calls", calls("radio.cad"), "count"},
      {"radio.medium_busy.calls", calls("radio.medium_busy"), "count"},
      {"radio.channel.frames", frames, "count"},
      {"radio.channel.evals_per_frame", ratio(evals, frames), "ratio"},
      {"radio.channel.culled_per_frame", ratio(n("channel.dropped_out_of_range"), frames),
       "ratio"},
      {"radio.channel.delivered_per_eval", ratio(n("channel.receptions_delivered"), evals),
       "ratio"},
      {"radio.channel.collisions", n("channel.dropped_collision"), "count"},
      {"net.link.rx.ns", ns("net.link.rx"), "ns"},
      {"net.link.rx.self_ns", static_cast<double>(agg("net.link.rx").self_ns), "ns"},
      {"net.link.tx_done.ns", ns("net.link.tx_done"), "ns"},
      {"net.link.cad_done.ns", ns("net.link.cad_done"), "ns"},
      {"net.strategy.on_routing.calls", calls("net.strategy.on_routing"), "count"},
      {"net.strategy.on_routing.ns", ns("net.strategy.on_routing"), "ns"},
      {"net.strategy.handle.ns", ns("net.strategy.handle"), "ns"},
      {"net.strategy.resolve_next_hop.ns", ns("net.strategy.resolve_next_hop"), "ns"},
      {"net.node.send.ns", ns("net.node.send"), "ns"},
  };
  for (const char* s : kStrategies) {
    m.push_back({std::string("net.strategy.") + s + ".ns",
                 group_ns(std::string("net.strategy|") + s), "ns"});
  }
  const std::vector<Metric> tail = {
      {"net.routing_changes_per_beacon",
       ratio(n("node.routing_changes"), n("node.beacons_received")), "ratio"},
      {"net.cad_busy_share", ratio(n("radio.cad_busy"), n("radio.cad_runs")), "ratio"},
      {"net.acked_retx_per_sent",
       ratio(n("node.acked_retransmissions"), n("node.acked_sent")), "ratio"},
      {"net.transfers_completed_share",
       ratio(n("node.transfers_completed"), n("node.transfers_started")), "ratio"},
      {"support.pool.hits", static_cast<double>(base.pool.pool_hits), "count"},
      {"support.pool.refills", static_cast<double>(base.pool.pool_refills), "count"},
      {"support.pool.oversize", static_cast<double>(base.pool.oversize), "count"},
      {"testbed.setup.add_nodes.ms", ns("testbed.setup.add_nodes") / 1e6, "ms"},
      {"testbed.setup.start_all.ms", ns("testbed.setup.start_all") / 1e6, "ms"},
      {"testbed.setup.finalize.ms", ns("testbed.setup.finalize") / 1e6, "ms"},
      {"testbed.bytes_per_node",
       ratio(base.setup_mem_mb * 1048576.0, static_cast<double>(base.nodes)), "B"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  for (const char* s : kStrategies) {
    m.push_back({std::string("testbed.cell.") + s + ".ms",
                 group_ns(std::string("testbed|") + s) / 1e6, "ms"});
  }
  m.push_back({"span_overhead", 1.0 - ratio(median(traced_rates), median(untraced_rates)),
               "ratio"});
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mesh16|field3k|chain10k_pdes|matrix> "
               "--seed <n> --seconds <s> --trace <0|1> [--energy off]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--energy") {
      options.energy = std::strcmp(value, "off") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1) || !(seconds > 0.0)) return usage();
  std::unique_ptr<perfbench::Workload> w =
      perfbench::make_workload(workload, seed, options);
  if (w == nullptr) return usage();

  Totals totals;
  const std::vector<Metric> metrics =
      trace == 0 ? end_to_end(*w, workload, seed, options, seconds, totals)
                 : per_layer(*w, seconds, totals);
  print_result(metrics, true, totals);
  return 0;
}

// Tests of the benchmark harness itself: span arithmetic, the percentile
// rule, that the tracing wrappers and worker counts leave every
// deterministic counter unchanged, and the strategy wrapper's end-time
// report that the matrix workload's simulated span comes from.
#include <gtest/gtest.h>

#include <thread>

#include "net/distance_vector_strategy.h"
#include "spans.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

const std::vector<std::string> kNames = {"", "a", "b", "c", "net.strategy.x",
                                         "net.strategy.y", "testbed.cell"};
const std::vector<std::string> kTags = {"", "dv", "aodv"};

SpanRec rec(std::uint64_t start, std::uint32_t dur, std::uint16_t name,
            std::uint8_t depth, std::uint8_t tag = 0) {
  return SpanRec{start, dur, name, depth, tag};
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // a[0,100) holds b[10,40) (which holds c[15,25)) and a second b[50,70).
  const std::vector<SpanRec> t = {rec(0, 100, 1, 0), rec(10, 30, 2, 1),
                                  rec(15, 10, 3, 2), rec(50, 20, 2, 1)};
  const Summary s = summarize({&t}, kNames, kTags);
  EXPECT_EQ(s.by_name.at("a").self_ns, 50u);
  EXPECT_EQ(s.by_name.at("b").calls, 2u);
  EXPECT_EQ(s.by_name.at("b").total_ns, 50u);
  EXPECT_EQ(s.by_name.at("b").self_ns, 40u);
  EXPECT_EQ(s.by_name.at("c").self_ns, 10u);
}

TEST(Spans, ThreadBuffersMergeWithoutCrossThreadNesting) {
  // Depths restart per thread: the second buffer's depth-0 span is not a
  // child of anything in the first.
  const std::vector<SpanRec> t1 = {rec(0, 100, 1, 0), rec(0, 60, 2, 1)};
  const std::vector<SpanRec> t2 = {rec(0, 30, 2, 0), rec(40, 50, 1, 0),
                                   rec(45, 5, 2, 1)};
  const Summary s = summarize({&t1, &t2}, kNames, kTags);
  EXPECT_EQ(s.by_name.at("a").calls, 2u);
  EXPECT_EQ(s.by_name.at("a").total_ns, 150u);
  EXPECT_EQ(s.by_name.at("a").self_ns, 40u + 45u);
  EXPECT_EQ(s.by_name.at("b").self_ns, 95u);
  EXPECT_EQ(s.by_name.at("b").durations, (std::vector<std::uint32_t>{5, 30, 60}));
}

TEST(Spans, TaggedTimeCountsOutermostSpanOfEachGroup) {
  // cell(dv) > strategy.x(dv) > strategy.y(dv); then strategy.x(aodv).
  const std::vector<SpanRec> t = {rec(0, 100, 6, 0, 1), rec(10, 40, 4, 1, 1),
                                  rec(20, 10, 5, 2, 1), rec(60, 30, 4, 1, 2)};
  const Summary s = summarize({&t}, kNames, kTags);
  EXPECT_EQ(s.by_group_tag_ns.at("testbed|dv"), 100u);
  EXPECT_EQ(s.by_group_tag_ns.at("net.strategy|dv"), 40u);
  EXPECT_EQ(s.by_group_tag_ns.at("net.strategy|aodv"), 30u);
}

TEST(Spans, LedgerKeepsOneBufferPerThread) {
  Ledger& l = Ledger::instance();
  const std::uint16_t outer = l.intern("test.outer");
  const std::uint16_t inner = l.intern("test.inner");
  l.reset();
  l.enable(true);
  const auto work = [&] {
    for (int i = 0; i < 100; ++i) {
      Span s(outer);
      Span t(inner);
    }
  };
  std::thread a(work);
  std::thread b(work);
  work();
  a.join();
  b.join();
  l.enable(false);
  const Summary s = l.summarize();
  EXPECT_EQ(s.by_name.at("test.outer").calls, 300u);
  EXPECT_EQ(s.by_name.at("test.inner").calls, 300u);
  EXPECT_LE(s.by_name.at("test.inner").total_ns, s.by_name.at("test.outer").total_ns);
  EXPECT_EQ(s.by_name.at("test.outer").self_ns + s.by_name.at("test.inner").total_ns,
            s.by_name.at("test.outer").total_ns);
  l.reset();
  EXPECT_TRUE(l.summarize().by_name.empty());
}

TEST(Percentiles, HighestWithTenSamplesBeyondIt) {
  EXPECT_FALSE(highest_percentile(19).has_value());
  EXPECT_EQ(highest_percentile(20), 50.0);
  EXPECT_EQ(highest_percentile(99), 50.0);
  EXPECT_EQ(highest_percentile(100), 90.0);
  EXPECT_EQ(highest_percentile(999), 90.0);
  EXPECT_EQ(highest_percentile(1000), 99.0);
  EXPECT_EQ(highest_percentile(10'000), 99.9);
  EXPECT_EQ(highest_percentile(100'000), 99.99);
}

TEST(Percentiles, NearestRank) {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50u);
  EXPECT_EQ(percentile(v, 99.0), 99u);
  EXPECT_EQ(percentile(v, 100.0), 100u);
}

Episode run_once(const std::string& name, bool traced, const Options& o) {
  std::unique_ptr<Workload> w = make_workload(name, 7, o);
  Ledger::instance().reset();
  Ledger::instance().enable(traced);
  Episode e = w->run(traced, false);
  Ledger::instance().enable(false);
  Ledger::instance().reset();
  EXPECT_EQ(e.error, "");
  return e;
}

TEST(Wrappers, TracedMesh16ReproducesUntracedCounters) {
  Options o;
  o.span_scale = 1.0 / 24.0;  // 15 simulated minutes
  const Episode plain = run_once("mesh16", false, o);
  const Episode traced = run_once("mesh16", true, o);
  EXPECT_GT(counter(plain.counters, "app.delivered"), 0.0);
  EXPECT_EQ(diff_counters(plain.counters, traced.counters), "");
}

TEST(Wrappers, StrategyReportsTheSimulatedEndWhenTornDown) {
  lm::TimePoint end;
  {
    lm::testbed::ScenarioConfig config;
    bool first = true;
    config.strategy_factory = [&end, &first] {
      lm::TimePoint* out = first ? &end : nullptr;
      first = false;
      return std::unique_ptr<lm::net::RoutingStrategy>(std::make_unique<TracedStrategy>(
          std::make_unique<lm::net::DistanceVectorStrategy>(), out));
    };
    lm::testbed::MeshScenario sc(config);
    sc.add_nodes(lm::testbed::chain(3, 400.0));
    sc.start_all();
    sc.run_for(lm::Duration::seconds(95));
    EXPECT_EQ(end, lm::TimePoint::origin());  // not torn down yet
  }
  EXPECT_EQ(end, lm::TimePoint::origin() + lm::Duration::seconds(95));
}

TEST(Pdes, Chain10kCountersIndependentOfWorkersAndTracing) {
  Options o;
  o.span_scale = 0.75;  // 45 simulated seconds
  o.workers = 1;
  const Episode one = run_once("chain10k_pdes", false, o);
  o.workers = 4;
  const Episode four = run_once("chain10k_pdes", false, o);
  // Traced: strategy spans recorded from the worker threads.
  const Episode traced = run_once("chain10k_pdes", true, o);
  EXPECT_GT(counter(one.counters, "pdes.ghosts"), 0.0);
  EXPECT_GT(counter(one.counters, "app.delivered"), 0.0);
  EXPECT_EQ(diff_counters(one.counters, four.counters), "");
  EXPECT_EQ(diff_counters(one.counters, traced.counters), "");
}

}  // namespace
}  // namespace perfbench

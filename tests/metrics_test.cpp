// Tests for metrics/: the Sec. 8.1 metric definitions.
#include <gtest/gtest.h>

#include "metrics/collector.h"

namespace themis {
namespace {

AppRecord Record(AppId app, Time arrival, Time finish, Time ideal,
                 double score = 1.0) {
  AppRecord r;
  r.app = app;
  r.arrival = arrival;
  r.finish = finish;
  r.ideal_time = ideal;
  r.mean_placement_score = score;
  return r;
}

TEST(Metrics, RhoAndCompletionTime) {
  const AppRecord r = Record(0, 10.0, 40.0, 10.0);
  EXPECT_DOUBLE_EQ(r.Rho(), 3.0);
  EXPECT_DOUBLE_EQ(r.CompletionTime(), 30.0);
}

TEST(Metrics, FairnessAggregates) {
  MetricsCollector c;
  c.RecordAppFinish(Record(0, 0.0, 10.0, 10.0));  // rho 1
  c.RecordAppFinish(Record(1, 0.0, 30.0, 10.0));  // rho 3
  c.RecordAppFinish(Record(2, 0.0, 20.0, 10.0));  // rho 2
  EXPECT_DOUBLE_EQ(c.MaxFairness(), 3.0);
  EXPECT_DOUBLE_EQ(c.MinFairness(), 1.0);
  EXPECT_DOUBLE_EQ(c.MedianFairness(), 2.0);
  EXPECT_DOUBLE_EQ(c.AverageCompletionTime(), 20.0);
  EXPECT_NEAR(c.JainsFairnessIndex(), 36.0 / (3.0 * 14.0), 1e-12);
}

TEST(Metrics, EmptyCollectorIsNeutral) {
  MetricsCollector c;
  EXPECT_DOUBLE_EQ(c.MaxFairness(), 0.0);
  EXPECT_DOUBLE_EQ(c.MinFairness(), 0.0);
  EXPECT_DOUBLE_EQ(c.MedianFairness(), 0.0);
  EXPECT_DOUBLE_EQ(c.AverageCompletionTime(), 0.0);
  EXPECT_DOUBLE_EQ(c.JainsFairnessIndex(), 1.0);
  EXPECT_DOUBLE_EQ(c.TotalGpuTime(), 0.0);
}

TEST(Metrics, GpuTimeAccumulates) {
  MetricsCollector c;
  c.RecordGpuTime(10.0);
  c.RecordGpuTime(5.5);
  EXPECT_DOUBLE_EQ(c.TotalGpuTime(), 15.5);
}

TEST(Metrics, TimelineOrderPreserved) {
  MetricsCollector c;
  c.RecordAllocation(1.0, 7, 4);
  c.RecordAllocation(2.0, 7, 8);
  ASSERT_EQ(c.timeline().size(), 2u);
  EXPECT_EQ(c.timeline()[0].gpus, 4);
  EXPECT_EQ(c.timeline()[1].gpus, 8);
}

// --------------------------------------------------------------------------
// Bounded-memory mode: running aggregates vs the exact vector-based mode.
// --------------------------------------------------------------------------

TEST(Metrics, BoundedModeAggregatesMatchExact) {
  MetricsCollector exact;
  MetricsConfig bounded_cfg;
  bounded_cfg.bounded_memory = true;
  bounded_cfg.reservoir_capacity = 32;  // far fewer than the stream
  MetricsCollector bounded(bounded_cfg);

  // A deterministic but irregular stream of 500 finishes.
  for (AppId a = 0; a < 500; ++a) {
    const Time arrival = 2.0 * a;
    const Time ideal = 5.0 + (a * 7) % 40;
    const Time finish = arrival + ideal * (1.0 + 0.01 * ((a * 13) % 300));
    const AppRecord r = Record(a, arrival, finish, ideal);
    exact.RecordAppFinish(r);
    bounded.RecordAppFinish(r);
  }

  // Max/min/avg/Jain come from running aggregates fed in the same order:
  // equal bit for bit, not approximately.
  EXPECT_EQ(bounded.MaxFairness(), exact.MaxFairness());
  EXPECT_EQ(bounded.MinFairness(), exact.MinFairness());
  EXPECT_EQ(bounded.JainsFairnessIndex(), exact.JainsFairnessIndex());
  EXPECT_EQ(bounded.AverageCompletionTime(), exact.AverageCompletionTime());
  // The median is the one P2-estimated summary: within 1%.
  EXPECT_NEAR(bounded.MedianFairness(), exact.MedianFairness(),
              0.01 * exact.MedianFairness());
  // Memory stayed bounded while the count kept the true total.
  EXPECT_EQ(bounded.apps().size(), 32u);
  EXPECT_EQ(bounded.finished_apps(), 500u);
  EXPECT_EQ(exact.finished_apps(), 500u);
}

TEST(Metrics, BoundedModeKeepsEverythingBelowReservoirCapacity) {
  MetricsConfig cfg;
  cfg.bounded_memory = true;
  cfg.reservoir_capacity = 64;
  MetricsCollector c(cfg);
  for (AppId a = 0; a < 10; ++a)
    c.RecordAppFinish(Record(a, 0.0, 10.0 + a, 10.0));
  // Small runs lose nothing: the sample is the full record set, in order.
  ASSERT_EQ(c.apps().size(), 10u);
  for (AppId a = 0; a < 10; ++a) EXPECT_EQ(c.apps()[a].app, a);
  EXPECT_EQ(c.Rhos().size(), 10u);
}

TEST(Metrics, TimelineDecimatesDeterministically) {
  MetricsConfig cfg;
  cfg.timeline_capacity = 8;
  MetricsCollector c(cfg);
  for (int i = 0; i < 100; ++i)
    c.RecordAllocation(static_cast<Time>(i), 0, i);
  EXPECT_EQ(c.allocation_samples_seen(), 100u);
  EXPECT_LE(c.timeline().size(), 8u);
  // Survivors are exactly the samples at indices divisible by the stride.
  const std::size_t stride = c.timeline_stride();
  EXPECT_GT(stride, 1u);
  for (const AllocationSample& s : c.timeline())
    EXPECT_EQ(s.gpus % static_cast<int>(stride), 0);
  // Retained samples stay in time order.
  for (std::size_t i = 1; i < c.timeline().size(); ++i)
    EXPECT_LT(c.timeline()[i - 1].time, c.timeline()[i].time);
}

TEST(Metrics, DefaultTimelineCapacityKeepsEverySample) {
  MetricsCollector c;
  for (int i = 0; i < 5000; ++i)
    c.RecordAllocation(static_cast<Time>(i), 0, 1);
  EXPECT_EQ(c.timeline().size(), 5000u);
  EXPECT_EQ(c.timeline_stride(), 1u);
}

}  // namespace
}  // namespace themis

// Tests for workload/: loss curves, app/job specs, and the synthetic trace
// generator's published marginals (Sec. 8.1).
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include <sstream>

#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

/// Total serial work across an app's jobs.
Work TotalWork(const AppSpec& app) {
  Work w = 0.0;
  for (const JobSpec& j : app.jobs) w += j.total_work;
  return w;
}

TEST(LossCurve, MonotoneDecreasing) {
  const LossCurve curve(10.0, 0.5, 0.05);
  double prev = curve.LossAt(0.0);
  for (double i = 1.0; i < 1000.0; i *= 2.0) {
    const double v = curve.LossAt(i);
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.05);
    prev = v;
  }
}

TEST(LossCurve, IterationsToTargetInvertsLossAt) {
  const LossCurve curve(10.0, 0.7, 0.0);
  const double it = curve.IterationsToTarget(0.5);
  EXPECT_NEAR(curve.LossAt(it), 0.5, 1e-9);
}

TEST(LossCurve, TargetBelowFloorUnreachable) {
  const LossCurve curve(10.0, 0.7, 0.2);
  EXPECT_TRUE(std::isinf(curve.IterationsToTarget(0.1)));
  EXPECT_TRUE(std::isinf(curve.IterationsToTarget(0.2)));
}

TEST(LossCurve, TargetAlreadyMetIsZero) {
  const LossCurve curve(10.0, 0.7, 0.0);
  EXPECT_DOUBLE_EQ(curve.IterationsToTarget(100.0), 0.0);
}

TEST(LossCurve, LossDecreasePositiveForward) {
  const LossCurve curve(10.0, 0.5, 0.0);
  EXPECT_GT(curve.LossDecrease(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.LossDecrease(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.LossDecrease(100.0, 50.0), 0.0);
}

TEST(LossCurve, NegativeIterationClamped) {
  const LossCurve curve(10.0, 0.5, 0.0);
  EXPECT_DOUBLE_EQ(curve.LossAt(-5.0), curve.LossAt(0.0));
}

TEST(LossCurve, InvalidParamsThrow) {
  EXPECT_THROW(LossCurve(0.0, 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(LossCurve(1.0, -0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(LossCurve(1.0, 0.5, -1.0), std::invalid_argument);
}

TEST(JobSpec, MaxParallelismAndWorkPerIteration) {
  JobSpec job;
  job.num_tasks = 3;
  job.gpus_per_task = 4;
  job.total_work = 120.0;
  job.total_iterations = 600.0;
  EXPECT_EQ(job.MaxParallelism(), 12);
  EXPECT_DOUBLE_EQ(job.WorkPerIteration(), 0.2);
}

TEST(AppSpec, IdealRunningTimeIsFastestJob) {
  AppSpec app;
  JobSpec a;
  a.total_work = 100.0;
  a.num_tasks = 1;
  a.gpus_per_task = 4;  // 100/4 = 25
  JobSpec b;
  b.total_work = 40.0;
  b.num_tasks = 1;
  b.gpus_per_task = 2;  // 40/2 = 20 <- min
  app.jobs = {a, b};
  EXPECT_DOUBLE_EQ(app.IdealRunningTime(), 20.0);
  EXPECT_EQ(app.MaxJobParallelism(), 4);
}

TEST(TraceGenerator, DeterministicAcrossRuns) {
  TraceConfig cfg;
  cfg.seed = 77;
  cfg.num_apps = 20;
  auto a = TraceGenerator(cfg).Generate();
  auto b = TraceGenerator(cfg).Generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    ASSERT_EQ(a[i].jobs.size(), b[i].jobs.size());
    for (std::size_t j = 0; j < a[i].jobs.size(); ++j) {
      EXPECT_EQ(a[i].jobs[j].total_work, b[i].jobs[j].total_work);
      EXPECT_EQ(a[i].jobs[j].gpus_per_task, b[i].jobs[j].gpus_per_task);
    }
  }
}

TEST(TraceGenerator, DifferentSeedsProduceDifferentTraces) {
  TraceConfig cfg;
  cfg.num_apps = 10;
  cfg.seed = 1;
  auto a = TraceGenerator(cfg).Generate();
  cfg.seed = 2;
  auto b = TraceGenerator(cfg).Generate();
  bool any_diff = false;
  for (std::size_t i = 1; i < a.size(); ++i)
    if (a[i].arrival != b[i].arrival) any_diff = true;
  EXPECT_TRUE(any_diff);
}

class TraceMarginalsTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<AppSpec> GenerateBig() {
    TraceConfig cfg;
    cfg.seed = GetParam();
    cfg.num_apps = 400;
    return TraceGenerator(cfg).Generate();
  }
};

TEST_P(TraceMarginalsTest, JobsPerAppInPublishedRange) {
  const auto apps = GenerateBig();
  std::vector<double> counts;
  for (const auto& app : apps) {
    EXPECT_GE(app.jobs.size(), 1u);
    EXPECT_LE(app.jobs.size(), 98u);
    counts.push_back(static_cast<double>(app.jobs.size()));
  }
  // Paper: median 23.
  EXPECT_NEAR(Percentile(counts, 50.0), 23.0, 6.0);
}

TEST_P(TraceMarginalsTest, TaskDurationMediansMatchTrace) {
  const auto apps = GenerateBig();
  // Recover the "duration at max parallelism" = total_work / max_parallelism.
  std::vector<double> durations;
  for (const auto& app : apps)
    for (const auto& job : app.jobs)
      durations.push_back(job.total_work / job.MaxParallelism());
  // Mixture of short (median 59) and long (median 123) -> overall median
  // close to the short median.
  const double med = Percentile(durations, 50.0);
  EXPECT_GT(med, 45.0);
  EXPECT_LT(med, 90.0);
}

TEST_P(TraceMarginalsTest, GpuDemandMixIsMostlyFour) {
  const auto apps = GenerateBig();
  int four = 0, two = 0, other = 0;
  for (const auto& app : apps)
    for (const auto& job : app.jobs) {
      if (job.gpus_per_task == 4) ++four;
      else if (job.gpus_per_task == 2) ++two;
      else ++other;
    }
  EXPECT_EQ(other, 0);
  EXPECT_GT(four, two);  // "most tasks require 4 GPUs"
}

TEST_P(TraceMarginalsTest, ArrivalsArePoissonWithConfiguredMean) {
  const auto apps = GenerateBig();
  std::vector<double> gaps;
  for (std::size_t i = 1; i < apps.size(); ++i)
    gaps.push_back(apps[i].arrival - apps[i - 1].arrival);
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 20.0, 3.0);
  for (double g : gaps) EXPECT_GE(g, 0.0);
}

TEST_P(TraceMarginalsTest, SensitiveFractionNearForty) {
  const auto apps = GenerateBig();
  int sensitive = 0;
  for (const auto& app : apps)
    if (app.jobs.front().model.network_intensive) ++sensitive;
  const double frac = static_cast<double>(sensitive) / apps.size();
  EXPECT_NEAR(frac, 0.4, 0.08);
}

TEST_P(TraceMarginalsTest, LossCurvesReachTargetAtTotalIterations) {
  const auto apps = GenerateBig();
  for (const auto& app : apps)
    for (const auto& job : app.jobs) {
      const double it = job.loss.IterationsToTarget(app.target_loss);
      ASSERT_TRUE(std::isfinite(it));
      EXPECT_NEAR(it, job.total_iterations, 1e-6 * job.total_iterations + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceMarginalsTest,
                         ::testing::Values(1u, 42u, 1234u));

TEST(TraceGenerator, ContentionFactorCompressesArrivals) {
  TraceConfig cfg;
  cfg.num_apps = 200;
  cfg.seed = 5;
  cfg.contention_factor = 4.0;
  const auto apps = TraceGenerator(cfg).Generate();
  const double span = apps.back().arrival;
  cfg.contention_factor = 1.0;
  const auto base = TraceGenerator(cfg).Generate();
  EXPECT_LT(span, base.back().arrival / 2.0);
}

TEST(TraceGenerator, DurationScaleShrinksWork) {
  TraceConfig cfg;
  cfg.num_apps = 50;
  cfg.seed = 5;
  const auto base = TraceGenerator(cfg).Generate();
  cfg.duration_scale = 0.2;
  const auto scaled = TraceGenerator(cfg).Generate();
  double base_work = 0.0, scaled_work = 0.0;
  for (const auto& a : base) base_work += TotalWork(a);
  for (const auto& a : scaled) scaled_work += TotalWork(a);
  EXPECT_NEAR(scaled_work / base_work, 0.2, 0.02);
}

TEST(TraceGenerator, SingleJobAppsUseNoTuner) {
  TraceConfig cfg;
  cfg.num_apps = 100;
  cfg.jobs_per_app_median = 1.0;
  cfg.jobs_per_app_sigma = 0.0;
  cfg.jobs_per_app_max = 1;
  const auto apps = TraceGenerator(cfg).Generate();
  for (const auto& app : apps) {
    ASSERT_EQ(app.jobs.size(), 1u);
    EXPECT_EQ(app.tuner, TunerKind::kNone);
  }
}


TEST(TraceIo, RoundTripPreservesEverySpecField) {
  TraceConfig cfg;
  cfg.seed = 101;
  cfg.num_apps = 25;
  const auto apps = TraceGenerator(cfg).Generate();

  std::stringstream ss;
  WriteTraceCsv(ss, apps);
  const auto loaded = ReadTraceCsv(ss);

  ASSERT_EQ(loaded.size(), apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(loaded[i].name, apps[i].name);
    EXPECT_DOUBLE_EQ(loaded[i].arrival, apps[i].arrival);
    EXPECT_EQ(loaded[i].tuner, apps[i].tuner);
    EXPECT_DOUBLE_EQ(loaded[i].target_loss, apps[i].target_loss);
    ASSERT_EQ(loaded[i].jobs.size(), apps[i].jobs.size());
    for (std::size_t j = 0; j < apps[i].jobs.size(); ++j) {
      const JobSpec& a = apps[i].jobs[j];
      const JobSpec& b = loaded[i].jobs[j];
      EXPECT_EQ(b.num_tasks, a.num_tasks);
      EXPECT_EQ(b.gpus_per_task, a.gpus_per_task);
      EXPECT_DOUBLE_EQ(b.total_work, a.total_work);
      EXPECT_DOUBLE_EQ(b.total_iterations, a.total_iterations);
      EXPECT_DOUBLE_EQ(b.loss.scale(), a.loss.scale());
      EXPECT_DOUBLE_EQ(b.loss.decay(), a.loss.decay());
      EXPECT_EQ(b.model.name, a.model.name);
      EXPECT_EQ(b.max_span, a.max_span);
    }
  }
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(ReadTraceCsv(empty), std::runtime_error);

  std::stringstream bad_header("not,a,header\n");
  EXPECT_THROW(ReadTraceCsv(bad_header), std::runtime_error);

  TraceConfig cfg;
  cfg.num_apps = 2;
  const auto apps = TraceGenerator(cfg).Generate();
  std::stringstream good;
  WriteTraceCsv(good, apps);
  std::string text = good.str();

  // Truncate a row to fewer than 14 fields.
  std::stringstream truncated(text.substr(0, text.find('\n') + 1) +
                              "0,app-0,1.0,hyperband\n");
  EXPECT_THROW(ReadTraceCsv(truncated), std::runtime_error);

  // Non-contiguous app index.
  std::stringstream skipped(
      text.substr(0, text.find('\n') + 1) +
      "5,app-5,1.0,none,0.1,1,4,10,100,1.0,0.5,0,VGG16,cross-rack\n");
  EXPECT_THROW(ReadTraceCsv(skipped), std::runtime_error);

  // Unknown model name.
  std::stringstream bad_model(
      text.substr(0, text.find('\n') + 1) +
      "0,app-0,1.0,none,0.1,1,4,10,100,1.0,0.5,0,GPT9,cross-rack\n");
  EXPECT_THROW(ReadTraceCsv(bad_model), std::runtime_error);
}

TEST(TraceIo, EnumParsersRejectGarbage) {
  EXPECT_THROW(TunerKindFromString("magic"), std::runtime_error);
  EXPECT_THROW(LocalityLevelFromString("galaxy"), std::runtime_error);
  EXPECT_EQ(TunerKindFromString("hyperdrive"), TunerKind::kHyperDrive);
  EXPECT_EQ(LocalityLevelFromString("machine"), LocalityLevel::kMachine);
}

TEST(TraceIo, LoadedTraceReplaysIdentically) {
  TraceConfig cfg;
  cfg.seed = 55;
  cfg.num_apps = 10;
  const auto apps = TraceGenerator(cfg).Generate();
  std::stringstream ss;
  WriteTraceCsv(ss, apps);
  const auto loaded = ReadTraceCsv(ss);
  // Same specs in, same sim out — exercised in integration tests via
  // RunExperimentWithApps determinism; here just sanity-check total work.
  double a = 0.0, b = 0.0;
  for (const auto& app : apps) a += TotalWork(app);
  for (const auto& app : loaded) b += TotalWork(app);
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace themis

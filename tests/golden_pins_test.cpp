// Golden pins: a content hash of the full ExperimentResult for every policy
// on one contended workload, run preloaded, streamed and under machine
// failures. Themis is pinned under three more settings that move its filter
// step: noisy estimation (theta = 0.15), heterogeneous GPU generations, and
// the short-app tie-break turned off. It is pinned under two that move the
// event loop: a max_time cutoff at 120 minutes that leaves apps unfinished,
// and a 7-minute metrics tick.
//
// The equivalence suites compare two paths inside one build (streamed vs
// preloaded, parallel vs serial), so a change that moves both sides of a
// comparison the same way passes them all. These pins compare against
// constants instead, which makes bit-identity a property of the tree's
// history: a refactor that claims "outputs unchanged" must leave every hash
// below as it is. The audited runs also check the simulator's incremental
// walks after every round (AuditSimulatorWalks), on every platform.
//
// The constants were captured with GCC on x86-64 (the CI platform), where
// Debug and Release builds produce identical floats. Other platforms may
// contract floating-point expressions differently, so the comparison is
// skipped there rather than failed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "round_audit.h"
#include "sim/experiment.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

/// FNV-1a over the bit patterns of every value folded in.
class ResultHash {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(long long v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(int v) { Add(static_cast<std::uint64_t>(static_cast<long long>(v))); }
  void Add(const std::vector<double>& xs) {
    Add(static_cast<std::uint64_t>(xs.size()));
    for (double x : xs) Add(x);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::uint64_t HashResult(const ExperimentResult& r) {
  ResultHash h;
  h.Add(r.rhos);
  h.Add(r.completion_times);
  h.Add(r.placement_scores);
  h.Add(static_cast<std::uint64_t>(r.finished_apps.size()));
  for (AppId id : r.finished_apps) h.Add(static_cast<std::uint64_t>(id));
  h.Add(static_cast<std::uint64_t>(r.timeline.size()));
  for (const AllocationSample& s : r.timeline) {
    h.Add(s.time);
    h.Add(static_cast<std::uint64_t>(s.app));
    h.Add(s.gpus);
  }
  h.Add(r.scheduling_passes);
  h.Add(r.events_processed);
  h.Add(r.rounds_executed);
  h.Add(r.sim_time_advances);
  h.Add(r.gpu_time);
  h.Add(r.peak_contention);
  h.Add(r.unfinished_apps);
  h.Add(r.machine_failures);
  h.Add(static_cast<std::uint64_t>(r.total_apps));
  h.Add(static_cast<std::uint64_t>(r.peak_live_apps));
  return h.value();
}

// event_core_test's contended mixed workload: multi-job HyperBand apps,
// overlapping lifetimes, restarts.
ExperimentConfig ContendedConfig(PolicyKind policy) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Uniform(2, 4, 4, 2);
  config.policy = policy;
  config.trace.seed = 33;
  config.trace.num_apps = 25;
  config.trace.jobs_per_app_median = 6.0;
  config.trace.jobs_per_app_max = 12;
  config.sim.seed = 33;
  return config;
}

enum class Mode {
  kPreloaded,
  kStreamed,
  kFailures,
  kNoisy,
  kGenerations,
  kTiebreakOff,
  kCutoff,
  kMetricsTick
};

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPreloaded: return "preloaded";
    case Mode::kStreamed: return "streamed";
    case Mode::kFailures: return "failures";
    case Mode::kNoisy: return "noisy";
    case Mode::kGenerations: return "generations";
    case Mode::kTiebreakOff: return "tiebreak_off";
    case Mode::kCutoff: return "cutoff";
    case Mode::kMetricsTick: return "metrics_tick";
  }
  return "?";
}

ExperimentConfig ModeConfig(PolicyKind policy, Mode mode) {
  ExperimentConfig config = ContendedConfig(policy);
  switch (mode) {
    case Mode::kFailures:
      config.sim.machine_mtbf_minutes = 300.0;
      config.sim.machine_repair_minutes = 45.0;
      break;
    case Mode::kNoisy:
      config.sim.estimator.mode = EstimationMode::kNoisy;
      config.sim.estimator.theta = 0.15;
      break;
    case Mode::kGenerations:
      ApplyGenerationMix(config.cluster,
                         ParseGenerationMix("K80:0.25,V100:0.5,A100:0.25"));
      break;
    case Mode::kTiebreakOff:
      config.themis.short_app_tiebreak = false;
      break;
    case Mode::kCutoff:
      config.sim.max_time = 120.0;
      break;
    case Mode::kMetricsTick:
      config.sim.metrics_tick_minutes = 7.0;
      break;
    default:
      break;
  }
  return config;
}

ExperimentResult RunMode(PolicyKind policy, Mode mode) {
  const ExperimentConfig config = ModeConfig(policy, mode);
  if (mode == Mode::kStreamed)
    return RunStreamingExperiment(
        config, std::make_unique<VectorTraceReader>(
                    TraceGenerator(config.trace).Generate()));
  return RunExperiment(config);
}

struct Pin {
  PolicyKind policy;
  Mode mode;
  std::uint64_t hash;
};

// clang-format off
const Pin kPins[] = {
    {PolicyKind::kThemis,   Mode::kPreloaded, 0x23b987fc5c15a31full},
    {PolicyKind::kGandiva,  Mode::kPreloaded, 0x828eea0f7e64022cull},
    {PolicyKind::kTiresias, Mode::kPreloaded, 0x9283ca0a8db948d0ull},
    {PolicyKind::kSlaq,     Mode::kPreloaded, 0xdf79f30746ccdd05ull},
    {PolicyKind::kDrf,      Mode::kPreloaded, 0xd3e1eb633c91babdull},
    {PolicyKind::kThemis,   Mode::kStreamed,  0x825634ed140af341ull},
    {PolicyKind::kGandiva,  Mode::kStreamed,  0x3c6f9445bfffbef2ull},
    {PolicyKind::kTiresias, Mode::kStreamed,  0xffc7ae94ff928523ull},
    {PolicyKind::kSlaq,     Mode::kStreamed,  0x1545b961b425c24full},
    {PolicyKind::kDrf,      Mode::kStreamed,  0xc53ab3c982adce8cull},
    {PolicyKind::kThemis,   Mode::kFailures,  0x13f06f5eebc2e78cull},
    {PolicyKind::kGandiva,  Mode::kFailures,  0x136c638ff7351ffaull},
    {PolicyKind::kTiresias, Mode::kFailures,  0xb06434c280f491bdull},
    {PolicyKind::kSlaq,     Mode::kFailures,  0xbc0c5c52977677acull},
    {PolicyKind::kDrf,      Mode::kFailures,  0x00a58c10022e7236ull},
    {PolicyKind::kThemis,   Mode::kNoisy,       0xf7a06d2847bdecfdull},
    {PolicyKind::kThemis,   Mode::kGenerations, 0x37f431655e09629full},
    {PolicyKind::kThemis,   Mode::kTiebreakOff, 0xc346ee9600b3a643ull},
    {PolicyKind::kThemis,   Mode::kCutoff,      0xf9ed872348fc9485ull},
    {PolicyKind::kThemis,   Mode::kMetricsTick, 0x5c7c481747dec272ull},
};
// clang-format on

std::string PinName(const ::testing::TestParamInfo<Pin>& info) {
  return std::string(ToString(info.param.policy)) + "_" +
         ModeName(info.param.mode);
}

class GoldenPins : public ::testing::TestWithParam<Pin> {};

TEST_P(GoldenPins, ResultHashIsPinned) {
  const Pin& pin = GetParam();
  const ExperimentResult result = RunMode(pin.policy, pin.mode);
  if (pin.mode == Mode::kCutoff) {
    EXPECT_GT(result.unfinished_apps, 0);
  } else {
    EXPECT_EQ(result.unfinished_apps, 0);
  }
  if (pin.mode == Mode::kFailures) {
    EXPECT_GT(result.machine_failures, 0);
  }
  const std::uint64_t hash = HashResult(result);
#if defined(__x86_64__)
  EXPECT_EQ(hash, pin.hash) << std::hex << "0x" << hash;
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

// The same runs with the Simulator driven directly, auditing the round
// state and the simulator's walks after every round: the audits must hold
// throughout and the result must still hash to the pin.
ExperimentResult RunModeAudited(PolicyKind policy, Mode mode) {
  ExperimentConfig config = ModeConfig(policy, mode);
  std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();
  std::unique_ptr<Simulator> sim;
  if (mode == Mode::kStreamed) {
    config.sim.retire_finished_apps = true;
    sim = std::make_unique<Simulator>(
        config.cluster, std::make_unique<VectorTraceReader>(std::move(apps)),
        MakePolicy(config.policy, config.themis), config.sim);
  } else {
    sim = std::make_unique<Simulator>(config.cluster, std::move(apps),
                                      MakePolicy(config.policy, config.themis),
                                      config.sim);
  }
  long long audited = 0;
  sim->set_round_observer([&](const ResourceOffer&, const GrantSet&) {
    AuditRoundCore(sim->round_core());
    AuditSimulatorWalks(sim->round_core());
    ++audited;
  });
  ExperimentResult result = SummarizeRun(config, sim->Run());
  EXPECT_GT(audited, 0);
  return result;
}

TEST_P(GoldenPins, AuditedRunsHoldInvariantsAndMatchPin) {
  const Pin& pin = GetParam();
  const std::uint64_t hash = HashResult(RunModeAudited(pin.policy, pin.mode));
#if defined(__x86_64__)
  EXPECT_EQ(hash, pin.hash) << std::hex << "0x" << hash;
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

INSTANTIATE_TEST_SUITE_P(ContendedConfig, GoldenPins,
                         ::testing::ValuesIn(kPins), PinName);

}  // namespace
}  // namespace themis

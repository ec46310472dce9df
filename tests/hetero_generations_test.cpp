// Tests for the heterogeneous GPU-generation resource model.
//
//   - Generation table and mix parsing (cluster/topology.h).
//   - Topology speed resolution and the fastest-first pick (PickFastest).
//   - The min-speed gang rule: one slow straggler GPU drags the whole gang
//     (placement/placement_model.h, workload/job_spec.h).
//   - T_ID on a mixed cluster assumes the fastest generation, so rho prices
//     effective GPU-hours.
//   - Property: mixed-generation scheduling never grants a gang whose
//     EffectiveJobRate is 0, for all five policies.
//   - Audited mixed-generation runs: the round-state and grant audits
//     (tests/round_audit.h) hold after every round, for all five policies.
//   - Homogeneous equivalence suite: with every speed pinned to 1.0, all
//     five policies reproduce the generation-unaware decisions bit-for-bit
//     (the guarantee that the resource-model refactor preserved today's
//     scheduling, checked by in-process fingerprints).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/federation.h"
#include "placement/placement_model.h"
#include "round_audit.h"
#include "sim/experiment.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// Generation table + mix parsing.
// ---------------------------------------------------------------------------

TEST(GpuGenerations, TableResolvesKnownNames) {
  EXPECT_DOUBLE_EQ(GpuGenerationByName("K80").speed, 1.0);
  EXPECT_DOUBLE_EQ(GpuGenerationByName("V100").speed, 3.0);
  EXPECT_DOUBLE_EQ(GpuGenerationByName("A100").speed, 6.0);
}

TEST(GpuGenerations, UnknownNameThrowsWithKnownList) {
  try {
    GpuGenerationByName("H100");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("H100"), std::string::npos) << what;
    EXPECT_NE(what.find("K80"), std::string::npos) << what;
    EXPECT_NE(what.find("A100"), std::string::npos) << what;
  }
}

TEST(GpuGenerations, ParseGenerationMixAcceptsValidSpecs) {
  const auto mix = ParseGenerationMix("K80:0.25,V100:0.5,A100:0.25");
  ASSERT_EQ(mix.size(), 3u);
  EXPECT_EQ(mix[0].generation.name, "K80");
  EXPECT_DOUBLE_EQ(mix[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(mix[2].generation.speed, 6.0);

  const auto solo = ParseGenerationMix("V100:1");
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_DOUBLE_EQ(solo[0].fraction, 1.0);
}

TEST(GpuGenerations, ParseGenerationMixRejectsMalformedSpecs) {
  EXPECT_THROW(ParseGenerationMix(""), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("K80"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("K80:"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix(":0.5"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("H100:1.0"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("K80:0.5,V100:0.6"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("K80:0.5"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("K80:nope"), std::invalid_argument);
  EXPECT_THROW(ParseGenerationMix("K80:-0.5,V100:1.5"), std::invalid_argument);
}

TEST(GpuGenerations, ApplyGenerationMixAssignsByCumulativeFraction) {
  ClusterSpec spec = ClusterSpec::Uniform(2, 4, 4, 2);  // 8 machines
  ApplyGenerationMix(spec, ParseGenerationMix("K80:0.25,V100:0.5,A100:0.25"));
  std::vector<std::string> names;
  for (const RackSpec& rack : spec.racks)
    for (const MachineSpec& m : rack.machines) names.push_back(m.generation.name);
  EXPECT_EQ(names, (std::vector<std::string>{"K80", "K80", "V100", "V100",
                                             "V100", "V100", "A100", "A100"}));
}

TEST(GpuGenerations, ApplyGenerationMixRejectsSharesRoundingToZeroMachines) {
  // 5% of 8 machines rounds to zero: the requested A100s would silently
  // vanish, so the mix is rejected instead.
  ClusterSpec spec = ClusterSpec::Uniform(2, 4, 4, 2);
  EXPECT_THROW(
      ApplyGenerationMix(spec, ParseGenerationMix("A100:0.05,K80:0.95")),
      std::invalid_argument);
  // The same mix fits a 32-machine cluster (32 * 0.05 rounds to 2).
  ClusterSpec big = ClusterSpec::Uniform(4, 8, 4, 2);
  ApplyGenerationMix(big, ParseGenerationMix("A100:0.05,K80:0.95"));
  EXPECT_EQ(big.racks[0].machines[0].generation.name, "A100");
  EXPECT_EQ(big.racks[0].machines[2].generation.name, "K80");
}

// ---------------------------------------------------------------------------
// Topology / Cluster speed resolution and the fastest-first pick.
// ---------------------------------------------------------------------------

/// 2 racks x 2 machines x 2 GPUs with machine speeds 1 / 3 / 6 / 1.
ClusterSpec SmallMixed() {
  ClusterSpec spec = ClusterSpec::Uniform(2, 2, 2, 2);
  spec.racks[0].machines[0].generation = GpuGenerationByName("K80");
  spec.racks[0].machines[1].generation = GpuGenerationByName("V100");
  spec.racks[1].machines[0].generation = GpuGenerationByName("A100");
  spec.racks[1].machines[1].generation = GpuGenerationByName("K80");
  return spec;
}

TEST(HeteroTopology, ResolvesPerMachineAndPerGpuSpeeds) {
  const Topology topo(SmallMixed());
  EXPECT_FALSE(topo.uniform_speed());
  EXPECT_DOUBLE_EQ(topo.max_speed(), 6.0);
  EXPECT_DOUBLE_EQ(topo.machine_speed(1), 3.0);
  EXPECT_DOUBLE_EQ(topo.gpu_speed(4), 6.0);  // machine 2's first GPU
  EXPECT_EQ(topo.machine_generation(2).name, "A100");
  // Fastest first, ties ascending machine id.
  EXPECT_EQ(topo.machines_by_speed(),
            (std::vector<MachineId>{2, 1, 0, 3}));
  EXPECT_DOUBLE_EQ(topo.SpeedSum({0, 2, 4}), 1.0 + 3.0 + 6.0);
  EXPECT_DOUBLE_EQ(topo.MinSpeed({2, 4}), 3.0);
  EXPECT_DOUBLE_EQ(topo.MinSpeed({}), 1.0);
  EXPECT_DOUBLE_EQ(Topology(ClusterSpec::Uniform(1, 2, 2, 2)).max_speed(), 1.0);
  EXPECT_TRUE(Topology(ClusterSpec::Uniform(1, 2, 2, 2)).uniform_speed());
}

TEST(HeteroTopology, RejectsNonPositiveSpeed) {
  ClusterSpec spec = ClusterSpec::Uniform(1, 1, 2, 2);
  spec.racks[0].machines[0].generation = {"broken", 0.0};
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
  spec.racks[0].machines[0].generation = {"broken", -1.0};
  EXPECT_THROW(Topology{spec}, std::invalid_argument);
}

TEST(HeteroTopology, MixedPresetsKeepShapeAndAddSpeeds) {
  const ClusterSpec plain = ClusterSpec::Simulation256();
  const ClusterSpec mixed = ClusterSpec::Simulation256Mixed();
  EXPECT_EQ(mixed.TotalGpus(), plain.TotalGpus());
  EXPECT_EQ(mixed.TotalMachines(), plain.TotalMachines());
  EXPECT_GT(mixed.TotalEffectiveGpus(), plain.TotalEffectiveGpus());
  EXPECT_DOUBLE_EQ(plain.TotalEffectiveGpus(), 256.0);

  const ClusterSpec testbed = ClusterSpec::Testbed50Mixed();
  EXPECT_EQ(testbed.TotalGpus(), 50);
  for (const RackSpec& rack : testbed.racks)
    for (const MachineSpec& m : rack.machines)
      EXPECT_EQ(m.generation.name, m.num_gpus >= 4 ? "K80" : "M60");
}

TEST(HeteroPool, PickFastestTakesFastMachinesFirst) {
  const Topology topo(SmallMixed());
  GpuPool pool({0, 1, 2, 3, 4, 5, 6, 7}, topo);
  // Fastest-first: machine 2's GPUs (4,5), then 1's (2,3), then 0's, then 3's.
  EXPECT_EQ(PickFastest(8, pool), (std::vector<GpuId>{4, 5, 2, 3, 0, 1, 6, 7}));
  EXPECT_EQ(PickFastest(3, pool), (std::vector<GpuId>{4, 5, 2}));
  pool.Remove(4);
  EXPECT_EQ(PickFastest(3, pool), (std::vector<GpuId>{5, 2, 3}));
  EXPECT_EQ(PickFastest(99, pool).size(), 7u);
}

TEST(HeteroPool, PickFastestTakesThePrefixOnUniformSpeeds) {
  const Topology topo(ClusterSpec::Uniform(2, 4, 4, 2));
  const std::vector<GpuId> ids = {1, 2, 5, 9, 17, 30, 31};
  const GpuPool pool(ids, topo);
  for (int n : {0, 1, 3, 7, 12})
    EXPECT_EQ(PickFastest(n, pool),
              std::vector<GpuId>(ids.begin(),
                                 ids.begin() + std::min<int>(n, 7)))
        << n;
}

// ---------------------------------------------------------------------------
// Min-speed gang rule.
// ---------------------------------------------------------------------------

TEST(HeteroRates, StragglerGpuDragsTheGang) {
  const Topology topo(SmallMixed());
  const ModelProfile& model = ModelByName("ResNet50");
  // Whole gang on the A100 machine: 2 * S_slot * 6.
  EXPECT_DOUBLE_EQ(EffectiveRate(model, {4, 5}, topo),
                   2.0 * model.sensitivity.slot * 6.0);
  // A100 + K80 spans racks and paces on the K80: 2 * S_cross * 1.
  EXPECT_DOUBLE_EQ(EffectiveRate(model, {4, 0}, topo),
                   2.0 * model.sensitivity.cross_rack * 1.0);
  // V100 + A100: min is the V100.
  EXPECT_DOUBLE_EQ(EffectiveRate(model, {2, 4}, topo),
                   2.0 * model.sensitivity.cross_rack * 3.0);

  JobSpec job;
  job.model = model;
  job.max_span = LocalityLevel::kMachine;
  EXPECT_DOUBLE_EQ(EffectiveJobRate(job, {2, 4}, topo), 0.0);  // constraint
  EXPECT_DOUBLE_EQ(EffectiveJobRate(job, {4, 5}, topo),
                   2.0 * model.sensitivity.slot * 6.0);
}

TEST(HeteroRates, IdealTimeAssumesFastestGeneration) {
  AppSpec app;
  app.arrival = 0.0;
  app.target_loss = 0.1;
  JobSpec job;
  job.num_tasks = 1;
  job.gpus_per_task = 2;
  job.total_work = 60.0;
  job.model = ModelByName("ResNet50");
  job.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  app.jobs = {job};

  ClusterSpec fast = ClusterSpec::Uniform(1, 2, 2, 2);
  for (RackSpec& rack : fast.racks)
    for (MachineSpec& m : rack.machines)
      m.generation = GpuGenerationByName("A100");

  SimConfig cfg;
  cfg.lease_minutes = 5.0;
  Simulator slow_sim(ClusterSpec::Uniform(1, 2, 2, 2), {app},
                     MakePolicy(PolicyKind::kThemis), cfg);
  Simulator fast_sim(fast, {app}, MakePolicy(PolicyKind::kThemis), cfg);
  EXPECT_DOUBLE_EQ(slow_sim.apps()[0]->ideal_time, 30.0);
  EXPECT_DOUBLE_EQ(fast_sim.apps()[0]->ideal_time, 5.0);  // 30 / A100's 6x

  // The app really does finish ~6x sooner on the fast cluster, and rho stays
  // calibrated (>= ~1) because T_ID scaled with it.
  const SimResult slow = slow_sim.Run();
  const SimResult fast_run = fast_sim.Run();
  ASSERT_TRUE(slow.unfinished.empty());
  ASSERT_TRUE(fast_run.unfinished.empty());
  EXPECT_LT(fast_run.metrics.apps()[0].finish,
            slow.metrics.apps()[0].finish / 3.0);
  EXPECT_GE(fast_run.metrics.apps()[0].Rho(), 0.99);
}

// ---------------------------------------------------------------------------
// Property: no zero-rate gang is ever granted on a mixed cluster.
// ---------------------------------------------------------------------------

TEST(HeteroProperty, MixedGenerationGrantsAlwaysMakeProgress) {
  for (PolicyKind kind : {PolicyKind::kThemis, PolicyKind::kGandiva,
                          PolicyKind::kTiresias, PolicyKind::kSlaq,
                          PolicyKind::kDrf}) {
    ExperimentConfig config = SimScaleConfig(kind, 42, 25);
    config.trace.contention_factor = 2.0;
    TraceGenerator gen(config.trace);
    Simulator sim(ClusterSpec::Simulation256Mixed(), gen.Generate(),
                  MakePolicy(kind, config.themis), config.sim);
    long long grants_seen = 0;
    sim.set_round_observer([&](const ResourceOffer& offer,
                               const GrantSet& grants) {
      // The offer prices the pool: its speed vector matches the topology.
      ASSERT_EQ(offer.machine_speeds,
                sim.cluster().topology().machine_speeds());
      for (const Grant& g : grants.grants) {
        ++grants_seen;
        const JobState& job = sim.apps()[g.app]->jobs[g.job];
        // The job's post-grant gang, trimmed to whole task-gangs exactly as
        // progress accounting trims it, must run at a positive rate.
        const int usable =
            static_cast<int>(job.gpus.size()) -
            static_cast<int>(job.gpus.size()) % job.spec.gpus_per_task;
        ASSERT_GT(usable, 0)
            << ToString(kind) << ": granted app " << g.app << " job " << g.job
            << " holds no whole gang";
        std::vector<GpuId> used(job.gpus.begin(), job.gpus.begin() + usable);
        EXPECT_GT(EffectiveJobRate(job.spec, used,
                                   sim.cluster().topology()),
                  0.0)
            << ToString(kind) << ": zero-rate gang granted";
      }
    });
    const SimResult run = sim.Run();
    EXPECT_TRUE(run.unfinished.empty()) << ToString(kind);
    EXPECT_GT(grants_seen, 0) << ToString(kind);
  }
}

// The golden pins audit the mixed cluster for Themis only; every policy's
// rounds must keep leases, gangs and the RhoIndex in agreement, and grant
// within each machine's offered GPUs.
class MixedClusterAuditTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(MixedClusterAuditTest, RoundAuditsHoldAfterEveryRound) {
  const PolicyKind kind = GetParam();
  ExperimentConfig config = SimScaleConfig(kind, 42, 25);
  config.trace.contention_factor = 2.0;
  Simulator sim(ClusterSpec::Simulation256Mixed(),
                TraceGenerator(config.trace).Generate(),
                MakePolicy(kind, config.themis), config.sim);
  long long audited = 0;
  sim.set_round_observer([&](const ResourceOffer& offer,
                             const GrantSet& grants) {
    AuditRoundCore(sim.round_core());
    AuditRoundGrants(sim.round_core(), offer, grants);
    ++audited;
  });
  const SimResult run = sim.Run();
  EXPECT_TRUE(run.unfinished.empty());
  EXPECT_GT(audited, 0);
}

INSTANTIATE_TEST_SUITE_P(Policies, MixedClusterAuditTest,
                         ::testing::Values(PolicyKind::kThemis,
                                           PolicyKind::kGandiva,
                                           PolicyKind::kTiresias,
                                           PolicyKind::kSlaq,
                                           PolicyKind::kDrf),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// ---------------------------------------------------------------------------
// Homogeneous equivalence: speed 1.0 everywhere == generation-unaware runs.
// ---------------------------------------------------------------------------

struct RunFingerprint {
  std::vector<double> finish_times;
  std::vector<double> rhos;
  std::vector<double> attained;
  std::vector<int> final_holdings;
  int passes = 0;
  Time end_time = 0.0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint Fingerprint(const ClusterSpec& cluster,
                           const ExperimentConfig& config) {
  TraceGenerator gen(config.trace);
  Simulator sim(cluster, gen.Generate(),
                MakePolicy(config.policy, config.themis), config.sim);
  const SimResult run = sim.Run();
  RunFingerprint fp;
  fp.passes = run.scheduling_passes;
  fp.end_time = run.end_time;
  for (const auto& app : sim.apps()) {
    fp.finish_times.push_back(app->finish_time);
    fp.rhos.push_back(app->FinalRho());
    fp.attained.push_back(app->attained_service);
    fp.final_holdings.push_back(app->GpusHeld());
  }
  return fp;
}

TEST(HomogeneousEquivalence, NamedSpeedOneGenerationsChangeNothing) {
  // Every machine gets an explicitly *named* generation of speed 1.0 — the
  // whole generation dimension is exercised (topology speeds, offer speed
  // vectors, min-speed rates, speed-weighted service, fastest-first pools)
  // yet every policy must reproduce the generation-unaware decisions
  // bit-for-bit.
  ClusterSpec named = ClusterSpec::Simulation256();
  for (RackSpec& rack : named.racks)
    for (MachineSpec& m : rack.machines)
      m.generation = GpuGeneration{"speed-one", 1.0};

  for (PolicyKind kind : {PolicyKind::kThemis, PolicyKind::kGandiva,
                          PolicyKind::kTiresias, PolicyKind::kSlaq,
                          PolicyKind::kDrf}) {
    for (std::uint64_t seed : {42ULL, 7ULL}) {
      ExperimentConfig config = SimScaleConfig(kind, seed, 40);
      config.trace.contention_factor = 2.0;
      const RunFingerprint plain =
          Fingerprint(ClusterSpec::Simulation256(), config);
      const RunFingerprint speed_one = Fingerprint(named, config);
      EXPECT_EQ(plain, speed_one)
          << ToString(kind) << " seed " << seed
          << ": speed-1.0 generations perturbed the scheduling decisions";
    }
  }
}

TEST(HomogeneousEquivalence, FederationRoutingUnchangedAtSpeedOne) {
  ClusterSpec named = ClusterSpec::Uniform(4, 8, 4, 2);
  for (RackSpec& rack : named.racks)
    for (MachineSpec& m : rack.machines)
      m.generation = GpuGeneration{"speed-one", 1.0};

  ExperimentConfig config = SimScaleConfig(PolicyKind::kThemis, 42, 24);
  TraceGenerator gen(config.trace);
  const std::vector<AppSpec> apps = gen.Generate();
  const FederationRouting plain =
      ShardedArbiter(ClusterSpec::Uniform(4, 8, 4, 2), 4).Route(apps);
  const FederationRouting speed_one = ShardedArbiter(named, 4).Route(apps);
  EXPECT_EQ(plain.global_index, speed_one.global_index);
}

TEST(HeteroTrace, GenerationMixDoesNotTouchTraceGeneration) {
  // The trace is a function of TraceConfig alone: re-pricing the cluster's
  // generations must leave the generated workload byte-identical (the
  // "trace-gen stays seed-stable" contract of the scenario axis).
  TraceConfig config;
  config.seed = 1234;
  config.num_apps = 12;
  std::ostringstream a, b;
  WriteTraceCsv(a, TraceGenerator(config).Generate());
  WriteTraceCsv(b, TraceGenerator(config).Generate());
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace themis

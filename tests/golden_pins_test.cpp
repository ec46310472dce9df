// Golden pins: a content hash of the full ExperimentResult for every policy
// on one contended workload, run preloaded, streamed and under machine
// failures. Themis is pinned under three more settings that move its filter
// step: noisy estimation (theta = 0.15), heterogeneous GPU generations, and
// the short-app tie-break turned off. It is pinned under two that move the
// event loop: a max_time cutoff at 120 minutes that leaves apps unfinished,
// and a 7-minute metrics tick.
//
// A second pin hashes the Partial Allocation solver directly: every field
// of PartialAllocation's result over ~2000 seeded random auctions, at node
// budgets small enough to cut the branch-and-bound short. A solver rewrite
// must keep the search order, not just the optimum, to leave it unchanged.
//
// A third pin hashes the AGENT alone: CurrentRho, every PrepareBid row and
// its concrete GPUs, and DistributeToJobs, for seeded random apps under all
// three estimators on the uniform and mixed-generation 256-GPU clusters. A
// bid-kernel rewrite must keep the placement picks, the rho bits and the
// estimator call sequence (the noisy estimator's draws) to leave it
// unchanged.
//
// Two more pin the surfaces around the simulator: the in-process ARBITER
// core the daemon wraps (its GrantDigest after 30 rounds) and a 4-shard
// federation (its merged result), for every policy.
//
// The last set runs every policy on the 88-machine Simulation256 cluster.
// The pins above all use an 8-machine cluster, where a sort over machines
// never leaves libstdc++'s insertion-sort range (16 elements), so a stable
// sort swapped for an unstable one changes nothing there.
//
// The equivalence suites compare two paths inside one build (streamed vs
// preloaded, parallel vs serial), so a change that moves both sides of a
// comparison the same way passes them all. These pins compare against
// constants instead, which makes bit-identity a property of the tree's
// history: a refactor that claims "outputs unchanged" must leave every hash
// below as it is. The audited runs also check, after every round and on
// every platform, the round state (AuditRoundCore), the round's grants
// against its offer (AuditRoundGrants) and the simulator's incremental
// walks (AuditSimulatorWalks).
//
// The constants were captured with GCC on x86-64 (the CI platform), where
// Debug and Release builds produce identical floats. Other platforms may
// contract floating-point expressions differently, so the comparison is
// skipped there rather than failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "auction/partial_allocation.h"
#include "common/rng.h"
#include "core/agent.h"
#include "core/federation.h"
#include "round_audit.h"
#include "server/arbiter_core.h"
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
    {PolicyKind::kThemis,   Mode::kNoisy,       0x5fde5cf2b60284f4ull},
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
  sim->set_round_observer([&](const ResourceOffer& offer,
                              const GrantSet& grants) {
    AuditRoundCore(sim->round_core());
    AuditRoundGrants(sim->round_core(), offer, grants);
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

/// A random auction shaped like the simulator's: 1-12 machines with 0-4
/// free GPUs each, 1-24 bidders, up to 7 rows per table, each non-zero row
/// touching 1-3 machines. Bidder and row counts are skewed toward small
/// tables: an auction that exhausts the default budget costs 200k nodes per
/// re-solve, and uniform counts make hundreds of those (minutes under the
/// sanitizers) where ten already pin that path. Some rows repeat an earlier
/// row's value exactly, so tie-breaking is pinned too.
struct PaInstance {
  std::vector<int> offered;
  std::vector<BidTable> tables;
};

PaInstance RandomPaInstance(Rng& rng) {
  PaInstance inst;
  const int machines = rng.UniformInt(1, 12);
  for (int m = 0; m < machines; ++m)
    inst.offered.push_back(rng.UniformInt(0, 4));
  const int bidders = rng.UniformInt(1, rng.UniformInt(1, 24));
  for (int b = 0; b < bidders; ++b) {
    BidTable t;
    t.app = static_cast<AppId>(100 + b);
    const double rho0 = rng.Uniform(1.0, 40.0);
    BidRow zero;
    zero.gpus_per_machine.assign(machines, 0);
    zero.rho = rho0;
    t.rows.push_back(zero);
    const int rows = rng.UniformInt(0, rng.UniformInt(0, 6));
    for (int r = 0; r < rows; ++r) {
      BidRow row;
      row.gpus_per_machine.assign(machines, 0);
      const int touched = rng.UniformInt(1, std::min(3, machines));
      for (int k = 0; k < touched; ++k) {
        const int m = rng.UniformInt(0, machines - 1);
        if (inst.offered[m] > 0)
          row.gpus_per_machine[m] = rng.UniformInt(1, inst.offered[m]);
      }
      const int total = row.TotalGpus();
      row.rho = rng.UniformInt(0, 3) == 0
                    ? rho0 / (1.0 + total)  // equal totals tie exactly
                    : rho0 / (1.0 + total * rng.Uniform(0.2, 1.5));
      t.rows.push_back(row);
    }
    inst.tables.push_back(std::move(t));
  }
  return inst;
}

TEST(PaDigest, SolverOutputIsPinned) {
  const std::int64_t budgets[] = {0, 37, 500, PaConfig{}.max_nodes};
  Rng rng(20241017);
  ResultHash h;
  int cut_at_37 = 0;
  int cut_at_500 = 0;
  int cut_at_default = 0;
  for (int n = 0; n < 2000; ++n) {
    const PaInstance inst = RandomPaInstance(rng);
    std::vector<const BidTable*> bids;
    for (const BidTable& t : inst.tables) bids.push_back(&t);
    for (const std::int64_t budget : budgets) {
      for (const bool hidden : {true, false}) {
        PaConfig cfg;
        cfg.max_nodes = budget;
        cfg.hidden_payments = hidden;
        const PaResult r = PartialAllocation(bids, inst.offered, cfg);
        for (const PaWinner& w : r.winners) {
          h.Add(static_cast<std::uint64_t>(w.app));
          h.Add(w.row);
          h.Add(w.c);
          for (int g : w.granted) h.Add(g);
        }
        for (int g : r.leftover) h.Add(g);
        h.Add(r.log_welfare);
        h.Add(static_cast<std::uint64_t>(r.exact));
        if (!r.exact && budget == 37) ++cut_at_37;
        if (!r.exact && budget == 500) ++cut_at_500;
        if (!r.exact && budget == PaConfig{}.max_nodes) ++cut_at_default;
      }
    }
  }
  // The budget-cut path must really be pinned, not just the exact one.
  EXPECT_GT(cut_at_37, 0);
  EXPECT_GT(cut_at_500, 0);
  EXPECT_GT(cut_at_default, 0);
#if defined(__x86_64__)
  EXPECT_EQ(h.value(), 0xff55a2a697ff2917ull) << std::hex << "0x" << h.value();
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

/// A random app for the bid digest: 1-5 jobs drawn from the trace
/// generator, each re-shaped to a random gang size (1, 2 or 4), task count
/// and placement constraint, with random progress, some jobs killed or
/// finished, a tuner cap below the job's maximum, and gangs partly held on
/// GPUs taken from the front of `held_pool`.
std::unique_ptr<AppState> RandomBidApp(Rng& rng, AppId id, Time now,
                                       std::vector<GpuId>& held_pool) {
  TraceConfig trace;
  trace.seed = rng.NextU64();
  trace.num_apps = 1;
  trace.jobs_per_app_median = 2.0;
  trace.jobs_per_app_max = 5;
  const AppSpec spec = TraceGenerator(trace).Generate().front();
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec = spec;
  app->spec.arrival = rng.Uniform(0.0, now);
  app->arrived = true;
  const int gangs[] = {1, 2, 4};
  const LocalityLevel spans[] = {LocalityLevel::kSlot, LocalityLevel::kMachine,
                                 LocalityLevel::kRack,
                                 LocalityLevel::kCrossRack};
  JobId next = 0;
  for (JobSpec& js : app->spec.jobs) {
    js.gpus_per_task = gangs[rng.UniformInt(0, 2)];
    js.num_tasks = rng.UniformInt(1, 4);
    js.max_span = rng.UniformInt(0, 2) == 0 ? spans[rng.UniformInt(0, 3)]
                                            : LocalityLevel::kCrossRack;
    JobState job;
    job.id = next++;
    job.spec = js;
    job.done = js.total_work * rng.Uniform(0.0, 0.9);
    job.parallelism_cap =
        js.gpus_per_task * rng.UniformInt(1, js.num_tasks);
    const int fate = rng.UniformInt(0, 9);
    if (fate == 0) job.alive = false;
    if (fate == 1) job.finished = true;
    // Hold 0..cap+1 GPUs: whole gangs, partial gangs, and over the cap.
    const int held = rng.UniformInt(0, 2) == 0
                         ? 0
                         : rng.UniformInt(0, job.parallelism_cap + 1);
    for (int k = 0; k < held && !held_pool.empty(); ++k) {
      job.gpus.push_back(held_pool.back());
      held_pool.pop_back();
    }
    app->jobs.push_back(std::move(job));
  }
  app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
  return app;
}

TEST(BidDigest, AgentOutputIsPinned) {
  Rng rng(20261017);
  ResultHash h;
  int rows = 0;
  int distributed = 0;
  for (const bool mixed : {false, true}) {
    const Topology topo(mixed ? ClusterSpec::Simulation256Mixed()
                              : ClusterSpec::Simulation256());
    for (const EstimationMode mode :
         {EstimationMode::kClairvoyant, EstimationMode::kNoisy,
          EstimationMode::kCurveFit}) {
      EstimatorConfig est_cfg;
      est_cfg.mode = mode;
      est_cfg.theta = mode == EstimationMode::kNoisy ? 0.2 : 0.0;
      est_cfg.seed = 91;
      WorkEstimator est(est_cfg);
      for (int n = 0; n < 150; ++n) {
        // Held GPUs come from a shuffled cluster; the offer is a random
        // subset of the rest, ascending like a real offer or shuffled.
        std::vector<GpuId> all(topo.num_gpus());
        for (GpuId g = 0; g < static_cast<GpuId>(all.size()); ++g) all[g] = g;
        rng.Shuffle(all);
        const Time now = rng.Uniform(1.0, 500.0);
        const auto app = RandomBidApp(rng, static_cast<AppId>(n), now, all);
        std::vector<GpuId> offered;
        const double keep = rng.Uniform(0.02, 1.0);
        for (GpuId g : all)
          if (rng.NextDouble() < keep) offered.push_back(g);
        std::sort(offered.begin(), offered.end());
        if (rng.UniformInt(0, 3) == 0) rng.Shuffle(offered);
        Agent agent(&topo, &est, now);
        h.Add(agent.CurrentRho(*app));
        const AgentBid bid =
            agent.PrepareBid(*app, offered, rng.UniformInt(1, 8));
        h.Add(static_cast<std::uint64_t>(bid.table.rows.size()));
        for (std::size_t r = 0; r < bid.table.rows.size(); ++r) {
          for (int c : bid.table.rows[r].gpus_per_machine) h.Add(c);
          h.Add(bid.table.rows[r].rho);
          h.Add(static_cast<std::uint64_t>(bid.row_gpus[r].size()));
          for (GpuId g : bid.row_gpus[r]) h.Add(static_cast<std::uint64_t>(g));
        }
        rows += static_cast<int>(bid.table.rows.size()) - 1;
        // A grant shaped like step 5's: one row's GPUs, then other offered
        // GPUs in offer order.
        const std::vector<GpuId>& row =
            bid.row_gpus[rng.UniformInt(
                0, static_cast<int>(bid.row_gpus.size()) - 1)];
        std::vector<GpuId> granted = row;
        for (GpuId g : offered)
          if (rng.UniformInt(0, 2) == 0 &&
              std::find(row.begin(), row.end(), g) == row.end())
            granted.push_back(g);
        for (const JobAssignment& a : agent.DistributeToJobs(*app, granted)) {
          h.Add(a.job_index);
          h.Add(static_cast<std::uint64_t>(a.gpus.size()));
          for (GpuId g : a.gpus) h.Add(static_cast<std::uint64_t>(g));
          ++distributed;
        }
      }
    }
  }
  // The digest must cover real tables and real distributions.
  EXPECT_GT(rows, 1000);
  EXPECT_GT(distributed, 300);
#if defined(__x86_64__)
  EXPECT_EQ(h.value(), 0xdd8998c749fd618cull) << std::hex << "0x" << h.value();
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

// The in-process ARBITER core the daemon wraps, on daemon_test's small
// cluster and sample apps: the digest of its grant stream after a fixed
// number of rounds. LoopbackEquivalence checks the daemon against this core
// inside one build; this pins the core itself across commits.
struct DaemonPin {
  PolicyKind policy;
  std::uint64_t hash;
  long long grants;
  long long gpus;
};

// clang-format off
const DaemonPin kDaemonPins[] = {
    {PolicyKind::kThemis,   0x5a3f09cfc5938857ull,  77, 216},
    {PolicyKind::kGandiva,  0x3a3b15b034c2dd2cull, 144, 288},
    {PolicyKind::kTiresias, 0x87b138743f81d135ull,  93, 290},
    {PolicyKind::kSlaq,     0x5675b7d96ef2c4dfull,  77, 256},
    {PolicyKind::kDrf,      0x90cab5032eb12702ull,  85, 268},
};
// clang-format on

class DaemonDigest : public ::testing::TestWithParam<DaemonPin> {};

TEST_P(DaemonDigest, ArbiterCoreGrantStreamIsPinned) {
  const DaemonPin& pin = GetParam();
  server::ArbiterConfig config;
  config.cluster = ClusterSpec::Uniform(2, 4, 4, 2);  // 32 GPUs
  config.policy = pin.policy;
  TraceConfig trace;
  trace.num_apps = 12;
  trace.seed = 7;
  server::ArbiterCore core(config);
  for (const AppSpec& spec : TraceGenerator(trace).Generate())
    core.RegisterApp(spec);
  for (int round = 0; round < 30; ++round) core.RunOneRound();
  const net::GrantDigest& d = core.digest();
  EXPECT_GT(d.grants, 0);
#if defined(__x86_64__)
  EXPECT_EQ(d.hash, pin.hash) << std::hex << "0x" << d.hash;
  EXPECT_EQ(d.grants, pin.grants);
  EXPECT_EQ(d.gpus, pin.gpus);
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DaemonDigest,
                         ::testing::ValuesIn(kDaemonPins),
                         [](const auto& info) {
                           return std::string(ToString(info.param.policy));
                         });

// A 4-shard federation of the contended workload: the hash of the merged
// result, which stitches the shards' per-app vectors back into global
// order.
struct FederationPin {
  PolicyKind policy;
  std::uint64_t hash;
};

// clang-format off
const FederationPin kFederationPins[] = {
    {PolicyKind::kThemis,   0x7c9fdc538765f701ull},
    {PolicyKind::kGandiva,  0x60cf0cf2fc8f4e20ull},
    {PolicyKind::kTiresias, 0x68e4b15bd17623aaull},
    {PolicyKind::kSlaq,     0xfbe9597a3e1ab215ull},
    {PolicyKind::kDrf,      0x59dacc20c13ec6e1ull},
};
// clang-format on

class FederationPins : public ::testing::TestWithParam<FederationPin> {};

TEST_P(FederationPins, MergedResultHashIsPinned) {
  const FederationPin& pin = GetParam();
  const ExperimentConfig config = ContendedConfig(pin.policy);
  const FederationResult fed = ShardedArbiter(config.cluster, 4).Run(
      config, TraceGenerator(config.trace).Generate());
  EXPECT_EQ(fed.cross_shard_double_grants, 0);
  EXPECT_EQ(fed.merged.unfinished_apps, 0);
  const std::uint64_t hash = HashResult(fed.merged);
#if defined(__x86_64__)
  EXPECT_EQ(hash, pin.hash) << std::hex << "0x" << hash;
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

INSTANTIATE_TEST_SUITE_P(ContendedConfig, FederationPins,
                         ::testing::ValuesIn(kFederationPins),
                         [](const auto& info) {
                           return std::string(ToString(info.param.policy));
                         });

// Every policy on the 88-machine Simulation256 cluster: 64 of its machines
// share one speed, so the greedy baselines' speed-ordered picks sort far
// more than 16 equal keys each round.
ExperimentConfig LargeClusterConfig(PolicyKind policy) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Simulation256();
  config.policy = policy;
  config.trace.seed = 21;
  config.trace.num_apps = 120;
  config.trace.jobs_per_app_median = 6.0;
  config.trace.jobs_per_app_max = 12;
  config.trace.contention_factor = 4.0;
  config.sim.seed = 21;
  return config;
}

struct LargeClusterPin {
  PolicyKind policy;
  std::uint64_t hash;
};

// clang-format off
const LargeClusterPin kLargeClusterPins[] = {
    {PolicyKind::kThemis,   0x8b76a52c644d55b1ull},
    {PolicyKind::kGandiva,  0xe5448acb345246c3ull},
    {PolicyKind::kTiresias, 0xc71ae2db28e7b624ull},
    {PolicyKind::kSlaq,     0xf7ef3eece161cee9ull},
    {PolicyKind::kDrf,      0x8672f006cdcfbce1ull},
};
// clang-format on

class LargeClusterPins : public ::testing::TestWithParam<LargeClusterPin> {};

TEST_P(LargeClusterPins, ResultHashIsPinned) {
  const LargeClusterPin& pin = GetParam();
  const ExperimentResult result =
      RunExperiment(LargeClusterConfig(pin.policy));
  EXPECT_EQ(result.unfinished_apps, 0);
  const std::uint64_t hash = HashResult(result);
#if defined(__x86_64__)
  EXPECT_EQ(hash, pin.hash) << std::hex << "0x" << hash;
#else
  GTEST_SKIP() << "golden constants are pinned on x86-64 only";
#endif
}

INSTANTIATE_TEST_SUITE_P(Simulation256, LargeClusterPins,
                         ::testing::ValuesIn(kLargeClusterPins),
                         [](const auto& info) {
                           return std::string(ToString(info.param.policy));
                         });

}  // namespace
}  // namespace themis

// Sec. 8.3.2 "System Overheads" — microbenchmarks of the two scheduler-side
// costs the paper profiles:
//   - AGENT bid preparation: 29 ms median / 334 ms p95 in the paper (the
//     tail appears when many GPUs are up for auction)
//   - ARBITER partial allocation (Gurobi in the paper): 354 ms median /
//     1398 ms p95, growing with offered GPUs x bidding apps.
// Our from-scratch solver replaces Gurobi, so absolute numbers differ; the
// relevant reproduction is the scaling trend with offer size and bidder
// count, which google-benchmark's arguments sweep below.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.h"
#include "core/agent.h"
#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "round_harness.h"
#include "sim/experiment.h"

namespace themis {
namespace {

JobSpec BenchJobSpec(double work, int tasks, int gang) {
  JobSpec spec;
  spec.total_work = work;
  spec.total_iterations = 1000.0;
  spec.num_tasks = tasks;
  spec.gpus_per_task = gang;
  spec.model = ModelByName("VGG16");
  spec.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  return spec;
}

std::unique_ptr<AppState> BenchApp(AppId id, int jobs, int tasks_per_job) {
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.arrival = 0.0;
  app->spec.target_loss = 0.1;
  app->arrived = true;
  for (int j = 0; j < jobs; ++j) {
    app->spec.jobs.push_back(BenchJobSpec(60.0 + 10.0 * j, tasks_per_job, 4));
    JobState job;
    job.id = static_cast<JobId>(j);
    job.spec = app->spec.jobs.back();
    job.parallelism_cap = job.spec.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
  return app;
}

/// Bid preparation cost vs the number of GPUs up for auction.
void BM_AgentPrepareBid(benchmark::State& state) {
  const int offered_gpus = static_cast<int>(state.range(0));
  Cluster cluster(ClusterSpec::Simulation256());
  WorkEstimator est({});
  auto app = BenchApp(0, /*jobs=*/16, /*tasks_per_job=*/2);
  Agent agent(&cluster.topology(), &est, 10.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < static_cast<GpuId>(offered_gpus); ++g)
    offered.push_back(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.PrepareBid(*app, offered, 6));
  }
}
BENCHMARK(BM_AgentPrepareBid)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

/// Partial-allocation solve cost vs the number of bidding apps.
void BM_PartialAllocation(benchmark::State& state) {
  const int n_apps = static_cast<int>(state.range(0));
  Cluster cluster(ClusterSpec::Simulation256());
  WorkEstimator est({});
  std::vector<std::unique_ptr<AppState>> apps;
  std::vector<AgentBid> bids;
  Agent agent(&cluster.topology(), &est, 10.0);
  std::vector<GpuId> offered;
  for (GpuId g = 0; g < 128; ++g) offered.push_back(g);
  std::vector<int> offered_vec(cluster.num_machines(), 0);
  for (GpuId g : offered) ++offered_vec[cluster.topology().gpu(g).machine];
  for (int i = 0; i < n_apps; ++i) {
    apps.push_back(BenchApp(static_cast<AppId>(i), 8, 2));
    bids.push_back(agent.PrepareBid(*apps.back(), offered, 6));
  }
  std::vector<const BidTable*> tables;
  for (const AgentBid& bid : bids) tables.push_back(&bid.table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartialAllocation(tables, offered_vec));
  }
}
BENCHMARK(BM_PartialAllocation)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

/// One full ARBITER scheduling pass (probe + offer + auction + leftovers).
void BM_ThemisSchedulingPass(benchmark::State& state) {
  const int n_apps = static_cast<int>(state.range(0));
  WorkEstimator est({});
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(ClusterSpec::Simulation256());
    std::vector<std::unique_ptr<AppState>> apps;
    for (int i = 0; i < n_apps; ++i)
      apps.push_back(BenchApp(static_cast<AppId>(i), 8, 1));
    RoundHarness harness(cluster, est, rng);
    ThemisPolicy policy;
    state.ResumeTiming();
    harness.SyncAndRun(policy, apps);
  }
}
BENCHMARK(BM_ThemisSchedulingPass)->Arg(8)->Arg(16)->Arg(32);

/// End-to-end simulated macrobenchmark throughput (events/sec proxy).
void BM_FullSimulation(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = SimScaleConfig(PolicyKind::kThemis, 42, 40);
    benchmark::DoNotOptimize(RunExperiment(cfg));
  }
}
BENCHMARK(BM_FullSimulation)->Unit(benchmark::kMillisecond);

/// Indexed-cluster churn at large topologies: one scheduler-pass-shaped
/// round (bench::ClusterPassChurnRound — reclaim expired, rebuild free
/// views, probe every app's holdings, re-grant; the same round
/// bench_fig02_placement_throughput sweeps) on a cluster of `machines` x 8
/// GPUs. The scan-based cluster was O(gpus) per query; the indexed one is
/// O(result + log gpus).
void BM_ClusterPassChurn(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  Cluster cluster(bench::ChurnSweepTopology(machines, 8));
  const int apps = cluster.num_machines();
  bench::ChurnPrefill(cluster, apps);
  Time now = 20.0;
  for (auto _ : state) {
    now += 0.4;
    benchmark::DoNotOptimize(bench::ClusterPassChurnRound(cluster, apps, now));
  }
}
BENCHMARK(BM_ClusterPassChurn)->Arg(64)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// BM_FilterProbe: ARBITER filter+probe cost vs live-app population, one
// lease expiry per round — the daemon regime where a huge multi-tenant queue
// waits on a small cluster and each round reoffers a sliver. The recompute
// path rebuilds the RhoIndex from scratch every round — every live app
// reclassified and the gangless class re-sorted, O(n log n) like probing and
// sorting the whole population; the indexed path (core/rho_index.h) syncs
// only the apps the round touched, re-probes the ~cluster-capacity holders
// and merges them with the maintained gangless class, so rounds scale with
// the auction instead of the population. Both paths are driven through the
// same mutation sequence and their grant streams are fingerprint-checked
// for the bit-identicality the index contract promises.
// ---------------------------------------------------------------------------

std::unique_ptr<AppState> FilterProbeApp(AppId id) {
  // Two single-GPU-gang jobs per app so the one offered GPU is always
  // absorbed by the auction (leftovers then early-return on an empty pool
  // instead of walking the population in both paths).
  auto app = std::make_unique<AppState>();
  app->id = id;
  app->spec.arrival = 0.0;
  app->spec.target_loss = 0.1;
  app->arrived = true;
  for (int j = 0; j < 2; ++j) {
    app->spec.jobs.push_back(BenchJobSpec(60.0 + 10.0 * j, 2, 1));
    JobState job;
    job.id = static_cast<JobId>(j);
    job.spec = app->spec.jobs.back();
    job.parallelism_cap = job.spec.MaxParallelism();
    app->jobs.push_back(std::move(job));
  }
  app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
  return app;
}

struct FilterProbeWorld {
  Cluster cluster;
  WorkEstimator est;
  Rng rng;
  RoundHarness harness{cluster, est, rng};
  std::vector<std::unique_ptr<AppState>> apps;
  AppList list;
  bool rebuild_index;
  int victim_cursor = 0;

  FilterProbeWorld(int num_apps, bool indexed)
      : cluster(ClusterSpec::Uniform(2, 16, 4, 4)),  // 128 GPUs
        est({}),
        rng(42),
        rebuild_index(!indexed) {
    for (AppId id = 0; id < static_cast<AppId>(num_apps); ++id) {
      apps.push_back(FilterProbeApp(id));
      list.push_back(apps.back().get());
    }
    // Saturate the cluster: one single-GPU gang per low-id app. Every later
    // round frees exactly one lease and the auction re-grants it.
    for (GpuId g = 0; g < static_cast<GpuId>(cluster.num_gpus()); ++g) {
      cluster.Allocate(g, static_cast<AppId>(g), 0, 1.0e9);
      apps[g]->jobs[0].gpus = {g};
    }
    for (auto& app : apps) harness.Sync(*app);
  }

  /// One single-expiry round: the rotating victim's lease lapses, the round
  /// reoffers that one GPU, the worst-off app wins it back. Returns the
  /// round's grant stream folded into `fp` (paths must agree bit-for-bit).
  std::uint64_t Round(Time now, ThemisPolicy& policy, std::uint64_t fp,
                      int* granted_gpus) {
    AppState* victim = apps[victim_cursor].get();
    victim_cursor = (victim_cursor + 1) % static_cast<int>(cluster.num_gpus());
    JobState& vjob = victim->jobs[0];
    const GpuId g = vjob.gpus[0];
    cluster.Release(g);
    vjob.gpus.clear();
    if (rebuild_index) {
      // Forget every app's class (0 = absent) and index them all afresh.
      harness.rho_index() = RhoIndex{};
      for (auto& app : apps) {
        app->rho_index_class = 0;
        harness.Sync(*app);
      }
    } else {
      harness.Sync(*victim);
    }

    const GrantSet grants = harness.Run(policy, list, now, /*lease=*/1.0e9);
    for (const Grant& grant : grants.grants) {
      for (GpuId gg : grant.gpus) {
        fp = fp * 1000003ull + static_cast<std::uint64_t>(grant.app) * 131ull +
             static_cast<std::uint64_t>(grant.job) * 31ull +
             static_cast<std::uint64_t>(gg);
        ++*granted_gpus;
      }
    }
    return fp;
  }
};

struct FilterProbeRun {
  double rounds_per_sec = 0.0;
  std::uint64_t fingerprint = 0;
  int granted_gpus = 0;
};

FilterProbeRun MeasureFilterProbe(int num_apps, bool indexed, int rounds) {
  FilterProbeWorld world(num_apps, indexed);
  ThemisConfig cfg;
  // Daemon regime: offer each sliver to the single worst-off app, so round
  // cost is the filter itself, not the auction.
  cfg.fairness_knob = 1.0;
  ThemisPolicy policy(cfg);
  FilterProbeRun run;
  Time now = 1.0;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    run.fingerprint =
        world.Round(now, policy, run.fingerprint, &run.granted_gpus);
    now += 1.0;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  run.rounds_per_sec = static_cast<double>(rounds) / elapsed.count();
  return run;
}

int RunFilterProbeSweep() {
  std::vector<int> populations{1000, 5000, 10000, 20000};
  if (const char* only = std::getenv("THEMIS_BENCH_FILTER_APPS");
      only && *only)
    populations = {std::atoi(only)};

  bench::BenchReport report("overheads");
  report.Config("cluster_gpus", 128.0);
  report.Config("rounds_shape", "single-lease-expiry");
  std::printf("\nBM_FilterProbe: one-expiry rounds/sec vs live apps\n");
  std::printf("%8s %12s %12s %9s %10s\n", "apps", "recompute/s", "indexed/s",
              "speedup", "identical");
  bool ok = true;
  for (const int apps : populations) {
    const int rounds = std::max(64, 1500000 / apps);
    const FilterProbeRun recompute = MeasureFilterProbe(apps, false, rounds);
    const FilterProbeRun indexed = MeasureFilterProbe(apps, true, rounds);
    const bool identical =
        recompute.fingerprint == indexed.fingerprint &&
        recompute.granted_gpus == rounds && indexed.granted_gpus == rounds;
    const double speedup =
        indexed.rounds_per_sec / std::max(1e-9, recompute.rounds_per_sec);
    std::printf("%8d %12.0f %12.0f %8.1fx %10s\n", apps,
                recompute.rounds_per_sec, indexed.rounds_per_sec, speedup,
                identical ? "yes" : "NO");
    std::string tag = "@";
    tag += std::to_string(apps);
    tag += "apps";
    report.Metric("filter_rounds_per_sec_recompute" + tag,
                  recompute.rounds_per_sec);
    report.Metric("filter_rounds_per_sec_indexed" + tag,
                  indexed.rounds_per_sec);
    report.Metric("filter_speedup" + tag, speedup);
    report.Metric("filter_identical" + tag, identical ? 1.0 : 0.0);
    ok = ok && identical;
  }
  if (!report.Write()) ok = false;
  if (!ok) std::fprintf(stderr, "bench: filter-probe check FAILED\n");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// BM_ParallelRound: full-round throughput on a 4096-GPU cluster vs
// round_threads — the ThemisConfig::auction_threads fan-out of bid
// preparation and the rho probe over the shared pool (common/parallel.h).
// The world is a steady-state round: one single-job app per machine, each
// already holding one gang there, and the other half of the cluster
// (2048 GPUs) is up for auction. The holdings anchor each AGENT's bid on
// its own machine, so the 512 bid tables are disjoint — and because every
// app has exactly one job, each extra gang strictly improves the app's rho
// (SharedRunningTime is a min over jobs, so multi-job apps value gangs
// beyond their best job at zero). The PF optimum therefore grants every
// app its full row, the pool empties, and the leftover stage
// early-returns — round cost is then dominated by the embarrassingly
// parallel bid-prep phase the thread budget actually touches. Hidden
// payments are ablated (the PaConfig knob) and the branch-and-bound node
// budget kept small so the serial solver stage stays a sliver. The solver
// borrows the 512 bid tables in place, so a round copies none of them (the
// hidden-payments pass would otherwise copy 511 per bidder). Grant
// streams are fingerprint-checked across thread counts for the
// bit-identicality the pool contract promises; the process exits non-zero
// only on an identity failure (a correctness bug), never on a throughput
// number — wall-clock assertions live in CI, where the core count is known.
// ---------------------------------------------------------------------------

struct ParallelRoundRun {
  double rounds_per_sec = 0.0;
  std::uint64_t fingerprint = 0;
  int granted_gpus = 0;
};

ParallelRoundRun MeasureParallelRound(int machines, int apps_count,
                                      int round_threads, int rounds) {
  ThemisConfig cfg;
  cfg.fairness_knob = 0.0;  // every hungry app bids
  cfg.auction_threads = round_threads;
  cfg.pa.hidden_payments = false;
  cfg.pa.max_nodes = 4000;

  const int jobs_per_app = machines / apps_count;  // one job per owned machine

  ParallelRoundRun run;
  WorkEstimator est({});
  double total_s = 0.0;
  for (int r = 0; r < rounds; ++r) {
    // Fresh world per round (grants mutate app and cluster state), so every
    // round prices the identical offer and the per-round grant streams can
    // be folded into one cross-thread-count fingerprint. Setup is untimed.
    Cluster cluster(ClusterSpec::Uniform(/*racks=*/8, /*machines=*/machines / 8,
                                         /*gpus=*/8, /*slot=*/4));
    Rng rng(99);
    RoundHarness harness(cluster, est, rng);
    std::vector<std::unique_ptr<AppState>> apps;
    AppList list;
    for (int i = 0; i < apps_count; ++i) {
      apps.push_back(BenchApp(static_cast<AppId>(i), jobs_per_app,
                              /*tasks_per_job=*/2));
      list.push_back(apps.back().get());
    }
    // Steady state: job j of app a holds one 4-GPU gang on machine
    // a * jobs_per_app + j, leaving that machine's other 4 GPUs free. Each
    // job can absorb exactly one more gang (cap 8), so total unmet demand
    // equals the offered half of the cluster and the anchored bids
    // partition it machine by machine.
    for (int a = 0; a < apps_count; ++a)
      for (int j = 0; j < jobs_per_app; ++j) {
        const int m = a * jobs_per_app + j;
        std::vector<GpuId> gang;
        for (int k = 0; k < 4; ++k) gang.push_back(static_cast<GpuId>(8 * m + k));
        for (GpuId g : gang)
          cluster.Allocate(g, static_cast<AppId>(a), static_cast<JobId>(j),
                           /*expiry=*/1.0e9);
        apps[a]->jobs[j].gpus = gang;
      }
    for (auto& app : apps) harness.Sync(*app);
    ThemisPolicy policy(cfg);

    const auto start = std::chrono::steady_clock::now();
    const GrantSet grants = harness.Run(policy, list);
    total_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    for (const Grant& grant : grants.grants)
      for (GpuId g : grant.gpus) {
        run.fingerprint = run.fingerprint * 1000003ull +
                          static_cast<std::uint64_t>(grant.app) * 131ull +
                          static_cast<std::uint64_t>(grant.job) * 31ull +
                          static_cast<std::uint64_t>(g);
        ++run.granted_gpus;
      }
  }
  run.rounds_per_sec = static_cast<double>(rounds) / std::max(1e-9, total_s);
  return run;
}

int RunParallelRoundSweep() {
  int machines = 512;  // x8 GPUs = the 4096-GPU cluster
  if (const char* env = std::getenv("THEMIS_BENCH_MACHINES"); env && *env)
    machines = std::max(8, std::atoi(env));
  // One single-job app anchored per machine: 512 apps x 1 job x 2 tasks x
  // 4 GPUs of unmet demand = the 2048-GPU offer, valued gang by gang.
  const int apps = machines;
  int rounds = 6;
  if (const char* env = std::getenv("THEMIS_BENCH_ROUNDS"); env && *env)
    rounds = std::max(1, std::atoi(env));

  bench::BenchReport report("parallel_rounds");
  report.Config("cluster_gpus", static_cast<double>(machines) * 8.0);
  report.Config("bidding_apps", static_cast<double>(apps));
  report.Config("rounds", static_cast<double>(rounds));

  std::printf("\nBM_ParallelRound: %d-GPU rounds/sec vs round_threads\n",
              machines * 8);
  std::printf("%8s %12s %9s %10s\n", "threads", "rounds/s", "speedup",
              "identical");
  bool ok = true;
  ParallelRoundRun baseline;
  for (const int threads : {1, 2, 4, 8}) {
    const ParallelRoundRun run =
        MeasureParallelRound(machines, apps, threads, rounds);
    if (threads == 1) baseline = run;
    const bool identical = run.fingerprint == baseline.fingerprint &&
                           run.granted_gpus == baseline.granted_gpus &&
                           run.granted_gpus > 0;
    const double speedup =
        run.rounds_per_sec / std::max(1e-9, baseline.rounds_per_sec);
    std::printf("%8d %12.2f %8.2fx %10s\n", threads, run.rounds_per_sec,
                speedup, identical ? "yes" : "NO");
    std::string tag = "@";
    tag += std::to_string(threads);
    tag += "threads";
    report.Metric("parallel_rounds_per_sec" + tag, run.rounds_per_sec);
    report.Metric("parallel_round_speedup" + tag, speedup);
    report.Metric("parallel_round_identical" + tag, identical ? 1.0 : 0.0);
    ok = ok && identical;
  }
  if (!report.Write()) ok = false;
  if (!ok) std::fprintf(stderr, "bench: parallel-round check FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace themis

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark suite
// (which --benchmark_filter can narrow or skip), the filter-probe and
// parallel-round sweeps run unconditionally and write BENCH_overheads.json /
// BENCH_parallel_rounds.json — the machine-readable reports CI's bench-smoke
// gate asserts on.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const int filter_rc = themis::RunFilterProbeSweep();
  const int parallel_rc = themis::RunParallelRoundSweep();
  return filter_rc != 0 ? filter_rc : parallel_rc;
}

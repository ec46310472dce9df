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
#include <cstdint>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/agent.h"
#include "core/rho_index.h"
#include "core/themis_policy.h"
#include "net/wire.h"
#include "round_harness.h"
#include "sim/experiment.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

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

/// One auction in sim-burst's shape: apps from a burst, holding no GPUs
/// yet, bid for a scarce 12-GPU offer on Simulation256 (a whole 4-GPU
/// machine, half of two others, a whole 2-GPU machine and two 1-GPU
/// machines, spread over three racks). Their jobs are the trace
/// generator's, so most apps have many jobs and their later cumulative
/// bundles often add GPUs that do not lower rho.
void BM_PartialAllocationScarce(benchmark::State& state) {
  const int n_apps = static_cast<int>(state.range(0));
  Cluster cluster(ClusterSpec::Simulation256());
  const Topology& topo = cluster.topology();
  WorkEstimator est({});
  TraceConfig trace;
  trace.seed = 12;
  trace.num_apps = n_apps;
  std::vector<std::unique_ptr<AppState>> apps;
  for (const AppSpec& spec : TraceGenerator(trace).Generate()) {
    auto app = std::make_unique<AppState>();
    app->id = static_cast<AppId>(apps.size());
    app->spec = spec;
    app->arrived = true;
    for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
      JobState job;
      job.id = static_cast<JobId>(j);
      job.spec = spec.jobs[j];
      job.parallelism_cap = job.spec.MaxParallelism();
      app->jobs.push_back(std::move(job));
    }
    app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
    apps.push_back(std::move(app));
  }
  // (machine, free GPUs) over racks 0, 1 and 3 (22 machines per rack).
  const std::pair<int, int> free_gpus[] = {{3, 4}, {27, 2}, {36, 2},
                                           {72, 2}, {84, 1}, {85, 1}};
  std::vector<GpuId> offered;
  std::vector<int> offered_vec(cluster.num_machines(), 0);
  for (GpuId g = 0; g < static_cast<GpuId>(topo.num_gpus()); ++g) {
    const int m = topo.gpu(g).machine;
    for (const auto& [machine, count] : free_gpus) {
      if (m == machine && offered_vec[m] < count) {
        offered.push_back(g);
        ++offered_vec[m];
      }
    }
  }
  const Agent agent(&topo, &est, 10.0);
  std::vector<AgentBid> bids;
  for (const auto& app : apps) bids.push_back(agent.PrepareBid(*app, offered, 6));
  std::vector<const BidTable*> tables;
  for (const AgentBid& bid : bids) tables.push_back(&bid.table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartialAllocation(tables, offered_vec));
  }
}
BENCHMARK(BM_PartialAllocationScarce)->Arg(19)->Arg(40)
    ->Unit(benchmark::kMicrosecond);

/// One leftover stage (ThemisPolicy step 6) vs the GPUs left in the pool.
/// The cluster has pool/4 machines of 8 GPUs, and one app holds 4 GPUs on
/// every machine through satisfied jobs of 8 tasks x 4 GPUs, each spanning
/// 8 machines. Its pool/4 hungry single-gang jobs soak the other 4 GPUs of
/// every machine, one leftover gang at a time, so each gang goes to an app
/// that already holds 4096 GPUs or more at the largest point. A stage that
/// re-reads everything the winner holds after each grant pays for all of
/// it on every gang here, and so does one that orders or rescans the
/// winner's jobs per gang; what is left per gang is the pick from the pool
/// and the grant.
void BM_LeftoverStage(benchmark::State& state) {
  const int pool_gpus = static_cast<int>(state.range(0));
  const int machines = pool_gpus / 4;
  WorkEstimator est({});
  std::int64_t gangs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(ClusterSpec::Uniform(/*racks=*/8, machines / 8,
                                         /*gpus=*/8, /*slot=*/4));
    AppState app;
    app.arrived = true;
    app.spec.target_loss = 0.1;
    const int soaked = machines / 8;
    for (int j = 0; j < soaked + machines; ++j) {
      JobState job;
      job.id = static_cast<JobId>(j);
      job.spec = j < soaked ? BenchJobSpec(500.0, 8, 4)
                            : BenchJobSpec(60.0 + j, 1, 4);
      job.parallelism_cap = job.spec.MaxParallelism();
      if (j < soaked)
        for (int m = 8 * j; m < 8 * j + 8; ++m)
          for (int k = 0; k < 4; ++k) {
            const auto g = static_cast<GpuId>(8 * m + k);
            cluster.Allocate(g, app.id, job.id, /*expiry=*/1.0e9);
            job.gpus.push_back(g);
          }
      app.spec.jobs.push_back(job.spec);
      app.jobs.push_back(std::move(job));
    }
    app.ideal_time = std::max(1e-9, app.spec.IdealRunningTime());
    AppList apps{&app};
    RhoIndex index;
    index.Update(&app);
    Rng rng(5);
    const ResourceOffer offer = MakeOffer(0, 10.0, 20.0, cluster);
    SchedulerContext ctx(offer, &cluster, &est, &apps, index, &rng);
    const Agent agent(&cluster.topology(), &est, 10.0);
    state.ResumeTiming();
    AllocateLeftovers(ctx, agent, /*participants=*/{});
    state.PauseTiming();
    const GrantSet grants = ctx.TakeGrants();
    if (grants.TotalGpus() != pool_gpus) state.SkipWithError("pool not soaked");
    gangs += static_cast<std::int64_t>(grants.grants.size());
    state.ResumeTiming();
  }
  state.counters["gangs"] = benchmark::Counter(
      static_cast<double>(gangs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LeftoverStage)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/// One leftover stage in sim-burst's shape: `apps` hungry apps of 55 jobs
/// each on the 256-GPU Simulation256 cluster, after an auction that left 16
/// GPUs. As under a tuner mid-search, 48 of each app's jobs have finished
/// and the 7 that can still grow sit anywhere in its job list; every third
/// app holds a gang, and every fifth took part in the auction. The stage
/// hands out a few gangs, so its cost is listing the apps and their
/// anchors, not the gangs: a stage that scans every job of every app (and
/// every job of every candidate for the machines it holds) pays for all
/// 55 jobs of each app here.
struct ManyAppsWorld {
  explicit ManyAppsWorld(int num_apps) : cluster(ClusterSpec::Simulation256()) {
    constexpr int kJobs = 55;
    constexpr int kLive = 7;
    Rng gen(11);
    std::vector<GpuId> free(cluster.num_gpus());
    for (GpuId g = 0; g < static_cast<GpuId>(free.size()); ++g) free[g] = g;
    gen.Shuffle(free);
    for (int a = 0; a < num_apps; ++a) {
      auto app = std::make_unique<AppState>();
      app->id = static_cast<AppId>(a);
      app->arrived = true;
      app->spec.target_loss = 0.1;
      std::vector<int> live(kJobs);
      for (int j = 0; j < kJobs; ++j) live[j] = j;
      gen.Shuffle(live);
      live.resize(kLive);
      for (int j = 0; j < kJobs; ++j) {
        JobState job;
        job.id = static_cast<JobId>(j);
        job.spec = BenchJobSpec(60.0 + j, 2, j % 3 == 0 ? 2 : 4);
        job.parallelism_cap = job.spec.MaxParallelism();
        job.finished = std::find(live.begin(), live.end(), j) == live.end();
        app->spec.jobs.push_back(job.spec);
        app->jobs.push_back(std::move(job));
      }
      if (a % 3 == 0) {
        JobState& job = app->jobs[live.front()];
        for (int k = 0; k < job.spec.gpus_per_task; ++k) {
          cluster.Allocate(free.back(), app->id, job.id, /*expiry=*/1.0e9);
          job.gpus.push_back(free.back());
          free.pop_back();
        }
      }
      app->ideal_time = std::max(1e-9, app->spec.IdealRunningTime());
      index.Update(app.get());
      apps.push_back(app.get());
      if (a % 5 == 0) participants.push_back(app.get());
      owned.push_back(std::move(app));
    }
    // The auction's winners hold all but kLeft of the rest.
    while (free.size() > kLeft) {
      cluster.Allocate(free.back(), static_cast<AppId>(num_apps), 0, 1.0e9);
      free.pop_back();
    }
    offer = MakeOffer(0, 10.0, 20.0, cluster);
  }

  static constexpr int kLeft = 16;
  Cluster cluster;
  std::vector<std::unique_ptr<AppState>> owned;
  AppList apps;
  std::vector<AppState*> participants;
  RhoIndex index;
  Rng rng{5};
  ResourceOffer offer;
};

void BM_LeftoverStageManyApps(benchmark::State& state) {
  const int num_apps = static_cast<int>(state.range(0));
  WorkEstimator est({});
  std::optional<ManyAppsWorld> world;
  std::int64_t gangs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    world.reset();  // the last stage's world is torn down untimed
    world.emplace(num_apps);
    SchedulerContext ctx(world->offer, &world->cluster, &est, &world->apps,
                         world->index, &world->rng);
    const Agent agent(&world->cluster.topology(), &est, 10.0);
    state.ResumeTiming();
    AllocateLeftovers(ctx, agent, world->participants);
    state.PauseTiming();
    const GrantSet grants = ctx.TakeGrants();
    if (grants.TotalGpus() != ManyAppsWorld::kLeft)
      state.SkipWithError("pool not soaked");
    gangs += static_cast<std::int64_t>(grants.grants.size());
    state.ResumeTiming();
  }
  state.counters["gangs"] = benchmark::Counter(
      static_cast<double>(gangs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LeftoverStageManyApps)->Arg(96)->Unit(benchmark::kMicrosecond);

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
/// views, re-grant; the same round
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

/// The trace the CSV benches write and read: sim-steady's shape (Poisson
/// arrivals at contention 4), 300 apps, about 9k rows and 1.5 MB.
const std::vector<AppSpec>& CsvBenchTrace() {
  static const std::vector<AppSpec> apps = [] {
    TraceConfig cfg;
    cfg.seed = 12;
    cfg.num_apps = 300;
    cfg.contention_factor = 4.0;
    return TraceGenerator(cfg).Generate();
  }();
  return apps;
}

/// WriteTraceCsv of the bench trace into memory: number formatting and
/// row assembly, with no file system in the loop.
void BM_TraceCsvWrite(benchmark::State& state) {
  const std::vector<AppSpec>& apps = CsvBenchTrace();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    WriteTraceCsv(out, apps);
    benchmark::DoNotOptimize(&out);
    benchmark::ClobberMemory();
    bytes += static_cast<std::int64_t>(out.tellp());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TraceCsvWrite)->Unit(benchmark::kMicrosecond);

/// StreamingCsvTraceReader over the bench trace's CSV held in memory:
/// line splitting, number parsing and row checks, one app at a time.
void BM_TraceCsvRead(benchmark::State& state) {
  std::ostringstream written;
  WriteTraceCsv(written, CsvBenchTrace());
  const std::string csv = written.str();
  std::size_t apps = 0;
  for (auto _ : state) {
    std::istringstream in(csv);
    StreamingCsvTraceReader reader(in);
    AppSpec app;
    while (reader.Next(app)) benchmark::DoNotOptimize(app);
    apps += reader.apps_read();
  }
  if (apps != state.iterations() * CsvBenchTrace().size())
    state.SkipWithError("trace read back short");
  state.SetBytesProcessed(static_cast<std::int64_t>(csv.size()) *
                          state.iterations());
}
BENCHMARK(BM_TraceCsvRead)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Wire codec: the frames every daemon round sends to each AGENT (OFFER,
// GRANT) and reads back (BID). The OFFER is the whole free pool of the
// 256-GPU, 88-machine Simulation256 cluster; the GRANT is one session's
// share of a round, one 4-GPU grant; the BID is one app's demand.
// ---------------------------------------------------------------------------

const ResourceOffer& WireBenchOffer() {
  static const ResourceOffer offer = [] {
    const Cluster cluster(ClusterSpec::Simulation256());
    return MakeOffer(/*round_id=*/117, /*now=*/1234.5678901234567,
                     /*lease_duration=*/10.0, cluster);
  }();
  return offer;
}

GrantSet WireBenchGrant() {
  GrantSet grants;
  grants.round_id = 117;
  grants.lease_expiry = 1244.5678901234567;
  grants.grants.push_back({201, 3, {96, 97, 98, 99}});
  grants.diagnostics = {256, 212, 44, true, 19};
  return grants;
}

void BM_WireEncodeOffer(benchmark::State& state) {
  const ResourceOffer& offer = WireBenchOffer();
  for (auto _ : state) benchmark::DoNotOptimize(net::EncodeOffer(offer));
}
BENCHMARK(BM_WireEncodeOffer)->Unit(benchmark::kMicrosecond);

void BM_WireParseOffer(benchmark::State& state) {
  const std::string frame = net::EncodeOffer(WireBenchOffer());
  for (auto _ : state) benchmark::DoNotOptimize(net::ParseWireMessage(frame));
}
BENCHMARK(BM_WireParseOffer)->Unit(benchmark::kMicrosecond);

void BM_WireEncodeGrant(benchmark::State& state) {
  const GrantSet grants = WireBenchGrant();
  const std::vector<AppId> finished;
  for (auto _ : state)
    benchmark::DoNotOptimize(net::EncodeGrant(grants, finished));
}
BENCHMARK(BM_WireEncodeGrant)->Unit(benchmark::kMicrosecond);

void BM_WireParseGrant(benchmark::State& state) {
  const std::string frame = net::EncodeGrant(WireBenchGrant(), {});
  for (auto _ : state) benchmark::DoNotOptimize(net::ParseWireMessage(frame));
}
BENCHMARK(BM_WireParseGrant)->Unit(benchmark::kMicrosecond);

void BM_WireParseBid(benchmark::State& state) {
  const std::string frame = net::EncodeBid(117, {{201, 8}});
  for (auto _ : state) benchmark::DoNotOptimize(net::ParseWireMessage(frame));
}
BENCHMARK(BM_WireParseBid)->Unit(benchmark::kMicrosecond);

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

/// GPUs of the filter-probe world; it needs at least one app per GPU.
constexpr int kFilterProbeGpus = 128;

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
      : cluster(ClusterSpec::Uniform(2, 16, 4, 4)),  // kFilterProbeGpus
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

/// The sweep's live-app populations: the default four, or the one
/// $THEMIS_BENCH_FILTER_APPS names. The world saturates its GPUs with one
/// single-GPU gang per low-id app, so a smaller population is rejected with
/// a one-line error and an empty result.
std::vector<int> FilterProbePopulations() {
  if (bench::EnvKnob<std::string>("THEMIS_BENCH_FILTER_APPS", "").empty())
    return {1000, 5000, 10000, 20000};
  const int apps = bench::EnvKnob("THEMIS_BENCH_FILTER_APPS", 0);
  if (apps < kFilterProbeGpus) {
    std::fprintf(stderr,
                 "bench: THEMIS_BENCH_FILTER_APPS=%d is below the "
                 "filter-probe world's %d GPUs (one app per GPU needed)\n",
                 apps, kFilterProbeGpus);
    return {};
  }
  return {apps};
}

int RunFilterProbeSweep(const std::vector<int>& populations) {
  bench::BenchReport report("overheads");
  report.Config("cluster_gpus", static_cast<double>(kFilterProbeGpus));
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
// borrows the 512 bid tables in place and builds one problem per auction
// from them: each table validated, its logs taken and rows sorted once, and
// each row kept as the sparse list of machines it asks for. With hidden
// payments on, all 512 re-solves would search that same problem, each
// skipping its own app by index (BM_PartialAllocation above: 24 bidders on
// a 128-GPU offer take ~0.05 ms, against ~0.30 ms when every re-solve rebuilt
// the problem and checked rows against every machine). Grant
// streams are fingerprint-checked across thread counts for the
// bit-identicality the pool contract promises; the process exits non-zero
// only on an identity failure (a correctness bug), never on a throughput
// number — wall-clock assertions live in CI, where the core count is known.
// Each leg also reports its process CPU time over wall time, the cores the
// round actually ran on. A speedup that tracks cpu/wall means the round
// used every core it got: a failing speedup with cpu/wall ~1 at 8 threads
// is a host that gave the process one core, or code that no longer fans
// out (which then reads ~1 on every run, however idle the box). A speedup
// far below cpu/wall means the threads ran but wasted the cores.
// ---------------------------------------------------------------------------

/// CPU time of the whole process, every thread, in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct ParallelRoundRun {
  double rounds_per_sec = 0.0;
  double cpu_per_wall = 0.0;
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
  double cpu_s = 0.0;
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

    const double cpu_start = ProcessCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    const GrantSet grants = harness.Run(policy, list);
    total_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    cpu_s += ProcessCpuSeconds() - cpu_start;

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
  run.cpu_per_wall = cpu_s / std::max(1e-9, total_s);
  return run;
}

int RunParallelRoundSweep() {
  // x8 GPUs = the 4096-GPU cluster
  const int machines =
      std::max(8, bench::EnvKnob("THEMIS_BENCH_MACHINES", 512));
  // One single-job app anchored per machine: 512 apps x 1 job x 2 tasks x
  // 4 GPUs of unmet demand = the 2048-GPU offer, valued gang by gang.
  const int apps = machines;
  const int rounds = std::max(1, bench::EnvKnob("THEMIS_BENCH_ROUNDS", 6));

  bench::BenchReport report("parallel_rounds");
  report.Config("cluster_gpus", static_cast<double>(machines) * 8.0);
  report.Config("bidding_apps", static_cast<double>(apps));
  report.Config("rounds", static_cast<double>(rounds));

  std::printf("\nBM_ParallelRound: %d-GPU rounds/sec vs round_threads\n",
              machines * 8);
  std::printf("%8s %12s %9s %9s %10s\n", "threads", "rounds/s", "speedup",
              "cpu/wall", "identical");
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
    std::printf("%8d %12.2f %8.2fx %9.2f %10s\n", threads, run.rounds_per_sec,
                speedup, run.cpu_per_wall, identical ? "yes" : "NO");
    std::string tag = "@";
    tag += std::to_string(threads);
    tag += "threads";
    report.Metric("parallel_rounds_per_sec" + tag, run.rounds_per_sec);
    report.Metric("parallel_round_speedup" + tag, speedup);
    report.Metric("parallel_round_identical" + tag, identical ? 1.0 : 0.0);
    report.Metric("parallel_round_cpu_per_wall" + tag, run.cpu_per_wall);
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
  const std::vector<int> populations = themis::FilterProbePopulations();
  if (populations.empty()) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const int filter_rc = themis::RunFilterProbeSweep(populations);
  const int parallel_rc = themis::RunParallelRoundSweep();
  return filter_rc != 0 ? filter_rc : parallel_rc;
}

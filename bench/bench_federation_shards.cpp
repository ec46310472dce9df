// Federated scheduling at the 512-machine / 4096-GPU topology: throughput
// and fairness of the ShardedArbiter vs shard count.
//
// One fixed trace is routed across 1 / 2 / 4 / 8 ARBITER shards
// (core/federation.h). Each shard runs its own offer -> bid -> grant rounds
// over its machine partition, shards simulate in parallel on the sweep
// thread pool, and the merged result is audited for the cross-shard
// invariants (no GPU granted by two shards, no out-of-range grant). The
// interesting trade: more shards mean smaller per-round auctions (the PA
// solve and bid tables shrink with the shard's machine count) and parallel
// rounds — against coarser global fairness, since rho is only equalized
// within a shard.
//
//   THEMIS_BENCH_MACHINES  topology size (default 512 machines x 8 GPUs)
//   THEMIS_BENCH_APPS      trace size   (default 192 apps)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/federation.h"

using namespace themis;

int main() {
  const int machines = bench::EnvPositive("THEMIS_BENCH_MACHINES", 512);
  const int num_apps = bench::EnvPositive("THEMIS_BENCH_APPS", 192);
  const ClusterSpec topology = bench::ChurnSweepTopology(machines, 8);

  ExperimentConfig config;
  config.cluster = topology;
  config.policy = PolicyKind::kThemis;
  config.trace.seed = 42;
  config.trace.num_apps = num_apps;
  config.trace.contention_factor = 2.0;
  config.sim.seed = 42;
  config.sim.lease_minutes = 20.0;

  std::vector<AppSpec> apps = TraceGenerator(config.trace).Generate();

  std::printf("Federated Themis at %d machines / %d GPUs, %zu apps\n\n",
              topology.TotalMachines(), topology.TotalGpus(), apps.size());
  std::printf("%-8s %10s %10s %12s %10s %8s %8s %8s\n", "shards", "wall_ms",
              "rounds", "rounds/sec", "max_rho", "jain", "unfin", "dblgrant");

  bench::BenchReport report("federation_shards", 42);
  report.Config("machines", topology.TotalMachines());
  report.Config("gpus", topology.TotalGpus());
  report.Config("apps", static_cast<double>(apps.size()));
  report.Config("policy", "themis");

  bool ok = true;
  for (const int shards : {1, 2, 4, 8}) {
    if (shards > topology.TotalMachines()) break;
    ShardedArbiter arbiter(topology, shards);
    const auto start = std::chrono::steady_clock::now();
    const FederationResult fed = arbiter.Run(config, apps);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const double rounds_per_sec =
        wall_ms > 0.0 ? 1000.0 * static_cast<double>(fed.total_rounds) /
                            wall_ms
                      : 0.0;

    std::printf("%-8d %10.0f %10lld %12.1f %10.2f %8.3f %8d %8d\n", shards,
                wall_ms, fed.total_rounds, rounds_per_sec,
                fed.merged.max_fairness, fed.merged.jains_index,
                fed.merged.unfinished_apps, fed.cross_shard_double_grants);

    std::string tag = "@";
    tag += std::to_string(shards);
    tag += "shards";
    report.Metric("wall_ms" + tag, wall_ms);
    report.Metric("passes_per_sec" + tag, rounds_per_sec);
    report.Metric("max_rho" + tag, fed.merged.max_fairness);
    report.Metric("jain" + tag, fed.merged.jains_index);
    report.Metric("unfinished" + tag, fed.merged.unfinished_apps);
    report.Metric("cross_shard_double_grants" + tag,
                  fed.cross_shard_double_grants);
    if (fed.cross_shard_double_grants != 0 || fed.out_of_range_grants != 0) {
      std::fprintf(stderr, "bench: cross-shard grant invariant violated\n");
      ok = false;
    }
    if (fed.merged.unfinished_apps != 0) {
      std::fprintf(stderr, "bench: %d apps unfinished at %d shards\n",
                   fed.merged.unfinished_apps, shards);
      ok = false;
    }
  }

  if (!report.Write()) ok = false;
  return ok ? 0 : 1;
}

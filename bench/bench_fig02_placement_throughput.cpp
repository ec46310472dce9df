// Figure 2: "Effect of GPU resource allocation configuration on job
// throughput for different models" — 4 P100s on one server vs 4 P100s
// across two servers (2x2).
//
// Throughput = serial_throughput * G * S(placement). The 1-server bar uses
// the machine-level slowdown, the 2x2 bar the rack-level slowdown (two
// servers in one rack), reproducing the figure's shape: VGG16/19 lose ~2x
// across servers while ResNet50 is nearly flat.
//
// A second section measures *scheduling-state* throughput: how many
// scheduler-pass-shaped query/update rounds per second the indexed Cluster
// sustains at topologies 10-100x the paper's 64-GPU testbed. Each pass
// mirrors what one SchedulingPass touches — reclaim expired leases, build
// the free views, probe every app's holdings, re-grant the pool. Override
// the largest sweep point with THEMIS_BENCH_MACHINES (8 GPUs/machine).
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "cluster/topology.h"
#include "placement/placement_model.h"

namespace {

using namespace themis;

/// One scheduler-pass-shaped churn measurement (bench::ClusterPassChurnRound
/// defines the round, shared with bench_overheads); returns passes/second.
double MeasureClusterPasses(const ClusterSpec& spec, int apps) {
  Cluster cluster(spec);
  bench::ChurnPrefill(cluster, apps);

  const int passes = 300;
  std::size_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p)
    sink += bench::ClusterPassChurnRound(cluster, apps, 20.0 + p * 0.4);
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the accumulated query results observable so the measured loop
  // cannot be elided.
  volatile std::size_t guard = sink;
  (void)guard;
  return passes / std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const int max_machines =
      std::max(8, bench::EnvKnob("THEMIS_BENCH_MACHINES", 512));

  // Two 4-GPU servers in one rack.
  const Topology topo(ClusterSpec::Uniform(1, 2, 4, 2));
  const std::vector<GpuId> one_server{0, 1, 2, 3};
  const std::vector<GpuId> two_by_two{0, 1, 4, 5};

  bench::BenchReport report("fig02_placement_throughput");
  report.Config("cluster", "1 rack x 2 machines x 4 GPUs");

  std::printf("=== Figure 2: throughput (images/sec) vs placement ===\n");
  std::printf("%-14s %22s %26s %8s\n", "model", "4 GPUs on 1 server",
              "4 GPUs across 2 servers", "ratio");
  for (const ModelProfile& m : CanonicalModels()) {
    const double local = m.serial_throughput * EffectiveRate(m, one_server, topo);
    const double spread = m.serial_throughput * EffectiveRate(m, two_by_two, topo);
    std::printf("%-14s %22.0f %26.0f %8.2f\n", m.name.c_str(), local, spread,
                local / spread);
    report.Metric("throughput_1server." + m.name, local);
    report.Metric("throughput_2x2." + m.name, spread);
    report.Metric("placement_ratio." + m.name, local / spread);
  }
  std::printf("\npaper reference: VGG16 ~2x faster on one server; ResNet50"
              " placement-insensitive\n");

  report.Config("max_machines", static_cast<double>(max_machines));

  std::printf("\n=== Scheduling-state throughput vs cluster size ===\n");
  std::printf("(scheduler-pass-shaped rounds/sec on the indexed cluster;\n"
              " each round reclaims + requeries + regrants, 8 GPUs/machine)\n");
  std::printf("%10s %8s %8s %14s\n", "machines", "gpus", "apps", "passes/sec");
  std::vector<int> measured_gpus;
  for (int requested : {32, 128, max_machines}) {
    const ClusterSpec spec = bench::ChurnSweepTopology(requested, 8);
    // Dedup on the realized size: a THEMIS_BENCH_MACHINES of 32 or 128
    // would otherwise measure (and report a JSON key for) the same
    // topology twice.
    if (std::find(measured_gpus.begin(), measured_gpus.end(),
                  spec.TotalGpus()) != measured_gpus.end())
      continue;
    measured_gpus.push_back(spec.TotalGpus());
    const int machines = spec.TotalMachines();  // realized, not requested
    const int apps = machines;  // one probing app per machine keeps the mix
    const double rate = MeasureClusterPasses(spec, apps);
    std::printf("%10d %8d %8d %14.0f\n", machines, spec.TotalGpus(), apps,
                rate);
    char key[48];
    std::snprintf(key, sizeof key, "cluster_passes_per_sec@%dgpus",
                  spec.TotalGpus());
    report.Metric(key, rate);
  }
  std::printf("\nthe 512-machine row is the ISSUE 3 acceptance point: the\n"
              "scan-based cluster sustained ~523 passes/sec there\n");
  return report.Write() ? 0 : 1;
}

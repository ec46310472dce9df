#include "core/federation.h"

#include <algorithm>
#include <stdexcept>

#include "common/stats.h"

namespace themis {
namespace {

/// Max-parallelism GPU demand of an app (its whole exploration width).
long long AppDemand(const AppSpec& app) {
  long long demand = 0;
  for (const JobSpec& job : app.jobs) demand += job.MaxParallelism();
  return demand;
}

/// Largest single task gang the app ever needs placed at once.
int MaxGang(const AppSpec& app) {
  int gang = 0;
  for (const JobSpec& job : app.jobs) gang = std::max(gang, job.gpus_per_task);
  return gang;
}

/// Recompute the summary metrics from the merged per-app vectors with the
/// same formulas MetricsCollector uses, so a 1-shard merge is bit-identical
/// to the unsharded summary.
void SummarizeMerged(ExperimentResult& r) {
  r.max_fairness = 0.0;
  for (double rho : r.rhos) r.max_fairness = std::max(r.max_fairness, rho);
  r.min_fairness = r.rhos.empty() ? 0.0 : r.rhos.front();
  for (double rho : r.rhos) r.min_fairness = std::min(r.min_fairness, rho);
  r.median_fairness = r.rhos.empty() ? 0.0 : Percentile(r.rhos, 50.0);
  r.jains_index = JainsIndex(r.rhos);
  double act_sum = 0.0;
  for (double act : r.completion_times) act_sum += act;
  r.avg_completion_time =
      r.completion_times.empty()
          ? 0.0
          : act_sum / static_cast<double>(r.completion_times.size());
}

}  // namespace

std::vector<FederationShard> PartitionCluster(const ClusterSpec& global,
                                              int num_shards) {
  const int total_machines = global.TotalMachines();
  if (num_shards < 1)
    throw std::invalid_argument("PartitionCluster: num_shards must be >= 1");
  if (num_shards > total_machines)
    throw std::invalid_argument(
        "PartitionCluster: num_shards (" + std::to_string(num_shards) +
        ") exceeds machine count (" + std::to_string(total_machines) + ")");

  const int base = total_machines / num_shards;
  const int extra = total_machines % num_shards;

  std::vector<FederationShard> shards(num_shards);
  int shard = 0;
  int in_shard = 0;
  int target = base + (shard < extra ? 1 : 0);
  MachineId next_machine = 0;
  GpuId next_gpu = 0;
  RackSpec* open_rack = nullptr;

  for (const RackSpec& rack : global.racks) {
    open_rack = nullptr;  // a new source rack starts a new shard-local rack
    for (const MachineSpec& machine : rack.machines) {
      FederationShard& s = shards[shard];
      if (in_shard == 0) {
        s.index = shard;
        s.first_machine = next_machine;
        s.first_gpu = next_gpu;
      }
      if (open_rack == nullptr) {
        s.spec.racks.emplace_back();
        open_rack = &s.spec.racks.back();
      }
      open_rack->machines.push_back(machine);
      ++s.num_machines;
      s.num_gpus += machine.num_gpus;
      ++next_machine;
      next_gpu += machine.num_gpus;
      if (++in_shard == target && shard + 1 < num_shards) {
        ++shard;
        in_shard = 0;
        target = base + (shard < extra ? 1 : 0);
        open_rack = nullptr;
      }
    }
  }
  return shards;
}

PlacementHint LeastLoadedPlacement() {
  return [](const AppSpec& app, const std::vector<ShardLoadView>& loads) {
    const int gang = MaxGang(app);
    int best = -1;
    double best_ratio = 0.0;
    int biggest = 0;
    for (int s = 0; s < static_cast<int>(loads.size()); ++s) {
      if (loads[s].capacity_effective_gpus >
          loads[biggest].capacity_effective_gpus)
        biggest = s;
      if (loads[s].capacity_gpus < gang) continue;
      // Effective capacity in the denominator: a shard of V100s takes 3x
      // the demand of an equal-sized K80 shard before looking as loaded.
      const double ratio = static_cast<double>(loads[s].routed_demand) /
                           loads[s].capacity_effective_gpus;
      if (best < 0 || ratio < best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    return best >= 0 ? best : biggest;
  };
}

ShardedArbiter::ShardedArbiter(const ClusterSpec& global, int num_shards,
                               PlacementHint hint)
    : shards_(PartitionCluster(global, num_shards)), hint_(std::move(hint)) {
  for (const FederationShard& s : shards_) total_gpus_ += s.num_gpus;
}

FederationRouting ShardedArbiter::Route(
    const std::vector<AppSpec>& apps) const {
  const int n = num_shards();
  FederationRouting routing;
  routing.shard_apps.resize(n);
  routing.global_index.resize(n);

  std::vector<ShardLoadView> loads(n);
  for (int s = 0; s < n; ++s) {
    loads[s].capacity_gpus = shards_[s].num_gpus;
    loads[s].capacity_effective_gpus = shards_[s].spec.TotalEffectiveGpus();
  }

  for (std::size_t i = 0; i < apps.size(); ++i) {
    const int s = hint_(apps[i], loads);
    if (s < 0 || s >= n)
      throw std::runtime_error("ShardedArbiter: placement hint returned " +
                               std::to_string(s) + " with " +
                               std::to_string(n) + " shards");
    routing.shard_apps[s].push_back(apps[i]);
    routing.global_index[s].push_back(i);
    loads[s].routed_demand += AppDemand(apps[i]);
  }
  return routing;
}

FederationResult ShardedArbiter::Run(const ExperimentConfig& config,
                                     const std::vector<AppSpec>& apps,
                                     int num_threads) const {
  const int n = num_shards();
  const FederationRouting routing = Route(apps);

  // Per-shard grant audit, filled by that shard's round observer on its own
  // worker thread (no slot is shared across shards).
  struct ShardAudit {
    std::vector<unsigned char> granted_gpus;  // by *global* gpu id
    std::vector<long long> granted_per_app;   // by shard-local app id
    long long granted_total = 0;
    int out_of_range = 0;
  };
  std::vector<ShardAudit> audits(n);
  std::vector<ExperimentResult> results(n);
  std::vector<std::string> errors(n);

  RunParallel(
      static_cast<std::size_t>(n),
      [&](std::size_t s) {
        ExperimentConfig shard_config = config;
        shard_config.cluster = shards_[s].spec;
        // Shard 0 keeps the configured stream so --shards=1 reproduces the
        // unsharded run exactly; later shards decorrelate deterministically.
        shard_config.sim.seed =
            s == 0 ? config.sim.seed : DeriveScenarioSeed(config.sim.seed, s);

        ShardAudit& audit = audits[s];
        audit.granted_gpus.assign(total_gpus_, 0);
        audit.granted_per_app.assign(routing.shard_apps[s].size(), 0);
        const GpuId gpu_base = shards_[s].first_gpu;
        const int shard_gpus = shards_[s].num_gpus;
        auto observer = [&audit, gpu_base, shard_gpus](
                            const ResourceOffer&, const GrantSet& grants) {
          for (const Grant& g : grants.grants) {
            audit.granted_total += static_cast<long long>(g.gpus.size());
            if (g.app < audit.granted_per_app.size())
              audit.granted_per_app[g.app] +=
                  static_cast<long long>(g.gpus.size());
            for (GpuId gpu : g.gpus) {
              if (static_cast<int>(gpu) >= shard_gpus)
                ++audit.out_of_range;
              else
                audit.granted_gpus[gpu_base + gpu] = 1;
            }
          }
        };
        try {
          results[s] = RunExperimentWithApps(shard_config,
                                             routing.shard_apps[s], observer);
        } catch (const std::exception& e) {
          errors[s] = e.what();
        }
      },
      num_threads);

  for (int s = 0; s < n; ++s)
    if (!errors[s].empty())
      throw std::runtime_error("ShardedArbiter: shard " + std::to_string(s) +
                               " failed: " + errors[s]);

  FederationResult out;
  out.num_shards = n;
  out.per_shard = std::move(results);
  out.granted_per_app.assign(apps.size(), 0);

  // Cross-shard invariants from the audited grant streams.
  std::vector<int> granting_shards(total_gpus_, 0);
  for (int s = 0; s < n; ++s) {
    out.out_of_range_grants += audits[s].out_of_range;
    out.total_granted_gpus += audits[s].granted_total;
    for (int g = 0; g < total_gpus_; ++g)
      granting_shards[g] += audits[s].granted_gpus[g];
    for (std::size_t l = 0; l < audits[s].granted_per_app.size(); ++l)
      out.granted_per_app[routing.global_index[s][l]] =
          audits[s].granted_per_app[l];
  }
  for (int g = 0; g < total_gpus_; ++g)
    if (granting_shards[g] > 1) ++out.cross_shard_double_grants;

  // Merge: stitch the per-app vectors back into global submission order.
  ExperimentResult& merged = out.merged;
  struct MergedApp {
    std::size_t global_id;
    double rho, act, score;
  };
  std::vector<MergedApp> finished;
  for (int s = 0; s < n; ++s) {
    const ExperimentResult& r = out.per_shard[s];
    out.apps_per_shard.push_back(
        static_cast<int>(routing.shard_apps[s].size()));
    merged.unfinished_apps += r.unfinished_apps;
    merged.machine_failures += r.machine_failures;
    merged.scheduling_passes += r.scheduling_passes;
    merged.events_processed += r.events_processed;
    merged.rounds_executed += r.rounds_executed;
    merged.sim_time_advances += r.sim_time_advances;
    merged.gpu_time += r.gpu_time;
    merged.peak_contention = std::max(merged.peak_contention,
                                      r.peak_contention);
    for (std::size_t l = 0; l < r.finished_apps.size(); ++l)
      finished.push_back(MergedApp{routing.global_index[s][r.finished_apps[l]],
                                   r.rhos[l], r.completion_times[l],
                                   r.placement_scores[l]});
    for (const AllocationSample& sample : r.timeline)
      merged.timeline.push_back(AllocationSample{
          sample.time,
          static_cast<AppId>(routing.global_index[s][sample.app]),
          sample.gpus});
  }
  std::sort(finished.begin(), finished.end(),
            [](const MergedApp& a, const MergedApp& b) {
              return a.global_id < b.global_id;
            });
  for (const MergedApp& app : finished) {
    merged.finished_apps.push_back(static_cast<AppId>(app.global_id));
    merged.rhos.push_back(app.rho);
    merged.completion_times.push_back(app.act);
    merged.placement_scores.push_back(app.score);
  }
  std::stable_sort(merged.timeline.begin(), merged.timeline.end(),
                   [](const AllocationSample& a, const AllocationSample& b) {
                     return a.time < b.time;
                   });
  merged.policy_name =
      out.per_shard.empty() ? "" : out.per_shard.front().policy_name;
  SummarizeMerged(merged);
  out.total_rounds = merged.scheduling_passes;
  return out;
}

}  // namespace themis

#include "core/round.h"

#include "cluster/cluster.h"

namespace themis {

ResourceOffer MakeOffer(std::uint64_t round_id, Time now, Time lease_duration,
                        const Cluster& cluster) {
  ResourceOffer offer;
  offer.round_id = round_id;
  offer.time = now;
  offer.lease_duration = lease_duration;
  offer.gpus = cluster.FreeGpus();
  offer.free_per_machine = cluster.FreeGpusPerMachine();
  offer.machine_speeds = cluster.topology().machine_speeds();
  return offer;
}

int GrantSet::TotalGpus() const {
  int total = 0;
  for (const Grant& g : grants) total += static_cast<int>(g.gpus.size());
  return total;
}

int ApplyGrants(const GrantSet& grants, Cluster& cluster) {
  int applied = 0;
  for (const Grant& grant : grants.grants) {
    for (GpuId g : grant.gpus) {
      cluster.Allocate(g, grant.app, grant.job, grants.lease_expiry);
      ++applied;
    }
  }
  return applied;
}

}  // namespace themis

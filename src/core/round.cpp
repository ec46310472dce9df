#include "core/round.h"

#include <stdexcept>

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

double ResourceOffer::TotalEffectiveGpus() const {
  if (machine_speeds.empty()) return static_cast<double>(TotalGpus());
  double total = 0.0;
  for (std::size_t m = 0; m < free_per_machine.size(); ++m)
    total += static_cast<double>(free_per_machine[m]) * machine_speeds[m];
  return total;
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

FreePool::FreePool(const std::vector<GpuId>& gpus, const Topology& topo)
    : sentinel_(static_cast<GpuId>(topo.num_gpus())),
      next_(topo.num_gpus() + 1, kNoGpu),
      prev_(topo.num_gpus() + 1, kNoGpu),
      in_(topo.num_gpus(), 0),
      per_machine_(topo.num_machines(), 0),
      topo_(&topo),
      size_(static_cast<int>(gpus.size())) {
  GpuId last = sentinel_;
  for (GpuId g : gpus) {
    next_[last] = g;
    prev_[g] = last;
    in_[g] = 1;
    ++per_machine_[topo.gpu(g).machine];
    last = g;
  }
  next_[last] = sentinel_;
  prev_[sentinel_] = last;
  // First()/Next() report kNoGpu past the end.
  if (next_[sentinel_] == sentinel_) next_[sentinel_] = kNoGpu;
}

void FreePool::Remove(GpuId g) {
  if (!Contains(g)) throw std::logic_error("FreePool::Remove: GPU not pooled");
  const GpuId p = prev_[g];
  const GpuId n = next_[g];
  next_[p] = n;
  if (n != kNoGpu) prev_[n] = p;
  if (next_[sentinel_] == sentinel_) next_[sentinel_] = kNoGpu;
  in_[g] = 0;
  --per_machine_[topo_->gpu(g).machine];
  --size_;
}

std::vector<GpuId> FreePool::ToVector() const {
  std::vector<GpuId> out;
  out.reserve(size_);
  for (GpuId g = First(); g != kNoGpu; g = Next(g)) out.push_back(g);
  return out;
}

std::vector<GpuId> FreePool::FirstN(int n) const {
  std::vector<GpuId> out;
  out.reserve(static_cast<std::size_t>(n < size_ ? n : size_));
  for (GpuId g = First(); g != kNoGpu && static_cast<int>(out.size()) < n;
       g = Next(g))
    out.push_back(g);
  return out;
}

std::vector<GpuId> FreePool::FirstNFastest(int n) const {
  // Uniform speeds: ascending id order is already fastest-first, and the
  // intrusive list walk is cheaper than the per-machine scan.
  if (topo_ == nullptr || topo_->uniform_speed()) return FirstN(n);
  std::vector<GpuId> out;
  out.reserve(static_cast<std::size_t>(n < size_ ? n : size_));
  for (MachineId m : topo_->machines_by_speed()) {
    if (static_cast<int>(out.size()) >= n) break;
    if (per_machine_[m] == 0) continue;
    for (GpuId g : topo_->machine_gpus(m)) {
      if (Contains(g)) {
        out.push_back(g);
        if (static_cast<int>(out.size()) == n) break;
      }
    }
  }
  return out;
}

}  // namespace themis

#include "cluster/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace themis {

Cluster::Cluster(ClusterSpec spec)
    : topo_(std::move(spec)),
      leases_(topo_.num_gpus()),
      machine_down_(topo_.num_machines(), false),
      free_on_machine_(topo_.num_machines()) {
  for (MachineId m = 0; m < static_cast<MachineId>(topo_.num_machines()); ++m)
    free_on_machine_[m] = topo_.machine_gpus(m);  // ascending by construction
}

std::vector<GpuId> Cluster::FreeGpus() const {
  std::vector<GpuId> out;
  out.reserve(num_gpus() - num_allocated_);
  for (MachineId m = 0; m < free_on_machine_.size(); ++m) {
    if (machine_down_[m]) continue;
    out.insert(out.end(), free_on_machine_[m].begin(),
               free_on_machine_[m].end());
  }
  return out;
}

std::vector<int> Cluster::FreeGpusPerMachine() const {
  std::vector<int> out(free_on_machine_.size());
  for (MachineId m = 0; m < out.size(); ++m)
    out[m] = machine_down_[m] ? 0
                              : static_cast<int>(free_on_machine_[m].size());
  return out;
}

void Cluster::Allocate(GpuId gpu, AppId app, JobId job, Time expiry) {
  if (gpu >= leases_.size()) throw std::out_of_range("Allocate: bad GPU id");
  if (leases_[gpu])
    throw std::logic_error("Allocate: GPU already leased (double allocation)");
  const MachineId m = topo_.gpu(gpu).machine;
  if (machine_down_[m]) throw std::logic_error("Allocate: machine is down");
  leases_[gpu] = Lease{app, job, expiry};
  ++num_allocated_;
  // The GPU was free, so its machine's free list holds it.
  auto& free = free_on_machine_[m];
  free.erase(std::lower_bound(free.begin(), free.end(), gpu));
  expiries_.emplace(expiry, gpu);
}

void Cluster::Release(GpuId gpu) {
  if (gpu >= leases_.size()) throw std::out_of_range("Release: bad GPU id");
  if (!leases_[gpu]) throw std::logic_error("Release: GPU already free");
  expiries_.erase({leases_[gpu]->expiry, gpu});
  leases_[gpu].reset();
  --num_allocated_;
  auto& free = free_on_machine_[topo_.gpu(gpu).machine];
  free.insert(std::lower_bound(free.begin(), free.end(), gpu), gpu);
}

std::vector<GpuId> Cluster::ExpiredGpus(Time now) const {
  std::vector<GpuId> out;
  for (auto it = expiries_.begin();
       it != expiries_.end() && it->first <= now; ++it)
    out.push_back(it->second);
  std::sort(out.begin(), out.end());
  return out;
}

Time Cluster::NextExpiryAfter(Time t) const {
  const auto it = expiries_.upper_bound(
      {t, std::numeric_limits<GpuId>::max()});
  return it == expiries_.end() ? kInfiniteTime : it->first;
}

void Cluster::SetMachineDown(MachineId machine, bool down) {
  if (machine >= machine_down_.size())
    throw std::out_of_range("SetMachineDown: bad machine id");
  machine_down_[machine] = down;
}

}  // namespace themis

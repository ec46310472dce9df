// Reference placement pickers: the map-grouping implementation that
// PickBestPlaced / PickBestPlacedNear replaced with GpuPool buckets, and the
// speed-ordered walk over the whole topology that PickFastest replaced.
//
// Each call regroups a plain GPU vector by machine through a std::map and
// sorts copies of the groups, which is exactly the selection rule with none
// of the pool reuse. placement_test checks GpuPool picks against these
// functions over random pools, anchors, counts and pick-then-Remove
// sequences, so the production pickers must reproduce every pick, in
// order, not just a pick of the same quality.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cluster/topology.h"

namespace themis {
namespace oracle {

struct MachineGroup {
  MachineId machine;
  RackId rack;
  double speed;
  std::vector<GpuId> gpus;  // in `free` order
};

inline std::vector<MachineGroup> GroupByMachine(const std::vector<GpuId>& free,
                                                const Topology& topo) {
  std::map<MachineId, MachineGroup> by_machine;
  for (GpuId g : free) {
    const GpuCoord& c = topo.gpu(g);
    auto& grp = by_machine[c.machine];
    grp.machine = c.machine;
    grp.rack = c.rack;
    grp.speed = topo.machine_speed(c.machine);
    grp.gpus.push_back(g);
  }
  std::vector<MachineGroup> out;
  out.reserve(by_machine.size());
  for (auto& [m, grp] : by_machine) out.push_back(std::move(grp));
  return out;
}

inline std::vector<GpuId> PickBestPlaced(int count,
                                         const std::vector<GpuId>& free,
                                         const Topology& topo) {
  std::vector<GpuId> picked;
  if (count <= 0 || free.empty()) return picked;

  auto groups = GroupByMachine(free, topo);

  // One machine that fits: fastest first, then the tightest fit.
  const MachineGroup* best_fit = nullptr;
  for (const auto& g : groups) {
    if (static_cast<int>(g.gpus.size()) >= count) {
      if (!best_fit || g.speed > best_fit->speed ||
          (g.speed == best_fit->speed && g.gpus.size() < best_fit->gpus.size()))
        best_fit = &g;
    }
  }
  if (best_fit) {
    picked.assign(best_fit->gpus.begin(), best_fit->gpus.begin() + count);
    return picked;
  }

  // Otherwise fill machine by machine within the rack with the most free
  // GPUs (lowest rack id on ties), fastest and then largest first.
  std::map<RackId, int> rack_free;
  for (const auto& g : groups) rack_free[g.rack] += static_cast<int>(g.gpus.size());
  RackId best_rack = groups.front().rack;
  int best_rack_free = -1;
  for (const auto& [rack, cnt] : rack_free)
    if (cnt > best_rack_free) {
      best_rack = rack;
      best_rack_free = cnt;
    }

  std::stable_sort(groups.begin(), groups.end(),
                   [&](const MachineGroup& a, const MachineGroup& b) {
                     const bool ar = a.rack == best_rack;
                     const bool br = b.rack == best_rack;
                     if (ar != br) return ar;
                     if (a.speed != b.speed) return a.speed > b.speed;
                     return a.gpus.size() > b.gpus.size();
                   });
  for (const auto& g : groups) {
    for (GpuId id : g.gpus) {
      if (static_cast<int>(picked.size()) == count) return picked;
      picked.push_back(id);
    }
  }
  return picked;
}

inline std::vector<GpuId> PickBestPlacedNear(int count,
                                             const std::vector<GpuId>& free,
                                             const std::vector<GpuId>& anchor,
                                             const Topology& topo) {
  if (count <= 0 || free.empty()) return {};
  if (anchor.empty()) return PickBestPlaced(count, free, topo);

  std::map<MachineId, int> anchor_machines;
  std::map<RackId, int> anchor_racks;
  for (GpuId g : anchor) {
    const GpuCoord& c = topo.gpu(g);
    ++anchor_machines[c.machine];
    ++anchor_racks[c.rack];
  }

  auto groups = GroupByMachine(free, topo);
  std::stable_sort(groups.begin(), groups.end(),
                   [&](const MachineGroup& a, const MachineGroup& b) {
                     const bool am = anchor_machines.count(a.machine) > 0;
                     const bool bm = anchor_machines.count(b.machine) > 0;
                     if (am != bm) return am;
                     const bool ar = anchor_racks.count(a.rack) > 0;
                     const bool br = anchor_racks.count(b.rack) > 0;
                     if (ar != br) return ar;
                     if (a.speed != b.speed) return a.speed > b.speed;
                     return a.gpus.size() > b.gpus.size();
                   });
  std::vector<GpuId> picked;
  for (const auto& g : groups) {
    for (GpuId id : g.gpus) {
      if (static_cast<int>(picked.size()) == count) return picked;
      picked.push_back(id);
    }
  }
  return picked;
}

/// The greedy baselines' fastest-first pick as the context's old free pool
/// took it: walk every machine of the topology by descending speed (ties
/// ascending machine id) and take its still-pooled GPUs in ascending id.
/// Offers list GPUs ascending, so for an ascending pool this is the order
/// PickFastest must reproduce.
inline std::vector<GpuId> PickFastest(int count, const std::vector<GpuId>& free,
                                      const Topology& topo) {
  const std::set<GpuId> pooled(free.begin(), free.end());
  std::vector<GpuId> picked;
  for (MachineId m : topo.machines_by_speed()) {
    for (GpuId g : topo.machine_gpus(m)) {
      if (static_cast<int>(picked.size()) >= count) return picked;
      if (pooled.count(g) > 0) picked.push_back(g);
    }
  }
  return picked;
}

}  // namespace oracle
}  // namespace themis

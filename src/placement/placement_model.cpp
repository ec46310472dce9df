#include "placement/placement_model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace themis {

double SlowdownAtLevel(const ModelProfile& model, LocalityLevel level) {
  switch (level) {
    case LocalityLevel::kSlot: return model.sensitivity.slot;
    case LocalityLevel::kMachine: return model.sensitivity.machine;
    case LocalityLevel::kRack: return model.sensitivity.rack;
    case LocalityLevel::kCrossRack: return model.sensitivity.cross_rack;
  }
  return 1.0;
}

double Slowdown(const ModelProfile& model, const std::vector<GpuId>& gpus,
                const Topology& topo) {
  if (gpus.empty()) return 1.0;
  return SlowdownAtLevel(model, topo.SpanLevel(gpus));
}

double PlacementScore(const std::vector<GpuId>& gpus, const Topology& topo) {
  if (gpus.empty()) return 1.0;
  switch (topo.SpanLevel(gpus)) {
    case LocalityLevel::kSlot: return 1.0;
    case LocalityLevel::kMachine: return 0.8;
    case LocalityLevel::kRack: return 0.6;
    case LocalityLevel::kCrossRack: return 0.4;
  }
  return 0.4;
}

double EffectiveRate(const ModelProfile& model, const std::vector<GpuId>& gpus,
                     const Topology& topo) {
  if (gpus.empty()) return 0.0;
  // Gangs are synchronous SGD: every iteration barriers on the slowest
  // worker, so a mixed-generation gang runs at its minimum speed — one slow
  // straggler GPU drags the whole gang.
  return static_cast<double>(gpus.size()) * Slowdown(model, gpus, topo) *
         topo.MinSpeed(gpus);
}

GpuPool::GpuPool(const std::vector<GpuId>& gpus, const Topology& topo)
    : topo_(&topo) {
  const auto by_machine = [&](GpuId a, GpuId b) {
    return topo.gpu(a).machine < topo.gpu(b).machine;
  };
  if (std::is_sorted(gpus.begin(), gpus.end(), by_machine)) {
    Build(gpus);
    return;
  }
  // Not grouped by machine: group a copy, keeping input order within each
  // machine.
  std::vector<GpuId> grouped = gpus;
  std::stable_sort(grouped.begin(), grouped.end(), by_machine);
  Build(grouped);
}

void GpuPool::Build(const std::vector<GpuId>& gpus) {
  gpus_.reserve(gpus.size());
  for (GpuId g : gpus) {
    const MachineId m = topo_->gpu(g).machine;
    if (buckets_.empty() || m != buckets_.back().machine)
      buckets_.push_back({m, topo_->gpu(g).rack, topo_->machine_speed(m),
                          static_cast<int>(gpus_.size()), 0});
    ++buckets_.back().size;
    gpus_.push_back(g);
  }
  size_ = static_cast<int>(gpus_.size());
}

int GpuPool::Find(MachineId m) const {
  const auto b = std::lower_bound(
      buckets_.begin(), buckets_.end(), m,
      [](const Bucket& x, MachineId id) { return x.machine < id; });
  if (b == buckets_.end() || b->machine != m) return -1;
  return static_cast<int>(b - buckets_.begin());
}

std::span<const GpuId> GpuPool::on_machine(MachineId m) const {
  const int i = Find(m);
  if (i < 0) return {};
  return gpus(buckets_[i]);
}

void GpuPool::Remove(GpuId g) {
  const int i = Find(topo_->gpu(g).machine);
  if (i >= 0) {
    Bucket& b = buckets_[i];
    GpuId* first = gpus_.data() + b.offset;
    GpuId* last = first + b.size;
    GpuId* at = std::find(first, last, g);
    if (at != last) {
      std::copy(at + 1, last, at);
      --size_;
      if (--b.size == 0) buckets_.erase(buckets_.begin() + i);
      return;
    }
  }
  throw std::logic_error("GpuPool::Remove: GPU not pooled");
}

namespace {

// Fills `picked` bucket by bucket, in the given bucket order, up to `count`.
void FillInOrder(int count, const GpuPool& pool,
                 const std::vector<const GpuPool::Bucket*>& order,
                 std::vector<GpuId>& picked) {
  picked.clear();
  picked.reserve(static_cast<std::size_t>(std::min(count, pool.size())));
  for (const GpuPool::Bucket* b : order) {
    for (GpuId id : pool.gpus(*b)) {
      if (static_cast<int>(picked.size()) == count) return;
      picked.push_back(id);
    }
  }
}

std::vector<GpuId> FillInOrder(
    int count, const GpuPool& pool,
    const std::vector<const GpuPool::Bucket*>& order) {
  std::vector<GpuId> picked;
  FillInOrder(count, pool, order, picked);
  return picked;
}

}  // namespace

std::vector<GpuId> PickBestPlaced(int count, const GpuPool& pool) {
  if (count <= 0 || pool.empty()) return {};
  using Bucket = GpuPool::Bucket;
  const std::vector<Bucket>& buckets = pool.buckets();

  // First preference: a single machine that fits the whole request; among
  // those, the fastest generation first (a whole gang on one machine runs at
  // that machine's speed), then the *tightest* fit to avoid fragmenting big
  // machines. With uniform speeds this is the original tightest-fit rule.
  const Bucket* best_fit = nullptr;
  for (const Bucket& b : buckets) {
    if (b.size >= count) {
      if (!best_fit || b.speed > best_fit->speed ||
          (b.speed == best_fit->speed && b.size < best_fit->size))
        best_fit = &b;
    }
  }
  if (best_fit) {
    const std::span<const GpuId> gpus = pool.gpus(*best_fit);
    return {gpus.begin(), gpus.begin() + count};
  }

  // Otherwise fill machine-by-machine, largest bucket first, preferring to
  // stay within the rack that holds the most pooled GPUs (lowest rack id on
  // ties).
  std::vector<std::pair<RackId, int>> rack_free;
  for (const Bucket& b : buckets) {
    auto it = std::find_if(rack_free.begin(), rack_free.end(),
                           [&](const auto& r) { return r.first == b.rack; });
    if (it == rack_free.end())
      rack_free.emplace_back(b.rack, b.size);
    else
      it->second += b.size;
  }
  RackId best_rack = rack_free.front().first;
  int best_rack_free = -1;
  for (const auto& [rack, cnt] : rack_free)
    if (cnt > best_rack_free || (cnt == best_rack_free && rack < best_rack)) {
      best_rack = rack;
      best_rack_free = cnt;
    }

  std::vector<const Bucket*> order;
  order.reserve(buckets.size());
  for (const Bucket& b : buckets) order.push_back(&b);
  std::stable_sort(order.begin(), order.end(),
                   [&](const Bucket* a, const Bucket* b) {
                     const bool ar = a->rack == best_rack;
                     const bool br = b->rack == best_rack;
                     if (ar != br) return ar;  // preferred rack first
                     // Faster machines first at equal locality (no-op on
                     // uniform-speed clusters).
                     if (a->speed != b->speed) return a->speed > b->speed;
                     return a->size > b->size;
                   });
  return FillInOrder(count, pool, order);  // fewer than count if scarce
}

std::vector<GpuId> PickBestPlacedNear(int count, const GpuPool& pool,
                                      const std::vector<GpuId>& anchor,
                                      const Topology& topo) {
  std::vector<GpuId> picked;
  PickBestPlacedNear(count, pool, anchor, topo, picked);
  return picked;
}

void PickBestPlacedNear(int count, const GpuPool& pool,
                        const std::vector<GpuId>& anchor, const Topology& topo,
                        std::vector<GpuId>& picked) {
  if (count <= 0 || pool.empty()) {
    picked.clear();
    return;
  }
  if (anchor.empty()) {
    picked = PickBestPlaced(count, pool);
    return;
  }

  // An anchor is one job's gang, so a sorted vector beats a tree.
  std::vector<MachineId> anchor_machines;
  std::vector<RackId> anchor_racks;
  anchor_machines.reserve(anchor.size());
  anchor_racks.reserve(anchor.size());
  for (GpuId g : anchor) {
    const GpuCoord& c = topo.gpu(g);
    anchor_machines.push_back(c.machine);
    anchor_racks.push_back(c.rack);
  }
  for (auto* ids : {&anchor_machines, &anchor_racks}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  const auto has = [](const auto& ids, auto id) {
    return std::binary_search(ids.begin(), ids.end(), id);
  };

  using Bucket = GpuPool::Bucket;
  std::vector<const Bucket*> order;
  order.reserve(pool.buckets().size());
  for (const Bucket& b : pool.buckets()) order.push_back(&b);
  std::stable_sort(order.begin(), order.end(),
                   [&](const Bucket* a, const Bucket* b) {
                     const bool am = has(anchor_machines, a->machine);
                     const bool bm = has(anchor_machines, b->machine);
                     if (am != bm) return am;  // same machine as anchor first
                     const bool ar = has(anchor_racks, a->rack);
                     const bool br = has(anchor_racks, b->rack);
                     if (ar != br) return ar;  // then same rack
                     // Locality beats speed (the anchor's generation paces
                     // the gang anyway); at equal locality prefer faster.
                     if (a->speed != b->speed) return a->speed > b->speed;
                     return a->size > b->size;
                   });
  FillInOrder(count, pool, order, picked);
}

std::vector<GpuId> PickFastest(int count, const GpuPool& pool) {
  if (count <= 0 || pool.empty()) return {};
  std::vector<const GpuPool::Bucket*> order;
  order.reserve(pool.buckets().size());
  for (const GpuPool::Bucket& b : pool.buckets()) order.push_back(&b);
  // Stable: equal-speed machines keep ascending machine id.
  std::stable_sort(order.begin(), order.end(),
                   [](const GpuPool::Bucket* a, const GpuPool::Bucket* b) {
                     return a->speed > b->speed;
                   });
  return FillInOrder(count, pool, order);
}

}  // namespace themis

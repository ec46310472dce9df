#include "cluster/topology.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common/knobs.h"

namespace themis {

const std::vector<GpuGeneration>& KnownGpuGenerations() {
  // Relative training throughput against the K80 baseline, rounded to the
  // coarse ratios the scenario axis needs (not a precise device model).
  static const std::vector<GpuGeneration> kTable = {
      {"K80", 1.0}, {"M60", 1.3}, {"P100", 2.0}, {"V100", 3.0}, {"A100", 6.0},
  };
  return kTable;
}

const GpuGeneration& GpuGenerationByName(const std::string& name) {
  for (const GpuGeneration& gen : KnownGpuGenerations())
    if (gen.name == name) return gen;
  std::string known;
  for (const GpuGeneration& gen : KnownGpuGenerations()) {
    if (!known.empty()) known += ", ";
    known += gen.name;
  }
  throw std::invalid_argument("unknown GPU generation \"" + name +
                              "\" (known generations: " + known + ")");
}

std::vector<GenerationShare> ParseGenerationMix(const std::string& spec) {
  std::vector<GenerationShare> mix;
  double total = 0.0;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string entry = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const std::size_t colon = entry.find(':');
    if (entry.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 == entry.size())
      throw std::invalid_argument(
          "generation mix entry \"" + entry +
          "\" is not NAME:FRACTION (e.g. K80:0.25,V100:0.5,A100:0.25)");
    GenerationShare share;
    share.generation = GpuGenerationByName(entry.substr(0, colon));
    const std::string frac = entry.substr(colon + 1);
    share.fraction = ParseNumber<double>(frac).value_or(0.0);
    if (!(share.fraction > 0.0) || share.fraction > 1.0)
      throw std::invalid_argument("generation mix fraction \"" + frac +
                                  "\" must be a number in (0, 1]");
    total += share.fraction;
    mix.push_back(std::move(share));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (mix.empty())
    throw std::invalid_argument("generation mix is empty");
  if (std::abs(total - 1.0) > 1e-6)
    throw std::invalid_argument(
        "generation mix fractions sum to " + std::to_string(total) +
        ", expected 1");
  return mix;
}

void ApplyGenerationMix(ClusterSpec& spec,
                        const std::vector<GenerationShare>& mix) {
  if (mix.empty())
    throw std::invalid_argument("ApplyGenerationMix: empty mix");
  const int total = spec.TotalMachines();
  // Cumulative-fraction boundaries; the last share absorbs rounding so every
  // machine is assigned exactly once.
  std::vector<int> boundary(mix.size());
  double cum = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    cum += mix[i].fraction;
    boundary[i] = i + 1 == mix.size()
                      ? total
                      : static_cast<int>(std::lround(cum * total));
    // A share that rounds to zero machines would silently vanish from the
    // cluster the caller asked for — fail loudly instead (the mix needs a
    // bigger cluster or coarser fractions).
    if (boundary[i] <= (i == 0 ? 0 : boundary[i - 1]))
      throw std::invalid_argument(
          "generation mix: share " + mix[i].generation.name + ":" +
          std::to_string(mix[i].fraction) + " rounds to zero of the " +
          std::to_string(total) + " machines");
  }
  int index = 0;
  std::size_t share = 0;
  for (RackSpec& rack : spec.racks) {
    for (MachineSpec& machine : rack.machines) {
      while (share + 1 < mix.size() && index >= boundary[share]) ++share;
      machine.generation = mix[share].generation;
      ++index;
    }
  }
}

const char* ToString(LocalityLevel level) {
  switch (level) {
    case LocalityLevel::kSlot: return "slot";
    case LocalityLevel::kMachine: return "machine";
    case LocalityLevel::kRack: return "rack";
    case LocalityLevel::kCrossRack: return "cross-rack";
  }
  return "?";
}

int ClusterSpec::TotalGpus() const {
  int total = 0;
  for (const auto& rack : racks)
    for (const auto& m : rack.machines) total += m.num_gpus;
  return total;
}

int ClusterSpec::TotalMachines() const {
  int total = 0;
  for (const auto& rack : racks) total += static_cast<int>(rack.machines.size());
  return total;
}

double ClusterSpec::TotalEffectiveGpus() const {
  double total = 0.0;
  for (const auto& rack : racks)
    for (const auto& m : rack.machines)
      total += static_cast<double>(m.num_gpus) * m.generation.speed;
  return total;
}

ClusterSpec ClusterSpec::Simulation256() {
  // 4 racks; each rack hosts 12x 4-GPU machines (NVLink pairs), 6x 2-GPU
  // machines and 4x 1-GPU machines: 4 * (48 + 12 + 4) = 256 GPUs.
  ClusterSpec spec;
  for (int r = 0; r < 4; ++r) {
    RackSpec rack;
    for (int i = 0; i < 12; ++i) rack.machines.push_back({4, 2});
    for (int i = 0; i < 6; ++i) rack.machines.push_back({2, 2});
    for (int i = 0; i < 4; ++i) rack.machines.push_back({1, 1});
    spec.racks.push_back(std::move(rack));
  }
  return spec;
}

ClusterSpec ClusterSpec::Simulation256Mixed() {
  // 25/50/25 K80 / V100 / A100 by rack: rack 0 K80, racks 1-2 V100,
  // rack 3 A100 — the generation-mix axis over the Sec. 8.1 shape.
  ClusterSpec spec = Simulation256();
  const GpuGeneration* by_rack[] = {
      &GpuGenerationByName("K80"), &GpuGenerationByName("V100"),
      &GpuGenerationByName("V100"), &GpuGenerationByName("A100")};
  for (std::size_t r = 0; r < spec.racks.size(); ++r)
    for (MachineSpec& m : spec.racks[r].machines)
      m.generation = *by_rack[r % 4];
  return spec;
}

ClusterSpec ClusterSpec::Testbed50() {
  // 50 GPUs across 18 instances with 1/2/4 GPUs each, mirroring the paper's
  // NC/NV-series Azure mixture, spread over two racks:
  //   rack A: 7x 4-GPU + 4x 2-GPU + 2x 1-GPU = 38 GPUs, 13 instances
  //   rack B: 2x 4-GPU + 1x 2-GPU + 2x 1-GPU = 12 GPUs,  5 instances
  ClusterSpec spec;
  RackSpec a;
  for (int i = 0; i < 7; ++i) a.machines.push_back({4, 2});
  for (int i = 0; i < 4; ++i) a.machines.push_back({2, 2});
  for (int i = 0; i < 2; ++i) a.machines.push_back({1, 1});
  RackSpec b;
  for (int i = 0; i < 2; ++i) b.machines.push_back({4, 2});
  for (int i = 0; i < 1; ++i) b.machines.push_back({2, 2});
  for (int i = 0; i < 2; ++i) b.machines.push_back({1, 1});
  spec.racks.push_back(std::move(a));
  spec.racks.push_back(std::move(b));
  return spec;
}

ClusterSpec ClusterSpec::Testbed50Mixed() {
  // The paper's actual Azure instance generations: NC-series (the 4-GPU
  // boxes) carry K80s, NV-series (the 2-/1-GPU boxes) carry M60s.
  ClusterSpec spec = Testbed50();
  const GpuGeneration& k80 = GpuGenerationByName("K80");
  const GpuGeneration& m60 = GpuGenerationByName("M60");
  for (RackSpec& rack : spec.racks)
    for (MachineSpec& m : rack.machines)
      m.generation = m.num_gpus >= 4 ? k80 : m60;
  return spec;
}

std::optional<ClusterSpec> ClusterSpec::Preset(const std::string& name) {
  if (name == "sim256") return Simulation256();
  if (name == "sim256-mixed") return Simulation256Mixed();
  if (name == "testbed50") return Testbed50();
  if (name == "testbed50-mixed") return Testbed50Mixed();
  return std::nullopt;
}

ClusterSpec ClusterSpec::FromName(const std::string& name) {
  if (std::optional<ClusterSpec> preset = Preset(name)) return *preset;
  const std::string_view s = name;
  const std::size_t x1 = s.find('x'), x2 = s.find('x', x1 + 1);
  if (x1 != s.npos && x2 != s.npos) {
    const auto racks = ParseNumber<int>(s.substr(0, x1));
    const auto machines = ParseNumber<int>(s.substr(x1 + 1, x2 - x1 - 1));
    const auto gpus = ParseNumber<int>(s.substr(x2 + 1));
    if (racks > 0 && machines > 0 && gpus > 0)
      return Uniform(*racks, *machines, *gpus, *gpus % 2 == 0 ? 2 : 1);
  }
  throw std::invalid_argument(
      "unknown cluster \"" + name +
      "\" (expected sim256, sim256-mixed, testbed50, testbed50-mixed or "
      "RxMxG, e.g. 2x4x4)");
}

ClusterSpec ClusterSpec::Uniform(int racks, int machines_per_rack,
                                 int gpus_per_machine, int gpus_per_slot) {
  ClusterSpec spec;
  for (int r = 0; r < racks; ++r) {
    RackSpec rack;
    for (int m = 0; m < machines_per_rack; ++m)
      rack.machines.push_back({gpus_per_machine, gpus_per_slot});
    spec.racks.push_back(std::move(rack));
  }
  return spec;
}

Topology::Topology(ClusterSpec spec) : spec_(std::move(spec)) {
  GpuId next_gpu = 0;
  MachineId next_machine = 0;
  for (RackId r = 0; r < spec_.racks.size(); ++r) {
    for (const MachineSpec& m : spec_.racks[r].machines) {
      if (m.num_gpus <= 0)
        throw std::invalid_argument("machine with non-positive GPU count");
      if (m.gpus_per_slot <= 0 || m.num_gpus % m.gpus_per_slot != 0)
        throw std::invalid_argument("num_gpus must be a multiple of gpus_per_slot");
      if (!(m.generation.speed > 0.0) || !std::isfinite(m.generation.speed))
        throw std::invalid_argument("GPU generation \"" + m.generation.name +
                                    "\" has non-positive speed");
      machine_racks_.push_back(r);
      machine_gpu_counts_.push_back(m.num_gpus);
      machine_generations_.push_back(m.generation);
      machine_speeds_.push_back(m.generation.speed);
      std::vector<GpuId> ids;
      for (int g = 0; g < m.num_gpus; ++g) {
        GpuCoord coord;
        coord.gpu = next_gpu;
        coord.machine = next_machine;
        coord.rack = r;
        coord.slot = g / m.gpus_per_slot;
        coord.index_in_slot = g % m.gpus_per_slot;
        gpus_.push_back(coord);
        ids.push_back(next_gpu);
        ++next_gpu;
      }
      machine_gpu_ids_.push_back(std::move(ids));
      ++next_machine;
    }
  }

  uniform_speed_ = true;
  max_speed_ = machine_speeds_.empty() ? 1.0 : machine_speeds_.front();
  for (double s : machine_speeds_) {
    if (s != machine_speeds_.front()) uniform_speed_ = false;
    max_speed_ = std::max(max_speed_, s);
  }
  machines_by_speed_.resize(machine_speeds_.size());
  std::iota(machines_by_speed_.begin(), machines_by_speed_.end(), 0);
  std::stable_sort(machines_by_speed_.begin(), machines_by_speed_.end(),
                   [this](MachineId a, MachineId b) {
                     return machine_speeds_[a] > machine_speeds_[b];
                   });
}

double Topology::SpeedSum(const std::vector<GpuId>& gpus) const {
  if (uniform_speed_)
    return static_cast<double>(gpus.size()) *
           (machine_speeds_.empty() ? 1.0 : machine_speeds_.front());
  double sum = 0.0;
  for (GpuId g : gpus) sum += gpu_speed(g);
  return sum;
}

double Topology::MinSpeed(const std::vector<GpuId>& gpus) const {
  if (gpus.empty()) return 1.0;
  if (uniform_speed_) return machine_speeds_.empty() ? 1.0 : machine_speeds_.front();
  double min = gpu_speed(gpus.front());
  for (GpuId g : gpus) min = std::min(min, gpu_speed(g));
  return min;
}

LocalityLevel Topology::SpanLevel(const std::vector<GpuId>& gpus) const {
  if (gpus.size() <= 1) return LocalityLevel::kSlot;
  const GpuCoord& first = gpu(gpus.front());
  bool same_slot = true;
  bool same_machine = true;
  bool same_rack = true;
  for (GpuId id : gpus) {
    const GpuCoord& c = gpu(id);
    if (c.machine != first.machine) same_machine = false;
    if (c.machine != first.machine || c.slot != first.slot) same_slot = false;
    if (c.rack != first.rack) same_rack = false;
  }
  if (same_slot) return LocalityLevel::kSlot;
  if (same_machine) return LocalityLevel::kMachine;
  if (same_rack) return LocalityLevel::kRack;
  return LocalityLevel::kCrossRack;
}

}  // namespace themis

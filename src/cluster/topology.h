// Cluster topology description: racks contain machines, machines contain
// slots (an NVLink island of GPUs), slots contain GPUs. This hierarchy gives
// the four locality levels the paper's placement score uses (Sec. 8.1):
// slot (NVLink), machine (PCIe), rack, and cross-rack.
//
// Machines additionally carry a GPU *generation* — a named relative speed
// (K80 = 1.0 is the baseline; a V100 does 3x the work of a K80 per minute).
// The paper's evaluation clusters are heterogeneous NC/NV-series Azure
// instances; modelling the generation as a first-class resource dimension
// lets policies price faster machines into the finish-time-fairness bid.
// All GPUs of one machine share its generation.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace themis {

/// Relative placement of a set of GPUs, ordered best to worst. Matches the
/// paper's 4-level placement scoring scheme.
enum class LocalityLevel : int {
  kSlot = 0,       // all GPUs share an NVLink slot
  kMachine = 1,    // all GPUs in one machine, across slots (PCIe)
  kRack = 2,       // all GPUs in one rack, across machines
  kCrossRack = 3,  // GPUs span racks
};

const char* ToString(LocalityLevel level);

/// A GPU generation: a name plus its relative speed. Speed is the work
/// multiplier against the K80 baseline — a job's progress rate on a gang is
/// G * S * min(speed over the gang's GPUs); synchronous SGD runs at the pace
/// of the slowest worker, so one straggler GPU drags the whole gang.
struct GpuGeneration {
  std::string name = "K80";
  double speed = 1.0;
};

/// The built-in generation table (K80 1.0, M60 1.3, P100 2.0, V100 3.0,
/// A100 6.0). Scenario files and `themis_cli --generations` resolve names
/// against it.
const std::vector<GpuGeneration>& KnownGpuGenerations();

/// Look up a known generation by (case-sensitive) name. Throws
/// std::invalid_argument naming the offender and listing the known
/// generations — scenario loading forwards this as its pointed error.
const GpuGeneration& GpuGenerationByName(const std::string& name);

struct MachineSpec {
  MachineSpec() = default;
  MachineSpec(int num_gpus, int gpus_per_slot, GpuGeneration generation = {})
      : num_gpus(num_gpus),
        gpus_per_slot(gpus_per_slot),
        generation(std::move(generation)) {}

  int num_gpus = 4;
  /// GPUs per NVLink slot; num_gpus must be a multiple of this.
  int gpus_per_slot = 2;
  /// Generation shared by every GPU on the machine. Defaults to the K80
  /// baseline (speed 1.0), so generation-unaware specs are unchanged.
  GpuGeneration generation;
};

struct RackSpec {
  std::vector<MachineSpec> machines;
};

/// One entry of a generation mix: `fraction` of the cluster's machines get
/// `generation`.
struct GenerationShare {
  GpuGeneration generation;
  double fraction = 1.0;
};

/// Parse a "K80:0.25,V100:0.5,A100:0.25" machine-fraction mix (the
/// `themis_cli --generations` syntax). Names resolve via
/// GpuGenerationByName; fractions must be positive and sum to 1 (within
/// 1e-6). Throws std::invalid_argument on any violation.
std::vector<GenerationShare> ParseGenerationMix(const std::string& spec);

struct ClusterSpec;

/// Assign generations to `spec`'s machines in rack-major order by cumulative
/// fraction: the first round(f1 * M) machines get the first generation, and
/// so on, with the final share absorbing rounding. Deterministic.
void ApplyGenerationMix(ClusterSpec& spec,
                        const std::vector<GenerationShare>& mix);

struct ClusterSpec {
  std::vector<RackSpec> racks;

  int TotalGpus() const;
  int TotalMachines() const;
  /// Sum over machines of num_gpus * generation.speed — the cluster's
  /// capacity in effective (K80-equivalent) GPUs. Equals TotalGpus() when
  /// every machine runs the speed-1.0 baseline.
  double TotalEffectiveGpus() const;

  /// The heterogeneous 256-GPU simulation cluster from Sec. 8.1: a mixture
  /// of 4-GPU, 2-GPU and 1-GPU machines spread across multiple racks.
  static ClusterSpec Simulation256();

  /// Simulation256 with a 25/50/25 K80 / V100 / A100 generation mix by
  /// rack (rack 0 K80, racks 1-2 V100, rack 3 A100).
  static ClusterSpec Simulation256Mixed();

  /// The 50-GPU Azure testbed from Sec. 8.1: 18 instances with 1/2/4 GPUs
  /// (NC- and NV-series).
  static ClusterSpec Testbed50();

  /// Testbed50 with the paper's actual instance generations: the 4-GPU
  /// NC-series boxes carry K80s, the 2-/1-GPU NV-series boxes carry M60s.
  static ClusterSpec Testbed50Mixed();

  /// Uniform cluster helper used by tests and microbenchmarks.
  static ClusterSpec Uniform(int racks, int machines_per_rack, int gpus_per_machine,
                             int gpus_per_slot);

  /// The preset named "sim256", "sim256-mixed", "testbed50" or
  /// "testbed50-mixed", or nullopt.
  static std::optional<ClusterSpec> Preset(const std::string& name);

  /// A preset, or "RxMxG": R racks of M machines with G GPUs each, in
  /// 2-GPU slots when G is even. Throws std::invalid_argument naming the
  /// accepted forms.
  static ClusterSpec FromName(const std::string& name);
};

/// Fully resolved coordinates of a single GPU.
struct GpuCoord {
  GpuId gpu = 0;          // global GPU index
  MachineId machine = 0;  // global machine index
  RackId rack = 0;
  int slot = 0;             // slot index within the machine
  int index_in_slot = 0;    // GPU index within its slot
};

/// Immutable index over a ClusterSpec: resolves GPU/machine coordinates and
/// answers locality queries. Built once per simulation.
class Topology {
 public:
  explicit Topology(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  int num_machines() const { return static_cast<int>(machine_racks_.size()); }
  int num_racks() const { return static_cast<int>(spec_.racks.size()); }

  const GpuCoord& gpu(GpuId id) const { return gpus_.at(id); }
  RackId rack_of_machine(MachineId m) const { return machine_racks_.at(m); }
  int gpus_on_machine(MachineId m) const { return machine_gpu_counts_.at(m); }
  /// Global GPU ids hosted by a machine (contiguous by construction).
  const std::vector<GpuId>& machine_gpus(MachineId m) const {
    return machine_gpu_ids_.at(m);
  }

  // --- Generation / speed resolution ------------------------------------
  const GpuGeneration& machine_generation(MachineId m) const {
    return machine_generations_.at(m);
  }
  double machine_speed(MachineId m) const { return machine_speeds_[m]; }
  /// Relative speed per machine, index = MachineId — the speed vector an
  /// offer carries alongside its per-machine free counts.
  const std::vector<double>& machine_speeds() const { return machine_speeds_; }
  double gpu_speed(GpuId g) const { return machine_speeds_[gpus_[g].machine]; }
  /// True when every machine runs the same speed (ascending-id order is then
  /// already fastest-first; speed-aware queries take the unweighted path).
  bool uniform_speed() const { return uniform_speed_; }
  double max_speed() const { return max_speed_; }
  /// Machine ids ordered fastest generation first, ties ascending id — the
  /// scan order of every fastest-first pool view. With uniform speeds this
  /// is plain ascending machine order.
  const std::vector<MachineId>& machines_by_speed() const {
    return machines_by_speed_;
  }
  /// Sum of gpu_speed over a set (effective GPU count of an allocation).
  double SpeedSum(const std::vector<GpuId>& gpus) const;
  /// Slowest generation in a set; gangs run at this speed (synchronous SGD
  /// paces on the straggler). Empty set yields 1.0 (vacuous, like Slowdown).
  double MinSpeed(const std::vector<GpuId>& gpus) const;

  /// Tightest locality level spanned by a set of GPUs. A singleton (or empty)
  /// set is kSlot: it cannot span any boundary.
  LocalityLevel SpanLevel(const std::vector<GpuId>& gpus) const;

 private:
  ClusterSpec spec_;
  std::vector<GpuCoord> gpus_;
  std::vector<RackId> machine_racks_;
  std::vector<int> machine_gpu_counts_;
  std::vector<std::vector<GpuId>> machine_gpu_ids_;
  std::vector<GpuGeneration> machine_generations_;
  std::vector<double> machine_speeds_;
  std::vector<MachineId> machines_by_speed_;
  bool uniform_speed_ = true;
  double max_speed_ = 1.0;
};

}  // namespace themis

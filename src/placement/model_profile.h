// Per-model performance profiles.
//
// The paper's Fig. 2 shows that different model architectures react very
// differently to GPU spread: VGG16/VGG19 (large fully-connected parameter
// tensors, ~500 MB of gradients per iteration) lose roughly half their
// throughput when 4 GPUs span two servers, while ResNet50 is essentially
// placement-insensitive. We encode that as a SensitivityProfile: the
// multiplicative slowdown S in (0, 1] applied at each locality level
// (Sec. 5.2 step 3: "three values for S, one each reflecting the case where
// GPUs span different slots in a machine; span multiple machines in a rack;
// and span racks").
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace themis {

struct SensitivityProfile {
  double slot = 1.0;        // all GPUs on one NVLink island: ideal
  double machine = 1.0;     // spans slots within a machine (PCIe)
  double rack = 1.0;        // spans machines within a rack
  double cross_rack = 1.0;  // spans racks
};

struct ModelProfile {
  std::string name;
  /// Images/sec on a single GPU with ideal placement; seeds Fig. 2.
  double serial_throughput = 100.0;
  /// Model parameter size in MB; drives how network-intensive the model is.
  double param_mb = 100.0;
  SensitivityProfile sensitivity;
  /// Paper terminology: "network-intensive" == placement-sensitive.
  bool network_intensive = false;
};

/// The five architectures in Fig. 2, with sensitivity profiles calibrated so
/// that the 4-GPUs-on-1-server vs 2x2-servers throughput ratios match the
/// figure's shape (VGG16 ~2x, VGG19 ~1.8x, AlexNet ~1.6x, Inception-v3 ~1.2x,
/// ResNet50 ~1.0x).
const std::vector<ModelProfile>& CanonicalModels();

/// Lookup by name; throws std::out_of_range on unknown model.
const ModelProfile& ModelByName(std::string_view name);

/// The placement-sensitive family used by the workload mix (VGG-like).
const ModelProfile& SensitiveModel();
/// The placement-insensitive family (ResNet-like).
const ModelProfile& InsensitiveModel();

}  // namespace themis

#include "placement/model_profile.h"

#include <stdexcept>

namespace themis {

const std::vector<ModelProfile>& CanonicalModels() {
  // Throughputs approximate Fig. 2's single-server bars on P100s; the
  // machine/rack/cross-rack slowdowns are chosen so the 1-server vs 2x2
  // ratio reproduces the figure (rack ~= the 2x2 case).
  static const std::vector<ModelProfile> kModels = {
      {"VGG16", 220.0, 528.0, {1.0, 0.90, 0.50, 0.35}, true},
      {"VGG19", 190.0, 549.0, {1.0, 0.90, 0.55, 0.40}, true},
      {"AlexNet", 500.0, 233.0, {1.0, 0.92, 0.62, 0.45}, true},
      {"Inceptionv3", 155.0, 92.0, {1.0, 0.97, 0.83, 0.70}, false},
      {"ResNet50", 210.0, 98.0, {1.0, 0.99, 0.96, 0.90}, false},
  };
  return kModels;
}

const ModelProfile& ModelByName(std::string_view name) {
  for (const auto& m : CanonicalModels())
    if (m.name == name) return m;
  throw std::out_of_range("unknown model: " + std::string(name));
}

const ModelProfile& SensitiveModel() { return ModelByName("VGG16"); }
const ModelProfile& InsensitiveModel() { return ModelByName("ResNet50"); }

}  // namespace themis

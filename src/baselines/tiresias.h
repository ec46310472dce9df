// Tiresias baseline (Gu et al., NSDI'19), emulated as in Sec. 8:
// "We model Tiresias using bids by having all apps report their total GPU
// service. The ARBITER assigns resources to apps that have the least GPU
// service. This model represents a version of Least Acquired Service (LAS)."
//
// Placement-unaware by design: GPUs are handed out in plain id order, one
// task-gang at a time, to the app with the least attained GPU service.
#pragma once

#include "sim/policy.h"

namespace themis {

class TiresiasPolicy final : public IRoundScheduler {
 public:
  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override;
  const char* name() const override { return "Tiresias"; }
};

}  // namespace themis

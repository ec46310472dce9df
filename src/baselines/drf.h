// DRF baseline (Ghodsi et al., NSDI'11) — the instantaneous resource-fair
// scheme Sec. 2.2 argues is a poor fit for ML workloads.
//
// With GPUs as the single contended resource, Dominant Resource Fairness
// reduces to instantaneous max-min on GPU share: whenever GPUs free up, the
// active app with the smallest *current* share of the cluster receives the
// next task-gang. It is placement-unaware and has no notion of finish-time:
// the motivation experiments show how that violates sharing incentive for
// placement-sensitive and long-task workloads.
#pragma once

#include "sim/policy.h"

namespace themis {

class DrfPolicy final : public IRoundScheduler {
 public:
  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override;
  const char* name() const override { return "DRF"; }
};

}  // namespace themis

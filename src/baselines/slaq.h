// SLAQ baseline (Zhang et al., SoCC'17), emulated as in Sec. 8:
// "We model SLAQ using bids by having all apps report their decrease in loss
// value given the resource allocation. The ARBITER assigns resources to apps
// so as to maximize the aggregate decrease in loss."
//
// Quality-driven and fairness/placement-oblivious: gangs are granted one at
// a time to the (app, job) whose loss would drop the most over the upcoming
// lease window given one more gang.
#pragma once

#include "sim/policy.h"

namespace themis {

class SlaqPolicy final : public IRoundScheduler {
 public:
  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override;
  const char* name() const override { return "SLAQ"; }
};

}  // namespace themis

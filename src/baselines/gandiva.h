// Gandiva baseline (Xiao et al., OSDI'18), emulated as in Sec. 8:
// "We model Gandiva by having all apps report the placement score for the
// resources offered, and running the same greedy placement algorithm at the
// end of each lease to maximize the placement scores for all apps."
//
// The policy is fairness-oblivious: it repeatedly grants one task-gang to
// whichever (app, job) pair realizes the highest placement score on the
// remaining free pool, breaking ties toward earlier arrivals. Lease-driven
// reallocation at every pass stands in for Gandiva's migration. GPU
// time-slicing is deliberately not modeled (the paper argues both systems
// would benefit equally).
#pragma once

#include "sim/policy.h"

namespace themis {

class GandivaPolicy final : public IRoundScheduler {
 public:
  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override;
  const char* name() const override { return "Gandiva"; }
};

}  // namespace themis

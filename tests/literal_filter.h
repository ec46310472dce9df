// The ARBITER's filter step (Fig. 3, steps 1-2) exactly as the paper states
// it, kept as a test oracle for ThemisPolicy::SelectParticipants: probe every
// active app for rho, keep the hungry ones, stable_sort them worst-off first
// under the policy's comparator, and cut at max(1, ceil((1-f) N)).
//
// The policy reaches the same ordered cut through the maintained RhoIndex
// (core/rho_index.h) without probing gangless apps. The oracle writes
// last_rho of every app it probes, and probing is pure only under the
// clairvoyant estimator (kNoisy draws from the estimator's RNG), so compare
// the two side by side only in clairvoyant runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/agent.h"
#include "core/themis_policy.h"

namespace themis {

inline std::vector<AppState*> LiteralFilter(const AppList& apps,
                                            const Agent& agent,
                                            const ThemisConfig& config) {
  const bool short_first = config.short_app_tiebreak;
  const auto worse = [short_first](const AppState* a, const AppState* b) {
    if (a->last_rho != b->last_rho) return a->last_rho > b->last_rho;
    if (short_first && a->ideal_time != b->ideal_time)
      return a->ideal_time < b->ideal_time;
    return a->id < b->id;
  };
  for (AppState* app : apps) app->last_rho = agent.CurrentRho(*app);
  std::vector<AppState*> candidates;
  for (AppState* app : apps)
    if (app->UnmetDemand() > 0) candidates.push_back(app);
  if (candidates.empty()) return candidates;
  std::stable_sort(candidates.begin(), candidates.end(), worse);
  const int n_offer = std::max(
      1, static_cast<int>(std::ceil((1.0 - config.fairness_knob) *
                                    static_cast<double>(candidates.size()))));
  candidates.resize(std::min<std::size_t>(n_offer, candidates.size()));
  return candidates;
}

}  // namespace themis

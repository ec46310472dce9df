#include "server/arbiter_core.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace themis::server {

void ArbiterConfig::Validate() const {
  if (!(lease_minutes > 0.0))
    throw std::invalid_argument("ArbiterConfig: lease_minutes must be > 0 (got " +
                                std::to_string(lease_minutes) + ")");
  if (!(round_interval_minutes > 0.0))
    throw std::invalid_argument(
        "ArbiterConfig: round_interval_minutes must be > 0 (got " +
        std::to_string(round_interval_minutes) + ")");
  if (restart_overhead_minutes < 0.0)
    throw std::invalid_argument(
        "ArbiterConfig: restart_overhead_minutes must be >= 0 (got " +
        std::to_string(restart_overhead_minutes) + ")");
  themis.Validate();
}

ArbiterCore::ArbiterCore(const ArbiterConfig& config)
    : config_(config),
      core_(config.cluster, MakePolicy(config.policy, config.themis),
            config.lease_minutes, config.restart_overhead_minutes,
            config.estimator, config.seed) {
  config_.Validate();
}

AppId ArbiterCore::RegisterApp(AppSpec spec) {
  if (round_open_)
    throw std::logic_error("ArbiterCore: RegisterApp inside an open round");
  spec.arrival = now();
  AppState& app = core_.AddApp(std::move(spec));
  core_.Admit(app);
  return app.id;
}

void ArbiterCore::RemoveApp(AppId id) {
  if (round_open_)
    throw std::logic_error("ArbiterCore: RemoveApp inside an open round");
  // Evicted, not converged: out of every index with its leases released,
  // without counting toward apps_finished().
  if (AppState* app = core_.FindApp(id)) core_.EvictApp(now(), *app);
}

int ArbiterCore::UnmetDemand(AppId id) const {
  const AppState* app = core_.FindApp(id);
  return (app == nullptr || app->finished) ? 0 : app->UnmetDemand();
}

RoundStart ArbiterCore::BeginRound() {
  if (round_open_)
    throw std::logic_error("ArbiterCore: BeginRound with a round open");
  // Multiplication, not accumulation: round k lands at exactly k * interval
  // on every path, so daemon and reference agree to the last bit.
  const Time t = static_cast<double>(core_.passes() + 1) *
                 config_.round_interval_minutes;
  core_.AdvanceTo(t);

  // Finish detection at the round boundary: the first job of an app to
  // reach the target accuracy is its best model; the app is done and its
  // remaining jobs are terminated (Sec. 2.1). Only lease holders progress,
  // so only they can converge. Ascending-id walk over a snapshot —
  // FinishJob edits the holder set.
  RoundStart start;
  start.time = t;
  const AppList holders = core_.holding_apps();
  for (AppState* app : holders) {
    for (JobState& job : app->jobs) {
      if (job.Running() && RoundCore::Converged(job)) {
        core_.FinishJob(t, *app, job);
        start.finished.push_back(app->id);
        break;
      }
    }
  }

  std::optional<ResourceOffer> offer = core_.BeginRound(t);
  start.round_id = core_.passes();
  if (offer) {
    start.have_offer = true;
    start.offer = std::move(*offer);
    round_open_ = true;
  } else {
    core_.FinishRound(nullptr);
  }
  return start;
}

GrantSet ArbiterCore::FinishRound(const ResourceOffer& offer) {
  if (!round_open_)
    throw std::logic_error("ArbiterCore: FinishRound without an open offer");
  round_open_ = false;
  GrantSet grants = core_.FinishRound(&offer);
  for (const Grant& g : grants.grants)
    digest_.Add(grants.round_id, grants.lease_expiry, g);
  return grants;
}

GrantSet ArbiterCore::RunOneRound(RoundStart* start) {
  RoundStart s = BeginRound();
  if (start != nullptr) *start = s;
  if (!s.have_offer) return GrantSet{};
  return FinishRound(s.offer);
}

}  // namespace themis::server

#include "server/arbiter_core.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/scenario.h"

namespace themis::server {

void ArbiterConfig::Validate() const {
  Require(lease_minutes > 0.0, "ArbiterConfig: lease_minutes must be > 0",
          lease_minutes);
  Require(round_interval_minutes > 0.0,
          "ArbiterConfig: round_interval_minutes must be > 0",
          round_interval_minutes);
  Require(restart_overhead_minutes >= 0.0,
          "ArbiterConfig: restart_overhead_minutes must be >= 0",
          restart_overhead_minutes);
  themis.Validate();
}

KnobTable ArbiterKnobs(ArbiterConfig& c) {
  return {"arbiter", {
      PolicyKnob(&c.policy), ClusterFlag(&c.cluster),
      Knob::Field("lease_minutes", "--lease", &c.lease_minutes,
                  "GPU lease, virtual minutes"),
      Knob::Field("round_interval_minutes", "--round-interval",
                  &c.round_interval_minutes, "virtual minutes between rounds"),
      Knob::Field("seed", "--seed", &c.seed, "arbiter seed")}};
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
  // so only they can converge. Ascending-id walk over a snapshot of the
  // RhoIndex holder class — FinishJob edits it.
  RoundStart start;
  start.time = t;
  const AppList holders = core_.rho_index().holders();
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

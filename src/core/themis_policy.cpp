#include "core/themis_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/parallel.h"
#include "core/rho_index.h"

namespace themis {

void ThemisConfig::Validate() const {
  if (auction_threads < 0)
    throw std::invalid_argument(
        "ThemisConfig: auction_threads must be >= 0 (got " +
        std::to_string(auction_threads) + ")");
}

ThemisPolicy::ThemisPolicy(ThemisConfig config) : config_(config) {}

int ThemisPolicy::RoundThreads(SchedulerContext& ctx) const {
  // Only the stateless clairvoyant estimator is safe off the main thread:
  // kNoisy draws from the estimator's RNG on every probe and kCurveFit reads
  // shared fit state, so their call *sequence* is part of the contract and
  // they fall back to the serial loop regardless of the configured budget.
  const bool stateless_estimator =
      ctx.estimator().config().mode == EstimationMode::kClairvoyant;
  return stateless_estimator ? std::max(1, config_.auction_threads) : 1;
}

std::vector<AppState*> ThemisPolicy::SelectParticipants(
    SchedulerContext& ctx, const Agent& agent) const {
  // Sort worst-off first and keep the top 1-f fraction (Fig. 3, steps 1-2).
  // The comparator is a strict total order (ids are unique), so "sorted
  // under it" names one unique permutation — which is what lets a merge of
  // the two index classes reproduce a stable_sort of all candidates.
  const bool short_first = config_.short_app_tiebreak;
  const auto worse = [short_first](const AppState* a, const AppState* b) {
    if (a->last_rho != b->last_rho) return a->last_rho > b->last_rho;
    // Sec. 8.3.1 / Fig. 8: "we break ties in favor of shorter apps" — equal
    // (often unbounded) rho goes to the app with the smaller ideal time.
    if (short_first && a->ideal_time != b->ideal_time)
      return a->ideal_time < b->ideal_time;
    return a->id < b->id;  // deterministic final tie-break
  };

  // Only apps holding GPUs can have a rho that moved since the last round,
  // so only they are re-probed — ascending id, which is exactly the
  // estimator-call sequence of probing every app, because gangless apps make
  // no estimator calls. The gangless hungry class sits pre-ordered in the
  // index with last_rho pinned to the kUnboundedRho constant the probe would
  // return. Each probe slot touches only its own app, so the parallel probe
  // stores the exact values the serial ascending loop would.
  RhoIndex& index = *ctx.rho_index();
  index.SetTiebreak(short_first);
  const std::vector<AppState*>& holders = index.holders();
  ParallelFor(holders.size(), RoundThreads(ctx), [&](std::size_t i) {
    holders[i]->last_rho = agent.CurrentRho(*holders[i]);
  });
  std::vector<AppState*> bounded;
  for (AppState* app : holders)
    if (app->UnmetDemand() > 0) bounded.push_back(app);
  const std::size_t num_candidates = bounded.size() + index.num_unbounded();
  std::vector<AppState*> participants;
  if (num_candidates == 0) return participants;
  std::stable_sort(bounded.begin(), bounded.end(), worse);

  // Merge the two sorted classes under the full comparator, stopping at the
  // cut (always at least one app, so the round is work conserving) instead
  // of materializing the whole order.
  const std::size_t take = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(
          1, static_cast<int>(std::ceil((1.0 - config_.fairness_knob) *
                                        static_cast<double>(num_candidates))))),
      num_candidates);
  participants.reserve(take);
  auto ub = index.unbounded_candidates().begin();
  const auto ub_end = index.unbounded_candidates().end();
  std::size_t bi = 0;
  while (participants.size() < take) {
    if (bi < bounded.size() && (ub == ub_end || worse(bounded[bi], *ub)))
      participants.push_back(bounded[bi++]);
    else
      participants.push_back(*ub++);
  }
  return participants;
}

GrantSet ThemisPolicy::RunRound(const ResourceOffer& offer,
                                SchedulerContext& ctx) {
  Agent agent(&ctx.topology(), &ctx.estimator(), ctx.now());

  // Steps 1-2: the worst-off 1-f fraction of the hungry apps.
  const std::vector<AppState*> participants = SelectParticipants(ctx, agent);
  if (participants.empty()) return ctx.TakeGrants();

  // Step 3: collect bids against the offer's resource vector R-> and pool —
  // the protocol inputs, no recount of the cluster's free state.
  const std::vector<int>& offered = offer.free_per_machine;
  const std::vector<GpuId>& free_gpus = offer.gpus;

  // Bids are independent by construction — each AGENT values the same offer
  // against only its own app state — so preparation fans out over the pool.
  // Every worker writes only its pre-sized bids[i] slot, making the merged
  // sequence position-identical to the serial loop at any thread count.
  // Bid prep dominates the round, so grain 1 lets the pool balance the
  // unevenly sized valuation tables.
  std::vector<AgentBid> bids(participants.size());
  ParallelFor(
      participants.size(), RoundThreads(ctx),
      [&](std::size_t i) {
        bids[i] = agent.PrepareBid(*participants[i], free_gpus,
                                   config_.max_bid_rows);
      },
      /*grain=*/1);
  // The solver borrows the tables in place — no per-bid copy.
  std::vector<const BidTable*> tables;
  tables.reserve(bids.size());
  for (const AgentBid& bid : bids) tables.push_back(&bid.table);

  // Step 4: partial allocation with hidden payments.
  const PaResult pa = PartialAllocation(tables, offered, config_.pa);
  ctx.grants().diagnostics.auction_ran = true;
  ctx.grants().diagnostics.auction_participants =
      static_cast<int>(participants.size());

  // Step 5: stage grants. Each winner receives granted[m] GPUs on machine m,
  // preferring the concrete GPUs its own bid row picked. Bids were prepared
  // independently, so two rows may name the same GPU id even though the
  // per-machine *counts* fit the offer; a shared free-set keeps
  // materialization conflict-free.
  std::vector<bool> still_free(ctx.topology().num_gpus(), false);
  for (GpuId g : free_gpus) still_free[g] = true;

  // Per-machine preference buckets, allocated once and reused across
  // winners; only the machines a winner's bid row touched are cleared
  // between iterations, so the per-winner hot path allocates nothing.
  // Within a bucket the bid row's GPU order is preserved and machines are
  // visited ascending by the granted loop — the same visit order the old
  // per-winner std::map produced.
  std::vector<std::vector<GpuId>> preferred(ctx.topology().num_machines());
  std::vector<MachineId> touched;
  touched.reserve(ctx.topology().num_machines());

  for (std::size_t i = 0; i < pa.winners.size(); ++i) {
    const PaWinner& w = pa.winners[i];
    if (w.row == 0) continue;  // zero row: no new allocation this round
    AppState* app = participants[i];

    for (MachineId m : touched) preferred[m].clear();
    touched.clear();
    for (GpuId g : bids[i].row_gpus[w.row]) {
      const MachineId m = ctx.topology().gpu(g).machine;
      if (preferred[m].empty()) touched.push_back(m);
      preferred[m].push_back(g);
    }

    std::vector<GpuId> concrete;
    for (MachineId m = 0; m < static_cast<MachineId>(w.granted.size()); ++m) {
      int need = w.granted[m];
      if (need <= 0) continue;
      auto take = [&](GpuId g) {
        if (need > 0 && still_free[g]) {
          still_free[g] = false;
          concrete.push_back(g);
          --need;
        }
      };
      for (GpuId g : preferred[m]) take(g);
      for (GpuId g : ctx.topology().machine_gpus(m)) {
        if (need == 0) break;
        if (ctx.free_pool().Contains(g)) take(g);
      }
    }
    for (const JobAssignment& a : agent.DistributeToJobs(*app, concrete)) {
      ctx.Grant(*app, app->jobs[a.job_index], a.gpus);
    }
    // GPUs Distribute left unassigned (no whole gang) return to the pool.
    for (GpuId g : concrete)
      if (ctx.free_pool().Contains(g)) still_free[g] = true;
  }

  // Step 6: leftover allocation (work conserving).
  AllocateLeftovers(ctx, agent, participants);
  return ctx.TakeGrants();
}

void ThemisPolicy::AllocateLeftovers(
    SchedulerContext& ctx, const Agent& agent,
    const std::vector<AppState*>& participants) {
  // Participant lookups are O(log P) against a sorted id vector instead of
  // an O(P) find per candidate per iteration.
  std::vector<AppId> participant_ids;
  participant_ids.reserve(participants.size());
  for (const AppState* app : participants) participant_ids.push_back(app->id);
  std::sort(participant_ids.begin(), participant_ids.end());
  auto is_participant = [&](const AppState* app) {
    return std::binary_search(participant_ids.begin(), participant_ids.end(),
                              app->id);
  };

  // Per-app machine bitmaps survive across iterations: a candidate's gangs
  // only change when it wins a grant, so only the winner's entry is
  // invalidated. The bitmaps feed pure set intersections, so reuse is
  // result-neutral.
  std::unordered_map<AppId, std::vector<bool>> machine_cache;
  auto app_machines = [&](const AppState* app) -> const std::vector<bool>& {
    auto [it, inserted] = machine_cache.try_emplace(app->id);
    if (inserted) {
      it->second.assign(ctx.topology().num_machines(), false);
      for (const JobState& job : app->jobs)
        for (GpuId g : job.gpus)
          it->second[ctx.topology().gpu(g).machine] = true;
    }
    return it->second;
  };

  // Two rounds: first apps that did not participate in the auction (the
  // paper's rule — they cannot game leftovers), then, purely for work
  // conservation, anyone with unmet demand.
  for (const bool outsiders_only : {true, false}) {
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<GpuId> free = ctx.free_pool().ToVector();
      if (free.empty()) return;

      // Candidates that can absorb at least one whole gang.
      std::vector<AppState*> candidates;
      for (AppState* app : ctx.apps()) {
        if (outsiders_only && is_participant(app)) continue;
        if (app->UnmetDemand() <= 0) continue;
        for (int j : app->ActiveJobs()) {
          const JobState& job = app->jobs[j];
          if (job.UnmetGangs() > 0 &&
              job.spec.gpus_per_task <= static_cast<int>(free.size())) {
            candidates.push_back(app);
            break;
          }
        }
      }
      if (candidates.empty()) break;

      // Paper: "when many such candidate apps exist for a GPU, one of the
      // apps is picked at random"; prefer apps already placed on machines
      // with free GPUs.
      std::vector<AppState*> anchored;
      for (AppState* app : candidates) {
        const std::vector<bool>& on_machines = app_machines(app);
        for (GpuId g : free)
          if (on_machines[ctx.topology().gpu(g).machine]) {
            anchored.push_back(app);
            break;
          }
      }
      auto& pick_from = anchored.empty() ? candidates : anchored;
      AppState* app = pick_from[ctx.rng().UniformInt(
          0, static_cast<int>(pick_from.size()) - 1)];

      // Give its highest-priority job one gang, placed near its gang.
      for (int j : agent.JobPriorityOrder(*app)) {
        JobState& job = app->jobs[j];
        if (job.UnmetGangs() <= 0) continue;
        const int gang = job.spec.gpus_per_task;
        std::vector<GpuId> picked =
            PickBestPlacedNear(gang, free, job.gpus, ctx.topology());
        if (static_cast<int>(picked.size()) < gang) continue;
        // Respect placement constraints: a gang the job cannot run on
        // (S = 0) would hold the lease without making progress.
        std::vector<GpuId> combined = job.gpus;
        combined.insert(combined.end(), picked.begin(), picked.end());
        combined.resize(combined.size() - combined.size() % gang);
        if (combined.empty() ||
            EffectiveJobRate(job.spec, combined, ctx.topology()) <= 0.0)
          continue;
        ctx.Grant(*app, job, picked);
        machine_cache.erase(app->id);  // its gang just grew
        progress = true;
        break;
      }
    }
  }
}

}  // namespace themis

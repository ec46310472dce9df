#include "core/themis_policy.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "common/knobs.h"
#include "common/parallel.h"
#include "core/rho_index.h"

namespace themis {

void ThemisConfig::Validate() const {
  Require(auction_threads >= 0, "ThemisConfig: auction_threads must be >= 0",
          auction_threads);
  // NaN fails too: the participant cut converts ceil((1 - f) N) to int,
  // which is undefined for NaN.
  Require(fairness_knob >= 0.0 && fairness_knob <= 1.0,
          "ThemisConfig: fairness_knob must be in [0, 1]", fairness_knob);
  // With no non-zero row every bid would be the zero row.
  Require(max_bid_rows >= 1, "ThemisConfig: max_bid_rows must be >= 1",
          max_bid_rows);
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
  // per-machine *counts* fit the offer; taking only GPUs still in the
  // context's pool keeps materialization conflict-free.

  // Per-machine preference buckets, allocated once and reused across
  // winners; only the machines a winner's bid row touched are cleared
  // between iterations, so the per-winner hot path allocates nothing.
  // Within a bucket the bid row's GPU order is preserved. A winner's grant
  // is a scaled copy of its row (granted[m] <= row[m]), so only the row's
  // machines can be granted anything: the loop visits those, ascending, not
  // every machine of the offer.
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
    std::sort(touched.begin(), touched.end());
    for (MachineId m : touched) {
      int need = w.granted[m];
      if (need <= 0) continue;
      // The pool lists m's GPUs that no earlier winner was granted; the
      // GPUs this winner takes stay listed until its grants are staged, so
      // they are skipped by a look at what it took on m.
      const std::span<const GpuId> pooled = ctx.free_pool().on_machine(m);
      const std::size_t taken_on_m = concrete.size();
      auto take = [&](GpuId g) {
        if (need > 0 &&
            std::find(pooled.begin(), pooled.end(), g) != pooled.end() &&
            std::find(concrete.begin() + taken_on_m, concrete.end(), g) ==
                concrete.end()) {
          concrete.push_back(g);
          --need;
        }
      };
      for (GpuId g : preferred[m]) take(g);
      for (GpuId g : pooled) {
        if (need == 0) break;
        take(g);
      }
    }
    // GPUs Distribute leaves unassigned (no whole gang) stay in the pool.
    for (const JobAssignment& a : agent.DistributeToJobs(*app, concrete)) {
      ctx.Grant(*app, app->jobs[a.job_index], a.gpus);
    }
  }

  // Step 6: leftover allocation (work conserving).
  AllocateLeftovers(ctx, agent, participants);
  return ctx.TakeGrants();
}

namespace {

/// One of the stage's lists (the candidates, or the anchored candidates):
/// a flag per app, in app order, and a Fenwick tree over the flags, so
/// adding or dropping a member and finding the k-th member cost O(log n).
class MemberList {
 public:
  /// Rebuild from the flags in O(n).
  void Assign(std::vector<char> member) {
    member_ = std::move(member);
    const std::size_t n = member_.size();
    tree_.assign(n + 1, 0);
    size_ = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      tree_[i] += member_[i - 1];
      size_ += member_[i - 1];
      const std::size_t up = i + (i & (~i + 1));
      if (up <= n) tree_[up] += tree_[i];
    }
    top_ = 1;
    while (top_ * 2 <= n) top_ *= 2;
  }
  void Set(std::size_t i, bool on) {
    if (member_[i] == on) return;
    member_[i] = on;
    const int delta = on ? 1 : -1;
    size_ += delta;
    for (++i; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
  }
  int size() const { return size_; }
  /// Index of the k-th member (0-based), k < size().
  std::size_t Find(int k) const {
    std::size_t at = 0;
    for (std::size_t step = top_; step > 0; step /= 2)
      if (at + step < tree_.size() && tree_[at + step] <= k) {
        at += step;
        k -= tree_[at];
      }
    return at;
  }

 private:
  std::vector<char> member_;
  std::vector<int> tree_;  // 1-based partial sums
  std::size_t top_ = 1;    // largest power of two <= n
  int size_ = 0;
};

}  // namespace

void AllocateLeftovers(SchedulerContext& ctx, const Agent& agent,
                       const std::vector<AppState*>& participants) {
  // An auction that took the whole pool leaves nothing to list apps for.
  if (ctx.free_pool().empty()) return;
  const GpuPool& pool = ctx.free_pool();  // each grant shrinks it
  const Topology& topo = ctx.topology();

  // Participant lookups are O(log P) against a sorted id vector.
  std::vector<AppId> participant_ids;
  participant_ids.reserve(participants.size());
  for (const AppState* app : participants) participant_ids.push_back(app->id);
  std::sort(participant_ids.begin(), participant_ids.end());
  // Only apps that held a GPU at round start (the rho index's holders) or
  // were granted one by this round's auction hold any; the others own no
  // machine to anchor on until the stage grants them a gang.
  std::vector<AppId> granted_ids;
  for (const Grant& g : ctx.grants().grants) granted_ids.push_back(g.app);
  std::sort(granted_ids.begin(), granted_ids.end());
  const std::vector<AppState*>& holders = ctx.rho_index()->holders();
  auto next_holder = holders.begin();

  // One entry per active app, in context order: the candidate list is the
  // entries whose membership flag is set, in that order. An entry is
  // examined the first time its pass admits it (outsiders in the first
  // pass, the participants in the second) and then kept current grant by
  // grant. Every cursor below only moves forward, because within a stage
  // the pool only shrinks and a job's gang only grows.
  struct Entry {
    AppState* app;
    bool participant;
    bool may_hold;
    bool examined = false;
    // Fit witness: app->jobs[fit_job] can grow by a gang of `gang` <=
    // pool.size() GPUs; every job before it cannot (anymore). gang = 0
    // once no job fits, for the rest of the stage.
    std::size_t fit_job = 0;
    int gang = 0;
    // Anchor: `live` counts the machines registered for this app that
    // still have pooled GPUs. GPUs before (anchor_job, anchor_gpu) in its
    // jobs were all on drained machines when passed; gangs the stage grants
    // it register their machines directly.
    int live = 0;
    std::size_t anchor_job = 0;
    std::size_t anchor_gpu = 0;
    // Its job order, ranked[rank_next, rank_end), made the first time it
    // wins a gang this stage; jobs before rank_next can no longer grow.
    std::size_t rank_next = 0;
    std::size_t rank_end = 0;
    bool ranked = false;
  };
  std::vector<Entry> entries;
  entries.reserve(ctx.apps().size());
  for (AppState* app : ctx.apps()) {
    while (next_holder != holders.end() && (*next_holder)->id < app->id)
      ++next_holder;
    const bool holder = next_holder != holders.end() && *next_holder == app;
    entries.push_back(
        {app,
         std::binary_search(participant_ids.begin(), participant_ids.end(),
                            app->id),
         holder || std::binary_search(granted_ids.begin(), granted_ids.end(),
                                      app->id)});
  }

  // Per machine: -2 once it has no pooled GPU, else the newest node of its
  // list of (entry, next) registrations. A machine's list is walked once,
  // when its last pooled GPU is granted.
  constexpr int kDrained = -2;
  std::vector<int> head(topo.num_machines(), kDrained);
  for (const GpuPool::Bucket& b : pool.buckets()) head[b.machine] = -1;
  std::vector<std::pair<std::size_t, int>> nodes;
  auto register_machine = [&](std::size_t e, MachineId m) {
    nodes.emplace_back(e, head[m]);
    head[m] = static_cast<int>(nodes.size()) - 1;
    ++entries[e].live;
  };
  // Find the next held GPU on a machine with pooled GPUs, if any.
  auto reanchor = [&](std::size_t e) {
    Entry& x = entries[e];
    const std::vector<JobState>& jobs = x.app->jobs;
    for (; x.anchor_job < jobs.size(); ++x.anchor_job, x.anchor_gpu = 0) {
      const std::vector<GpuId>& held = jobs[x.anchor_job].gpus;
      while (x.anchor_gpu < held.size()) {
        const MachineId m = topo.gpu(held[x.anchor_gpu++]).machine;
        if (head[m] != kDrained) {
          register_machine(e, m);
          return;
        }
      }
    }
  };
  // Gangs are kept in a max-heap so that a shrinking pool finds the
  // entries whose witness no longer fits; stale pairs are skipped.
  std::vector<std::pair<int, std::size_t>> fits;
  auto refit = [&](std::size_t e) {
    Entry& x = entries[e];
    const std::vector<JobState>& jobs = x.app->jobs;
    for (; x.fit_job < jobs.size(); ++x.fit_job) {
      const JobState& job = jobs[x.fit_job];
      if (job.spec.gpus_per_task <= pool.size() && job.UnmetGangs() > 0) {
        if (x.gang != job.spec.gpus_per_task) {
          x.gang = job.spec.gpus_per_task;
          fits.emplace_back(x.gang, e);
          std::push_heap(fits.begin(), fits.end());
        }
        return;
      }
    }
    x.gang = 0;
  };

  // Two passes: first apps that did not participate in the auction (the
  // paper's rule — they cannot game leftovers), then, purely for work
  // conservation, anyone with unmet demand.
  bool outsiders_only = true;
  auto is_candidate = [&](const Entry& x) {
    return x.examined && x.gang > 0 && !(outsiders_only && x.participant);
  };
  MemberList candidates;
  MemberList anchored;
  auto sync = [&](std::size_t e) {
    const bool candidate = is_candidate(entries[e]);
    candidates.Set(e, candidate);
    anchored.Set(e, candidate && entries[e].live > 0);
  };

  std::vector<std::pair<Work, int>> order;
  std::vector<int> ranked;
  std::vector<GpuId> picked;
  std::vector<GpuId> combined;
  std::vector<std::size_t> changed;
  for (const bool pass_outsiders_only : {true, false}) {
    outsiders_only = pass_outsiders_only;
    if (pool.empty()) return;
    std::vector<char> candidate(entries.size());
    std::vector<char> anchor(entries.size());
    for (std::size_t e = 0; e < entries.size(); ++e) {
      Entry& x = entries[e];
      if (!x.examined && !(outsiders_only && x.participant)) {
        x.examined = true;
        if (!x.may_hold) x.anchor_job = x.app->jobs.size();
        refit(e);
        if (x.gang > 0) reanchor(e);
      }
      candidate[e] = is_candidate(x);
      anchor[e] = candidate[e] && x.live > 0;
    }
    candidates.Assign(std::move(candidate));
    anchored.Assign(std::move(anchor));

    while (!pool.empty() && candidates.size() > 0) {
      // Paper: "when many such candidate apps exist for a GPU, one of the
      // apps is picked at random"; prefer apps already placed on machines
      // with free GPUs.
      MemberList& pick_from = anchored.size() > 0 ? anchored : candidates;
      const std::size_t w =
          pick_from.Find(ctx.rng().UniformInt(0, pick_from.size() - 1));
      Entry& winner = entries[w];
      AppState* app = winner.app;
      if (!winner.ranked) {
        winner.ranked = true;
        agent.JobPriorityOrder(*app, order);
        winner.rank_next = ranked.size();
        for (const auto& [left, j] : order) ranked.push_back(j);
        winner.rank_end = ranked.size();
      }

      // Give its highest-priority job one gang, placed near its gang.
      JobState* granted = nullptr;
      for (std::size_t r = winner.rank_next; r < winner.rank_end; ++r) {
        JobState& job = app->jobs[ranked[r]];
        const int gang = job.spec.gpus_per_task;
        if (gang > pool.size() || job.UnmetGangs() <= 0) {
          // Neither ever changes back within the stage.
          if (r == winner.rank_next) ++winner.rank_next;
          continue;
        }
        PickBestPlacedNear(gang, pool, job.gpus, topo, picked);
        // Respect placement constraints: a gang the job cannot run on
        // (S = 0) would hold the lease without making progress.
        combined.assign(job.gpus.begin(), job.gpus.end());
        combined.insert(combined.end(), picked.begin(), picked.end());
        combined.resize(combined.size() - combined.size() % gang);
        if (combined.empty() ||
            EffectiveJobRate(job.spec, combined, topo) <= 0.0)
          continue;
        ctx.Grant(*app, job, picked);
        granted = &job;
        break;
      }
      if (granted == nullptr) break;  // this pass makes no more progress
      if (pool.empty()) return;

      // Only the winner's job and the pool changed. A machine the gang
      // drained unanchors whoever counted it; one it left pooled GPUs on
      // anchors the winner.
      changed.clear();
      // A gang's GPUs come machine by machine, so a repeat is the last one.
      auto last = static_cast<MachineId>(topo.num_machines());
      for (GpuId g : picked) {
        const MachineId m = topo.gpu(g).machine;
        if (m == last || head[m] == kDrained) continue;
        last = m;
        if (!pool.on_machine(m).empty()) {
          register_machine(w, m);
          continue;
        }
        for (int n = head[m]; n >= 0; n = nodes[n].second) {
          const std::size_t e = nodes[n].first;
          if (--entries[e].live == 0) changed.push_back(e);
        }
        head[m] = kDrained;
      }
      for (const std::size_t e : changed)
        if (entries[e].live == 0 && entries[e].gang > 0) reanchor(e);
      if (granted == &app->jobs[winner.fit_job] && granted->UnmetGangs() <= 0)
        refit(w);
      changed.push_back(w);
      while (!fits.empty() && fits.front().first > pool.size()) {
        std::pop_heap(fits.begin(), fits.end());
        const auto [gang, e] = fits.back();
        fits.pop_back();
        if (entries[e].gang != gang) continue;  // stale
        refit(e);
        changed.push_back(e);
      }
      for (const std::size_t e : changed) sync(e);
    }
  }
}

}  // namespace themis

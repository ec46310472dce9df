#include "baselines/tiresias.h"

#include <algorithm>
#include <vector>

#include "placement/placement_model.h"

namespace themis {

GrantSet TiresiasPolicy::RunRound(const ResourceOffer& /*offer*/,
                                  SchedulerContext& ctx) {
  // Round-robin in least-attained-service order (ties: arrival order via
  // AppId): each iteration gives the neediest app one gang until the pool
  // or all demand is exhausted. Placement-unaware but speed-aware: take
  // the fastest pooled GPUs first (on a uniform-speed cluster this is the
  // first pooled ids, exactly the classic pick). The attained service
  // driving the order is effective (speed-weighted) GPU-time, so LAS stays
  // meaningful across generations.
  //
  // LAS order is materialized lazily: a typical round grants only what a
  // finish or expiry just freed, so instead of sorting the whole active
  // set every round, a min-heap keyed by (round-robin iteration, attained
  // service, id) pops exactly the grant sequence of the sorted walk —
  // O(n + grants log n) per round instead of O(n log n). Attained service
  // never changes mid-round, and the pool only shrinks, so an app with
  // nothing grantable now can be dropped: it cannot become grantable
  // later in the round.
  const GpuPool& pool = ctx.free_pool();
  if (pool.empty()) return ctx.TakeGrants();

  // Grantability scan shared by the fast path and the heap walk: one gang
  // for the app's first grantable job — jobs scanned in index order; a job
  // whose whole gang no longer fits the pool is skipped, not waited for.
  const auto grant_one = [&](AppState& app) {
    for (JobState& job : app.jobs) {
      if (job.UnmetGangs() <= 0) continue;
      const int gang = job.spec.gpus_per_task;
      if (pool.size() < gang) continue;
      ctx.Grant(app, job, PickFastest(gang, pool));
      return true;
    }
    return false;
  };
  const auto before = [](const AppState* a, const AppState* b) {
    if (a->attained_service != b->attained_service)
      return a->attained_service < b->attained_service;
    return a->id < b->id;
  };

  // Fast path: the common round grants exactly what a finish or an expiry
  // just freed — one gang. A linear min-scan finds the neediest grantable
  // app without building the heap; if the pool still has GPUs after that
  // grant (burst rounds), fall through to the full round-robin walk, which
  // re-ranks this app at iteration 1 exactly as the heap walk would have.
  AppState* fast = nullptr;
  for (AppState* app : ctx.apps()) {
    if (fast != nullptr && !before(app, fast)) continue;
    for (const JobState& job : app->jobs) {
      if (job.UnmetGangs() <= 0) continue;
      if (pool.size() < job.spec.gpus_per_task) continue;
      fast = app;
      break;
    }
  }
  if (fast == nullptr) return ctx.TakeGrants();
  grant_one(*fast);
  if (pool.empty()) return ctx.TakeGrants();

  struct Entry {
    int iter;
    Work attained;
    AppId id;
    AppState* app;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    if (a.iter != b.iter) return a.iter > b.iter;
    if (a.attained != b.attained) return a.attained > b.attained;
    return a.id > b.id;
  };
  std::vector<Entry> heap;
  heap.reserve(ctx.apps().size());
  for (AppState* app : ctx.apps())
    // The fast-path app already received its iteration-1 gang, so it
    // rejoins the round-robin at iteration 1 — one gang per app per
    // iteration, exactly as the sorted walk orders it.
    heap.push_back(Entry{app == fast ? 1 : 0, app->attained_service, app->id,
                         app});
  std::make_heap(heap.begin(), heap.end(), later);

  while (!heap.empty() && !pool.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Entry e = heap.back();
    heap.pop_back();
    if (grant_one(*e.app)) {
      ++e.iter;
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    // An app with nothing grantable now never becomes grantable later in
    // the round (the pool only shrinks), so it is dropped, exactly as the
    // sorted walk would skip it in every later iteration.
  }
  return ctx.TakeGrants();
}

}  // namespace themis

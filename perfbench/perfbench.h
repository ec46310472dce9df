// Shared pieces of the repository benchmark (perfbench): run options, the
// per-run result record, and the ARBITER round-phase replay used by both the
// simulator workloads and the loopback-daemon workload.
//
// Every timer lives in the benchmark's own files, around public calls into
// the library; nothing inside src/ is instrumented. The phase replay is
// side-effect free: under the stateless clairvoyant estimator
// Agent::CurrentRho and Agent::PrepareBid are const and PartialAllocation is
// pure, so replaying a round's phases before the real RunRound leaves the
// grant stream unchanged (the traced-vs-untraced fingerprint check proves
// it on every traced run).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "auction/partial_allocation.h"
#include "core/agent.h"
#include "core/round.h"
#include "core/themis_policy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  /// Workload seed: sub-trace i of a run is generated from
  /// DeriveScenarioSeed(seed, i).
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny populations for the benchmark's own smoke test.
  bool smoke = false;
  /// Corrupt the expected fingerprint / digest, to prove the checks bite.
  bool tamper = false;
  /// Directory for the sim-steady CSV trace (inside the checkout).
  std::string work_dir = ".";
};

/// One measured repetition of a workload: set-up plus one run, traced or
/// not. `metrics` holds everything the rep measured, by metric name; `exact`
/// holds the counters and fingerprints that must repeat bit-for-bit between
/// reps of one seed (and between the traced and untraced run).
struct RepResult {
  double setup_s = 0.0;
  /// The timed phase: Simulator::Run, or the daemon's round phase.
  double wall_s = 0.0;
  /// Everything after set-up, including replays and checks.
  double total_s = 0.0;
  /// Trace jobs replayed and AGENT-round serves during the timed phase.
  double jobs = 0.0;
  double agent_serves = 0.0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> exact;
  /// Per-round wall latencies (ms), pooled across reps for p50/p99.
  std::vector<double> round_ms;
  /// Units checked (apps or AGENT-round serves) and how many failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for every failed output check.
  std::vector<std::string> errors;
};

/// One rep over the sub-trace generated from `trace_seed` (which also seeds
/// the simulator or arbiter RNG).
RepResult RunSimRep(const Options& opt, bool steady, bool traced,
                    std::uint64_t trace_seed);
RepResult RunDaemonRep(const Options& opt, bool traced,
                       std::uint64_t trace_seed);

/// The bit pattern of a double, for exact-repeat checks.
inline std::uint64_t Bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Order-sensitive FNV-1a fold over a grant stream.
class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double d) { Add(Bits(d)); }
  void AddRound(const themis::ResourceOffer& offer,
                const themis::GrantSet& grants);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Pct(std::vector<double> xs, double p);

/// Phase timings of one replayed round (Fig. 3 steps 1-4).
struct PhaseSample {
  double probe_s = 0.0;
  double bid_s = 0.0;
  double pa_s = 0.0;
  /// Participants of the worst-off ceil((1-f)N) rule; -1 when the round
  /// has no hungry candidate (the real round then runs no auction).
  int participants = -1;
  bool pa_exact = true;
  std::vector<double> bid_us;
  std::vector<const themis::AppState*> who;
};

/// Replays probe -> filter -> PrepareBid -> PartialAllocation for one round
/// through public calls only. `holders` are the live apps holding GPUs in
/// ascending id; `unbounded` are the gangless hungry apps in the index's
/// tie-break order (their rho is the kUnboundedRho constant).
template <typename UnboundedRange>
PhaseSample ReplayPhases(const themis::Topology& topo,
                         themis::WorkEstimator* estimator, themis::Time now,
                         const std::vector<const themis::AppState*>& holders,
                         const UnboundedRange& unbounded,
                         std::size_t num_unbounded,
                         const themis::ResourceOffer& offer,
                         const themis::ThemisConfig& config) {
  using themis::AppState;
  PhaseSample out;
  const themis::Agent agent(&topo, estimator, now);

  auto t0 = Clock::now();
  std::vector<double> rho(holders.size());
  for (std::size_t i = 0; i < holders.size(); ++i)
    rho[i] = agent.CurrentRho(*holders[i]);
  out.probe_s = SecondsSince(t0);

  // The policy's filter: holders with unmet demand sorted worst-off first,
  // merged with the pre-ordered gangless class, cut at ceil((1-f) N).
  struct Cand {
    const AppState* app;
    double rho;
  };
  const bool short_first = config.short_app_tiebreak;
  const auto worse = [short_first](const Cand& a, const Cand& b) {
    if (a.rho != b.rho) return a.rho > b.rho;
    if (short_first && a.app->ideal_time != b.app->ideal_time)
      return a.app->ideal_time < b.app->ideal_time;
    return a.app->id < b.app->id;
  };
  std::vector<Cand> bounded;
  for (std::size_t i = 0; i < holders.size(); ++i)
    if (holders[i]->UnmetDemand() > 0) bounded.push_back({holders[i], rho[i]});
  const std::size_t n = bounded.size() + num_unbounded;
  if (n == 0) return out;
  std::stable_sort(bounded.begin(), bounded.end(), worse);
  const std::size_t take = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(
          1, static_cast<int>(std::ceil((1.0 - config.fairness_knob) *
                                        static_cast<double>(n))))),
      n);
  auto ub = unbounded.begin();
  std::size_t bi = 0;
  while (out.who.size() < take) {
    const bool have_ub = ub != unbounded.end();
    if (bi < bounded.size() &&
        (!have_ub || worse(bounded[bi], Cand{*ub, themis::kUnboundedRho})))
      out.who.push_back(bounded[bi++].app);
    else
      out.who.push_back(*ub++);
  }
  out.participants = static_cast<int>(out.who.size());

  std::vector<themis::AgentBid> bids(out.who.size());
  t0 = Clock::now();
  for (std::size_t i = 0; i < out.who.size(); ++i) {
    const auto b0 = Clock::now();
    bids[i] = agent.PrepareBid(*out.who[i], offer.gpus, config.max_bid_rows);
    out.bid_us.push_back(SecondsSince(b0) * 1e6);
  }
  out.bid_s = SecondsSince(t0);

  std::vector<const themis::BidTable*> tables;
  for (const themis::AgentBid& b : bids) tables.push_back(&b.table);
  t0 = Clock::now();
  const themis::PaResult pa =
      themis::PartialAllocation(tables, offer.free_per_machine, config.pa);
  out.pa_s = SecondsSince(t0);
  out.pa_exact = pa.exact;
  return out;
}

/// Accumulates replayed phases, real round times and wire-codec costs into
/// the per-layer metrics shared by every workload.
class LayerTrace {
 public:
  void AddRound(const PhaseSample& phases, double round_s);
  void AddCodec(double encode_offer_us, double encode_grant_us,
                const std::vector<double>& parse_bid_us, std::size_t bytes);
  /// Writes the core.*, agent.*, auction.* and net.* codec metrics.
  void Emit(std::map<std::string, double>& m) const;

 private:
  double round_s_ = 0.0, probe_s_ = 0.0, bid_s_ = 0.0, pa_s_ = 0.0;
  std::vector<double> bid_us_, pa_ms_;
  long long auctions_ = 0, exact_ = 0, participants_ = 0;
  std::vector<double> offer_us_, grant_us_, bid_wire_us_;
  double bytes_ = 0.0;
  long long codec_rounds_ = 0;
};

/// Wire cost of one round's frames: encodes the OFFER and GRANT, and one BID
/// per participant (encoded, then parsed back as the server would). Returns
/// false when a BID does not survive the round trip.
bool MeasureCodec(const themis::ResourceOffer& offer,
                  const themis::GrantSet& grants,
                  const std::vector<const themis::AppState*>& bidders,
                  LayerTrace& trace);

/// Peak resident set size of this process, MB.
double PeakRssMb();

}  // namespace perfbench

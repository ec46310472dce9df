// sim-steady and sim-burst: one Simulator run per rep, single-threaded,
// default ThemisConfig (f = 0.8, hidden payments on, clairvoyant estimator,
// round_threads = 0) on ClusterSpec::Simulation256().
//
//   sim-steady  Poisson arrivals at contention 4, 3000 apps. Set-up writes
//               the trace to CSV through StreamingTraceWriter; the run
//               streams it back through StreamingCsvTraceReader with
//               retire_finished_apps and bounded-memory metrics.
//   sim-burst   1500 apps in same-instant bursts of 200 every 3000 min,
//               preloaded as a vector with exact metrics.
#include <cstdio>
#include <memory>
#include <string>

#include "core/rho_index.h"
#include "perfbench.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace perfbench {

namespace {

using namespace themis;

TraceConfig MakeTrace(const Options& opt, bool steady, std::uint64_t seed) {
  TraceConfig t;
  t.seed = seed;
  if (steady) {
    t.num_apps = opt.smoke ? 60 : 3000;
    t.contention_factor = 4.0;
  } else {
    t.num_apps = opt.smoke ? 40 : 1500;
    t.burst_size = opt.smoke ? 10 : 200;
    t.burst_gap_minutes = 3000.0;
  }
  return t;
}

/// Times every Next() of the wrapped reader (traced runs only).
class TimedReader : public TraceReader {
 public:
  explicit TimedReader(std::unique_ptr<TraceReader> inner)
      : inner_(std::move(inner)) {}

  bool Next(AppSpec& out) override {
    const auto t0 = Clock::now();
    const bool more = inner_->Next(out);
    busy_s_ += SecondsSince(t0);
    ++calls_;
    return more;
  }

  double busy_s() const { return busy_s_; }
  long long calls() const { return calls_; }

 private:
  std::unique_ptr<TraceReader> inner_;
  double busy_s_ = 0.0;
  long long calls_ = 0;
};

/// Wraps ThemisPolicy::RunRound with two clock reads. With a LayerTrace it
/// first replays the round's phases (probe, filter, bids, PA) through public
/// calls and afterwards measures the round's wire-codec cost.
class MeasuredScheduler : public IRoundScheduler {
 public:
  MeasuredScheduler(ThemisConfig config, LayerTrace* trace)
      : policy_(config), config_(config), trace_(trace) {}

  GrantSet RunRound(const ResourceOffer& offer,
                    SchedulerContext& ctx) override {
    const auto w0 = Clock::now();
    PhaseSample phases;
    if (trace_ != nullptr) {
      const RhoIndex* index = ctx.rho_index();
      if (index == nullptr) {
        ++check_failures_;
      } else {
        const std::vector<const AppState*> holders(index->holders().begin(),
                                                   index->holders().end());
        phases = ReplayPhases(ctx.topology(), &ctx.estimator(), ctx.now(),
                              holders, index->unbounded_candidates(),
                              index->num_unbounded(), offer, config_);
      }
    }
    served_ += ctx.apps().size();

    const auto t0 = Clock::now();
    GrantSet grants = policy_.RunRound(offer, ctx);
    const double round_s = SecondsSince(t0);
    round_ms_.push_back(round_s * 1e3);

    if (trace_ != nullptr) {
      trace_->AddRound(phases, round_s);
      const int expected = grants.diagnostics.auction_ran
                               ? grants.diagnostics.auction_participants
                               : -1;
      if (phases.participants != expected) ++check_failures_;
      if (!MeasureCodec(offer, grants, phases.who, *trace_)) ++check_failures_;
    }
    wrapper_s_ += SecondsSince(w0);
    return grants;
  }
  const char* name() const override { return "Themis (measured)"; }

  const std::vector<double>& round_ms() const { return round_ms_; }
  std::uint64_t served() const { return served_; }
  double wrapper_s() const { return wrapper_s_; }
  std::uint64_t check_failures() const { return check_failures_; }

 private:
  ThemisPolicy policy_;
  ThemisConfig config_;
  LayerTrace* trace_;
  std::vector<double> round_ms_;
  std::uint64_t served_ = 0;
  double wrapper_s_ = 0.0;
  std::uint64_t check_failures_ = 0;
};

}  // namespace

RepResult RunSimRep(const Options& opt, bool steady, bool traced,
                    std::uint64_t trace_seed) {
  RepResult r;
  const TraceConfig trace_config = MakeTrace(opt, steady, trace_seed);
  SimConfig sim_config;
  sim_config.seed = trace_seed;
  if (steady) {
    sim_config.retire_finished_apps = true;
    sim_config.metrics.bounded_memory = true;
  }
  LayerTrace layers;
  auto scheduler =
      std::make_unique<MeasuredScheduler>(ThemisConfig{}, traced ? &layers : nullptr);
  MeasuredScheduler* measured = scheduler.get();
  TimedReader* timed_reader = nullptr;
  const std::string csv_path = opt.work_dir + "/sim-steady-" +
                               std::to_string(trace_seed) + ".csv";

  // Set-up: trace generation plus the CSV write (steady) or the Simulator
  // construction over the preloaded vector (burst).
  const auto s0 = Clock::now();
  double gen_s = 0.0, write_s = 0.0;
  long long jobs = 0;
  std::unique_ptr<Simulator> sim;
  TraceGenerator gen(trace_config);
  if (steady) {
    StreamingTraceWriter writer(csv_path);
    AppSpec app;
    for (;;) {
      auto t0 = Clock::now();
      const bool more = gen.GenerateNext(app);
      gen_s += SecondsSince(t0);
      if (!more) break;
      t0 = Clock::now();
      writer.Append(app);
      write_s += SecondsSince(t0);
    }
    const auto t0 = Clock::now();
    writer.Close();
    write_s += SecondsSince(t0);
    jobs = static_cast<long long>(writer.jobs_written());
    std::unique_ptr<TraceReader> source =
        std::make_unique<StreamingCsvTraceReader>(csv_path);
    if (traced) {
      auto timed = std::make_unique<TimedReader>(std::move(source));
      timed_reader = timed.get();
      source = std::move(timed);
    }
    sim = std::make_unique<Simulator>(ClusterSpec::Simulation256(),
                                      std::move(source), std::move(scheduler),
                                      sim_config);
  } else {
    const auto t0 = Clock::now();
    std::vector<AppSpec> apps = gen.Generate();
    gen_s = SecondsSince(t0);
    for (const AppSpec& a : apps) jobs += static_cast<long long>(a.jobs.size());
    sim = std::make_unique<Simulator>(ClusterSpec::Simulation256(),
                                      std::move(apps), std::move(scheduler),
                                      sim_config);
  }
  r.setup_s = SecondsSince(s0);

  Fingerprint fingerprint;
  long long participants = 0, granted = 0, offered = 0, leftover = 0;
  std::uint64_t oversubscribed = 0;
  sim->set_round_observer([&](const ResourceOffer& offer, const GrantSet& g) {
    fingerprint.AddRound(offer, g);
    const RoundDiagnostics& d = g.diagnostics;
    if (d.granted_gpus > d.offered_gpus || g.TotalGpus() > offer.TotalGpus())
      ++oversubscribed;
    participants += d.auction_participants;
    granted += d.granted_gpus;
    offered += d.offered_gpus;
    leftover += d.leftover_gpus;
  });

  const auto t0 = Clock::now();
  const SimResult res = sim->Run();
  r.wall_s = SecondsSince(t0);
  r.total_s = r.wall_s;
  if (steady) std::remove(csv_path.c_str());

  r.jobs = static_cast<double>(jobs);
  r.agent_serves = static_cast<double>(measured->served());
  auto& m = r.metrics;
  m["max_rho"] = res.metrics.MaxFairness();
  m["jain"] = res.metrics.JainsFairnessIndex();
  m["avg_act_min"] = res.metrics.AverageCompletionTime();
  m["workload.gen_s"] = gen_s;
  m["core.rounds"] = static_cast<double>(res.rounds_executed);
  m["core.grant_ratio"] =
      offered > 0 ? static_cast<double>(granted) / static_cast<double>(offered) : 0.0;
  m["core.leftover_ratio"] =
      offered > 0 ? static_cast<double>(leftover) / static_cast<double>(offered) : 0.0;
  m["sim.events"] = static_cast<double>(res.events_processed);
  m["sim.time_advances"] = static_cast<double>(res.sim_time_advances);
  if (steady) m["workload.write_s"] = write_s;
  if (traced) {
    layers.Emit(m);
    const double read_s = timed_reader != nullptr ? timed_reader->busy_s() : 0.0;
    m["sim.self_s"] = r.wall_s - measured->wrapper_s() - read_s;
    if (timed_reader != nullptr) {
      m["workload.read_busy_s"] = read_s;
      m["workload.read_calls"] = static_cast<double>(timed_reader->calls());
    }
  }
  r.round_ms = measured->round_ms();

  r.exact["sim.rounds"] = static_cast<std::uint64_t>(res.rounds_executed);
  r.exact["sim.events"] = static_cast<std::uint64_t>(res.events_processed);
  r.exact["sim.time_advances"] = static_cast<std::uint64_t>(res.sim_time_advances);
  r.exact["core.participants_sum"] = static_cast<std::uint64_t>(participants);
  r.exact["core.granted_gpus_sum"] = static_cast<std::uint64_t>(granted);
  r.exact["core.offered_gpus_sum"] = static_cast<std::uint64_t>(offered);
  r.exact["grant_fingerprint"] = fingerprint.value();
  r.exact["max_rho_bits"] = Bits(res.metrics.MaxFairness());
  r.exact["avg_act_bits"] = Bits(res.metrics.AverageCompletionTime());

  r.attempted = res.total_apps;
  r.failed = res.unfinished.size() + oversubscribed + measured->check_failures();
  if (!res.unfinished.empty())
    r.errors.push_back(std::to_string(res.unfinished.size()) + " unfinished apps");
  if (oversubscribed > 0)
    r.errors.push_back(std::to_string(oversubscribed) +
                       " rounds granted more GPUs than offered");
  if (measured->check_failures() > 0)
    r.errors.push_back(std::to_string(measured->check_failures()) +
                       " replayed rounds disagreed with the real round");
  return r;
}

}  // namespace perfbench

// themis_cli — command-line driver for arbitrary experiments. The flags
// come from the knob tables; `themis_cli --help` lists them.
//
// Generates (or loads) a trace, runs one simulation, prints the Sec. 8.1
// metric summary, and optionally archives the trace as CSV for later
// replay (`--trace-out` then `--trace-in` reproduces results exactly).
// With --stream-trace, the CSV is *streamed*: apps are injected as the
// reader advances and retired as they finish, so arbitrarily long
// (million-job) traces replay in memory bounded by peak concurrency —
// add --bounded-metrics to also cap the metric-side memory (reservoir
// samples + streaming quantiles instead of per-app vectors).
// --epsilon MIN batches lease ticks: a round waits up to MIN minutes so the
// leases expiring within the window are reclaimed and offered together.
// With --shards N, the cluster's machines are partitioned across N federated
// ARBITER shards (core/federation.h): apps are routed by the least-loaded
// placement hint, the shards simulate in parallel (--threads), the merged
// summary is printed alongside per-shard rows, and the cross-shard
// grant-stream invariants are checked. --shards 1 reproduces the unsharded
// run exactly.
// With --sweep, runs every scenario in the JSON file on the thread-pooled
// SweepRunner instead (see examples/scenarios.json for the format);
// --csv FILE additionally writes the per-scenario metric rows for plotting.
// --generations assigns GPU generations to the cluster's machines by
// fraction, in rack-major machine order (e.g. K80:0.25,V100:0.5,A100:0.25:
// the first quarter of machines are K80s, ...). It is a cluster transform,
// not a cluster choice, so it composes with --cluster, with --shards (the
// partition inherits the mixed machines), and with --sweep (every
// scenario's cluster is re-priced).
// With --connect HOST:PORT, the cli becomes an AGENT instead of a
// simulator: it registers the generated (or --trace-in loaded) apps with a
// running themis_arbiterd and answers OFFER frames with BIDs until the
// daemon CLOSEs the session (server/client.h).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/federation.h"
#include "server/client.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "workload/trace_io.h"

namespace {

using namespace themis;

/// AGENT mode: one blocking ArbiterClient serving `apps` until CLOSE.
int RunAgent(const std::string& host, int port, std::vector<AppSpec> apps) {
  server::ArbiterClient client;
  std::string err;
  if (!client.Connect(host, port, &err)) {
    std::fprintf(stderr, "connect %s:%d: %s\n", host.c_str(), port,
                 err.c_str());
    return 1;
  }
  if (!client.Hello("themis_cli", apps, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::vector<AppId> live = client.app_ids();
  std::vector<int> declared;
  for (const AppSpec& spec : apps) declared.push_back(spec.MaxJobParallelism());
  std::printf("registered %zu apps as agent %lld\n", live.size(),
              static_cast<long long>(client.agent_id()));

  net::GrantDigest digest;
  std::uint64_t rounds = 0;
  for (;;) {
    net::WireMessage msg;
    if (!client.NextMessage(&msg, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    switch (msg.type) {
      case net::MsgType::kOffer: {
        ++rounds;
        std::vector<net::BidDemand> demands;
        for (std::size_t j = 0; j < live.size(); ++j)
          demands.push_back({live[j], j < declared.size() ? declared[j] : 0});
        if (!client.Send(net::EncodeBid(msg.offer.round_id, demands), &err)) {
          std::fprintf(stderr, "%s\n", err.c_str());
          return 1;
        }
        break;
      }
      case net::MsgType::kGrant: {
        for (const Grant& g : msg.grants.grants)
          digest.Add(msg.grants.round_id, msg.grants.lease_expiry, g);
        for (AppId id : msg.finished_apps) {
          std::printf("round %llu: app %d finished\n",
                      static_cast<unsigned long long>(msg.grants.round_id),
                      id);
          const auto it = std::find(live.begin(), live.end(), id);
          if (it != live.end()) {
            const std::size_t idx = static_cast<std::size_t>(it - live.begin());
            live.erase(it);
            if (idx < declared.size()) declared.erase(declared.begin() + idx);
          }
        }
        if (!client.Send(net::EncodeAck(msg.grants.round_id), &err)) {
          std::fprintf(stderr, "%s\n", err.c_str());
          return 1;
        }
        break;
      }
      case net::MsgType::kError:
        std::fprintf(stderr, "server error: %s: %s\n", msg.code.c_str(),
                     msg.detail.c_str());
        break;
      case net::MsgType::kClose:
        std::printf("closed by server: %s\n", msg.reason.c_str());
        std::printf("rounds served    : %llu\n",
                    static_cast<unsigned long long>(rounds));
        std::printf("grant digest     : %016llx (%lld grants, %lld gpus)\n",
                    static_cast<unsigned long long>(digest.hash),
                    digest.grants, digest.gpus);
        return 0;
      default:
        std::fprintf(stderr, "unexpected %s frame from server\n",
                     net::ToString(msg.type));
        return 1;
    }
  }
}

int RunSweep(const std::string& path, int threads, const std::string& csv,
             const std::vector<GenerationShare>& generations) {
  std::vector<ScenarioSpec> scenarios;
  try {
    scenarios = LoadScenariosFile(path);
    // --generations re-prices every scenario's cluster (shape untouched).
    if (!generations.empty())
      for (ScenarioSpec& s : scenarios)
        ApplyGenerationMix(s.config.cluster, generations);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("%-22s %-10s %10s %8s %12s %8s\n", "scenario", "policy",
              "max_rho", "jain", "avg_ACT", "unfin");
  int failures = 0;
  const std::vector<ScenarioRun> runs = SweepRunner(threads).Run(scenarios);
  for (const ScenarioRun& run : runs) {
    if (!run.ok) {
      std::printf("%-22s FAILED: %s\n", run.name.c_str(), run.error.c_str());
      ++failures;
      continue;
    }
    std::printf("%-22s %-10s %10.2f %8.3f %12.1f %8d\n", run.name.c_str(),
                run.result.policy_name.c_str(), run.result.max_fairness,
                run.result.jains_index, run.result.avg_completion_time,
                run.result.unfinished_apps);
  }
  if (!csv.empty()) {
    try {
      WriteSweepCsv(csv, runs);
      std::printf("wrote %zu scenario rows to %s\n", runs.size(), csv.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

int RunSharded(const ExperimentConfig& config, std::vector<AppSpec> apps,
               int shards, int threads, bool print_cdf) {
  FederationResult fed;
  try {
    ShardedArbiter arbiter(config.cluster, shards);
    fed = arbiter.Run(config, apps, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const ExperimentResult& m = fed.merged;
  std::printf("federation       : %d shard(s), policy %s\n", fed.num_shards,
              m.policy_name.c_str());
  std::printf("%-8s %8s %8s %10s %8s %12s %8s\n", "shard", "apps", "rounds",
              "max_rho", "jain", "avg_ACT", "unfin");
  for (int s = 0; s < fed.num_shards; ++s) {
    const ExperimentResult& r = fed.per_shard[s];
    std::printf("%-8d %8d %8d %10.2f %8.3f %12.1f %8d\n", s,
                fed.apps_per_shard[s], r.scheduling_passes, r.max_fairness,
                r.jains_index, r.avg_completion_time, r.unfinished_apps);
  }
  std::printf("%-8s %8zu %8lld %10.2f %8.3f %12.1f %8d\n", "merged",
              apps.size(), fed.total_rounds, m.max_fairness, m.jains_index,
              m.avg_completion_time, m.unfinished_apps);
  std::printf("granted GPUs     : %lld (double-granted across shards: %d,"
              " out of range: %d)\n",
              fed.total_granted_gpus, fed.cross_shard_double_grants,
              fed.out_of_range_grants);
  if (print_cdf)
    std::printf("\nrho CDF:\n%s", FormatCdf(Cdf(m.rhos), 15).c_str());
  const bool ok = m.unfinished_apps == 0 &&
                  fed.cross_shard_double_grants == 0 &&
                  fed.out_of_range_grants == 0;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Simulation256();
  config.trace.num_apps = 60;
  std::string trace_in, trace_out, stream_trace, sweep_file, csv_file;
  std::optional<HostPort> connect;
  std::vector<GenerationShare> generations;
  int sweep_threads = 0;
  int shards = 0;
  bool print_cdf = false;

  FlagSet flags;
  flags.Add(PolicyKnob(&config.policy));
  flags.Add(ClusterFlag(&config.cluster));
  flags.Add(TraceKnobs(config.trace),
            {"num_apps", "contention_factor", "frac_network_intensive"});
  flags.Add(SimKnobs(config.sim), {"lease_minutes", "theta",
                                   "machine_mtbf_minutes",
                                   "auction_epsilon_minutes"});
  flags.Add(ThemisKnobs(config.themis), {"fairness_knob", "auction_threads"});
  flags.Add(KnobTable{"themis_cli", {
      Knob::Setter<std::string>("", "--generations",
                                "re-price by NAME:FRACTION,... (rack-major)",
                                [&](const std::string& mix) {
                                  generations = ParseGenerationMix(mix);
                                }),
      Knob::Setter<std::uint64_t>("", "--seed", "trace and simulator seed",
                                  [&](std::uint64_t seed) {
                                    config.trace.seed = seed;
                                    config.sim.seed = seed;
                                  }),
      Knob::Field("", "--trace-in", &trace_in, "replay this trace CSV"),
      Knob::Field("", "--trace-out", &trace_out, "archive the trace as CSV"),
      Knob::Field("", "--stream-trace", &stream_trace,
                  "stream this arrival-sorted trace CSV"),
      Knob::Field("", "--bounded-metrics", &config.sim.metrics.bounded_memory,
                  "constant-memory metrics"),
      Knob::Field("", "--cdf", &print_cdf, "print the rho (and ACT) CDF"),
      Knob::Field("", "--shards", &shards, "federate N ARBITER shards"),
      Knob::Field("", "--threads", &sweep_threads,
                  "threads for --sweep or --shards (0: all cores)"),
      Knob::Field("", "--sweep", &sweep_file, "run this scenario file"),
      Knob::Field("", "--csv", &csv_file, "write the --sweep rows as CSV"),
      Knob::Setter<HostPort>("", "--connect", "serve the apps as an AGENT",
                             [&](HostPort daemon) { connect = daemon; })}});
  flags.ParseOrExit(argc, argv, [&] {
    config.sim.Validate();
    config.themis.Validate();
    if (!sweep_file.empty()) {
      // Sweep mode takes every setting from the scenario file; reject
      // single-run flags alongside --sweep instead of silently dropping
      // them. --generations is exempt: it transforms whatever cluster each
      // scenario chose rather than replacing a scenario setting.
      for (const std::string& flag : flags.given())
        if (flag != "--sweep" && flag != "--threads" && flag != "--csv" &&
            flag != "--generations")
          throw std::invalid_argument(
              "--sweep runs scenarios from the file and cannot be combined "
              "with " + flag);
      return;
    }
    if (!generations.empty())
      ApplyGenerationMix(config.cluster, generations);
    if (!csv_file.empty())
      throw std::invalid_argument("--csv only applies to --sweep runs");
    if (sweep_threads != 0 && shards == 0)
      throw std::invalid_argument(
          "--threads only applies to --sweep or --shards runs");
    // Streamed replay fixes the workload and owns the app lifecycle, so the
    // preload/archive/shard paths cannot compose with it.
    if (!stream_trace.empty() &&
        (!trace_in.empty() || !trace_out.empty() || shards != 0))
      throw std::invalid_argument(
          "--stream-trace cannot be combined with --trace-in, --trace-out, "
          "or --shards");
    if (connect && shards != 0)
      throw std::invalid_argument("--connect cannot be combined with --shards");
  });
  if (!sweep_file.empty())
    return RunSweep(sweep_file, sweep_threads, csv_file, generations);

  const bool streamed = !stream_trace.empty();
  std::vector<AppSpec> apps;
  if (!streamed) {
    // A malformed --trace-in CSV or an unwritable --trace-out path is
    // refused like a bad --stream-trace file: the error, then exit 2.
    try {
      if (!trace_in.empty()) {
        apps = ReadTraceCsvFile(trace_in);
        std::printf("loaded %zu apps from %s\n", apps.size(),
                    trace_in.c_str());
      } else {
        TraceGenerator gen(config.trace);
        apps = gen.Generate();
      }
      if (!trace_out.empty()) {
        WriteTraceCsvFile(trace_out, apps);
        std::printf("wrote %zu apps to %s\n", apps.size(), trace_out.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (connect) return RunAgent(connect->host, connect->port, std::move(apps));
    if (shards != 0)
      return RunSharded(config, std::move(apps), shards, sweep_threads,
                        print_cdf);
  }

  ExperimentResult r;
  try {
    r = streamed ? RunStreamingExperiment(
                       config,
                       std::make_unique<StreamingCsvTraceReader>(stream_trace))
                 : RunExperimentWithApps(config, apps);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("policy           : %s\n", r.policy_name.c_str());
  if (streamed)
    std::printf("apps replayed    : %zu (%d unfinished, peak %zu live)\n",
                r.total_apps, r.unfinished_apps, r.peak_live_apps);
  else
    std::printf("apps finished    : %zu (%d unfinished)\n", r.rhos.size(),
                r.unfinished_apps);
  std::printf("peak contention  : %.2f\n", r.peak_contention);
  std::printf("max fairness     : %.2f\n", r.max_fairness);
  std::printf("median fairness  : %.2f\n", r.median_fairness);
  std::printf("Jain's index     : %.3f\n", r.jains_index);
  std::printf("avg ACT          : %.1f min\n", r.avg_completion_time);
  std::printf("GPU time         : %.0f GPU-min\n", r.gpu_time);
  std::printf("event core       : %lld events, %lld rounds in %d passes, "
              "%lld time advances\n",
              r.events_processed, r.rounds_executed, r.scheduling_passes,
              r.sim_time_advances);
  if (r.machine_failures > 0)
    std::printf("machine failures : %d\n", r.machine_failures);
  if (print_cdf && streamed) {
    std::printf("\nrho CDF (sampled):\n%s", FormatCdf(Cdf(r.rhos), 15).c_str());
  } else if (print_cdf) {
    std::printf("\nrho CDF:\n%s", FormatCdf(Cdf(r.rhos), 15).c_str());
    std::printf("\nACT CDF (min):\n%s",
                FormatCdf(Cdf(r.completion_times), 15).c_str());
  }
  return r.unfinished_apps == 0 ? 0 : 1;
}

// themis_cli — command-line driver for arbitrary experiments.
//
//   themis_cli [--policy themis|gandiva|tiresias|slaq|drf]
//              [--cluster sim256|testbed50|RxMxG (e.g. 2x4x4)]
//              [--generations SPEC (e.g. K80:0.25,V100:0.5,A100:0.25)]
//              [--apps N] [--seed S] [--contention C] [--lease MIN]
//              [--knob F] [--theta T] [--mtbf MIN] [--sensitive FRAC]
//              [--round-threads N]
//              [--trace-out FILE] [--trace-in FILE] [--cdf]
//              [--stream-trace FILE] [--bounded-metrics]
//              [--shards N] [--threads N]
//              [--sweep SCENARIOS.json] [--csv FILE]
//              [--connect HOST:PORT]
//
// Generates (or loads) a trace, runs one simulation, prints the Sec. 8.1
// metric summary, and optionally archives the trace as CSV for later
// replay (`--trace-out` then `--trace-in` reproduces results exactly).
// With --stream-trace, the CSV is *streamed*: apps are injected as the
// reader advances and retired as they finish, so arbitrarily long
// (million-job) traces replay in memory bounded by peak concurrency —
// add --bounded-metrics to also cap the metric-side memory (reservoir
// samples + streaming quantiles instead of per-app vectors).
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "core/federation.h"
#include "server/client.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "workload/trace_io.h"

namespace {

using namespace themis;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--policy themis|gandiva|tiresias|slaq|drf]\n"
               "          [--cluster sim256|testbed50|RxMxG] [--apps N]\n"
               "          [--generations NAME:FRAC,... (e.g. "
               "K80:0.25,V100:0.5,A100:0.25)]\n"
               "          [--seed S] [--contention C] [--lease MIN]\n"
               "          [--knob F] [--theta T] [--mtbf MIN] [--round-threads N]\n"
               "          [--sensitive FRAC] [--trace-out FILE]\n"
               "          [--trace-in FILE] [--cdf]\n"
               "          [--stream-trace FILE] [--bounded-metrics]\n"
               "          [--epsilon MIN]\n"
               "          [--shards N] [--threads N]\n"
               "          [--sweep SCENARIOS.json] [--csv FILE]\n"
               "          [--connect HOST:PORT]\n",
               argv0);
  std::exit(2);
}

bool ParseHostPort(const std::string& s, std::string* host, int* port) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos) return false;
  *host = s.substr(0, colon);
  *port = std::atoi(s.c_str() + colon + 1);
  return *port > 0;
}

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

PolicyKind ParsePolicy(const std::string& name) {
  try {
    return PolicyKindFromString(name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
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

ClusterSpec ParseCluster(const std::string& name) {
  if (name == "sim256") return ClusterSpec::Simulation256();
  if (name == "testbed50") return ClusterSpec::Testbed50();
  int racks = 0, machines = 0, gpus = 0;
  if (std::sscanf(name.c_str(), "%dx%dx%d", &racks, &machines, &gpus) == 3 &&
      racks > 0 && machines > 0 && gpus > 0) {
    const int slot = (gpus % 2 == 0) ? 2 : 1;
    return ClusterSpec::Uniform(racks, machines, gpus, slot);
  }
  std::fprintf(stderr, "unknown cluster: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.cluster = ClusterSpec::Simulation256();
  config.trace.num_apps = 60;
  std::string trace_in, trace_out, stream_trace, sweep_file, csv_file;
  std::string connect_host;
  int connect_port = 0;
  std::vector<GenerationShare> generations;
  int sweep_threads = 0;
  int shards = 0;
  bool print_cdf = false;
  // Sweep mode takes every setting from the scenario file; reject
  // single-run flags alongside --sweep instead of silently dropping them.
  // --generations is exempt: it transforms whatever cluster each scenario
  // chose rather than replacing a scenario setting.
  const char* single_run_flag = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg != "--sweep" && arg != "--threads" && arg != "--csv" &&
        arg != "--generations" && arg != "--help" && arg != "-h")
      single_run_flag = argv[i];
    if (arg == "--policy") config.policy = ParsePolicy(next());
    else if (arg == "--cluster") config.cluster = ParseCluster(next());
    else if (arg == "--generations") {
      try {
        generations = ParseGenerationMix(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "--generations: %s\n", e.what());
        return 2;
      }
    }
    else if (arg == "--apps") config.trace.num_apps = std::atoi(next().c_str());
    else if (arg == "--seed") {
      config.trace.seed = std::strtoull(next().c_str(), nullptr, 10);
      config.sim.seed = config.trace.seed;
    } else if (arg == "--contention")
      config.trace.contention_factor = std::atof(next().c_str());
    else if (arg == "--lease") config.sim.lease_minutes = std::atof(next().c_str());
    else if (arg == "--knob")
      config.themis.fairness_knob = std::atof(next().c_str());
    else if (arg == "--round-threads")
      // Fan the round's probe + bid-prep phases over N pool threads
      // (bit-identical to serial; see common/parallel.h).
      config.themis.auction_threads = std::atoi(next().c_str());
    else if (arg == "--theta") {
      config.sim.estimator.theta = std::atof(next().c_str());
      if (config.sim.estimator.theta > 0.0)
        config.sim.estimator.mode = EstimationMode::kNoisy;
    } else if (arg == "--mtbf")
      config.sim.machine_mtbf_minutes = std::atof(next().c_str());
    else if (arg == "--sensitive")
      config.trace.frac_network_intensive = std::atof(next().c_str());
    else if (arg == "--trace-in") trace_in = next();
    else if (arg == "--trace-out") trace_out = next();
    else if (arg == "--stream-trace") stream_trace = next();
    else if (arg == "--bounded-metrics") config.sim.metrics.bounded_memory = true;
    else if (arg == "--epsilon")
      config.sim.auction_epsilon_minutes = std::atof(next().c_str());
    else if (arg == "--connect") {
      if (!ParseHostPort(next(), &connect_host, &connect_port)) {
        std::fprintf(stderr, "--connect expects HOST:PORT\n");
        return 2;
      }
    }
    else if (arg == "--cdf") print_cdf = true;
    else if (arg == "--sweep") sweep_file = next();
    else if (arg == "--csv") csv_file = next();
    else if (arg == "--shards") shards = std::atoi(next().c_str());
    else if (arg == "--threads") sweep_threads = std::atoi(next().c_str());
    else if (arg == "--help" || arg == "-h") Usage(argv[0]);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
    }
  }

  if (!sweep_file.empty()) {
    if (single_run_flag != nullptr) {
      std::fprintf(stderr,
                   "--sweep runs scenarios from the file and cannot be "
                   "combined with %s\n",
                   single_run_flag);
      return 2;
    }
    return RunSweep(sweep_file, sweep_threads, csv_file, generations);
  }
  if (!generations.empty()) {
    try {
      ApplyGenerationMix(config.cluster, generations);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--generations: %s\n", e.what());
      return 2;
    }
  }
  if (!csv_file.empty()) {
    std::fprintf(stderr, "--csv only applies to --sweep runs\n");
    return 2;
  }
  if (sweep_threads != 0 && shards == 0) {
    std::fprintf(stderr,
                 "--threads only applies to --sweep or --shards runs\n");
    return 2;
  }

  if (!stream_trace.empty()) {
    // Streamed replay fixes the workload and owns the app lifecycle, so the
    // preload/archive/shard paths cannot compose with it.
    if (!trace_in.empty() || !trace_out.empty() || shards != 0) {
      std::fprintf(stderr,
                   "--stream-trace cannot be combined with --trace-in, "
                   "--trace-out, or --shards\n");
      return 2;
    }
    ExperimentResult r;
    try {
      r = RunStreamingExperiment(
          config, std::make_unique<StreamingCsvTraceReader>(stream_trace));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    std::printf("policy           : %s\n", r.policy_name.c_str());
    std::printf("apps replayed    : %zu (%d unfinished, peak %zu live)\n",
                r.total_apps, r.unfinished_apps, r.peak_live_apps);
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
    if (print_cdf)
      std::printf("\nrho CDF (sampled):\n%s",
                  FormatCdf(Cdf(r.rhos), 15).c_str());
    return r.unfinished_apps == 0 ? 0 : 1;
  }

  std::vector<AppSpec> apps;
  if (!trace_in.empty()) {
    apps = ReadTraceCsvFile(trace_in);
    std::printf("loaded %zu apps from %s\n", apps.size(), trace_in.c_str());
  } else {
    TraceGenerator gen(config.trace);
    apps = gen.Generate();
  }
  if (!trace_out.empty()) {
    WriteTraceCsvFile(trace_out, apps);
    std::printf("wrote %zu apps to %s\n", apps.size(), trace_out.c_str());
  }

  if (!connect_host.empty()) {
    if (shards != 0) {
      std::fprintf(stderr, "--connect cannot be combined with --shards\n");
      return 2;
    }
    return RunAgent(connect_host, connect_port, std::move(apps));
  }

  if (shards != 0)
    return RunSharded(config, std::move(apps), shards, sweep_threads,
                      print_cdf);

  ExperimentResult r;
  try {
    r = RunExperimentWithApps(config, apps);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("policy           : %s\n", r.policy_name.c_str());
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
  if (print_cdf) {
    std::printf("\nrho CDF:\n%s", FormatCdf(Cdf(r.rhos), 15).c_str());
    std::printf("\nACT CDF (min):\n%s",
                FormatCdf(Cdf(r.completion_times), 15).c_str());
  }
  return r.unfinished_apps == 0 ? 0 : 1;
}

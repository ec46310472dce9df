// scripted_agents — replay a generated trace's apps as N concurrent socket
// AGENTs against a running themis_arbiterd. The flags come from the knob
// tables; `scripted_agents --help` lists them.
//
// The trace's apps are partitioned contiguously across the AGENTs;
// registration is sequential (HELLO waits for WELCOME) so the daemon's app
// numbering is deterministic, then all AGENTs bid concurrently until the
// daemon CLOSEs them. With --verify-inprocess the same specs are driven
// through an in-process ArbiterCore configured by the --policy/--cluster/
// --lease/--round-interval/--arbiter-seed/--knob flags (which must match
// the daemon's), and the grant-stream digests must agree bit for bit —
// exit 1 otherwise.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "server/arbiter_core.h"
#include "server/client.h"
#include "sim/scenario.h"
#include "workload/trace_gen.h"

using namespace themis;

int main(int argc, char** argv) {
  std::optional<HostPort> daemon;
  int num_agents = 8;
  int mute_every = 0;
  bool verify = false;
  TraceConfig trace;
  trace.num_apps = 16;
  server::ArbiterConfig arbiter;

  FlagSet flags;
  flags.Add(TraceKnobs(trace), {"num_apps", "seed", "contention_factor"});
  flags.Add(ArbiterKnobs(arbiter),
            {"policy", "cluster", "lease_minutes", "round_interval_minutes"});
  flags.Add(ThemisKnobs(arbiter.themis), {"fairness_knob"});
  flags.Add(KnobTable{"scripted_agents", {
      Knob::Setter<HostPort>("", "--connect", "the daemon (required)",
                             [&](HostPort hp) { daemon = hp; }),
      Knob::Field("", "--agents", &num_agents, "AGENTs to split the apps"),
      Knob::Field("", "--mute-every", &mute_every,
                  "every Kth AGENT never bids (0: none)"),
      Knob::Field("", "--verify-inprocess", &verify,
                  "check the digest against an in-process run"),
      Knob::Field("", "--arbiter-seed", &arbiter.seed, "the daemon's seed")}});
  flags.ParseOrExit(argc, argv, [&] {
    if (!daemon) throw std::invalid_argument("--connect HOST:PORT is required");
    // A muted AGENT is eventually evicted server-side; the in-process
    // reference does not model evictions, so the digests cannot agree.
    if (verify && mute_every > 0)
      throw std::invalid_argument(
          "--verify-inprocess cannot be combined with --mute-every");
    arbiter.Validate();
  });
  if (num_agents <= 0) num_agents = 1;

  TraceGenerator gen(trace);
  const std::vector<AppSpec> apps = gen.Generate();
  if (static_cast<int>(apps.size()) < num_agents)
    num_agents = static_cast<int>(apps.size());

  // Contiguous partition: agent i serves apps [i*k, ...); HELLO order is
  // agent order, so the daemon numbers apps exactly like the flattened
  // spec list — the precondition for the in-process comparison.
  std::vector<server::AgentScript> scripts(num_agents);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const int owner = static_cast<int>(
        a * static_cast<std::size_t>(num_agents) / apps.size());
    scripts[owner].apps.push_back(apps[a]);
  }
  for (int i = 0; i < num_agents; ++i)
    scripts[i].name = "agent-" + std::to_string(i);

  const server::FleetResult fleet =
      server::RunScriptedAgents(daemon->host, daemon->port, scripts,
                                mute_every);
  if (!fleet.ok) {
    std::fprintf(stderr, "scripted_agents: %s\n", fleet.error.c_str());
    return 1;
  }
  std::printf("agents           : %d (%zu closed, mute every %d)\n",
              num_agents, fleet.agents_closed, mute_every);
  std::printf("rounds seen      : %llu (%llu offers, %llu grants, %zu apps "
              "finished)\n",
              static_cast<unsigned long long>(fleet.last_round_seen),
              static_cast<unsigned long long>(fleet.offers_received),
              static_cast<unsigned long long>(fleet.grants_received),
              fleet.finished_apps);
  std::printf("grant digest     : %016llx (%lld grants, %lld gpus)\n",
              static_cast<unsigned long long>(fleet.digest.hash),
              fleet.digest.grants, fleet.digest.gpus);

  if (!verify) return 0;

  // In-process reference: same specs, same registration order, same number
  // of rounds, against a core configured identically to the daemon.
  server::ArbiterCore reference(arbiter);
  for (const server::AgentScript& s : scripts)
    for (const AppSpec& spec : s.apps) reference.RegisterApp(spec);
  while (reference.rounds_run() < fleet.last_round_seen)
    reference.RunOneRound();

  const bool match = reference.digest() == fleet.digest;
  std::printf("in-process digest: %016llx (%lld grants, %lld gpus) -- %s\n",
              static_cast<unsigned long long>(reference.digest().hash),
              reference.digest().grants, reference.digest().gpus,
              match ? "MATCH" : "MISMATCH");
  return match ? 0 : 1;
}

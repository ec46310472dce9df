// themis_arbiterd — the ARBITER as a network daemon. The flags come from
// the knob tables; `themis_arbiterd --help` lists them.
//
// Binds HOST:PORT (port 0 = ephemeral; --print-port echoes the bound port
// on stdout for scripts), serves the Offer/Bid/Grant protocol of net/wire.h
// to remote AGENTs, and exits 0 on SIGINT/SIGTERM after draining the
// in-flight round and sending CLOSE frames. A second signal aborts
// immediately (exit 130) — the escape hatch when a peer refuses to drain.
#include <csignal>
#include <cstdio>
#include <string>
#include <unistd.h>

#include "common/stats.h"
#include "sim/scenario.h"
#include "server/server.h"

namespace {

using namespace themis;

server::ArbiterServer* g_server = nullptr;
volatile std::sig_atomic_t g_signal_count = 0;

void OnSignal(int) {
  g_signal_count = g_signal_count + 1;
  if (g_signal_count >= 2) _exit(130);  // double-signal escape hatch
  if (g_server != nullptr) g_server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerConfig config;
  bool print_port = false;

  FlagSet flags;
  flags.Add(ServerKnobs(config));
  flags.Add(ArbiterKnobs(config.arbiter));
  flags.Add(ThemisKnobs(config.arbiter.themis), {"fairness_knob"});
  flags.Add(Knob::Field("", "--print-port", &print_port,
                        "print \"PORT N\" once bound"));
  flags.ParseOrExit(argc, argv, [&] { config.arbiter.Validate(); });

  server::ArbiterServer srv(config);
  std::string err;
  if (!srv.Start(&err)) {
    std::fprintf(stderr, "themis_arbiterd: %s\n", err.c_str());
    return 1;
  }
  if (print_port) {
    std::printf("PORT %d\n", srv.port());
    std::fflush(stdout);
  }
  std::fprintf(stderr, "themis_arbiterd: listening on %s:%d (policy %s)\n",
               config.host.c_str(), srv.port(),
               ToString(config.arbiter.policy));

  g_server = &srv;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const int rc = srv.Run();
  g_server = nullptr;

  const server::ServerStats& st = srv.stats();
  std::printf("rounds           : %llu\n",
              static_cast<unsigned long long>(st.rounds));
  if (st.round_latency_ms.count() == 0)
    std::printf("round latency    : (no rounds completed)\n");
  else
    std::printf("round latency    : p50 %.2f ms, p99 %.2f ms, max %.2f ms\n",
                Percentile(st.round_latency_ms.items(), 50.0),
                Percentile(st.round_latency_ms.items(), 99.0),
                st.round_latency_summary.max());
  std::printf("sessions         : %zu accepted, %zu peak, %zu evicted, "
              "%zu refused\n",
              st.sessions_accepted, st.peak_sessions, st.sessions_evicted,
              st.sessions_refused);
  std::printf("frames           : %llu in, %llu out (%zu protocol errors, "
              "%zu deadline misses)\n",
              static_cast<unsigned long long>(st.frames_in),
              static_cast<unsigned long long>(st.frames_out),
              st.protocol_errors, st.bid_deadline_misses);
  std::printf("apps             : %zu registered, %zu finished\n",
              srv.core().apps_registered(), srv.core().apps_finished());
  std::printf("grant digest     : %016llx (%lld grants, %lld gpus)\n",
              static_cast<unsigned long long>(srv.core().digest().hash),
              srv.core().digest().grants, srv.core().digest().gpus);
  return rc;
}

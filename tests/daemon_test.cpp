// Tests for the themis_arbiterd daemon (src/server/):
//
//   - Loopback equivalence: a daemon on 127.0.0.1 serving scripted AGENT
//     fleets produces a grant stream bit-identical to the in-process
//     ArbiterCore reference, for all five policies, and a parallel
//     arbiter serves the serial one's grant stream.
//   - Slow AGENTs: a session that never bids cannot stall rounds past the
//     bid deadline, and consecutive misses evict it.
//   - Hardening: garbage lines, oversized lines, unknown types, BIDs
//     before HELLO, stale and duplicate BIDs, and mid-round disconnects
//     draw pointed ERROR frames or eviction — never a crash. (CI runs this
//     binary under ASan/UBSan.)
//   - Graceful shutdown: RequestStop drains the in-flight round, CLOSEs
//     every session, and Run() returns 0.
//   - Admission control: sessions beyond max_sessions are refused with a
//     "server-full" ERROR.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <poll.h>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "placement/model_profile.h"
#include "round_audit.h"
#include "server/arbiter_core.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/trace_gen.h"

namespace themis {
namespace {

/// Server on its own thread; stops and joins on destruction.
struct DaemonHarness {
  server::ArbiterServer srv;
  std::thread thread;
  int rc = -1;

  explicit DaemonHarness(server::ServerConfig config) : srv(std::move(config)) {}

  ~DaemonHarness() {
    srv.RequestStop();
    Join();
  }

  bool Start() {
    std::string err;
    if (!srv.Start(&err)) {
      ADD_FAILURE() << "server start: " << err;
      return false;
    }
    thread = std::thread([this] { rc = srv.Run(); });
    return true;
  }

  int Join() {
    if (thread.joinable()) thread.join();
    return rc;
  }
};

std::vector<AppSpec> SampleApps(int n, std::uint64_t seed = 7) {
  TraceConfig trace;
  trace.num_apps = n;
  trace.seed = seed;
  return TraceGenerator(trace).Generate();
}

std::vector<server::AgentScript> Partition(const std::vector<AppSpec>& apps,
                                           int num_agents) {
  std::vector<server::AgentScript> scripts(num_agents);
  for (std::size_t a = 0; a < apps.size(); ++a)
    scripts[a * static_cast<std::size_t>(num_agents) / apps.size()]
        .apps.push_back(apps[a]);
  for (int i = 0; i < num_agents; ++i)
    scripts[i].name = "agent-" + std::to_string(i);
  return scripts;
}

/// Raw blocking-socket client for protocol-hardening tests: speaks bytes,
/// not the ArbiterClient conveniences, so it can misbehave on purpose.
struct RawClient {
  net::UniqueFd fd;
  net::LineReader reader;

  bool Connect(int port) {
    std::string err;
    fd.reset(net::TcpConnect("127.0.0.1", port, &err));
    if (!fd.valid()) ADD_FAILURE() << "connect: " << err;
    return fd.valid();
  }

  bool SendLine(const std::string& frame) {
    std::string line = frame;
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
      const long w =
          net::SendSome(fd.get(), line.data() + off, line.size() - off);
      if (w < 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  /// Next frame within `timeout_ms`; fails the test on timeout/EOF unless
  /// `expect_eof`, in which case EOF returns false without failing.
  bool ReadMessage(net::WireMessage* msg, int timeout_ms = 10000,
                   bool expect_eof = false) {
    std::string line;
    for (;;) {
      if (reader.NextLine(line)) {
        if (line.empty()) continue;
        try {
          *msg = net::ParseWireMessage(line);
        } catch (const net::WireError& e) {
          ADD_FAILURE() << "bad server frame: " << e.what();
          return false;
        }
        return true;
      }
      pollfd pfd{fd.get(), POLLIN, 0};
      const int n = poll(&pfd, 1, timeout_ms);
      if (n <= 0) {
        if (!expect_eof) ADD_FAILURE() << "timed out waiting for a frame";
        return false;
      }
      char buf[16384];
      const long r = net::RecvSome(fd.get(), buf, sizeof buf);
      if (r < 0) {
        if (!expect_eof) ADD_FAILURE() << "connection closed";
        return false;
      }
      if (r > 0 && !reader.Feed(buf, static_cast<std::size_t>(r))) {
        ADD_FAILURE() << "oversized frame from server";
        return false;
      }
    }
  }

  /// Read until a frame of `type` arrives (skipping others).
  bool ReadUntil(net::MsgType type, net::WireMessage* msg,
                 int timeout_ms = 10000) {
    while (ReadMessage(msg, timeout_ms)) {
      if (msg->type == type) return true;
    }
    return false;
  }
};

server::ServerConfig SmallConfig() {
  server::ServerConfig config;
  config.arbiter.cluster = ClusterSpec::Uniform(2, 4, 4, 2);  // 32 GPUs
  return config;
}

// ---------------------------------------------------------------------------
// Loopback equivalence: daemon-served grant stream == in-process reference,
// for every policy.
// ---------------------------------------------------------------------------

class LoopbackEquivalence : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(LoopbackEquivalence, DaemonMatchesInProcessCore) {
  const int kAgents = 4;
  const std::uint64_t kRounds = 30;
  server::ServerConfig config = SmallConfig();
  config.arbiter.policy = GetParam();
  config.min_agents = kAgents;
  config.max_rounds = kRounds;

  const std::vector<AppSpec> apps = SampleApps(12);
  const std::vector<server::AgentScript> scripts = Partition(apps, kAgents);

  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());
  const server::FleetResult fleet =
      server::RunScriptedAgents("127.0.0.1", daemon.srv.port(), scripts);
  ASSERT_TRUE(fleet.ok) << fleet.error;
  EXPECT_EQ(daemon.Join(), 0);
  EXPECT_GT(fleet.grants_received, 0u);

  server::ArbiterCore reference(config.arbiter);
  for (const server::AgentScript& s : scripts)
    for (const AppSpec& spec : s.apps) reference.RegisterApp(spec);
  while (reference.rounds_run() < fleet.last_round_seen)
    reference.RunOneRound();

  EXPECT_TRUE(reference.digest() == fleet.digest)
      << ToString(GetParam()) << ": daemon " << fleet.digest.hash << "/"
      << fleet.digest.grants << " vs in-process " << reference.digest().hash
      << "/" << reference.digest().grants;
  // The daemon side must agree with its own core too (grants are routed,
  // not recomputed).
  EXPECT_TRUE(daemon.srv.core().digest() == fleet.digest);

  // Replay once more, auditing the shared round state after every round.
  server::ArbiterCore audited(config.arbiter);
  for (const server::AgentScript& s : scripts)
    for (const AppSpec& spec : s.apps) audited.RegisterApp(spec);
  while (audited.rounds_run() < fleet.last_round_seen) {
    server::RoundStart start;
    const GrantSet grants = audited.RunOneRound(&start);
    AuditRoundCore(audited.round_core());
    if (start.have_offer)
      AuditRoundGrants(audited.round_core(), start.offer, grants);
  }
  EXPECT_TRUE(audited.digest() == reference.digest());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LoopbackEquivalence,
                         ::testing::Values(PolicyKind::kThemis,
                                           PolicyKind::kGandiva,
                                           PolicyKind::kTiresias,
                                           PolicyKind::kSlaq,
                                           PolicyKind::kDrf),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

// auction_threads > 1 fans the daemon's holder rho probe and bid prep over
// the thread pool; the grants it serves must be the serial arbiter's.
TEST(Daemon, ParallelArbiterServesTheSerialGrantStream) {
  const int kAgents = 16;
  server::ServerConfig config = SmallConfig();
  config.arbiter.themis.auction_threads = 8;
  config.min_agents = kAgents;
  config.max_rounds = 30;

  const std::vector<server::AgentScript> scripts =
      Partition(SampleApps(32), kAgents);
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());
  const server::FleetResult fleet =
      server::RunScriptedAgents("127.0.0.1", daemon.srv.port(), scripts);
  ASSERT_TRUE(fleet.ok) << fleet.error;
  EXPECT_EQ(daemon.Join(), 0);
  EXPECT_GT(fleet.grants_received, 0u);

  server::ArbiterConfig serial = config.arbiter;
  serial.themis.auction_threads = 1;
  server::ArbiterCore reference(serial);
  for (const server::AgentScript& s : scripts)
    for (const AppSpec& spec : s.apps) reference.RegisterApp(spec);
  while (reference.rounds_run() < fleet.last_round_seen)
    reference.RunOneRound();
  EXPECT_TRUE(reference.digest() == fleet.digest)
      << "8-thread daemon " << fleet.digest.hash << "/" << fleet.digest.grants
      << " vs serial in-process " << reference.digest().hash << "/"
      << reference.digest().grants;
}

// The registration barrier's last handshake read can pull round 1's OFFER
// in with the WELCOME. The fleet must answer that buffered OFFER at once:
// left unread it sits until the bid deadline, and the late BID then draws a
// stale-bid ERROR. Every run must finish far inside the deadline, with no
// misses and no errors.
TEST(Daemon, FleetAnswersOfferBufferedWithWelcome) {
  const int kAgents = 4;
  for (int run = 0; run < 3; ++run) {
    server::ServerConfig config = SmallConfig();
    config.min_agents = kAgents;
    config.max_rounds = 5;
    config.bid_timeout_ms = 10000;
    DaemonHarness daemon(config);
    ASSERT_TRUE(daemon.Start());
    const auto t0 = std::chrono::steady_clock::now();
    const server::FleetResult fleet = server::RunScriptedAgents(
        "127.0.0.1", daemon.srv.port(), Partition(SampleApps(8), kAgents));
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
    ASSERT_TRUE(fleet.ok) << fleet.error;
    EXPECT_EQ(daemon.Join(), 0);
    EXPECT_EQ(daemon.srv.stats().bid_deadline_misses, 0u) << "run " << run;
    EXPECT_EQ(fleet.errors_received, 0u) << "run " << run;
    EXPECT_LT(elapsed_ms, config.bid_timeout_ms / 2.0) << "run " << run;
  }
}

// The same race made deterministic: a scripted peer writes the WELCOME and
// the first OFFER in one send, so the fleet's handshake read always takes
// both. The BID must come back without any further bytes from the peer.
TEST(Daemon, FleetAnswersOfferReadWithTheWelcome) {
  std::string err;
  net::UniqueFd listener(net::TcpListen("127.0.0.1", 0, 4, &err));
  ASSERT_TRUE(listener.valid()) << err;
  const int port = net::ListenPort(listener.get());
  server::FleetResult fleet;
  std::thread agents([&] {
    fleet = server::RunScriptedAgents("127.0.0.1", port,
                                      Partition(SampleApps(1), 1));
  });

  RawClient peer;  // the server end of the one AGENT's connection
  pollfd pfd{listener.get(), POLLIN, 0};
  ASSERT_EQ(poll(&pfd, 1, 10000), 1);
  peer.fd.reset(net::TcpAccept(listener.get()));
  ASSERT_TRUE(peer.fd.valid());
  net::WireMessage msg;
  ASSERT_TRUE(peer.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kHello);

  ResourceOffer offer;
  offer.round_id = 1;
  offer.time = 5.0;
  offer.lease_duration = 20.0;
  offer.gpus = {0, 1};
  offer.free_per_machine = {2};
  offer.machine_speeds = {1.0};
  ASSERT_TRUE(peer.SendLine(net::EncodeWelcome(0, {0}) + "\n" +
                            net::EncodeOffer(offer)));
  const bool answered =
      peer.ReadMessage(&msg, /*timeout_ms=*/3000, /*expect_eof=*/true);
  EXPECT_TRUE(answered && msg.type == net::MsgType::kBid)
      << "the OFFER read with the WELCOME was never answered";

  peer.SendLine(net::EncodeClose("done"));
  agents.join();
  EXPECT_TRUE(fleet.ok) << fleet.error;
  EXPECT_EQ(fleet.offers_received, 1u);
  EXPECT_EQ(fleet.errors_received, 0u);
}

// ---------------------------------------------------------------------------
// Slow AGENTs and deadlines.
// ---------------------------------------------------------------------------

TEST(Daemon, SlowAgentCannotStallRoundsAndIsEvicted) {
  const int kAgents = 4;
  server::ServerConfig config = SmallConfig();
  config.min_agents = kAgents;
  config.max_rounds = 10;
  config.bid_timeout_ms = 150;
  config.max_missed_deadlines = 2;

  const std::vector<server::AgentScript> scripts =
      Partition(SampleApps(8), kAgents);
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());
  // Every 2nd AGENT (0 and 2) registers but never bids.
  const server::FleetResult fleet = server::RunScriptedAgents(
      "127.0.0.1", daemon.srv.port(), scripts, /*mute_every=*/2);
  ASSERT_TRUE(fleet.ok) << fleet.error;
  EXPECT_EQ(daemon.Join(), 0);

  const server::ServerStats& st = daemon.srv.stats();
  EXPECT_EQ(st.rounds, 10u);
  EXPECT_GT(st.bid_deadline_misses, 0u);
  EXPECT_GE(st.sessions_evicted, 2u);  // both mutes, after 2 misses each
  // The deadline bounds every round: generous slack for loaded CI hosts,
  // but nowhere near a stall (a stalled round would block forever). 10
  // rounds fit the reservoir, so the sample is the complete population.
  ASSERT_EQ(st.round_latency_ms.count(), st.rounds);
  for (double ms : st.round_latency_ms.items())
    EXPECT_LT(ms, config.bid_timeout_ms + 2000.0);
  // At least one round actually waited out the deadline.
  EXPECT_GE(st.round_latency_summary.max(), config.bid_timeout_ms * 0.9);
  EXPECT_LT(st.round_latency_summary.max(), config.bid_timeout_ms + 2000.0);
}

// ---------------------------------------------------------------------------
// Protocol hardening against misbehaving peers.
// ---------------------------------------------------------------------------

TEST(Daemon, GarbageLineDrawsBadFrameAndEviction) {
  DaemonHarness daemon(SmallConfig());
  ASSERT_TRUE(daemon.Start());
  RawClient c;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  ASSERT_TRUE(c.SendLine("this is not json"));
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "bad-frame");
  // The session is evicted: CLOSE or EOF follows.
  while (c.ReadMessage(&msg, 2000, /*expect_eof=*/true)) {
    if (msg.type == net::MsgType::kClose) break;
  }
}

TEST(Daemon, UnknownTypeDrawsBadFrame) {
  DaemonHarness daemon(SmallConfig());
  ASSERT_TRUE(daemon.Start());
  RawClient c;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  ASSERT_TRUE(c.SendLine("{\"type\":\"teapot\"}"));
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "bad-frame");
}

TEST(Daemon, OversizedLineDrawsFrameTooLong) {
  server::ServerConfig config = SmallConfig();
  config.max_line_bytes = 512;
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());
  RawClient c;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  ASSERT_TRUE(c.SendLine(std::string(1024, 'x')));
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "frame-too-long");
}

TEST(Daemon, BidBeforeHelloIsAProtocolError) {
  DaemonHarness daemon(SmallConfig());
  ASSERT_TRUE(daemon.Start());
  RawClient c;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  ASSERT_TRUE(c.SendLine(net::EncodeBid(1, {})));
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "protocol");
}

TEST(Daemon, StaleAndDuplicateBidsAreToleratedWithoutEviction) {
  server::ServerConfig config = SmallConfig();
  config.min_agents = 2;
  config.bid_timeout_ms = 10000;  // never hit; rounds close on bids
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());

  // `holdout` withholds its BID, pinning the round open: with a lone
  // bidder the round would complete the instant its first BID landed, and
  // whether a back-to-back second BID reads as duplicate or stale would
  // race the server's read batching.
  RawClient c, holdout;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  ASSERT_TRUE(c.SendLine(net::EncodeHello("raw", SampleApps(1, 7))));
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);
  const AppId app = msg.app_ids.at(0);

  ASSERT_TRUE(holdout.Connect(daemon.srv.port()));
  ASSERT_TRUE(holdout.SendLine(net::EncodeHello("holdout", SampleApps(1, 8))));
  ASSERT_TRUE(holdout.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);
  const AppId holdout_app = msg.app_ids.at(0);

  ASSERT_TRUE(c.ReadUntil(net::MsgType::kOffer, &msg));
  const std::uint64_t round = msg.offer.round_id;
  ASSERT_TRUE(holdout.ReadUntil(net::MsgType::kOffer, &msg));

  // A BID for a round that is not the open one: stale, no eviction.
  ASSERT_TRUE(c.SendLine(net::EncodeBid(round + 999, {{app, 4}})));
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "stale-bid");

  // The real BID lands; answering the still-open round a second time is a
  // duplicate — pointed ERROR, no eviction.
  ASSERT_TRUE(c.SendLine(net::EncodeBid(round, {{app, 4}})));
  ASSERT_TRUE(c.SendLine(net::EncodeBid(round, {{app, 4}})));
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "duplicate-bid");

  // The holdout's BID closes the round: the GRANT reaches `c`, and the
  // next OFFER proves the session is still served after both errors.
  ASSERT_TRUE(holdout.SendLine(net::EncodeBid(round, {{holdout_app, 4}})));
  ASSERT_TRUE(c.ReadUntil(net::MsgType::kGrant, &msg));
  EXPECT_EQ(msg.grants.round_id, round);
  ASSERT_TRUE(c.ReadUntil(net::MsgType::kOffer, &msg));  // still served
}

TEST(Daemon, MidRoundDisconnectEvictsWithoutStallingOthers) {
  server::ServerConfig config = SmallConfig();
  config.min_agents = 2;
  config.bid_timeout_ms = 300;
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());

  RawClient a, b;
  ASSERT_TRUE(a.Connect(daemon.srv.port()));
  ASSERT_TRUE(a.SendLine(net::EncodeHello("a", SampleApps(1, 7))));
  net::WireMessage msg;
  ASSERT_TRUE(a.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);
  const AppId app_a = msg.app_ids.at(0);

  ASSERT_TRUE(b.Connect(daemon.srv.port()));
  ASSERT_TRUE(b.SendLine(net::EncodeHello("b", SampleApps(1, 8))));
  ASSERT_TRUE(b.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);

  // Both get the OFFER; b vanishes mid-round without a word.
  ASSERT_TRUE(a.ReadUntil(net::MsgType::kOffer, &msg));
  const std::uint64_t round = msg.offer.round_id;
  ASSERT_TRUE(b.ReadUntil(net::MsgType::kOffer, &msg));
  b.fd.reset();

  ASSERT_TRUE(a.SendLine(net::EncodeBid(round, {{app_a, 4}})));
  // a keeps being served across the boundary that evicts b's app.
  ASSERT_TRUE(a.ReadUntil(net::MsgType::kGrant, &msg));
  ASSERT_TRUE(a.ReadUntil(net::MsgType::kOffer, &msg));
  EXPECT_GT(msg.offer.round_id, round);
}

TEST(Daemon, SilentPreHelloSessionIsEvictedAtHandshakeDeadline) {
  server::ServerConfig config = SmallConfig();
  config.hello_timeout_ms = 200;
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());
  RawClient c;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  // Send nothing: the handshake deadline must evict us with a pointed
  // ERROR and a CLOSE, not hold the slot forever.
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "hello-timeout");
  bool saw_close = false;
  while (c.ReadMessage(&msg, 2000, /*expect_eof=*/true)) {
    if (msg.type == net::MsgType::kClose) {
      saw_close = true;
      break;
    }
  }
  EXPECT_TRUE(saw_close);
}

TEST(Daemon, HandshakeTimeoutFreesSessionSlotsForRealAgents) {
  server::ServerConfig config = SmallConfig();
  config.max_sessions = 1;
  config.hello_timeout_ms = 150;
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());

  // An idle connection takes the only slot and never speaks.
  RawClient idle;
  ASSERT_TRUE(idle.Connect(daemon.srv.port()));
  net::WireMessage msg;
  ASSERT_TRUE(idle.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "hello-timeout");
  // Wait for the server-side close so the slot is certainly reaped.
  while (idle.ReadMessage(&msg, 5000, /*expect_eof=*/true)) {
  }

  // A real AGENT can now take the freed slot and register.
  RawClient real;
  ASSERT_TRUE(real.Connect(daemon.srv.port()));
  ASSERT_TRUE(real.SendLine(net::EncodeHello("real", SampleApps(1))));
  ASSERT_TRUE(real.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);
}

TEST(Daemon, AdmissionControlRefusesBeyondMaxSessions) {
  server::ServerConfig config = SmallConfig();
  config.max_sessions = 1;
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());

  RawClient first, second;
  ASSERT_TRUE(first.Connect(daemon.srv.port()));
  ASSERT_TRUE(first.SendLine(net::EncodeHello("one", SampleApps(1))));
  net::WireMessage msg;
  ASSERT_TRUE(first.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);

  ASSERT_TRUE(second.Connect(daemon.srv.port()));
  ASSERT_TRUE(second.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "server-full");
  // The refused socket is closed server-side.
  EXPECT_FALSE(second.ReadMessage(&msg, 2000, /*expect_eof=*/true));
}

// A port outside [0, 65535] must fail to bind, naming the port, instead of
// being truncated to 16 bits (70000 would bind 4464, -1 would bind 65535).
TEST(Daemon, PortOutsideRangeFailsToStart) {
  for (const int port : {70000, -1}) {
    server::ServerConfig config = SmallConfig();
    config.port = port;
    server::ArbiterServer srv(config);
    std::string err;
    EXPECT_FALSE(srv.Start(&err)) << port;
    EXPECT_NE(err.find(std::to_string(port)), std::string::npos) << err;
  }
  std::string err;
  EXPECT_EQ(net::TcpConnect("127.0.0.1", 70000, &err), net::kBadFd);
  EXPECT_NE(err.find("70000"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Graceful shutdown.
// ---------------------------------------------------------------------------

TEST(Daemon, RequestStopDrainsSendsCloseAndExitsZero) {
  server::ServerConfig config = SmallConfig();
  config.bid_timeout_ms = 100;  // idle client: rounds settle at the deadline
  DaemonHarness daemon(config);
  ASSERT_TRUE(daemon.Start());

  RawClient c;
  ASSERT_TRUE(c.Connect(daemon.srv.port()));
  ASSERT_TRUE(c.SendLine(net::EncodeHello("stopper", SampleApps(1))));
  net::WireMessage msg;
  ASSERT_TRUE(c.ReadMessage(&msg));
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);

  daemon.srv.RequestStop();
  bool saw_close = false;
  while (c.ReadMessage(&msg, 10000, /*expect_eof=*/true)) {
    if (msg.type == net::MsgType::kClose) {
      EXPECT_EQ(msg.reason, "shutdown");
      saw_close = true;
      break;
    }
  }
  EXPECT_TRUE(saw_close);
  EXPECT_EQ(daemon.Join(), 0);
}

// ---------------------------------------------------------------------------
// The in-process core itself.
// ---------------------------------------------------------------------------

TEST(ArbiterCore, RunsAreDeterministic) {
  server::ArbiterConfig config;
  config.cluster = ClusterSpec::Uniform(2, 4, 4, 2);
  const std::vector<AppSpec> apps = SampleApps(6);

  net::GrantDigest digests[2];
  for (int run = 0; run < 2; ++run) {
    server::ArbiterCore core(config);
    for (const AppSpec& spec : apps) core.RegisterApp(spec);
    for (int i = 0; i < 25; ++i) core.RunOneRound();
    digests[run] = core.digest();
  }
  EXPECT_TRUE(digests[0] == digests[1]);
  EXPECT_GT(digests[0].grants, 0);
}

/// One-job app that never converges in these tests: `tasks` gangs of two
/// GPUs each, no tuner.
AppSpec LongGangApp(int tasks) {
  AppSpec app;
  app.tuner = TunerKind::kNone;
  app.target_loss = 0.1;
  JobSpec job;
  job.total_work = 1e9;
  job.total_iterations = 1000.0;
  job.num_tasks = tasks;
  job.gpus_per_task = 2;
  job.model = ModelByName("ResNet50");
  job.loss = LossCurve(0.1 * std::pow(1001.0, 0.6), 0.6, 0.0);
  app.jobs = {job};
  return app;
}

// Restart charging follows the gang, not the grant. On one 4-GPU machine
// (20-minute leases, rounds every 5 minutes) app A's gang is built from two
// grants with different expiries; at the first expiry the reclaimed half
// goes to a hungrier newcomer, so A's gang shrinks and A must restart then.
// At the second expiry A re-wins exactly the gang it held: an intact
// renewal, which must neither move resume_at nor add a placement score.
TEST(ArbiterCore, RestartChargedOnlyWhenGangChanges) {
  server::ArbiterConfig config;
  config.cluster = ClusterSpec::Uniform(1, 1, 4, 2);
  ASSERT_EQ(config.round_interval_minutes, 5.0);
  ASSERT_EQ(config.lease_minutes, 20.0);
  const Time overhead = config.restart_overhead_minutes;
  server::ArbiterCore core(config);

  const AppId x = core.RegisterApp(LongGangApp(1));
  core.RunOneRound();  // t=5: X takes two GPUs
  const AppId a = core.RegisterApp(LongGangApp(2));
  core.RunOneRound();  // t=10: A takes the other two (expiring at 30)
  core.RemoveApp(x);
  core.RunOneRound();  // t=15: A takes X's two as well (expiring at 35)
  const JobState& job = core.app(a)->jobs[0];
  ASSERT_EQ(job.gpus.size(), 4u);
  EXPECT_EQ(job.resume_at, 15.0 + overhead);
  const std::vector<GpuId> second_half(job.gpus.begin() + 2, job.gpus.end());

  core.RegisterApp(LongGangApp(1));  // C: gangless, so the worst off
  while (core.now() < 30.0) core.RunOneRound();
  // t=30: the first half expired and went to C; A kept the second half.
  ASSERT_EQ(job.gpus, second_half);
  EXPECT_EQ(job.resume_at, 30.0 + overhead) << "shrunk gang not charged";
  const std::size_t scores = core.app(a)->placement_scores.count();

  core.RunOneRound();
  // t=35: the second half expired and A (now gangless) re-won it intact.
  ASSERT_EQ(core.now(), 35.0);
  ASSERT_EQ(job.gpus, second_half);
  EXPECT_EQ(job.resume_at, 30.0 + overhead) << "intact renewal charged";
  EXPECT_EQ(core.app(a)->placement_scores.count(), scores);
}

TEST(ArbiterCore, RejectsMutationMidRound) {
  server::ArbiterConfig config;
  config.cluster = ClusterSpec::Uniform(1, 2, 4, 2);
  server::ArbiterCore core(config);
  const std::vector<AppSpec> apps = SampleApps(2);
  const AppId first = core.RegisterApp(apps[0]);
  const server::RoundStart start = core.BeginRound();
  ASSERT_TRUE(start.have_offer);
  EXPECT_THROW(core.RegisterApp(apps[1]), std::logic_error);
  EXPECT_THROW(core.RemoveApp(first), std::logic_error);
  EXPECT_THROW(core.BeginRound(), std::logic_error);
  core.FinishRound(start.offer);  // settles; mutations legal again
  core.RegisterApp(apps[1]);
}

}  // namespace
}  // namespace themis

// daemon-loopback: an ArbiterServer on 127.0.0.1 (server thread) driven to
// drain by a closed-loop fleet of one-app AGENTs (this thread). An AGENT
// bids only after its OFFER, and the server starts the next round once all
// bids are in. Durations are scaled x4 so the run spans a few hundred
// rounds. Afterwards the same specs replay through an in-process
// ArbiterCore: its digest must equal the fleet's (the
// `scripted_agents --verify-inprocess` identity), and in traced runs the
// replay also times BeginRound/FinishRound, the round phases and the codec.
#include <poll.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "perfbench.h"
#include "server/server.h"
#include "workload/trace_gen.h"

namespace perfbench {

namespace {

using namespace themis;

/// Fleet-wide stall guard: no frame for this long aborts the run.
constexpr double kStallSeconds = 60.0;

/// One-app AGENTs over nonblocking sockets, driven from one poll loop — the
/// RunScriptedAgents protocol, split so the registration barrier (set-up)
/// and the round phase can be timed apart.
class Fleet {
 public:
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (Agent& a : agents_) net::CloseFd(a.fd);
  }

  /// Sequential HELLO -> WELCOME, one agent per spec, so the server numbers
  /// apps deterministically.
  bool Register(int port, const std::vector<AppSpec>& specs, std::string* err) {
    agents_.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Agent& a = agents_[i];
      a.fd = net::TcpConnect("127.0.0.1", port, err);
      if (a.fd == net::kBadFd) return false;
      const std::string hello =
          net::EncodeHello("agent-" + std::to_string(i), {specs[i]});
      a.out.QueueFrame(hello);
      while (!a.out.empty())
        if (!a.out.Flush(a.fd)) return Fail(err, "HELLO send failed");
      net::WireMessage welcome;
      if (!ReadBlocking(a, &welcome, err)) return false;
      if (welcome.type != net::MsgType::kWelcome)
        return Fail(err, std::string("expected WELCOME, got ") +
                             net::ToString(welcome.type));
      a.app = welcome.app_ids.empty() ? kNoApp : welcome.app_ids[0];
      a.declared = specs[i].MaxJobParallelism();
      net::SetNonBlocking(a.fd);
    }
    return true;
  }

  /// Closed loop: BID on every OFFER, ACK every GRANT, until every agent
  /// received CLOSE.
  bool Serve(std::string* err) {
    // The first OFFER can share a read with the last WELCOME.
    for (Agent& a : agents_) HandleBuffered(a);
    std::vector<pollfd> pfds;
    std::vector<Agent*> owners;
    auto last_progress = Clock::now();
    for (;;) {
      pfds.clear();
      owners.clear();
      for (Agent& a : agents_) {
        if (a.closed) continue;
        pfds.push_back({a.fd, static_cast<short>(POLLIN | (a.out.empty() ? 0 : POLLOUT)), 0});
        owners.push_back(&a);
      }
      if (pfds.empty()) return true;
      if (SecondsSince(last_progress) > kStallSeconds)
        return Fail(err, "fleet stalled");
      if (poll(pfds.data(), pfds.size(), 1000) <= 0) continue;
      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        Agent& a = *owners[i];
        if ((pfds[i].revents & POLLOUT) != 0 && !a.out.Flush(a.fd)) {
          Drop(a);
          continue;
        }
        char buf[16384];
        bool eof = false;
        for (;;) {
          const long r = net::RecvSome(a.fd, buf, sizeof buf);
          if (r < 0) {
            eof = true;  // the server may close right after its CLOSE frame
            break;
          }
          if (r == 0) break;
          last_progress = Clock::now();
          if (!a.reader.Feed(buf, static_cast<std::size_t>(r))) {
            Drop(a);
            break;
          }
          if (static_cast<std::size_t>(r) < sizeof buf) break;
        }
        HandleBuffered(a);
        if (eof && !a.closed) Drop(a);  // gone without CLOSE
      }
    }
  }

  const net::GrantDigest& digest() const { return digest_; }
  std::uint64_t errors() const { return errors_ + dropped_; }
  const std::string& last_error() const { return last_error_; }

 private:
  struct Agent {
    int fd = net::kBadFd;
    net::LineReader reader;
    net::WriteBuffer out;
    AppId app = kNoApp;
    int declared = 0;
    bool closed = false;
  };

  static bool Fail(std::string* err, const std::string& what) {
    *err = what;
    return false;
  }

  static bool ReadBlocking(Agent& a, net::WireMessage* msg, std::string* err) {
    std::string line;
    while (!a.reader.NextLine(line) || line.empty()) {
      char buf[4096];
      const long r = net::RecvSome(a.fd, buf, sizeof buf);
      if (r < 0) return Fail(err, "connection closed during HELLO");
      if (r > 0 && !a.reader.Feed(buf, static_cast<std::size_t>(r)))
        return Fail(err, "oversized frame during HELLO");
    }
    try {
      *msg = net::ParseWireMessage(line);
    } catch (const net::WireError& e) {
      return Fail(err, e.what());
    }
    return true;
  }

  void Drop(Agent& a) {
    net::CloseFd(a.fd);
    a.fd = net::kBadFd;
    a.closed = true;
    ++dropped_;
  }

  void HandleBuffered(Agent& a) {
    std::string line;
    while (!a.closed && a.reader.NextLine(line)) {
      if (line.empty()) continue;
      try {
        Handle(a, net::ParseWireMessage(line));
      } catch (const net::WireError& e) {
        ++errors_;
        last_error_ = e.what();
      }
    }
  }

  void Handle(Agent& a, const net::WireMessage& msg) {
    switch (msg.type) {
      case net::MsgType::kOffer:
        a.out.QueueFrame(net::EncodeBid(
            msg.offer.round_id, {{a.app, a.app == kNoApp ? 0 : a.declared}}));
        if (!a.out.Flush(a.fd)) Drop(a);
        break;
      case net::MsgType::kGrant:
        for (const Grant& g : msg.grants.grants)
          digest_.Add(msg.grants.round_id, msg.grants.lease_expiry, g);
        for (AppId id : msg.finished_apps)
          if (id == a.app) a.app = kNoApp;
        // A finished agent's CLOSE is already on its way and the server may
        // drop the socket any moment: an ACK then would race the close.
        if (a.app == kNoApp) break;
        a.out.QueueFrame(net::EncodeAck(msg.grants.round_id));
        if (!a.out.Flush(a.fd)) Drop(a);
        break;
      case net::MsgType::kClose:
        net::CloseFd(a.fd);
        a.fd = net::kBadFd;
        a.closed = true;
        break;
      case net::MsgType::kError:
        ++errors_;
        last_error_ = msg.code + ": " + msg.detail;
        break;
      default:
        ++errors_;
        last_error_ = std::string("unexpected ") + net::ToString(msg.type);
        break;
    }
  }

  std::vector<Agent> agents_;
  net::GrantDigest digest_;
  std::uint64_t errors_ = 0;
  std::uint64_t dropped_ = 0;
  std::string last_error_;
};

/// Runs ArbiterServer::Run on its own thread; stops and joins it on every
/// exit path.
class ServerThread {
 public:
  explicit ServerThread(server::ArbiterServer& srv)
      : srv_(srv), thread_([this] { rc_ = srv_.Run(); }) {}
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  ~ServerThread() {
    if (thread_.joinable()) {
      srv_.RequestStop();
      thread_.join();
    }
  }
  /// Wait for the server to drain; returns Run()'s exit code.
  int Join() {
    thread_.join();
    return rc_;
  }

 private:
  server::ArbiterServer& srv_;
  int rc_ = -1;
  std::thread thread_;
};

/// The live population of an in-process core, split as the policy's rho
/// index splits it: holders ascending id, gangless hungry apps in the
/// index's tie-break order.
void ClassifyApps(const server::ArbiterCore& core,
                  std::vector<const AppState*>& holders,
                  std::vector<const AppState*>& unbounded) {
  holders.clear();
  unbounded.clear();
  for (AppId id = 0; id < core.apps_registered(); ++id) {
    const AppState* app = core.app(id);
    if (app == nullptr || !app->arrived || app->finished) continue;
    if (app->GpusHeld() > 0)
      holders.push_back(app);
    else if (app->UnmetDemand() > 0)
      unbounded.push_back(app);
  }
  // RhoIndex::UnboundedLess with the default short-app tie-break.
  std::sort(unbounded.begin(), unbounded.end(),
            [](const AppState* a, const AppState* b) {
              if (a->ideal_time != b->ideal_time)
                return a->ideal_time < b->ideal_time;
              return a->id < b->id;
            });
}

}  // namespace

RepResult RunDaemonRep(const Options& opt, bool traced,
                       std::uint64_t trace_seed) {
  RepResult r;
  const int num_agents = opt.smoke ? 16 : 256;
  TraceConfig trace_config;
  trace_config.seed = trace_seed;
  trace_config.num_apps = num_agents;
  trace_config.duration_scale = 4.0;
  // A homogeneous fleet: every app has the median job count and short-mode
  // durations, so apps finish close together under finish-time fairness and
  // most rounds serve a near-full population. The round then measures the
  // transport at a known fleet size rather than how long one seed's
  // straggler keeps a near-empty daemon busy; the sims cover the trace's
  // heterogeneity.
  trace_config.jobs_per_app_sigma = 0.0;
  trace_config.frac_long = 0.0;
  auto g0 = Clock::now();
  const std::vector<AppSpec> specs = TraceGenerator(trace_config).Generate();
  r.metrics["workload.gen_s"] = SecondsSince(g0);
  long long jobs = 0;
  for (const AppSpec& s : specs) jobs += static_cast<long long>(s.jobs.size());

  server::ServerConfig config;
  config.max_sessions = static_cast<std::size_t>(num_agents) + 8;
  config.min_agents = static_cast<std::size_t>(num_agents);
  config.bid_timeout_ms = 60000;  // a closed loop never waits this long
  config.arbiter.seed = trace_seed;
  net::RaiseFdLimit(2L * num_agents + 64);

  // Set-up: server start through the HELLO/WELCOME registration barrier.
  const auto s0 = Clock::now();
  server::ArbiterServer srv(config);
  std::string err;
  if (!srv.Start(&err)) {
    r.failed = r.attempted = 1;
    r.errors.push_back("server start: " + err);
    return r;
  }
  Fleet fleet;
  int server_rc = -1;
  bool fleet_ok = false;
  {
    ServerThread server_thread(srv);
    fleet_ok = fleet.Register(srv.port(), specs, &err);
    r.setup_s = SecondsSince(s0);
    const auto t0 = Clock::now();
    if (fleet_ok) fleet_ok = fleet.Serve(&err);
    r.wall_s = SecondsSince(t0);
    if (fleet_ok) server_rc = server_thread.Join();
  }
  const auto after_rounds = Clock::now();
  const server::ServerStats& st = srv.stats();
  const server::ArbiterCore& core = srv.core();

  auto& m = r.metrics;
  r.jobs = static_cast<double>(jobs);
  r.agent_serves = static_cast<double>(st.agent_round_serves);
  r.round_ms = st.round_latency_ms.items();

  std::vector<double> rhos;
  double act_sum = 0.0;
  std::uint64_t unfinished = 0;
  for (AppId id = 0; id < core.apps_registered(); ++id) {
    const AppState* app = core.app(id);
    if (!app->finished) {
      ++unfinished;
      continue;
    }
    rhos.push_back(app->FinalRho());
    act_sum += app->finish_time - app->arrival();
  }
  m["max_rho"] = rhos.empty() ? 0.0 : *std::max_element(rhos.begin(), rhos.end());
  m["jain"] = JainsIndex(rhos);
  m["avg_act_min"] = rhos.empty() ? 0.0 : act_sum / static_cast<double>(rhos.size());

  // In-process reference: same specs, same registration order, same rounds.
  server::ArbiterCore ref(config.arbiter);
  for (const AppSpec& spec : specs) ref.RegisterApp(spec);
  WorkEstimator estimator(config.arbiter.estimator);
  LayerTrace layers;
  std::vector<double> begin_ms, finish_ms;
  std::vector<const AppState*> holders, unbounded;
  std::uint64_t auctions = 0, replay_mismatches = 0;
  long long offered = 0, granted = 0, leftover = 0, participants = 0;
  while (ref.rounds_run() < core.rounds_run()) {
    auto t0 = Clock::now();
    const server::RoundStart start = ref.BeginRound();
    begin_ms.push_back(SecondsSince(t0) * 1e3);
    if (!start.have_offer) continue;
    PhaseSample phases;
    if (traced) {
      ClassifyApps(ref, holders, unbounded);
      phases = ReplayPhases(ref.cluster().topology(), &estimator, start.time,
                            holders, unbounded, unbounded.size(), start.offer,
                            config.arbiter.themis);
    }
    t0 = Clock::now();
    const GrantSet grants = ref.FinishRound(start.offer);
    const double finish_s = SecondsSince(t0);
    finish_ms.push_back(finish_s * 1e3);
    ++auctions;
    const RoundDiagnostics& d = grants.diagnostics;
    offered += d.offered_gpus;
    granted += d.granted_gpus;
    leftover += d.leftover_gpus;
    participants += d.auction_participants;
    if (d.granted_gpus > d.offered_gpus) ++replay_mismatches;
    if (traced) {
      layers.AddRound(phases, finish_s);
      if (phases.participants != (d.auction_ran ? d.auction_participants : -1))
        ++replay_mismatches;
      if (!MeasureCodec(start.offer, grants, phases.who, layers))
        ++replay_mismatches;
    }
  }
  net::GrantDigest expected = ref.digest();
  if (opt.tamper) expected.hash ^= 1;
  const bool digests_match =
      fleet.digest() == expected && core.digest() == fleet.digest();
  r.total_s = SecondsSince(after_rounds) + r.wall_s;

  m["core.rounds"] = static_cast<double>(auctions);
  m["core.grant_ratio"] =
      offered > 0 ? static_cast<double>(granted) / static_cast<double>(offered) : 0.0;
  m["core.leftover_ratio"] =
      offered > 0 ? static_cast<double>(leftover) / static_cast<double>(offered) : 0.0;
  m["net.frames_in"] = static_cast<double>(st.frames_in);
  m["net.frames_out"] = static_cast<double>(st.frames_out);
  if (traced) {
    layers.Emit(m);
    const double begin_p50 = Pct(begin_ms, 50.0), finish_p50 = Pct(finish_ms, 50.0);
    m["server.begin_round_ms"] = begin_p50;
    m["server.finish_round_ms"] = finish_p50;
    m["net.transport_ms"] = Pct(r.round_ms, 50.0) - begin_p50 - finish_p50;
  }

  r.exact["daemon.rounds"] = st.rounds;
  r.exact["core.rounds"] = auctions;
  r.exact["core.participants_sum"] = static_cast<std::uint64_t>(participants);
  r.exact["core.granted_gpus_sum"] = static_cast<std::uint64_t>(granted);
  r.exact["agent_round_serves"] = st.agent_round_serves;
  r.exact["grant_fingerprint"] = fleet.digest().hash;
  r.exact["grant_digest_grants"] = static_cast<std::uint64_t>(fleet.digest().grants);
  r.exact["grant_digest_gpus"] = static_cast<std::uint64_t>(fleet.digest().gpus);
  r.exact["max_rho_bits"] = Bits(m["max_rho"]);
  r.exact["avg_act_bits"] = Bits(m["avg_act_min"]);

  const std::uint64_t faults = st.bid_deadline_misses + st.sessions_evicted +
                               st.protocol_errors + fleet.errors();
  r.attempted = std::max<std::uint64_t>(1, st.agent_round_serves);
  r.failed = faults + unfinished + replay_mismatches + (digests_match ? 0 : 1) +
             (fleet_ok && server_rc == 0 ? 0 : 1);
  if (!fleet_ok) r.errors.push_back("fleet: " + err);
  if (fleet_ok && server_rc != 0) r.errors.push_back("server exited nonzero");
  if (faults > 0)
    r.errors.push_back(std::to_string(st.bid_deadline_misses) +
                       " deadline misses, " +
                       std::to_string(st.sessions_evicted) + " evictions, " +
                       std::to_string(st.protocol_errors) +
                       " protocol errors, " + std::to_string(fleet.errors()) +
                       " fleet errors " + fleet.last_error());
  if (unfinished > 0)
    r.errors.push_back(std::to_string(unfinished) + " unfinished apps");
  if (replay_mismatches > 0)
    r.errors.push_back(std::to_string(replay_mismatches) +
                       " in-process rounds failed a check");
  if (!digests_match) r.errors.push_back("fleet digest != in-process digest");
  return r;
}

}  // namespace perfbench

#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <poll.h>
#include <unistd.h>
#include <utility>

#include "common/log.h"

namespace themis::server {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::int64_t kNoOwner = -1;
constexpr double kStopDrainMs = 2000.0;  // grace for CLOSE-frame flushes

}  // namespace

struct ArbiterServer::Session {
  enum class State { kAwaitingHello, kRegistered, kDraining, kDead };

  Session(int fd_in, std::int64_t id, std::size_t max_line,
          std::size_t max_write)
      : fd(fd_in), agent_id(id), reader(max_line), out(max_write) {}

  int fd;
  std::int64_t agent_id;
  std::string name;
  State state = State::kAwaitingHello;
  /// Accept time (steady-clock ms); starts the handshake deadline.
  double accepted_ms = 0.0;
  /// HELLO arrived mid-round and waits at the boundary: the session is
  /// still kAwaitingHello but must not be charged a handshake timeout.
  bool hello_deferred = false;
  net::LineReader reader;
  net::WriteBuffer out;
  /// Unfinished apps this AGENT owns (ascending registration order).
  std::vector<AppId> apps;
  /// Apps that finished this round; delivered in the round's GRANT frame.
  std::vector<AppId> finished_this_round;
  bool offered_this_round = false;
  bool bid_this_round = false;
  int missed_deadlines = 0;
};

ArbiterServer::ArbiterServer(ServerConfig config)
    : config_(std::move(config)), core_(config_.arbiter) {
  if (config_.min_agents == 0) config_.min_agents = 1;
}

ArbiterServer::~ArbiterServer() {
  for (auto& s : sessions_) net::CloseFd(s->fd);
  net::CloseFd(listen_fd_);
  net::CloseFd(wake_read_);
  net::CloseFd(wake_write_);
}

KnobTable ServerKnobs(ServerConfig& c) {
  return {"server", {
      Knob::Field("host", "--host", &c.host, "address to listen on"),
      Knob::Field("port", "--port", &c.port, "port (0: ephemeral)"),
      Knob::Field("min_agents", "--min-agents", &c.min_agents,
                  "AGENTs to wait for before the first round"),
      Knob::Field("max_rounds", "--rounds", &c.max_rounds,
                  "stop after this many rounds (0: no limit)"),
      Knob::Field("bid_timeout_ms", "--bid-timeout-ms", &c.bid_timeout_ms,
                  "per-round bid deadline, ms"),
      Knob::Field("hello_timeout_ms", "--hello-timeout-ms", &c.hello_timeout_ms,
                  "handshake deadline, ms (0: none)"),
      Knob::Field("max_sessions", "--max-sessions", &c.max_sessions,
                  "refuse connections beyond this many")}};
}

bool ArbiterServer::Start(std::string* err) {
  listen_fd_ =
      net::TcpListen(config_.host, config_.port, config_.accept_backlog, err);
  if (listen_fd_ == net::kBadFd) return false;
  port_ = net::ListenPort(listen_fd_);
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    if (err != nullptr) *err = "pipe: self-pipe creation failed";
    return false;
  }
  wake_read_ = pipefd[0];
  wake_write_ = pipefd[1];
  net::SetNonBlocking(wake_read_);
  net::SetNonBlocking(wake_write_);
  // Descriptor budget: sessions + listen/pipe/std fds, with headroom.
  net::RaiseFdLimit(static_cast<long>(config_.max_sessions) + 64);
  return true;
}

void ArbiterServer::RequestStop() {
  // Async-signal-safe: one write to the self-pipe; the poll loop drains it
  // and latches stop_requested_.
  if (wake_write_ != net::kBadFd) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = write(wake_write_, &b, 1);
  }
}

void ArbiterServer::SendFrame(Session& s, const std::string& frame) {
  if (s.state == Session::State::kDead) return;
  if (!s.out.QueueFrame(frame)) {
    // Peer stopped reading: the bounded buffer is the eviction trigger.
    ++stats_.sessions_evicted;
    DropSession(s);
    return;
  }
  ++stats_.frames_out;
  if (!s.out.Flush(s.fd)) DropSession(s);
}

void ArbiterServer::SendError(Session& s, const std::string& code,
                              const std::string& detail) {
  ++stats_.protocol_errors;
  SendFrame(s, net::EncodeError(code, detail));
}

void ArbiterServer::CloseSession(Session& s, const std::string& reason) {
  if (s.state == Session::State::kDead ||
      s.state == Session::State::kDraining)
    return;
  // Apps a live AGENT still owns leave the auction at the next boundary.
  for (AppId id : s.apps) {
    deferred_evictions_.push_back(id);
    if (id < app_owner_.size()) app_owner_[id] = kNoOwner;
  }
  s.apps.clear();
  SendFrame(s, net::EncodeClose(reason));
  if (s.state != Session::State::kDead) s.state = Session::State::kDraining;
}

void ArbiterServer::DropSession(Session& s) {
  if (s.state == Session::State::kDead) return;
  for (AppId id : s.apps) {
    deferred_evictions_.push_back(id);
    if (id < app_owner_.size()) app_owner_[id] = kNoOwner;
  }
  s.apps.clear();
  s.state = Session::State::kDead;
  net::CloseFd(s.fd);
  s.fd = net::kBadFd;
}

void ArbiterServer::EvictStaleHandshakes() {
  if (config_.hello_timeout_ms <= 0 || stopping_) return;
  const double now = NowMs();
  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (s.state != Session::State::kAwaitingHello || s.hello_deferred)
      continue;
    if (now - s.accepted_ms < static_cast<double>(config_.hello_timeout_ms))
      continue;
    ++stats_.sessions_evicted;
    // Not SendError: a silent peer is not a protocol violation, just gone.
    SendFrame(s, net::EncodeError(
                     "hello-timeout",
                     "no HELLO within " +
                         std::to_string(config_.hello_timeout_ms) + " ms"));
    CloseSession(s, "handshake timeout");
  }
}

void ArbiterServer::ReapSessions() {
  for (auto& s : sessions_)
    if (s->state == Session::State::kDraining && s->out.empty())
      DropSession(*s);
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const std::unique_ptr<Session>& s) {
                                   return s->state == Session::State::kDead;
                                 }),
                  sessions_.end());
}

void ArbiterServer::AcceptPending() {
  for (;;) {
    const int fd = net::TcpAccept(listen_fd_);
    if (fd == net::kBadFd) return;
    auto s = std::make_unique<Session>(fd, next_agent_id_++,
                                       config_.max_line_bytes,
                                       config_.max_write_buffer);
    if (sessions_.size() >= config_.max_sessions) {
      ++stats_.sessions_refused;
      Session& ref = *s;
      SendFrame(ref, net::EncodeError("server-full",
                                      "session limit reached; retry later"));
      net::CloseFd(ref.fd);
      continue;
    }
    ++stats_.sessions_accepted;
    s->accepted_ms = NowMs();
    sessions_.push_back(std::move(s));
    stats_.peak_sessions = std::max(stats_.peak_sessions, sessions_.size());
  }
}

void ArbiterServer::HandleHello(Session& s, net::WireMessage msg) {
  if (s.state != Session::State::kAwaitingHello) {
    SendError(s, "protocol", "HELLO after registration");
    CloseSession(s, "protocol violation");
    return;
  }
  if (msg.apps.empty()) {
    SendError(s, "protocol", "HELLO must register at least one app");
    CloseSession(s, "protocol violation");
    return;
  }
  if (collecting_) {
    // Registration mutates the auction population, so it waits for the
    // round boundary. The session hears its WELCOME then.
    s.hello_deferred = true;
    deferred_hellos_.emplace_back(s.agent_id, std::move(msg));
    return;
  }
  s.name = msg.agent_name;
  for (AppSpec& spec : msg.apps) {
    const AppId id = core_.RegisterApp(std::move(spec));
    s.apps.push_back(id);
    if (app_owner_.size() <= id) app_owner_.resize(id + 1, kNoOwner);
    app_owner_[id] = s.agent_id;
  }
  s.state = Session::State::kRegistered;
  any_registered_ = true;
  SendFrame(s, net::EncodeWelcome(s.agent_id, s.apps));
}

void ArbiterServer::HandleBid(Session& s, const net::WireMessage& msg) {
  if (s.state != Session::State::kRegistered) {
    SendError(s, "protocol", "BID before WELCOME");
    CloseSession(s, "protocol violation");
    return;
  }
  if (!collecting_ || msg.round_id != round_.round_id) {
    // Out-of-order / stale: pointed error, but the session survives — a
    // bid racing the deadline is not a protocol violation.
    SendError(s, "stale-bid",
              "bid for round " + std::to_string(msg.round_id) +
                  " outside its collect window");
    return;
  }
  if (!s.offered_this_round) {
    SendError(s, "protocol", "BID from a session that was not offered");
    return;
  }
  if (s.bid_this_round) {
    SendError(s, "duplicate-bid",
              "round " + std::to_string(msg.round_id) + " already answered");
    return;
  }
  // The demands themselves are advisory (semi-trusted AGENTs): the
  // authoritative per-app state lives in ArbiterCore, which corrects any
  // misreport. The BID's job is to say "alive, demand declared".
  s.bid_this_round = true;
  ++bids_received_;
}

void ArbiterServer::HandleLine(Session& s, const std::string& line) {
  if (line.empty()) return;
  ++stats_.frames_in;
  net::WireMessage msg;
  try {
    msg = net::ParseWireMessage(line);
  } catch (const net::WireError& e) {
    SendError(s, "bad-frame", e.what());
    CloseSession(s, "malformed frame");
    return;
  }
  switch (msg.type) {
    case net::MsgType::kHello:
      HandleHello(s, std::move(msg));
      break;
    case net::MsgType::kBid:
      HandleBid(s, msg);
      break;
    case net::MsgType::kAck:
      break;  // bookkeeping only
    case net::MsgType::kClose:
      DropSession(s);  // orderly goodbye
      break;
    case net::MsgType::kError:
      THEMIS_LOG(kWarn) << "arbiterd: ERROR frame from agent " << s.agent_id
                        << ": " << msg.detail;
      break;
    default:
      SendError(s, "unexpected-type",
                std::string("server does not accept ") +
                    net::ToString(msg.type) + " frames");
      CloseSession(s, "protocol violation");
      break;
  }
}

void ArbiterServer::ReadSession(Session& s) {
  char buf[16384];
  for (;;) {
    if (s.state == Session::State::kDead) return;
    const long r = net::RecvSome(s.fd, buf, sizeof buf);
    if (r < 0) {
      DropSession(s);
      return;
    }
    if (r == 0) break;
    if (!s.reader.Feed(buf, static_cast<std::size_t>(r))) {
      SendError(s, "frame-too-long",
                "line exceeds " + std::to_string(config_.max_line_bytes) +
                    " bytes");
      CloseSession(s, "oversized frame");
      return;
    }
    if (static_cast<std::size_t>(r) < sizeof buf) break;
  }
  if (s.state == Session::State::kDraining) return;  // input ignored
  std::string line;
  while (s.state != Session::State::kDead &&
         s.state != Session::State::kDraining && s.reader.NextLine(line))
    HandleLine(s, line);
  // A line can arrive whole in one read: Feed sees its terminator and
  // accepts, and NextLine is what trips the length cap. Without this check
  // the poisoned reader would wedge the session silently.
  if (s.state != Session::State::kDead &&
      s.state != Session::State::kDraining && s.reader.overflowed()) {
    SendError(s, "frame-too-long",
              "line exceeds " + std::to_string(config_.max_line_bytes) +
                  " bytes");
    CloseSession(s, "oversized frame");
  }
}

void ArbiterServer::ApplyDeferred() {
  for (AppId id : deferred_evictions_) core_.RemoveApp(id);
  deferred_evictions_.clear();
  for (auto& [agent_id, msg] : deferred_hellos_) {
    for (auto& s : sessions_)
      if (s->agent_id == agent_id &&
          s->state == Session::State::kAwaitingHello) {
        s->hello_deferred = false;
        HandleHello(*s, std::move(msg));
        break;
      }
  }
  deferred_hellos_.clear();
}

bool ArbiterServer::AllBidsIn() const {
  for (const auto& s : sessions_)
    if (s->state == Session::State::kRegistered && s->offered_this_round &&
        !s->bid_this_round)
      return false;
  return true;
}

void ArbiterServer::StartRound() {
  rounds_begun_ = true;
  round_ = core_.BeginRound();
  round_started_ms_ = NowMs();
  bids_expected_ = 0;
  bids_received_ = 0;

  // Route this round's finishes to their owning sessions.
  for (AppId id : round_.finished)
    if (id < app_owner_.size()) app_owner_[id] = kNoOwner;

  // An offer-less round (every GPU leased out, or no demand) still runs the
  // full frame cycle so AGENTs observe the round advance uniformly.
  ResourceOffer offer = round_.offer;
  if (!round_.have_offer) {
    offer.round_id = round_.round_id;
    offer.time = round_.time;
    offer.lease_duration = config_.arbiter.lease_minutes;
  }
  const std::string offer_frame = net::EncodeOffer(offer);

  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (s.state != Session::State::kRegistered) continue;
    s.offered_this_round = false;
    s.bid_this_round = false;
    s.finished_this_round.clear();
    if (!round_.finished.empty()) {
      auto& apps = s.apps;
      for (AppId id : round_.finished) {
        const auto it = std::find(apps.begin(), apps.end(), id);
        if (it != apps.end()) {
          apps.erase(it);
          s.finished_this_round.push_back(id);
        }
      }
    }
    if (!s.apps.empty()) {
      s.offered_this_round = true;
      ++bids_expected_;
      ++stats_.agent_round_serves;
      SendFrame(s, offer_frame);
    }
  }
  collecting_ = true;
  bid_deadline_ms_ = NowMs() + static_cast<double>(config_.bid_timeout_ms);
}

void ArbiterServer::CompleteRound() {
  collecting_ = false;
  GrantSet grants;
  if (round_.have_offer) {
    grants = core_.FinishRound(round_.offer);
  } else {
    grants.round_id = round_.round_id;
    grants.lease_expiry = round_.time + config_.arbiter.lease_minutes;
  }

  // Partition the grant set by owning session. Grants to apps whose session
  // vanished mid-round are undeliverable; the leases still bind server-side
  // and the apps are evicted at the next boundary.
  std::vector<std::pair<std::int64_t, const Grant*>> routed;
  routed.reserve(grants.grants.size());
  for (const Grant& g : grants.grants) {
    const std::int64_t owner =
        g.app < app_owner_.size() ? app_owner_[g.app] : kNoOwner;
    if (owner != kNoOwner) routed.emplace_back(owner, &g);
  }

  for (auto& sp : sessions_) {
    Session& s = *sp;
    if (s.state != Session::State::kRegistered) continue;
    if (!s.offered_this_round && s.finished_this_round.empty()) continue;
    GrantSet sub;
    sub.round_id = grants.round_id;
    sub.lease_expiry = grants.lease_expiry;
    sub.diagnostics = grants.diagnostics;
    for (const auto& [owner, g] : routed)
      if (owner == s.agent_id) sub.grants.push_back(*g);
    SendFrame(s, net::EncodeGrant(sub, s.finished_this_round));
    s.finished_this_round.clear();
    if (s.state != Session::State::kRegistered) continue;  // send evicted it
    if (s.apps.empty()) {
      CloseSession(s, "apps finished");
      continue;
    }
    if (s.offered_this_round && !s.bid_this_round) {
      ++s.missed_deadlines;
      ++stats_.bid_deadline_misses;
      if (s.missed_deadlines >= config_.max_missed_deadlines) {
        ++stats_.sessions_evicted;
        CloseSession(s, "bid deadline missed " +
                            std::to_string(s.missed_deadlines) +
                            " rounds in a row");
      }
    } else if (s.bid_this_round) {
      s.missed_deadlines = 0;
    }
  }

  ++stats_.rounds;
  const double latency_ms = NowMs() - round_started_ms_;
  stats_.round_latency_ms.Add(latency_ms);
  stats_.round_latency_summary.Add(latency_ms);
}

void ArbiterServer::StepRounds() {
  for (;;) {
    if (stopping_) return;
    if (collecting_) {
      if (bids_received_ >= bids_expected_ || AllBidsIn() ||
          NowMs() >= bid_deadline_ms_)
        CompleteRound();
      else
        return;
    }
    ApplyDeferred();
    const bool rounds_done =
        config_.max_rounds != 0 && stats_.rounds >= config_.max_rounds;
    const bool drained = config_.stop_when_drained && any_registered_ &&
                         core_.apps_active() == 0;
    if (stop_requested_ || rounds_done || drained) {
      stopping_ = true;
      const char* reason = stop_requested_ ? "shutdown"
                           : rounds_done   ? "rounds complete"
                                           : "all apps finished";
      for (auto& s : sessions_)
        if (s->state != Session::State::kDead) CloseSession(*s, reason);
      return;
    }
    // min_agents gates only the FIRST round (the registration barrier the
    // loopback test leans on). Once rounds run, sessions finishing their
    // apps or being evicted must not stall the remaining population.
    if (!rounds_begun_) {
      std::size_t registered = 0;
      for (const auto& s : sessions_)
        if (s->state == Session::State::kRegistered) ++registered;
      if (registered < config_.min_agents) return;
    }
    if (core_.apps_active() == 0) return;
    StartRound();
    if (bids_expected_ > 0) return;  // poll for bids
    // Nobody to offer to (all owners gone): settle immediately and loop —
    // the eviction at the next boundary will drain the population.
  }
}

int ArbiterServer::Run() {
  if (listen_fd_ == net::kBadFd) {
    THEMIS_LOG(kError) << "arbiterd: Run() before Start()";
    return 1;
  }
  double stop_deadline_ms = 0.0;
  std::vector<pollfd> pfds;
  std::vector<Session*> pfd_sessions;

  for (;;) {
    EvictStaleHandshakes();
    ReapSessions();
    StepRounds();
    if (stopping_) {
      if (stop_deadline_ms == 0.0) stop_deadline_ms = NowMs() + kStopDrainMs;
      bool pending = false;
      for (const auto& s : sessions_)
        if (s->state != Session::State::kDead && !s->out.empty())
          pending = true;
      if (!pending || NowMs() >= stop_deadline_ms) break;
    }

    pfds.clear();
    pfd_sessions.clear();
    pfds.push_back({wake_read_, POLLIN, 0});
    pfd_sessions.push_back(nullptr);
    if (!stopping_ && sessions_.size() < config_.max_sessions + 64) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_sessions.push_back(nullptr);
    }
    for (auto& s : sessions_) {
      if (s->state == Session::State::kDead) continue;
      short events = 0;
      if (s->state != Session::State::kDraining) events |= POLLIN;
      if (!s->out.empty()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({s->fd, events, 0});
      pfd_sessions.push_back(s.get());
    }

    int timeout_ms = 50;
    if (collecting_) {
      const double left = bid_deadline_ms_ - NowMs();
      timeout_ms = left <= 0.0 ? 0 : static_cast<int>(left) + 1;
    } else if (stopping_) {
      timeout_ms = 10;
    }
    const int n = poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      THEMIS_LOG(kError) << "arbiterd: poll failed";
      return 1;
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfds[i].fd == wake_read_) {
        char buf[64];
        while (read(wake_read_, buf, sizeof buf) > 0) {
        }
        stop_requested_ = true;
      } else if (pfds[i].fd == listen_fd_ && pfd_sessions[i] == nullptr) {
        AcceptPending();
      } else if (Session* s = pfd_sessions[i]) {
        if (s->state == Session::State::kDead) continue;
        if ((pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (pfds[i].revents & POLLIN) == 0) {
          DropSession(*s);
          continue;
        }
        if ((pfds[i].revents & POLLOUT) != 0 && !s->out.Flush(s->fd))
          DropSession(*s);
        if (s->state != Session::State::kDead &&
            (pfds[i].revents & POLLIN) != 0)
          ReadSession(*s);
      }
    }
  }

  for (auto& s : sessions_) DropSession(*s);
  ReapSessions();
  return 0;
}

}  // namespace themis::server

#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <poll.h>
#include <utility>

#include "net/socket.h"

namespace themis::server {

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fleet-wide progress timeout: if nothing arrives for this long the run
/// aborts instead of hanging a test harness.
constexpr double kFleetStallMs = 60000.0;

bool SendAll(int fd, const std::string& frame, std::string* err) {
  std::string line = frame;
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const long w = net::SendSome(fd, line.data() + off, line.size() - off);
    if (w < 0) {
      if (err != nullptr) *err = "send failed (peer gone)";
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool ReadLineBlocking(int fd, net::LineReader& reader, std::string* line,
                      std::string* err) {
  for (;;) {
    if (reader.NextLine(*line)) {
      if (line->empty()) continue;
      return true;
    }
    char buf[16384];
    const long r = net::RecvSome(fd, buf, sizeof buf);
    if (r < 0) {
      if (err != nullptr) *err = "connection closed by server";
      return false;
    }
    if (r == 0) continue;  // EINTR on a blocking socket
    if (!reader.Feed(buf, static_cast<std::size_t>(r))) {
      if (err != nullptr) *err = "oversized frame from server";
      return false;
    }
  }
}

}  // namespace

ArbiterClient::~ArbiterClient() { Close(); }

bool ArbiterClient::Connect(const std::string& host, int port,
                            std::string* err) {
  Close();
  fd_ = net::TcpConnect(host, port, err);
  return fd_ >= 0;
}

bool ArbiterClient::Hello(const std::string& agent_name,
                          const std::vector<AppSpec>& apps, std::string* err) {
  if (!Send(net::EncodeHello(agent_name, apps), err)) return false;
  net::WireMessage msg;
  if (!NextMessage(&msg, err)) return false;
  if (msg.type == net::MsgType::kError) {
    if (err != nullptr) *err = "server refused: " + msg.code + ": " + msg.detail;
    return false;
  }
  if (msg.type != net::MsgType::kWelcome) {
    if (err != nullptr)
      *err = std::string("expected WELCOME, got ") + net::ToString(msg.type);
    return false;
  }
  agent_id_ = msg.agent_id;
  app_ids_ = msg.app_ids;
  return true;
}

bool ArbiterClient::Send(const std::string& frame, std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  return SendAll(fd_, frame, err);
}

bool ArbiterClient::NextMessage(net::WireMessage* msg, std::string* err) {
  if (fd_ < 0) {
    if (err != nullptr) *err = "not connected";
    return false;
  }
  std::string line;
  if (!ReadLineBlocking(fd_, reader_, &line, err)) return false;
  try {
    *msg = net::ParseWireMessage(line);
  } catch (const net::WireError& e) {
    if (err != nullptr) *err = e.what();
    return false;
  }
  return true;
}

void ArbiterClient::Close() {
  net::CloseFd(fd_);
  fd_ = -1;
}

namespace {

struct FleetAgent {
  int fd = net::kBadFd;
  net::LineReader reader;
  net::WriteBuffer out;
  std::vector<AppId> apps;
  /// Declared per-app demand (constant honest report: max parallelism).
  std::vector<int> declared;
  bool mute = false;
  bool closed = false;
};

void DropAgent(FleetAgent& a) {
  net::CloseFd(a.fd);
  a.fd = net::kBadFd;
  a.closed = true;
}

}  // namespace

FleetResult RunScriptedAgents(const std::string& host, int port,
                              const std::vector<AgentScript>& agents,
                              int mute_every) {
  FleetResult result;
  std::vector<FleetAgent> fleet(agents.size());
  net::RaiseFdLimit(static_cast<long>(agents.size()) + 64);

  // Sequential registration barrier: agent i's WELCOME lands before agent
  // i+1 connects, so the server numbers apps deterministically — the
  // precondition for digest equality against the in-process reference.
  for (std::size_t i = 0; i < agents.size(); ++i) {
    FleetAgent& a = fleet[i];
    std::string err;
    a.fd = net::TcpConnect(host, port, &err);
    if (a.fd == net::kBadFd) {
      result.error = "agent " + std::to_string(i) + ": " + err;
      return result;
    }
    if (!SendAll(a.fd, net::EncodeHello(agents[i].name, agents[i].apps),
                 &err)) {
      result.error = "agent " + std::to_string(i) + ": " + err;
      return result;
    }
    std::string line;
    if (!ReadLineBlocking(a.fd, a.reader, &line, &err)) {
      result.error = "agent " + std::to_string(i) + ": " + err;
      return result;
    }
    net::WireMessage welcome;
    try {
      welcome = net::ParseWireMessage(line);
    } catch (const net::WireError& e) {
      result.error = "agent " + std::to_string(i) + ": " + e.what();
      return result;
    }
    if (welcome.type != net::MsgType::kWelcome) {
      result.error = "agent " + std::to_string(i) + ": expected WELCOME, got " +
                     net::ToString(welcome.type) +
                     (welcome.type == net::MsgType::kError
                          ? " (" + welcome.detail + ")"
                          : "");
      return result;
    }
    a.apps = welcome.app_ids;
    for (const AppSpec& spec : agents[i].apps)
      a.declared.push_back(spec.MaxJobParallelism());
    a.mute = mute_every > 0 && (static_cast<int>(i) % mute_every) == 0;
    net::SetNonBlocking(a.fd);
  }

  // Concurrent phase: one poll loop over the whole fleet.
  const auto handle_message = [&](FleetAgent& a, const net::WireMessage& msg) {
    switch (msg.type) {
      case net::MsgType::kOffer: {
        ++result.offers_received;
        result.last_round_seen =
            std::max(result.last_round_seen, msg.offer.round_id);
        if (a.mute) break;  // the slow AGENT: never answers
        std::vector<net::BidDemand> demands;
        for (std::size_t j = 0; j < a.apps.size(); ++j) {
          net::BidDemand d;
          d.app = a.apps[j];
          d.unmet_gpus = j < a.declared.size() ? a.declared[j] : 0;
          demands.push_back(d);
        }
        a.out.QueueFrame(net::EncodeBid(msg.offer.round_id, demands));
        a.out.Flush(a.fd);
        break;
      }
      case net::MsgType::kGrant: {
        result.last_round_seen =
            std::max(result.last_round_seen, msg.grants.round_id);
        for (const Grant& g : msg.grants.grants) {
          result.digest.Add(msg.grants.round_id, msg.grants.lease_expiry, g);
          ++result.grants_received;
        }
        for (AppId id : msg.finished_apps) {
          ++result.finished_apps;
          const auto it = std::find(a.apps.begin(), a.apps.end(), id);
          if (it != a.apps.end()) {
            const std::size_t idx =
                static_cast<std::size_t>(it - a.apps.begin());
            a.apps.erase(it);
            if (idx < a.declared.size())
              a.declared.erase(a.declared.begin() + idx);
          }
        }
        a.out.QueueFrame(net::EncodeAck(msg.grants.round_id));
        a.out.Flush(a.fd);
        break;
      }
      case net::MsgType::kError:
        ++result.errors_received;
        break;
      case net::MsgType::kClose:
        ++result.agents_closed;
        DropAgent(a);
        break;
      default:
        break;
    }
  };

  const auto drain = [&](FleetAgent& a) {
    std::string line;
    while (!a.closed && a.reader.NextLine(line)) {
      if (line.empty()) continue;
      net::WireMessage msg;
      try {
        msg = net::ParseWireMessage(line);
      } catch (const net::WireError&) {
        ++result.errors_received;
        continue;
      }
      handle_message(a, msg);
    }
  };
  // The handshake read can pull the first OFFER in with the WELCOME; answer
  // such buffered frames now, since poll only reports bytes still unread.
  for (FleetAgent& a : fleet) drain(a);

  std::vector<pollfd> pfds;
  std::vector<FleetAgent*> owners;
  double last_progress_ms = NowMs();
  for (;;) {
    pfds.clear();
    owners.clear();
    for (FleetAgent& a : fleet) {
      if (a.closed) continue;
      short events = POLLIN;
      if (!a.out.empty()) events |= POLLOUT;
      pfds.push_back({a.fd, events, 0});
      owners.push_back(&a);
    }
    if (pfds.empty()) break;  // every agent done
    if (NowMs() - last_progress_ms > kFleetStallMs) {
      result.error = "fleet stalled: no frames for " +
                     std::to_string(static_cast<int>(kFleetStallMs / 1000)) +
                     "s";
      return result;
    }
    const int n = poll(pfds.data(), pfds.size(), 1000);
    if (n <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      FleetAgent& a = *owners[i];
      if (a.closed) continue;
      if ((pfds[i].revents & POLLOUT) != 0 && !a.out.Flush(a.fd)) {
        DropAgent(a);
        continue;
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[16384];
      for (;;) {
        const long r = net::RecvSome(a.fd, buf, sizeof buf);
        if (r < 0) {
          DropAgent(a);  // dropped without CLOSE; tolerated
          break;
        }
        if (r == 0) break;
        last_progress_ms = NowMs();
        if (!a.reader.Feed(buf, static_cast<std::size_t>(r))) {
          DropAgent(a);
          break;
        }
        if (static_cast<std::size_t>(r) < sizeof buf) break;
      }
      drain(a);
    }
  }

  result.ok = true;
  return result;
}

}  // namespace themis::server

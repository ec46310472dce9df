// AGENT-side library for the themis_arbiterd wire protocol.
//
// ArbiterClient is one blocking connection: connect, register apps
// (HELLO -> WELCOME), then consume OFFER/GRANT/ERROR/CLOSE frames and
// answer with BIDs. themis_cli --connect drives a single client
// interactively; RunScriptedAgents drives a whole fleet of them through
// one nonblocking poll loop for the daemon tests and for scripted_agents,
// the CI smoke job's fleet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/wire.h"
#include "workload/job_spec.h"

namespace themis::server {

class ArbiterClient {
 public:
  ArbiterClient() = default;
  ~ArbiterClient();

  ArbiterClient(const ArbiterClient&) = delete;
  ArbiterClient& operator=(const ArbiterClient&) = delete;

  bool Connect(const std::string& host, int port, std::string* err);

  /// Register `apps` under `agent_name`; blocks until the WELCOME frame.
  bool Hello(const std::string& agent_name, const std::vector<AppSpec>& apps,
             std::string* err);

  std::int64_t agent_id() const { return agent_id_; }
  const std::vector<AppId>& app_ids() const { return app_ids_; }

  /// Send one encoded frame (blocking until fully written).
  bool Send(const std::string& frame, std::string* err);

  /// Block until the next complete frame arrives and decode it. Returns
  /// false on disconnect or a malformed server frame (*err says which).
  bool NextMessage(net::WireMessage* msg, std::string* err);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  net::LineReader reader_;
  std::int64_t agent_id_ = -1;
  std::vector<AppId> app_ids_;
};

/// One scripted AGENT of the fleet: a name and the apps it registers.
struct AgentScript {
  std::string name;
  std::vector<AppSpec> apps;
};

struct FleetResult {
  bool ok = false;
  std::string error;
  /// Order-insensitive digest over every grant delivered to the fleet —
  /// compared against ArbiterCore::digest() for wire-path equivalence.
  net::GrantDigest digest;
  std::uint64_t last_round_seen = 0;
  std::uint64_t offers_received = 0;
  std::uint64_t grants_received = 0;
  std::size_t agents_closed = 0;
  std::size_t finished_apps = 0;
  std::size_t errors_received = 0;
};

/// Drive `agents` concurrent scripted AGENTs against a running daemon.
/// Registration is sequential (each AGENT's HELLO waits for its WELCOME
/// before the next connects) so the server's app numbering is
/// deterministic; after that all sessions run concurrently off one poll
/// loop, bidding on every OFFER and folding every GRANT into the digest.
/// Returns once every AGENT received CLOSE (or the connection dropped).
///
/// `mute_every` > 0 makes every mute_every-th AGENT register but never
/// bid — the slow-AGENT case: its rounds must still complete within the
/// server's bid deadline.
FleetResult RunScriptedAgents(const std::string& host, int port,
                              const std::vector<AgentScript>& agents,
                              int mute_every = 0);

}  // namespace themis::server

// themis_arbiterd: the ARBITER as a long-lived network service.
//
// A single-threaded poll() loop owns a listening TCP socket and up to
// max_sessions AGENT connections, each speaking the newline-delimited JSON
// protocol of net/wire.h. Rounds run back-to-back once min_agents AGENTs
// have registered:
//
//   round boundary:  apply deferred evictions + registrations,
//                    ArbiterCore::BeginRound()
//   fan-out:         OFFER to every session with an unfinished app
//   collect:         BIDs until all expected sessions answered, or the
//                    bid deadline (bid_timeout_ms of wall time) passes —
//                    one slow or dead AGENT cannot stall the round; its
//                    apps simply stay in the auction server-side, and
//                    max_missed_deadlines consecutive misses evict it
//   settle:          ArbiterCore::FinishRound(), GRANT deltas per session
//                    (with that session's finished apps), CLOSE to
//                    sessions whose apps all completed
//
// Misbehaving input never kills the daemon: malformed frames draw a pointed
// ERROR frame and eviction, oversized lines poison the reader and evict,
// JSON nesting is depth-bounded so a frame of brackets cannot overflow the
// parse stack, a connection that never completes HELLO is evicted at the
// handshake deadline (hello_timeout_ms) instead of pinning a session slot,
// writes use MSG_NOSIGNAL, and a peer that stops reading trips the bounded
// write buffer and is evicted. RequestStop() is async-signal-safe (self-pipe
// wakeup): the daemon finishes the in-flight round, CLOSEs every session,
// flushes, and Run() returns 0.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/arbiter_core.h"

namespace themis::server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with port() after Start().
  int port = 0;
  int accept_backlog = 512;
  /// Admission control: connections beyond this are refused with an ERROR
  /// frame ("server-full") and closed.
  std::size_t max_sessions = 4096;
  /// Rounds start only once this many AGENTs have registered — the
  /// determinism barrier the loopback test leans on.
  std::size_t min_agents = 1;
  /// Stop after this many rounds (0 = run until stopped / drained).
  std::uint64_t max_rounds = 0;
  /// Wall-clock bid deadline per round, in milliseconds.
  int bid_timeout_ms = 2000;
  /// Handshake deadline: a connection that has not completed HELLO within
  /// this window is evicted ("hello-timeout" ERROR + CLOSE), so idle
  /// pre-registration sockets cannot pin session slots forever (bid-deadline
  /// eviction only covers registered sessions). 0 disables.
  int hello_timeout_ms = 5000;
  /// Consecutive missed bid deadlines before a session is evicted.
  int max_missed_deadlines = 3;
  /// Exit Run() once every registered app finished and no session remains.
  bool stop_when_drained = true;
  std::size_t max_line_bytes = net::kDefaultMaxLine;
  std::size_t max_write_buffer = 8u << 20;
  ArbiterConfig arbiter;
};

/// The knobs of a ServerConfig, for flags only (no file format reads
/// one); its ArbiterConfig takes ArbiterKnobs.
KnobTable ServerKnobs(ServerConfig& config);

/// Bounded sample size for per-round latency percentiles. Exact while a run
/// has at most this many rounds (every bench/test does); beyond it the
/// reservoir keeps a uniform sample — a forever-running daemon
/// (max_rounds = 0) must not grow a vector per round.
constexpr std::size_t kRoundLatencySampleCap = 8192;

struct ServerStats {
  std::uint64_t rounds = 0;
  /// Wall time per round: BeginRound to GRANT fan-out queued. Percentiles
  /// come from the bounded reservoir (items()); exact min/max/mean from the
  /// streaming summary.
  Reservoir<double> round_latency_ms{kRoundLatencySampleCap};
  Summary round_latency_summary;
  std::size_t sessions_accepted = 0;
  std::size_t sessions_refused = 0;
  std::size_t sessions_evicted = 0;
  std::size_t peak_sessions = 0;
  std::size_t protocol_errors = 0;
  std::size_t bid_deadline_misses = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Sum over rounds of AGENTs offered that round (for agents-served/sec).
  std::uint64_t agent_round_serves = 0;
};

class ArbiterServer {
 public:
  explicit ArbiterServer(ServerConfig config);
  ~ArbiterServer();

  ArbiterServer(const ArbiterServer&) = delete;
  ArbiterServer& operator=(const ArbiterServer&) = delete;

  /// Bind + listen. Returns false with *err set on failure.
  bool Start(std::string* err);

  /// The bound port (valid after Start; useful with config.port == 0).
  int port() const { return port_; }

  /// Serve until stopped or drained. Returns 0 on clean exit, 1 on a fatal
  /// server-side error (never on AGENT misbehavior).
  int Run();

  /// Async-signal-safe stop: wakes the loop via the self-pipe. The in-flight
  /// round completes, every session gets a CLOSE frame, then Run() returns.
  void RequestStop();

  const ServerStats& stats() const { return stats_; }
  const ArbiterCore& core() const { return core_; }

 private:
  struct Session;

  void AcceptPending();
  void ReadSession(Session& s);
  void HandleLine(Session& s, const std::string& line);
  void HandleHello(Session& s, net::WireMessage msg);
  void HandleBid(Session& s, const net::WireMessage& msg);
  void SendFrame(Session& s, const std::string& frame);
  void SendError(Session& s, const std::string& code,
                 const std::string& detail);
  /// Queue a CLOSE and mark the session draining; it is destroyed once its
  /// write buffer empties (or immediately if it already has).
  void CloseSession(Session& s, const std::string& reason);
  /// Drop the session now (peer gone / poisoned); its apps are evicted from
  /// the auction at the next round boundary.
  void DropSession(Session& s);
  void ReapSessions();
  /// Evict kAwaitingHello sessions whose handshake deadline passed.
  void EvictStaleHandshakes();

  void StepRounds();
  void StartRound();
  void CompleteRound();
  bool AllBidsIn() const;
  void ApplyDeferred();

  ServerConfig config_;
  ArbiterCore core_;
  ServerStats stats_;

  int listen_fd_ = net::kBadFd;
  int port_ = -1;
  int wake_read_ = net::kBadFd;
  int wake_write_ = net::kBadFd;

  std::vector<std::unique_ptr<Session>> sessions_;
  /// app -> owning session agent_id (or -1): routes GRANT deltas.
  std::vector<std::int64_t> app_owner_;
  std::int64_t next_agent_id_ = 1;
  bool any_registered_ = false;
  /// Latched by the first StartRound: min_agents stops gating after this.
  bool rounds_begun_ = false;

  // Round state.
  bool collecting_ = false;
  RoundStart round_;
  double round_started_ms_ = 0.0;  // steady-clock ms
  double bid_deadline_ms_ = 0.0;
  std::size_t bids_expected_ = 0;
  std::size_t bids_received_ = 0;

  // HELLOs that arrived mid-round; registered at the next boundary.
  std::vector<std::pair<std::int64_t, net::WireMessage>> deferred_hellos_;
  // Apps of dropped sessions, evicted at the next boundary.
  std::vector<AppId> deferred_evictions_;

  bool stop_requested_ = false;
  bool stopping_ = false;  // CLOSE frames sent; draining write buffers
};

}  // namespace themis::server

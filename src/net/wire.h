// The ARBITER <-> AGENT wire protocol: Offer/Bid/Grant over newline-delimited
// JSON frames (one JSON object per line; see net/frame.h for framing).
//
// Frame flow (client = AGENT, server = themis_arbiterd):
//
//   AGENT                                ARBITER
//     | -- HELLO {agent, apps[]} ---------> |   register apps
//     | <-- WELCOME {agent_id, app_ids[]} - |
//     |                                     |   round begins
//     | <-- OFFER {round, gpus, R->, ...} - |   fan-out to all sessions
//     | -- BID {round, demands[]} --------> |   collect until deadline
//     |                                     |   RunRound + ApplyGrants
//     | <-- GRANT {round, grants[], ...} -- |   per-session delta
//     | -- ACK {round} -------------------> |   (bookkeeping only)
//     | <-- CLOSE {reason} ---------------- |   app finished / shutdown
//     | <-- ERROR {code, detail} ---------- |   protocol violation
//
// The BID carries the AGENT's declared per-app demand. The valuation table
// itself is computed ARBITER-side from the session's registered state,
// because the work estimator (and its RNG stream) lives with the ARBITER —
// the paper's semi-trusted AGENT model (Sec. 5.1): the ARBITER corrects
// misreports anyway, so the authoritative rho inputs never leave it. This
// is also what makes daemon-served rounds bit-identical to the in-process
// RunRound path.
//
// The codec builds no JSON tree. Encoders append each frame straight into
// one string, numbers through JsonWriter::WriteNumber, the tree's one JSON
// number formatter (shortest round-trip form, so specs and offers survive
// serialization bit for bit), strings through JsonWriter::WriteString.
// ParseWireMessage reads each frame through common/json.h's JsonReader, the
// tree's one JSON grammar, and fills the WireMessage directly.
// tests/wire_test.cpp's WireCodecPins pins the frame bytes, and the decoded
// values and error texts over a mutation corpus.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/round.h"
#include "workload/job_spec.h"

namespace themis::net {

/// Protocol revision, carried in WELCOME. Bumped on incompatible changes.
constexpr int kProtocolVersion = 1;

enum class MsgType {
  kHello,
  kWelcome,
  kOffer,
  kBid,
  kGrant,
  kAck,
  kError,
  kClose,
};

const char* ToString(MsgType type);

/// Malformed frame: unknown type, missing or mistyped field, bad JSON.
/// The message names the frame type and field, so a misbehaving AGENT gets
/// a pointed ERROR frame instead of a silent disconnect.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// One app's declared demand inside a BID frame.
struct BidDemand {
  AppId app = kNoApp;
  int unmet_gpus = 0;
};

/// Decoded frame: tagged union as one flat struct (only the fields of the
/// active `type` are meaningful).
struct WireMessage {
  MsgType type = MsgType::kError;

  // kHello
  std::string agent_name;
  std::vector<AppSpec> apps;

  // kWelcome
  int protocol = 0;
  std::int64_t agent_id = -1;
  std::vector<AppId> app_ids;

  // kOffer
  ResourceOffer offer;

  // kBid / kAck / kGrant: the round being answered.
  std::uint64_t round_id = 0;
  std::vector<BidDemand> demands;

  // kGrant
  GrantSet grants;
  std::vector<AppId> finished_apps;

  // kError
  std::string code;
  std::string detail;

  // kClose
  std::string reason;
};

// Encoders: one line (no terminator; WriteBuffer::QueueFrame appends it).
std::string EncodeHello(const std::string& agent_name,
                        const std::vector<AppSpec>& apps);
std::string EncodeWelcome(std::int64_t agent_id,
                          const std::vector<AppId>& app_ids);
std::string EncodeOffer(const ResourceOffer& offer);
std::string EncodeBid(std::uint64_t round_id,
                      const std::vector<BidDemand>& demands);
std::string EncodeGrant(const GrantSet& grants,
                        const std::vector<AppId>& finished_apps);
std::string EncodeAck(std::uint64_t round_id);
std::string EncodeError(const std::string& code, const std::string& detail);
std::string EncodeClose(const std::string& reason);

/// Decode one frame. Throws WireError with a pointed message on anything
/// malformed (bad JSON, non-object, missing "type", unknown type, missing
/// or mistyped fields, an integer its field's type cannot hold, unknown
/// model/tuner/span names). A syntax error anywhere in the line wins over
/// field errors; field errors come in a fixed order whatever the member
/// order; of duplicate keys the first counts.
WireMessage ParseWireMessage(const std::string& line);

/// Order-insensitive digest of a grant stream, for cross-checking the
/// daemon-served stream against the in-process reference: XOR of per-grant
/// FNV-1a hashes over (round, lease_expiry, app, job, gpus). XOR combines
/// commutatively, so per-session delivery interleaving cannot change the
/// fleet-side digest; (round, app, job) is unique per grant, so no two
/// distinct grants cancel.
struct GrantDigest {
  std::uint64_t hash = 0;
  long long grants = 0;
  long long gpus = 0;

  void Add(std::uint64_t round_id, double lease_expiry, const Grant& g);
  bool operator==(const GrantDigest& other) const {
    return hash == other.hash && grants == other.grants && gpus == other.gpus;
  }
};

}  // namespace themis::net

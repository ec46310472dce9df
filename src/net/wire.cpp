#include "net/wire.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/json.h"
#include "placement/model_profile.h"
#include "workload/trace_io.h"

namespace themis::net {

namespace {

// --------------------------------------------------------------------------
// Encode helpers: every frame is appended straight into one string. Numbers
// go through JsonWriter::WriteNumber (integers as the double they convert
// to), strings through JsonWriter::WriteString.
// --------------------------------------------------------------------------

template <typename T>
  requires std::is_arithmetic_v<T>
void Value(std::string& out, T x) {
  JsonWriter::WriteNumber(static_cast<double>(x), out);
}
void Value(std::string& out, bool b) { out += b ? "true" : "false"; }
void Value(std::string& out, std::string_view s) {
  JsonWriter::WriteString(s, out);
}
// Without this, a C string would convert to bool rather than to a view.
void Value(std::string& out, const char* s) { Value(out, std::string_view(s)); }
void Value(std::string& out, const JobSpec& job);
void Value(std::string& out, const AppSpec& app);
void Value(std::string& out, const BidDemand& demand);
void Value(std::string& out, const Grant& grant);
void Value(std::string& out, const RoundDiagnostics& diag);

template <typename T>
void Value(std::string& out, const std::vector<T>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    Value(out, xs[i]);
  }
  out += ']';
}

/// Appends `"key":value` as the next member of the object `out` is in.
template <typename T>
void Member(std::string& out, std::string_view key, const T& value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  Value(out, value);
}

/// A frame up to its first member: `{"type":"<type>"`.
std::string Open(std::string_view type) {
  std::string out = "{";
  Member(out, "type", type);
  return out;
}

void Value(std::string& out, const BidDemand& demand) {
  out += '{';
  Member(out, "app", demand.app);
  Member(out, "unmet_gpus", demand.unmet_gpus);
  out += '}';
}

void Value(std::string& out, const Grant& grant) {
  out += '{';
  Member(out, "app", grant.app);
  Member(out, "job", grant.job);
  Member(out, "gpus", grant.gpus);
  out += '}';
}

void Value(std::string& out, const RoundDiagnostics& diag) {
  out += '{';
  Member(out, "offered", diag.offered_gpus);
  Member(out, "granted", diag.granted_gpus);
  Member(out, "leftover", diag.leftover_gpus);
  Member(out, "auction_ran", diag.auction_ran);
  Member(out, "participants", diag.auction_participants);
  out += '}';
}

// --------------------------------------------------------------------------
// Decode helpers. A frame is read in one pass through one JsonReader, each
// object through a JsonObject cursor, its fields asked for in a fixed
// order: a member found ahead of its turn is skipped and read back when
// asked for. A frame ignores the cursor's strays: a member never asked for
// is skipped, and of a repeated member the first wins. So field errors come
// in the same order whatever the member order on the line. When a frame is
// rejected, a second pass checks the whole line's syntax, because a syntax
// error anywhere names the frame instead.
// Every lookup names the frame type and field on failure, so the resulting
// ERROR frame tells the AGENT exactly what was wrong.
// --------------------------------------------------------------------------

[[noreturn]] void Fail(const char* ctx, const std::string& what) {
  throw WireError(std::string("wire: ") + ctx + ": " + what);
}

/// Every member name the decoders look up, per object kind.
constexpr std::string_view kFrameFields[] = {
    "type",     "agent",       "apps",          "protocol",
    "agent_id", "app_ids",     "round",         "time",
    "lease",    "gpus",        "free_per_machine", "machine_speeds",
    "demands",  "lease_expiry", "grants",       "diagnostics",
    "finished_apps", "code",   "detail",        "reason"};
constexpr std::string_view kAppFields[] = {"name", "arrival", "tuner",
                                           "target_loss", "jobs"};
constexpr std::string_view kJobFields[] = {
    "num_tasks",  "gpus_per_task", "total_work", "total_iterations",
    "loss_scale", "loss_decay",    "loss_floor", "model", "max_span"};
constexpr std::string_view kDemandFields[] = {"app", "unmet_gpus"};
constexpr std::string_view kGrantFields[] = {"app", "job", "gpus"};
constexpr std::string_view kDiagnosticFields[] = {
    "offered", "granted", "leftover", "auction_ran", "participants"};

static_assert(std::size(kFrameFields) <= JsonObject::kCapacity);

JsonReader& Get(JsonObject& obj, const char* key, const char* ctx) {
  JsonReader* v = obj.Find(key);
  if (v == nullptr) Fail(ctx, std::string("missing field \"") + key + "\"");
  return *v;
}

double Num(JsonObject& obj, const char* key, const char* ctx) {
  JsonReader& v = Get(obj, key, ctx);
  if (v.Peek() != JsonReader::Type::kNumber)
    Fail(ctx, std::string("field \"") + key + "\" must be a number");
  return v.ReadNumber();
}

/// Whole numbers beyond this magnitude are refused: every integer up to it
/// is exact as a double.
constexpr double kMaxWireInteger = 9.0e15;

/// The whole numbers an integer field of type T accepts: those T holds,
/// within +-kMaxWireInteger.
template <typename T>
constexpr double kIntegerMin = std::max(
    static_cast<double>(std::numeric_limits<T>::min()), -kMaxWireInteger);
template <typename T>
constexpr double kIntegerMax = std::min(
    static_cast<double>(std::numeric_limits<T>::max()), kMaxWireInteger);

/// The one integer conversion of the decoder: false unless `d` is a whole
/// number in [kIntegerMin<T>, kIntegerMax<T>].
template <typename T>
bool ToInteger(double d, T& out) {
  if (!(d >= kIntegerMin<T> && d <= kIntegerMax<T>) || d != std::floor(d))
    return false;
  out = static_cast<T>(d);
  return true;
}

template <typename T>
std::string IntegerRange() {
  return "[" + std::to_string(static_cast<long long>(kIntegerMin<T>)) + ", " +
         std::to_string(static_cast<long long>(kIntegerMax<T>)) + "]";
}

template <typename T>
T Int(JsonObject& obj, const char* key, const char* ctx) {
  const double d = Num(obj, key, ctx);
  if (d != std::floor(d) || std::abs(d) > kMaxWireInteger)
    Fail(ctx, std::string("field \"") + key + "\" must be an integer");
  T out{};
  if (!ToInteger(d, out))
    Fail(ctx, std::string("field \"") + key + "\" must be an integer in " +
                  IntegerRange<T>());
  return out;
}

/// The view lives until the next string read from the frame.
std::string_view Str(JsonObject& obj, const char* key, const char* ctx) {
  JsonReader& v = Get(obj, key, ctx);
  if (v.Peek() != JsonReader::Type::kString)
    Fail(ctx, std::string("field \"") + key + "\" must be a string");
  return v.ReadString();
}

bool Boolean(JsonObject& obj, const char* key, const char* ctx) {
  JsonReader& v = Get(obj, key, ctx);
  if (v.Peek() != JsonReader::Type::kBool)
    Fail(ctx, std::string("field \"") + key + "\" must be a bool");
  return v.ReadBool();
}

/// The reader inside the array `key`: walk it with NextItem.
JsonReader& Arr(JsonObject& obj, const char* key, const char* ctx) {
  JsonReader& v = Get(obj, key, ctx);
  if (v.Peek() != JsonReader::Type::kArray)
    Fail(ctx, std::string("field \"") + key + "\" must be an array");
  v.BeginArray();
  return v;
}

template <typename T>
std::vector<T> IntVector(JsonObject& obj, const char* key, const char* ctx) {
  std::vector<T> out;
  JsonReader& v = Arr(obj, key, ctx);
  while (v.NextItem()) {
    if (v.Peek() != JsonReader::Type::kNumber)
      Fail(ctx, std::string("field \"") + key + "\" must hold numbers");
    if (!ToInteger(v.ReadNumber(), out.emplace_back()))
      Fail(ctx, std::string("field \"") + key + "\" must hold integers in " +
                    IntegerRange<T>());
  }
  return out;
}

std::vector<double> DoubleVector(JsonObject& obj, const char* key,
                                 const char* ctx) {
  std::vector<double> out;
  JsonReader& v = Arr(obj, key, ctx);
  while (v.NextItem()) {
    if (v.Peek() != JsonReader::Type::kNumber)
      Fail(ctx, std::string("field \"") + key + "\" must hold numbers");
    out.push_back(v.ReadNumber());
  }
  return out;
}

// --------------------------------------------------------------------------
// AppSpec / JobSpec codec (field set mirrors the trace CSV archive columns,
// trace_io.cpp WriteAppRows).
// --------------------------------------------------------------------------

void Value(std::string& out, const JobSpec& job) {
  out += '{';
  Member(out, "num_tasks", job.num_tasks);
  Member(out, "gpus_per_task", job.gpus_per_task);
  Member(out, "total_work", job.total_work);
  Member(out, "total_iterations", job.total_iterations);
  Member(out, "loss_scale", job.loss.scale());
  Member(out, "loss_decay", job.loss.decay());
  Member(out, "loss_floor", job.loss.floor());
  Member(out, "model", job.model.name);
  Member(out, "max_span", ToString(job.max_span));
  out += '}';
}

JobSpec JobFromFields(JsonObject& j, const char* ctx) {
  JobSpec job;
  job.num_tasks = Int<int>(j, "num_tasks", ctx);
  job.gpus_per_task = Int<int>(j, "gpus_per_task", ctx);
  job.total_work = Num(j, "total_work", ctx);
  job.total_iterations = Num(j, "total_iterations", ctx);
  if (job.num_tasks <= 0 || job.gpus_per_task <= 0)
    Fail(ctx, "num_tasks and gpus_per_task must be positive");
  if (!(job.total_work > 0.0) || !(job.total_iterations > 0.0))
    Fail(ctx, "total_work and total_iterations must be positive");
  try {
    // Floor, decay, scale: the order the loss fields have always been
    // checked in, which decides the error when several are bad.
    const double floor = Num(j, "loss_floor", ctx);
    const double decay = Num(j, "loss_decay", ctx);
    const double scale = Num(j, "loss_scale", ctx);
    job.loss = LossCurve(scale, decay, floor);
    job.model = ModelByName(Str(j, "model", ctx));
    job.max_span = LocalityLevelFromString(Str(j, "max_span", ctx));
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    Fail(ctx, e.what());
  }
  return job;
}

void Value(std::string& out, const AppSpec& app) {
  out += '{';
  Member(out, "name", app.name);
  Member(out, "arrival", app.arrival);
  Member(out, "tuner", ToString(app.tuner));
  Member(out, "target_loss", app.target_loss);
  Member(out, "jobs", app.jobs);
  out += '}';
}

AppSpec AppFromFields(JsonObject& a, const char* ctx) {
  AppSpec app;
  app.name = Str(a, "name", ctx);
  app.arrival = Num(a, "arrival", ctx);
  try {
    app.tuner = TunerKindFromString(Str(a, "tuner", ctx));
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    Fail(ctx, e.what());
  }
  app.target_loss = Num(a, "target_loss", ctx);
  JsonReader& jobs = Arr(a, "jobs", ctx);
  if (!jobs.NextItem()) Fail(ctx, "app must declare at least one job");
  do {
    JsonObject job(jobs, kJobFields);
    app.jobs.push_back(JobFromFields(job, ctx));
    job.Close();
  } while (jobs.NextItem());
  return app;
}

/// Throws the frame's first syntax error, if it has one.
void CheckSyntax(const std::string& line) {
  try {
    JsonReader::CheckSyntax(line);
  } catch (const std::exception& e) {
    throw WireError(std::string("wire: frame is not valid JSON: ") + e.what());
  }
}

WireMessage Decode(const std::string& line) {
  JsonReader reader(line);
  JsonObject doc(reader, kFrameFields);
  if (!doc.is_object()) throw WireError("wire: frame must be a JSON object");
  JsonReader* type = doc.Find("type");
  if (type == nullptr || type->Peek() != JsonReader::Type::kString)
    throw WireError("wire: frame missing string field \"type\"");
  const std::string t(type->ReadString());

  WireMessage msg;
  if (t == "hello") {
    msg.type = MsgType::kHello;
    msg.agent_name = Str(doc, "agent", "hello");
    JsonReader& apps = Arr(doc, "apps", "hello");
    while (apps.NextItem()) {
      JsonObject app(apps, kAppFields);
      msg.apps.push_back(AppFromFields(app, "hello.apps"));
      app.Close();
    }
  } else if (t == "welcome") {
    msg.type = MsgType::kWelcome;
    msg.protocol = Int<int>(doc, "protocol", "welcome");
    msg.agent_id = Int<std::int64_t>(doc, "agent_id", "welcome");
    msg.app_ids = IntVector<AppId>(doc, "app_ids", "welcome");
  } else if (t == "offer") {
    msg.type = MsgType::kOffer;
    msg.offer.round_id = Int<std::uint64_t>(doc, "round", "offer");
    msg.offer.time = Num(doc, "time", "offer");
    msg.offer.lease_duration = Num(doc, "lease", "offer");
    msg.offer.gpus = IntVector<GpuId>(doc, "gpus", "offer");
    msg.offer.free_per_machine = IntVector<int>(doc, "free_per_machine",
                                                "offer");
    msg.offer.machine_speeds = DoubleVector(doc, "machine_speeds", "offer");
  } else if (t == "bid") {
    msg.type = MsgType::kBid;
    msg.round_id = Int<std::uint64_t>(doc, "round", "bid");
    JsonReader& demands = Arr(doc, "demands", "bid");
    while (demands.NextItem()) {
      JsonObject d(demands, kDemandFields);
      BidDemand demand;
      demand.app = Int<AppId>(d, "app", "bid.demands");
      demand.unmet_gpus = Int<int>(d, "unmet_gpus", "bid.demands");
      d.Close();
      msg.demands.push_back(demand);
    }
  } else if (t == "grant") {
    msg.type = MsgType::kGrant;
    msg.round_id = Int<std::uint64_t>(doc, "round", "grant");
    msg.grants.round_id = msg.round_id;
    msg.grants.lease_expiry = Num(doc, "lease_expiry", "grant");
    JsonReader& grants = Arr(doc, "grants", "grant");
    while (grants.NextItem()) {
      JsonObject g(grants, kGrantFields);
      Grant grant;
      grant.app = Int<AppId>(g, "app", "grant.grants");
      grant.job = Int<JobId>(g, "job", "grant.grants");
      grant.gpus = IntVector<GpuId>(g, "gpus", "grant.grants");
      g.Close();
      msg.grants.grants.push_back(std::move(grant));
    }
    JsonObject diag(Get(doc, "diagnostics", "grant"), kDiagnosticFields);
    msg.grants.diagnostics.offered_gpus =
        Int<int>(diag, "offered", "grant.diagnostics");
    msg.grants.diagnostics.granted_gpus =
        Int<int>(diag, "granted", "grant.diagnostics");
    msg.grants.diagnostics.leftover_gpus =
        Int<int>(diag, "leftover", "grant.diagnostics");
    msg.grants.diagnostics.auction_ran =
        Boolean(diag, "auction_ran", "grant.diagnostics");
    msg.grants.diagnostics.auction_participants =
        Int<int>(diag, "participants", "grant.diagnostics");
    diag.Close();
    msg.finished_apps = IntVector<AppId>(doc, "finished_apps", "grant");
  } else if (t == "ack") {
    msg.type = MsgType::kAck;
    msg.round_id = Int<std::uint64_t>(doc, "round", "ack");
  } else if (t == "error") {
    msg.type = MsgType::kError;
    msg.code = Str(doc, "code", "error");
    msg.detail = Str(doc, "detail", "error");
  } else if (t == "close") {
    msg.type = MsgType::kClose;
    msg.reason = Str(doc, "reason", "close");
  } else {
    throw WireError("wire: unknown message type \"" + t + "\"");
  }
  doc.Close();
  reader.ExpectEnd();
  return msg;
}

}  // namespace

const char* ToString(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kOffer: return "offer";
    case MsgType::kBid: return "bid";
    case MsgType::kGrant: return "grant";
    case MsgType::kAck: return "ack";
    case MsgType::kError: return "error";
    case MsgType::kClose: return "close";
  }
  return "?";
}

std::string EncodeHello(const std::string& agent_name,
                        const std::vector<AppSpec>& apps) {
  std::string out = Open("hello");
  Member(out, "agent", agent_name);
  Member(out, "apps", apps);
  out += '}';
  return out;
}

std::string EncodeWelcome(std::int64_t agent_id,
                          const std::vector<AppId>& app_ids) {
  std::string out = Open("welcome");
  Member(out, "protocol", kProtocolVersion);
  Member(out, "agent_id", agent_id);
  Member(out, "app_ids", app_ids);
  out += '}';
  return out;
}

std::string EncodeOffer(const ResourceOffer& offer) {
  std::string out = Open("offer");
  Member(out, "round", offer.round_id);
  Member(out, "time", offer.time);
  Member(out, "lease", offer.lease_duration);
  Member(out, "gpus", offer.gpus);
  Member(out, "free_per_machine", offer.free_per_machine);
  Member(out, "machine_speeds", offer.machine_speeds);
  out += '}';
  return out;
}

std::string EncodeBid(std::uint64_t round_id,
                      const std::vector<BidDemand>& demands) {
  std::string out = Open("bid");
  Member(out, "round", round_id);
  Member(out, "demands", demands);
  out += '}';
  return out;
}

std::string EncodeGrant(const GrantSet& grants,
                        const std::vector<AppId>& finished_apps) {
  std::string out = Open("grant");
  Member(out, "round", grants.round_id);
  Member(out, "lease_expiry", grants.lease_expiry);
  Member(out, "grants", grants.grants);
  Member(out, "diagnostics", grants.diagnostics);
  Member(out, "finished_apps", finished_apps);
  out += '}';
  return out;
}

std::string EncodeAck(std::uint64_t round_id) {
  std::string out = Open("ack");
  Member(out, "round", round_id);
  out += '}';
  return out;
}

std::string EncodeError(const std::string& code, const std::string& detail) {
  std::string out = Open("error");
  Member(out, "code", code);
  Member(out, "detail", detail);
  out += '}';
  return out;
}

std::string EncodeClose(const std::string& reason) {
  std::string out = Open("close");
  Member(out, "reason", reason);
  out += '}';
  return out;
}

WireMessage ParseWireMessage(const std::string& line) {
  try {
    return Decode(line);
  } catch (const std::exception&) {
    CheckSyntax(line);
    throw;
  }
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof d);
  __builtin_memcpy(&bits, &d, sizeof bits);
  return bits;
}

}  // namespace

void GrantDigest::Add(std::uint64_t round_id, double lease_expiry,
                      const Grant& g) {
  std::uint64_t h = kFnvOffset;
  FnvMix(h, round_id);
  FnvMix(h, DoubleBits(lease_expiry));
  FnvMix(h, static_cast<std::uint64_t>(g.app));
  FnvMix(h, static_cast<std::uint64_t>(g.job));
  for (GpuId gpu : g.gpus) FnvMix(h, static_cast<std::uint64_t>(gpu));
  hash ^= h;
  ++grants;
  gpus += static_cast<long long>(g.gpus.size());
}

}  // namespace themis::net

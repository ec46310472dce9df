// Tests for the wire layer under the ARBITER daemon:
//
//   - JsonWriter and JsonReader (common/json.h): write-then-read property
//     tests — shortest round-trip number formatting (including random bit
//     patterns), RFC 8259 string escaping, single-line output, non-finite
//     rejection, the nesting bound — and whole documents round-tripped
//     through the test tree (json_tree.h).
//   - LineReader / WriteBuffer (net/frame.h): incremental '\n' framing,
//     CRLF tolerance, oversize poisoning, bounded write queues.
//   - Wire codec (net/wire.h): encode/parse round trips for all eight
//     frame types (re-encoding a parsed frame reproduces the original
//     bytes), and a malformed-input table where every bad line draws a
//     pointed WireError instead of a crash.
//   - WireCodecPins: the exact bytes of every encoder on edge inputs, and
//     an FNV-1a hash over ParseWireMessage's outcomes on a seeded mutation
//     corpus (tests/wire_corpus.h), so a codec rewrite that changes one
//     byte, one decoded value or one error text fails here. The round trips
//     above compare the codec only with itself.
//   - GrantDigest: order insensitivity, and distinct grants not cancelling.
#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "common/json.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "placement/model_profile.h"
#include "wire_corpus.h"
#include "workload/trace_gen.h"

namespace themis {
namespace {

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

double RoundTrip(double d) {
  const std::string text = JsonWriter::FormatNumber(d);
  JsonReader reader(text);
  const double back = reader.ReadNumber();
  reader.ExpectEnd();
  return back;
}

TEST(JsonWriter, IntegralDoublesPrintAsIntegers) {
  EXPECT_EQ(JsonWriter::FormatNumber(0.0), "0");
  EXPECT_EQ(JsonWriter::FormatNumber(42.0), "42");
  EXPECT_EQ(JsonWriter::FormatNumber(-7.0), "-7");
  // Largest exactly-representable integer still prints without exponent.
  const double big = 9007199254740991.0;  // 2^53 - 1
  EXPECT_EQ(JsonWriter::FormatNumber(big), "9007199254740991");
  EXPECT_EQ(Bits(RoundTrip(big)), Bits(big));
}

TEST(JsonWriter, NumbersRoundTripBitForBit) {
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          1e-9,
                          6.02214076e23,
                          5e-324,  // smallest denormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          -0.0,
                          3.141592653589793,
                          2.5,
                          1e300};
  for (double d : cases)
    EXPECT_EQ(Bits(RoundTrip(d)), Bits(d)) << JsonWriter::FormatNumber(d);
}

TEST(JsonWriter, RandomBitPatternsRoundTrip) {
  std::mt19937_64 rng(20260808);
  int tested = 0;
  while (tested < 2000) {
    double d = 0.0;
    const std::uint64_t u = rng();
    std::memcpy(&d, &u, sizeof d);
    if (!std::isfinite(d)) continue;
    ++tested;
    EXPECT_EQ(Bits(RoundTrip(d)), Bits(d)) << u;
  }
}

TEST(JsonWriter, NonFiniteThrows) {
  EXPECT_THROW(JsonWriter::FormatNumber(std::nan("")), std::invalid_argument);
  EXPECT_THROW(JsonWriter::FormatNumber(
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(JsonWriter::FormatNumber(
                   -std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(JsonWriter, StringsRoundTripAndStayOnOneLine) {
  const std::string cases[] = {"",
                               "plain",
                               "with \"quotes\"",
                               "back\\slash",
                               "line\nbreak\ttab\rcr",
                               std::string("nul\0byte", 8),
                               "\x01\x1f",
                               "h\xc3\xa9llo \xe2\x98\x83"};  // UTF-8
  for (const std::string& s : cases) {
    std::string doc;
    JsonWriter::WriteString(s, doc);
    EXPECT_EQ(doc.find('\n'), std::string::npos) << doc;
    JsonReader reader(doc);
    EXPECT_EQ(reader.ReadString(), s) << doc;
    reader.ExpectEnd();
  }
}

TEST(JsonWriter, DocumentsRoundTripStructurally) {
  JsonTree obj = JsonTree::MakeObject();
  obj.Set("name", JsonTree::MakeString("round \"7\""));
  obj.Set("pi", JsonTree::MakeNumber(3.141592653589793));
  obj.Set("n", JsonTree::MakeNumber(-12.0));
  obj.Set("flag", JsonTree::MakeBool(true));
  obj.Set("nothing", JsonTree::MakeNull());
  JsonTree arr = JsonTree::MakeArray();
  arr.Append(JsonTree::MakeNumber(0.1));
  arr.Append(JsonTree::MakeBool(false));
  JsonTree inner = JsonTree::MakeObject();
  inner.Set("k", JsonTree::MakeString("v"));
  arr.Append(std::move(inner));
  obj.Set("items", std::move(arr));

  const std::string doc = obj.Write();
  const JsonTree back = JsonTree::Parse(doc);
  EXPECT_EQ(back, obj);
  // Write is deterministic: a reparsed document reproduces the same bytes.
  EXPECT_EQ(back.Write(), doc);
}

TEST(JsonParser, DeepNestingIsRejectedNotStackOverflow) {
  // A frame of brackets well under the 1 MiB line cap would recurse once
  // per byte without the depth bound — a remote stack-overflow crash.
  EXPECT_THROW(JsonReader::CheckSyntax(std::string(200000, '[')),
               std::runtime_error);
  const int kTooDeep = 80;
  EXPECT_THROW(JsonReader::CheckSyntax(std::string(kTooDeep, '[') +
                                       std::string(kTooDeep, ']')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < kTooDeep; ++i) objects += "{\"k\":";
  objects += "null";
  objects.append(static_cast<std::size_t>(kTooDeep), '}');
  EXPECT_THROW(JsonReader::CheckSyntax(objects), std::runtime_error);

  // Sane nesting is untouched (wire frames nest 3-4 deep; the bound is 64).
  const int kFine = 32;
  EXPECT_NO_THROW(JsonReader::CheckSyntax(std::string(kFine, '[') + "7" +
                                          std::string(kFine, ']')));

  // Through the wire codec the same input must surface as a WireError (the
  // daemon answers with a pointed ERROR frame and evicts — never crashes).
  EXPECT_THROW(net::ParseWireMessage("{\"type\":\"bid\",\"round\":1,"
                                     "\"demands\":" +
                                     std::string(5000, '[')),
               net::WireError);
}

TEST(JsonParser, NumberParsingIsLocaleIndependent) {
  // strtod would honor a ',' decimal separator and read "1.5" as 1.0;
  // from_chars must not. Skip when the locale is not installed.
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr)
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  const double got = JsonReader("1.5").ReadNumber();
  const std::string formatted = JsonWriter::FormatNumber(0.1);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(got, 1.5);
  EXPECT_EQ(formatted, "0.1");
}

TEST(LineReader, SplitsLinesAcrossFeeds) {
  net::LineReader reader;
  std::string line;
  EXPECT_TRUE(reader.Feed("ab", 2));
  EXPECT_FALSE(reader.NextLine(line));
  EXPECT_TRUE(reader.Feed("c\nde\nf", 6));
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_EQ(line, "abc");
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_EQ(line, "de");
  EXPECT_FALSE(reader.NextLine(line));  // "f" incomplete
  EXPECT_EQ(reader.buffered(), 1u);
}

TEST(LineReader, StripsCarriageReturnAndYieldsEmptyLines) {
  net::LineReader reader;
  std::string line;
  const std::string in = "x\r\n\ny\n";
  EXPECT_TRUE(reader.Feed(in.data(), in.size()));
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_EQ(line, "x");
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_EQ(line, "y");
}

TEST(LineReader, OversizedLinePoisonsTheReader) {
  net::LineReader reader(/*max_line=*/8);
  const std::string big(9, 'a');
  EXPECT_FALSE(reader.Feed(big.data(), big.size()));
  EXPECT_TRUE(reader.overflowed());
  // Even a later newline cannot un-poison it.
  EXPECT_FALSE(reader.Feed("\n", 1));
  std::string line;
  EXPECT_FALSE(reader.NextLine(line));
}

TEST(LineReader, LineAtExactlyMaxLinePasses) {
  net::LineReader reader(/*max_line=*/8);
  const std::string in = std::string(8, 'b') + "\n";
  EXPECT_TRUE(reader.Feed(in.data(), in.size()));
  std::string line;
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_EQ(line, std::string(8, 'b'));
}

TEST(WriteBuffer, CapsQueuedBytes) {
  net::WriteBuffer buf(/*max_bytes=*/16);
  EXPECT_TRUE(buf.QueueFrame("0123456789"));  // 11 with terminator
  EXPECT_FALSE(buf.QueueFrame("0123456789"));  // would exceed 16
  EXPECT_TRUE(buf.QueueFrame("abc"));          // 11 + 4 = 15 fits
  EXPECT_EQ(buf.pending(), 15u);
}

TEST(WriteBuffer, FlushDeliversFramesOverASocketPair) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::WriteBuffer buf;
  EXPECT_TRUE(buf.QueueFrame("hello"));
  EXPECT_TRUE(buf.QueueFrame("world"));
  EXPECT_TRUE(buf.Flush(fds[0]));
  EXPECT_TRUE(buf.empty());
  char got[64] = {};
  const ssize_t n = read(fds[1], got, sizeof got);
  EXPECT_EQ(std::string(got, static_cast<std::size_t>(n)), "hello\nworld\n");
  close(fds[0]);
  close(fds[1]);
}

TEST(WriteBuffer, CompactsSentPrefixUnderSustainedPartialFlushes) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(net::SetNonBlocking(fds[0]));
  ASSERT_TRUE(net::SetNonBlocking(fds[1]));
  // Tiny kernel buffer so every Flush is partial once the pipe fills: the
  // slow-but-reading peer keeps pending() > 0 forever, and without
  // compaction the sent prefix would accrete every byte ever queued.
  const int kSndBuf = 4096;
  ASSERT_EQ(setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &kSndBuf,
                       sizeof kSndBuf),
            0);

  net::WriteBuffer buf(1u << 20);
  std::string expected;
  std::string received;
  std::size_t peak_held = 0;
  char tmp[4096];
  const int kIterations = 500;
  const std::size_t kFrameLen = 1000;
  for (int i = 0; i < kIterations; ++i) {
    const std::string frame(kFrameLen, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(buf.QueueFrame(frame));
    expected += frame;
    expected += '\n';
    ASSERT_TRUE(buf.Flush(fds[0]));
    // The peer drains at most one read per queued frame, so the socket
    // stays full and flushes stay partial while data still moves.
    const long r = read(fds[1], tmp, sizeof tmp);
    if (r > 0) received.append(tmp, static_cast<std::size_t>(r));
    peak_held = std::max(peak_held, buf.buffer_size());
  }
  // ~500 KB moved through the buffer; memory must track pending(), not
  // lifetime traffic. 2x pending cap + one frame of slack, far below the
  // unbounded-growth failure mode.
  EXPECT_LT(peak_held, 64u * 1024);

  // Compaction must not corrupt the stream: drain fully and compare bytes.
  while (!buf.empty()) {
    ASSERT_TRUE(buf.Flush(fds[0]));
    const long r = read(fds[1], tmp, sizeof tmp);
    if (r > 0) received.append(tmp, static_cast<std::size_t>(r));
  }
  for (long r = read(fds[1], tmp, sizeof tmp); r > 0;
       r = read(fds[1], tmp, sizeof tmp))
    received.append(tmp, static_cast<std::size_t>(r));
  EXPECT_EQ(received, expected);
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Wire codec round trips. The strongest property: re-encoding a parsed
// frame reproduces the original bytes, so nothing is lost or reformatted.
// ---------------------------------------------------------------------------

std::vector<AppSpec> SampleApps(int n) {
  TraceConfig trace;
  trace.num_apps = n;
  trace.seed = 7;
  return TraceGenerator(trace).Generate();
}

TEST(WireCodec, HelloRoundTripsGeneratedApps) {
  const std::vector<AppSpec> apps = SampleApps(4);
  const std::string frame = net::EncodeHello("agent-a", apps);
  const net::WireMessage msg = net::ParseWireMessage(frame);
  ASSERT_EQ(msg.type, net::MsgType::kHello);
  EXPECT_EQ(msg.agent_name, "agent-a");
  ASSERT_EQ(msg.apps.size(), apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_EQ(msg.apps[i].name, apps[i].name);
    EXPECT_EQ(msg.apps[i].jobs.size(), apps[i].jobs.size());
    EXPECT_EQ(msg.apps[i].target_loss, apps[i].target_loss);
  }
  EXPECT_EQ(net::EncodeHello(msg.agent_name, msg.apps), frame);
}

TEST(WireCodec, WelcomeRoundTrips) {
  const std::string frame = net::EncodeWelcome(7, {0, 1, 5});
  const net::WireMessage msg = net::ParseWireMessage(frame);
  ASSERT_EQ(msg.type, net::MsgType::kWelcome);
  EXPECT_EQ(msg.protocol, net::kProtocolVersion);
  EXPECT_EQ(msg.agent_id, 7);
  EXPECT_EQ(msg.app_ids, (std::vector<AppId>{0, 1, 5}));
  EXPECT_EQ(net::EncodeWelcome(msg.agent_id, msg.app_ids), frame);
}

TEST(WireCodec, OfferRoundTripsDoublesExactly) {
  ResourceOffer offer;
  offer.round_id = 12;
  offer.time = 62.500000000000014;  // not representable in short decimal
  offer.lease_duration = 20.0;
  offer.gpus = {0, 3, 5, 17};
  offer.free_per_machine = {2, 0, 2};
  offer.machine_speeds = {1.0, 0.5, 1.0 / 3.0};
  const std::string frame = net::EncodeOffer(offer);
  const net::WireMessage msg = net::ParseWireMessage(frame);
  ASSERT_EQ(msg.type, net::MsgType::kOffer);
  EXPECT_EQ(msg.offer.round_id, 12u);
  EXPECT_EQ(Bits(msg.offer.time), Bits(offer.time));
  EXPECT_EQ(msg.offer.gpus, offer.gpus);
  EXPECT_EQ(msg.offer.free_per_machine, offer.free_per_machine);
  ASSERT_EQ(msg.offer.machine_speeds.size(), offer.machine_speeds.size());
  for (std::size_t i = 0; i < offer.machine_speeds.size(); ++i)
    EXPECT_EQ(Bits(msg.offer.machine_speeds[i]),
              Bits(offer.machine_speeds[i]));
  EXPECT_EQ(net::EncodeOffer(msg.offer), frame);
}

TEST(WireCodec, BidAckErrorCloseRoundTrip) {
  const std::string bid = net::EncodeBid(9, {{2, 8}, {5, 0}});
  net::WireMessage msg = net::ParseWireMessage(bid);
  ASSERT_EQ(msg.type, net::MsgType::kBid);
  EXPECT_EQ(msg.round_id, 9u);
  ASSERT_EQ(msg.demands.size(), 2u);
  EXPECT_EQ(msg.demands[0].app, 2);
  EXPECT_EQ(msg.demands[0].unmet_gpus, 8);
  EXPECT_EQ(net::EncodeBid(msg.round_id, msg.demands), bid);

  msg = net::ParseWireMessage(net::EncodeAck(3));
  ASSERT_EQ(msg.type, net::MsgType::kAck);
  EXPECT_EQ(msg.round_id, 3u);

  msg = net::ParseWireMessage(net::EncodeError("stale-bid", "round 2 != 3"));
  ASSERT_EQ(msg.type, net::MsgType::kError);
  EXPECT_EQ(msg.code, "stale-bid");
  EXPECT_EQ(msg.detail, "round 2 != 3");

  msg = net::ParseWireMessage(net::EncodeClose("apps finished"));
  ASSERT_EQ(msg.type, net::MsgType::kClose);
  EXPECT_EQ(msg.reason, "apps finished");
}

TEST(WireCodec, GrantRoundTripsWithDiagnostics) {
  GrantSet grants;
  grants.round_id = 4;
  grants.lease_expiry = 40.0;
  grants.grants.push_back({1, 0, {0, 1, 2, 3}});
  grants.grants.push_back({2, 1, {7}});
  grants.diagnostics.offered_gpus = 5;
  grants.diagnostics.granted_gpus = 5;
  grants.diagnostics.leftover_gpus = 0;
  grants.diagnostics.auction_ran = true;
  grants.diagnostics.auction_participants = 2;
  const std::string frame = net::EncodeGrant(grants, {2});
  const net::WireMessage msg = net::ParseWireMessage(frame);
  ASSERT_EQ(msg.type, net::MsgType::kGrant);
  EXPECT_EQ(msg.grants.round_id, 4u);
  EXPECT_EQ(msg.grants.lease_expiry, 40.0);
  ASSERT_EQ(msg.grants.grants.size(), 2u);
  EXPECT_EQ(msg.grants.grants[0].app, 1);
  EXPECT_EQ(msg.grants.grants[0].gpus, (std::vector<GpuId>{0, 1, 2, 3}));
  EXPECT_TRUE(msg.grants.diagnostics.auction_ran);
  EXPECT_EQ(msg.grants.diagnostics.auction_participants, 2);
  EXPECT_EQ(msg.finished_apps, (std::vector<AppId>{2}));
  EXPECT_EQ(net::EncodeGrant(msg.grants, msg.finished_apps), frame);
}

TEST(WireCodec, MalformedFramesDrawPointedErrors) {
  struct Case {
    const char* line;
    const char* expect;  // substring of the WireError message
  };
  const Case cases[] = {
      {"not json at all", "wire"},
      {"[1,2,3]", "object"},
      {"{}", "type"},
      {"{\"type\":\"teapot\"}", "teapot"},
      {"{\"type\":42}", "type"},
      {"{\"type\":\"hello\"}", "agent"},
      {"{\"type\":\"hello\",\"agent\":\"a\",\"apps\":7}", "apps"},
      {"{\"type\":\"hello\",\"agent\":\"a\",\"apps\":[{}]}", "name"},
      {"{\"type\":\"bid\",\"round\":1}", "demands"},
      {"{\"type\":\"bid\",\"round\":1,\"demands\":[{\"gpus\":2}]}", "app"},
      {"{\"type\":\"bid\",\"round\":0.5,\"demands\":[]}", "round"},
      {"{\"type\":\"bid\",\"round\":1e17,\"demands\":[]}", "round"},
      {"{\"type\":\"offer\",\"round\":1}", "time"},
      {"{\"type\":\"close\"}", "reason"},
      {"{\"type\":\"error\",\"code\":\"x\"}", "detail"},
  };
  for (const Case& c : cases) {
    try {
      net::ParseWireMessage(c.line);
      FAIL() << "expected WireError for: " << c.line;
    } catch (const net::WireError& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << c.line << " -> " << e.what();
    }
  }
}

std::string WireErrorText(const std::string& line) {
  try {
    net::ParseWireMessage(line);
  } catch (const net::WireError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(WireCodec, HostileIntegersAreRejectedNamingTheField) {
  std::string hello = net::EncodeHello("a", {wire_corpus::CorpusApp(0, 1)});
  const std::string tasks = "\"num_tasks\":1,";
  ASSERT_NE(hello.find(tasks), std::string::npos);
  hello.replace(hello.find(tasks), tasks.size(), "\"num_tasks\":4294967297,");
  EXPECT_EQ(WireErrorText(hello),
            "wire: hello.apps: field \"num_tasks\" must be an integer in "
            "[-2147483648, 2147483647]");

  const std::string u32 = " must be an integer in [0, 4294967295]";
  const std::string i32 = " must be an integer in [-2147483648, 2147483647]";
  const std::string round = " must be an integer in [0, 9000000000000000]";
  EXPECT_EQ(WireErrorText("{\"type\":\"bid\",\"round\":1,\"demands\":[{\"app\":"
                          "4294967296,\"unmet_gpus\":-4294967295}]}"),
            "wire: bid.demands: field \"app\"" + u32);
  EXPECT_EQ(WireErrorText("{\"type\":\"bid\",\"round\":1,\"demands\":[{\"app\":"
                          "1,\"unmet_gpus\":-4294967295}]}"),
            "wire: bid.demands: field \"unmet_gpus\"" + i32);
  EXPECT_EQ(WireErrorText("{\"type\":\"ack\",\"round\":-1}"),
            "wire: ack: field \"round\"" + round);
  EXPECT_EQ(WireErrorText("{\"type\":\"welcome\",\"protocol\":2147483648,"
                          "\"agent_id\":1,\"app_ids\":[]}"),
            "wire: welcome: field \"protocol\"" + i32);
  EXPECT_EQ(WireErrorText(
                "{\"type\":\"grant\",\"round\":1,\"lease_expiry\":2,"
                "\"grants\":[{\"app\":1,\"job\":4294967296,\"gpus\":[]}],"
                "\"diagnostics\":{},\"finished_apps\":[]}"),
            "wire: grant.grants: field \"job\"" + u32);

  const std::string offer_head =
      "{\"type\":\"offer\",\"round\":1,\"time\":0,\"lease\":1,";
  const std::string gpus_error =
      "wire: offer: field \"gpus\" must hold integers in [0, 4294967295]";
  for (const char* gpus : {"[1.5]", "[-3]", "[1.5,-3]", "[1e300]",
                           "[4294967296]", "[0,-0.5]"}) {
    EXPECT_EQ(WireErrorText(offer_head + "\"gpus\":" + gpus +
                            ",\"free_per_machine\":[],"
                            "\"machine_speeds\":[]}"),
              gpus_error)
        << gpus;
  }
  EXPECT_EQ(WireErrorText(offer_head +
                          "\"gpus\":[],\"free_per_machine\":[2147483648],"
                          "\"machine_speeds\":[]}"),
            "wire: offer: field \"free_per_machine\" must hold integers in "
            "[-2147483648, 2147483647]");

  // Every range's ends still decode.
  const net::WireMessage offer = net::ParseWireMessage(
      "{\"type\":\"offer\",\"round\":9000000000000000,\"time\":0,\"lease\":1,"
      "\"gpus\":[0,4294967295,-0],"
      "\"free_per_machine\":[-2147483648,2147483647],\"machine_speeds\":[]}");
  EXPECT_EQ(offer.offer.round_id, 9000000000000000u);
  EXPECT_EQ(offer.offer.gpus,
            (std::vector<GpuId>{0, std::numeric_limits<GpuId>::max(), 0}));
  EXPECT_EQ(offer.offer.free_per_machine,
            (std::vector<int>{std::numeric_limits<int>::min(),
                              std::numeric_limits<int>::max()}));
  const net::WireMessage bid = net::ParseWireMessage(
      "{\"type\":\"bid\",\"round\":0,\"demands\":[{\"app\":4294967295,"
      "\"unmet_gpus\":-2147483648}]}");
  ASSERT_EQ(bid.demands.size(), 1u);
  EXPECT_EQ(bid.demands[0].app, kNoApp);
  EXPECT_EQ(bid.demands[0].unmet_gpus, std::numeric_limits<int>::min());
  const net::WireMessage welcome = net::ParseWireMessage(
      "{\"type\":\"welcome\",\"protocol\":1,\"agent_id\":-9000000000000000,"
      "\"app_ids\":[]}");
  EXPECT_EQ(welcome.agent_id, -9000000000000000);
}

/// `v` with the members of every object in reverse order, and an unknown
/// member holding nested containers up front.
JsonTree Shuffled(const JsonTree& v) {
  if (v.is_array()) {
    JsonTree out = JsonTree::MakeArray();
    for (const JsonTree& item : v.items()) out.Append(Shuffled(item));
    return out;
  }
  if (!v.is_object()) return v;
  JsonTree out = JsonTree::MakeObject();
  JsonTree junk = JsonTree::MakeArray();
  junk.Append(JsonTree::MakeObject());
  junk.Append(v);
  out.Set("zz", std::move(junk));
  const auto& members = v.members();
  for (auto it = members.rbegin(); it != members.rend(); ++it)
    out.Set(it->first, Shuffled(it->second));
  return out;
}

TEST(WireCodec, MemberOrderAndUnknownMembersDoNotMatter) {
  GrantSet grants;
  grants.round_id = 4;
  grants.lease_expiry = 40.5;
  grants.grants.push_back({1, 0, {0, 1, 2, 3}});
  grants.grants.push_back({2, 1, {7}});
  grants.diagnostics = {5, 5, 0, true, 2};
  ResourceOffer offer;
  offer.round_id = 3;
  offer.time = 1.0 / 3.0;
  offer.gpus = {4, 5};
  offer.free_per_machine = {0, 2};
  offer.machine_speeds = {1.0, 0.5};
  const std::string frames[] = {
      net::EncodeHello("a", SampleApps(2)), net::EncodeWelcome(3, {1, 2}),
      net::EncodeOffer(offer),             net::EncodeBid(9, {{2, 8}, {5, 0}}),
      net::EncodeGrant(grants, {2}),       net::EncodeAck(3),
      net::EncodeError("c", "d"),          net::EncodeClose("r")};
  for (const std::string& frame : frames) {
    const std::string shuffled = Shuffled(JsonTree::Parse(frame)).Write();
    EXPECT_EQ(wire_corpus::WireOutcome(shuffled),
              wire_corpus::WireOutcome(frame))
        << shuffled;
  }
}

TEST(WireCodec, TruncatedHelloIsRejectedNotCrashed) {
  const std::string frame = net::EncodeHello("a", SampleApps(1));
  for (std::size_t cut : {frame.size() / 4, frame.size() / 2,
                          frame.size() - 1}) {
    EXPECT_THROW(net::ParseWireMessage(frame.substr(0, cut)), net::WireError)
        << cut;
  }
}

// ---------------------------------------------------------------------------
// WireCodecPins: the codec against fixed bytes instead of against itself.
// ---------------------------------------------------------------------------

TEST(WireCodecPins, EncoderBytesOnEdgeInputs) {
  const double two53 = 9007199254740992.0;
  ResourceOffer offer;
  offer.round_id = std::numeric_limits<std::uint64_t>::max();
  offer.time = -0.0;
  offer.lease_duration = 62.500000000000014;
  offer.gpus = {0, std::numeric_limits<GpuId>::max()};
  offer.free_per_machine = {std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max()};
  offer.machine_speeds = {0.1,   1.0 / 3.0,   1e17,   two53 - 1, two53,
                          two53 + 2, 1e300, 5e-324, -0.0};
  EXPECT_EQ(net::EncodeOffer(offer),
            "{\"type\":\"offer\",\"round\":18446744073709551616,\"time\":-0,"
            "\"lease\":62.500000000000014,\"gpus\":[0,4294967295],"
            "\"free_per_machine\":[-2147483648,2147483647],"
            "\"machine_speeds\":[0.1,0.3333333333333333,1e+17,"
            "9007199254740991,9007199254740992,9007199254740994,1e+300,"
            "5e-324,-0]}");
  EXPECT_EQ(net::EncodeOffer(ResourceOffer{}),
            "{\"type\":\"offer\",\"round\":0,\"time\":0,\"lease\":0,"
            "\"gpus\":[],\"free_per_machine\":[],\"machine_speeds\":[]}");

  GrantSet grants;
  grants.round_id = (std::uint64_t{1} << 53) + 1;  // rounds to 2^53
  grants.lease_expiry = 1.0 / 3.0;
  grants.grants.push_back(
      {kNoApp, kNoJob, {std::numeric_limits<GpuId>::max(), 0}});
  grants.grants.push_back({0, 0, {}});
  grants.diagnostics = {std::numeric_limits<int>::max(), 0, -1, true, 3};
  EXPECT_EQ(net::EncodeGrant(grants, {kNoApp, 0}),
            "{\"type\":\"grant\",\"round\":9007199254740992,"
            "\"lease_expiry\":0.3333333333333333,\"grants\":["
            "{\"app\":4294967295,\"job\":4294967295,\"gpus\":[4294967295,0]},"
            "{\"app\":0,\"job\":0,\"gpus\":[]}],\"diagnostics\":{"
            "\"offered\":2147483647,\"granted\":0,\"leftover\":-1,"
            "\"auction_ran\":true,\"participants\":3},"
            "\"finished_apps\":[4294967295,0]}");
  EXPECT_EQ(net::EncodeGrant(GrantSet{}, {}),
            "{\"type\":\"grant\",\"round\":0,\"lease_expiry\":0,\"grants\":[],"
            "\"diagnostics\":{\"offered\":0,\"granted\":0,\"leftover\":0,"
            "\"auction_ran\":false,\"participants\":0},\"finished_apps\":[]}");

  EXPECT_EQ(net::EncodeBid(std::numeric_limits<std::uint64_t>::max(),
                           {{kNoApp, std::numeric_limits<int>::min()}, {0, 0}}),
            "{\"type\":\"bid\",\"round\":18446744073709551616,\"demands\":["
            "{\"app\":4294967295,\"unmet_gpus\":-2147483648},"
            "{\"app\":0,\"unmet_gpus\":0}]}");
  EXPECT_EQ(net::EncodeBid(0, {}),
            "{\"type\":\"bid\",\"round\":0,\"demands\":[]}");
  EXPECT_EQ(net::EncodeWelcome(std::numeric_limits<std::int64_t>::max(),
                               {kNoApp, 0}),
            "{\"type\":\"welcome\",\"protocol\":1,"
            "\"agent_id\":9223372036854775808,\"app_ids\":[4294967295,0]}");
  EXPECT_EQ(net::EncodeWelcome(std::numeric_limits<std::int64_t>::min(), {}),
            "{\"type\":\"welcome\",\"protocol\":1,"
            "\"agent_id\":-9223372036854775808,\"app_ids\":[]}");
  EXPECT_EQ(net::EncodeAck((std::uint64_t{1} << 53) - 1),
            "{\"type\":\"ack\",\"round\":9007199254740991}");
  EXPECT_EQ(net::EncodeError("", "\x01\"\\\n\t\xc3\xa9"),
            "{\"type\":\"error\",\"code\":\"\","
            "\"detail\":\"\\u0001\\\"\\\\\\n\\t\xc3\xa9\"}");
  EXPECT_EQ(net::EncodeClose(""), "{\"type\":\"close\",\"reason\":\"\"}");
  EXPECT_EQ(net::EncodeHello("", {}),
            "{\"type\":\"hello\",\"agent\":\"\",\"apps\":[]}");

  AppSpec app;
  app.name = "";
  app.arrival = -0.0;
  app.tuner = TunerKind::kHyperDrive;
  app.target_loss = 5e-324;
  JobSpec job;
  job.num_tasks = std::numeric_limits<int>::max();
  job.gpus_per_task = 1;
  job.total_work = 1e300;
  job.total_iterations = 1e17;
  job.loss = LossCurve(0.1, 1.0 / 3.0, 0.0);
  job.model = ModelByName("ResNet50");
  job.max_span = LocalityLevel::kCrossRack;
  app.jobs = {job};
  EXPECT_EQ(net::EncodeHello("agent \"x\"", {app}),
            "{\"type\":\"hello\",\"agent\":\"agent \\\"x\\\"\",\"apps\":[{"
            "\"name\":\"\",\"arrival\":-0,\"tuner\":\"hyperdrive\","
            "\"target_loss\":5e-324,\"jobs\":[{\"num_tasks\":2147483647,"
            "\"gpus_per_task\":1,\"total_work\":1e+300,"
            "\"total_iterations\":1e+17,\"loss_scale\":0.1,"
            "\"loss_decay\":0.3333333333333333,\"loss_floor\":0,"
            "\"model\":\"ResNet50\",\"max_span\":\"cross-rack\"}]}]}");
}

TEST(WireCodecPins, MutationCorpusOutcomesArePinned) {
  const std::vector<std::string> corpus =
      wire_corpus::Corpus(/*seed=*/20261020, /*count=*/60000);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  std::size_t accepted = 0;
  for (const std::string& line : corpus) {
    const std::string outcome = wire_corpus::WireOutcome(line);
    ASSERT_NE(outcome.rfind("LEAK", 0), 0u) << line << " -> " << outcome;
    accepted += outcome.rfind("ok ", 0) == 0;
    for (const char c : outcome + '\n') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
  EXPECT_EQ(accepted, 18080u);
  EXPECT_EQ(hash, 7975845286094317556ull);
}

TEST(GrantDigest, OrderInsensitive) {
  const Grant a{1, 0, {0, 1}};
  const Grant b{2, 1, {5}};
  const Grant c{3, 0, {2, 3, 4}};

  net::GrantDigest fwd, rev;
  fwd.Add(1, 20.0, a);
  fwd.Add(1, 20.0, b);
  fwd.Add(2, 25.0, c);
  rev.Add(2, 25.0, c);
  rev.Add(1, 20.0, b);
  rev.Add(1, 20.0, a);
  EXPECT_TRUE(fwd == rev);
  EXPECT_EQ(fwd.grants, 3);
  EXPECT_EQ(fwd.gpus, 6);

  // Distinct grants do not cancel to the empty digest.
  net::GrantDigest two;
  two.Add(1, 20.0, a);
  two.Add(1, 20.0, b);
  EXPECT_NE(two.hash, 0u);
  // The same grant twice cancels in the XOR but the counters catch it.
  net::GrantDigest dup;
  dup.Add(1, 20.0, a);
  dup.Add(1, 20.0, a);
  EXPECT_EQ(dup.hash, 0u);
  EXPECT_FALSE(dup == net::GrantDigest{});
}

}  // namespace
}  // namespace themis

// A seeded mutation corpus over the wire protocol's frames, for pinning the
// codec's behavior on everything it can be fed (wire_test.cpp's
// WireCodecPins).
//
// Every frame type's encoding is the seed of many mutants:
//   - byte level: flipped bytes, dropped bytes, truncations, inserted
//     whitespace, a string letter rewritten as a \u escape, an exponent
//     (e400, e-400, e17) or fraction pushed into a number, a pasted span;
//   - document level: reordered, dropped, duplicated (the first key wins),
//     renamed and unknown members, values swapped for another type or for a
//     hostile number (fractions, negatives, 2^32, 1e300, 1e400), and values
//     buried in arrays or objects nested around the 64-level bound.
// One frame in five takes two mutations. WireOutcome turns ParseWireMessage's
// answer into one string: the re-encoded message, or the exact error text.
//
// Only raw mt19937_64 output is drawn (the <random> distributions and
// std::shuffle are implementation-defined), so the corpus is the same on
// every platform.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "json_tree.h"
#include "net/wire.h"
#include "placement/model_profile.h"

namespace themis::wire_corpus {

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::size_t Below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }
  bool Percent(int p) { return Below(100) < static_cast<std::size_t>(p); }
  template <class T>
  const T& Pick(const std::vector<T>& xs) {
    return xs[Below(xs.size())];
  }

 private:
  std::mt19937_64 rng_;
};

inline AppSpec CorpusApp(int i, int jobs) {
  static const char* kModels[] = {"VGG16", "ResNet50", "AlexNet",
                                  "Inceptionv3", "VGG19"};
  static const TunerKind kTuners[] = {
      TunerKind::kNone, TunerKind::kHyperBand, TunerKind::kHyperDrive};
  static const LocalityLevel kSpans[] = {
      LocalityLevel::kSlot, LocalityLevel::kMachine, LocalityLevel::kRack,
      LocalityLevel::kCrossRack};
  AppSpec app;
  app.name = "app-" + std::to_string(i) + (i % 3 == 0 ? " \"q\"\t" : "");
  app.arrival = 0.5 * i + 1.0 / 3.0;
  app.tuner = kTuners[i % 3];
  app.target_loss = 0.1 + 0.01 * i;
  for (int j = 0; j < jobs; ++j) {
    JobSpec job;
    job.num_tasks = 1 + (i + j) % 4;
    job.gpus_per_task = 1 << ((i + 2 * j) % 3);
    job.total_work = 60.0 + 7.25 * j + i / 7.0;
    job.total_iterations = 1000.0 + j;
    job.loss = LossCurve(0.1 * (1 + j), 0.6, 0.01 * (j % 2));
    job.model = ModelByName(kModels[(i + j) % 5]);
    job.max_span = kSpans[(i + j) % 4];
    app.jobs.push_back(job);
  }
  return app;
}

/// The seeds: every frame type, small and mid-sized.
inline std::vector<std::string> BaseFrames() {
  std::vector<std::string> frames;
  frames.push_back(net::EncodeHello("agent-0", {CorpusApp(0, 1)}));
  frames.push_back(
      net::EncodeHello("agent-1", {CorpusApp(1, 2), CorpusApp(2, 1)}));
  frames.push_back(net::EncodeWelcome(7, {0, 1, 5}));
  frames.push_back(net::EncodeWelcome(0, {}));
  for (int machines : {1, 3, 8}) {
    ResourceOffer offer;
    offer.round_id = 40 + static_cast<std::uint64_t>(machines);
    offer.time = 62.500000000000014 * machines;
    offer.lease_duration = 10.0;
    for (int m = 0; m < machines; ++m) {
      const int free = m % 3 == 1 ? 0 : 4 - m % 2;
      for (int g = 0; g < free; ++g)
        offer.gpus.push_back(static_cast<GpuId>(4 * m + g));
      offer.free_per_machine.push_back(free);
      offer.machine_speeds.push_back(m % 2 == 0 ? 1.0 : 1.0 / 3.0);
    }
    frames.push_back(net::EncodeOffer(offer));
  }
  frames.push_back(net::EncodeBid(9, {{2, 8}, {5, 0}}));
  frames.push_back(net::EncodeBid(3, {}));
  GrantSet grants;
  grants.round_id = 4;
  grants.lease_expiry = 40.25;
  grants.grants.push_back({1, 0, {0, 1, 2, 3}});
  grants.grants.push_back({2, 1, {7}});
  grants.diagnostics = {5, 5, 0, true, 2};
  frames.push_back(net::EncodeGrant(grants, {2}));
  grants.grants.clear();
  grants.diagnostics = {3, 0, 3, false, 0};
  frames.push_back(net::EncodeGrant(grants, {}));
  frames.push_back(net::EncodeAck(12));
  frames.push_back(net::EncodeError("bad-frame", "wire: \"x\"\n\\ y"));
  frames.push_back(net::EncodeClose("apps finished"));
  return frames;
}

/// A replacement for any value: another type, a hostile number, or the
/// original buried inside nested containers.
inline JsonTree OddValue(const JsonTree& original, Draw& d) {
  static const std::vector<double> kNumbers = {
      -1.0,    0.5,     1.5,           -0.0,         4294967295.0,
      4294967296.0,     -4294967295.0, 2147483648.0, -2147483649.0,
      9e15,    9.1e15,  1e17,          1e300,        5e-324,
      -3.0,    2.0,     0.0,           65536.0,      -1e300};
  switch (d.Below(10)) {
    case 0: return JsonTree::MakeString(d.Percent(50) ? "" : "VGG16");
    case 1: return JsonTree::MakeBool(d.Percent(50));
    case 2: return JsonTree::MakeNull();
    case 3: return JsonTree::MakeArray();
    case 4: return JsonTree::MakeObject();
    case 5: {  // an array of hostile numbers
      JsonTree arr = JsonTree::MakeArray();
      for (std::size_t i = 0, n = 1 + d.Below(3); i < n; ++i)
        arr.Append(JsonTree::MakeNumber(d.Pick(kNumbers)));
      return arr;
    }
    case 6: {  // nested around the 64-level bound
      JsonTree v = original;
      const std::size_t depth = 58 + d.Below(10);
      const bool objects = d.Percent(30);
      for (std::size_t i = 0; i < depth; ++i) {
        JsonTree outer =
            objects ? JsonTree::MakeObject() : JsonTree::MakeArray();
        if (objects) outer.Set("k", std::move(v));
        else outer.Append(std::move(v));
        v = std::move(outer);
      }
      return v;
    }
    default: return JsonTree::MakeNumber(d.Pick(kNumbers));
  }
}

/// Copies `v`, applying one document-level mutation at the `target`-th
/// container child in pre-order (`seen` counts the children walked).
inline JsonTree MutateTree(const JsonTree& v, std::size_t target,
                           std::size_t& seen, Draw& d) {
  if (v.is_array()) {
    JsonTree out = JsonTree::MakeArray();
    for (const JsonTree& item : v.items()) {
      if (seen++ == target) {
        switch (d.Below(4)) {
          case 0: break;  // drop
          case 1:
            out.Append(item);
            out.Append(item);
            break;
          default: out.Append(OddValue(item, d));
        }
        continue;
      }
      out.Append(MutateTree(item, target, seen, d));
    }
    return out;
  }
  if (v.is_object()) {
    std::vector<std::pair<std::string, JsonTree>> members;
    for (const auto& [key, member] : v.members()) {
      if (seen++ != target) {
        members.emplace_back(key, MutateTree(member, target, seen, d));
        continue;
      }
      switch (d.Below(9)) {
        case 0: break;  // drop
        case 1:         // duplicate: the copy after the original loses
          members.emplace_back(key, member);
          members.emplace_back(key, OddValue(member, d));
          break;
        case 2:  // duplicate: the odd copy comes first and wins
          members.emplace_back(key, OddValue(member, d));
          members.emplace_back(key, member);
          break;
        case 3:  // renamed
          members.emplace_back(key + "_", member);
          break;
        case 4:  // an unknown member beside it
          members.emplace_back(key, member);
          members.emplace_back("zz_unknown", OddValue(member, d));
          break;
        case 5:  // moved to the front
          members.insert(members.begin(), {key, member});
          break;
        default: members.emplace_back(key, OddValue(member, d));
      }
    }
    if (d.Percent(10)) {  // reorder the whole object
      for (std::size_t i = members.size(); i > 1; --i)
        std::swap(members[i - 1], members[d.Below(i)]);
    }
    JsonTree out = JsonTree::MakeObject();
    for (auto& [key, member] : members) out.Set(key, std::move(member));
    return out;
  }
  return v;
}

inline std::size_t CountChildren(const JsonTree& v) {
  std::size_t n = 0;
  if (v.is_array()) {
    for (const JsonTree& item : v.items()) n += 1 + CountChildren(item);
  } else if (v.is_object()) {
    for (const auto& member : v.members())
      n += 1 + CountChildren(member.second);
  }
  return n;
}

inline std::string MutateBytes(std::string s, Draw& d) {
  static const std::string kBytes = "0123456789-+.eE\"\\,:{}[] \t\nxtfnu/";
  if (s.empty()) return s;
  const std::size_t at = d.Below(s.size());
  switch (d.Below(7)) {
    case 0:  // flip
      s[at] = d.Percent(80) ? kBytes[d.Below(kBytes.size())]
                            : static_cast<char>(d.Below(256));
      return s;
    case 1: return s.erase(at, 1);
    case 2: return s.substr(0, at);
    case 3: {  // whitespace, valid between tokens and breaking inside them
      static const char kSpace[] = {' ', '\t', '\r', '\n'};
      for (std::size_t i = 0, n = 1 + d.Below(4); i < n; ++i)
        s.insert(d.Below(s.size() + 1), 1, kSpace[d.Below(4)]);
      return s;
    }
    case 4: {  // a letter as a \u escape: the same text inside a string
      for (std::size_t i = 0; i < s.size(); ++i) {
        const std::size_t p = (at + i) % s.size();
        if (s[p] >= 'a' && s[p] <= 'z') {
          static const char kHex[] = "0123456789abcdef";
          const unsigned char c = static_cast<unsigned char>(s[p]);
          return s.substr(0, p) + "\\u00" + kHex[c >> 4] + kHex[c & 15] +
                 s.substr(p + 1);
        }
      }
      return s;
    }
    case 5: {  // an exponent or fraction pushed into a number
      static const std::vector<std::string> kTails = {"e400", "e-400", "e17",
                                                      ".5", "e+2", "0000"};
      for (std::size_t i = 0; i < s.size(); ++i) {
        const std::size_t p = (at + i) % s.size();
        if (s[p] >= '0' && s[p] <= '9') return s.insert(p + 1, d.Pick(kTails));
      }
      return s;
    }
    default: {  // a copy of a random span pasted elsewhere
      const std::size_t len = 1 + d.Below(std::min<std::size_t>(12, s.size()));
      const std::string span = s.substr(at, len);
      s.insert(d.Below(s.size() + 1), span);
      return s;
    }
  }
}

inline std::string Mutate(const std::string& frame, Draw& d) {
  if (d.Percent(45)) return MutateBytes(frame, d);
  const JsonTree doc = JsonTree::Parse(frame);
  std::size_t seen = 0;
  return MutateTree(doc, d.Below(CountChildren(doc)), seen, d).Write();
}

/// `count` frames: each a base frame with one mutation, one in five with
/// two. The unmutated base frames lead the corpus.
inline std::vector<std::string> Corpus(std::uint64_t seed, std::size_t count) {
  Draw d(seed);
  const std::vector<std::string> bases = BaseFrames();
  std::vector<std::string> out(bases.begin(), bases.end());
  while (out.size() < count) {
    std::string frame = Mutate(d.Pick(bases), d);
    if (d.Percent(20)) {
      // A second mutation needs a parseable frame for the tree operators.
      try {
        frame = Mutate(frame, d);
      } catch (const std::exception&) {
        frame = MutateBytes(frame, d);
      }
    }
    out.push_back(std::move(frame));
  }
  return out;
}

/// ParseWireMessage's answer as one string: "ok <type> <re-encoded frame>"
/// or "error <WireError text>". Any other exception is "LEAK <what>", which
/// a well-behaved codec never produces.
inline std::string WireOutcome(const std::string& line) {
  net::WireMessage m;
  try {
    m = net::ParseWireMessage(line);
  } catch (const net::WireError& e) {
    return std::string("error ") + e.what();
  } catch (const std::exception& e) {
    return std::string("LEAK ") + e.what();
  }
  std::string out = std::string("ok ") + net::ToString(m.type) + ' ';
  switch (m.type) {
    case net::MsgType::kHello:
      return out + net::EncodeHello(m.agent_name, m.apps);
    case net::MsgType::kWelcome:
      return out + std::to_string(m.protocol) + ' ' +
             net::EncodeWelcome(m.agent_id, m.app_ids);
    case net::MsgType::kOffer: return out + net::EncodeOffer(m.offer);
    case net::MsgType::kBid: return out + net::EncodeBid(m.round_id, m.demands);
    case net::MsgType::kGrant:
      return out + std::to_string(m.round_id) + ' ' +
             net::EncodeGrant(m.grants, m.finished_apps);
    case net::MsgType::kAck: return out + net::EncodeAck(m.round_id);
    case net::MsgType::kError: return out + net::EncodeError(m.code, m.detail);
    case net::MsgType::kClose: return out + net::EncodeClose(m.reason);
  }
  return out;
}

}  // namespace themis::wire_corpus

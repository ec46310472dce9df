// Tests for the scenario subsystem: JSON reading (common/json.h), scenario
// loading (sim/scenario.h), and the thread-pooled SweepRunner — including
// the load-bearing property that a parallel sweep is bit-identical to
// running each experiment serially.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "common/json.h"
#include "common/knobs.h"
#include "server/arbiter_core.h"
#include "sim/scenario.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace themis {
namespace {

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const std::string text =
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": true, "e": null,
          "nested": {"x": -2e3}})";
  constexpr std::string_view kNames[] = {"a", "b", "c", "d",
                                         "e", "nested", "missing"};
  constexpr std::string_view kNested[] = {"x"};
  JsonReader r(text);
  JsonObject v(r, kNames);
  ASSERT_TRUE(v.is_object());
  // Out of document order: the cursor goes back for a member it passed.
  EXPECT_EQ(v.Find("b")->ReadString(), "text");
  EXPECT_DOUBLE_EQ(v.Find("a")->ReadNumber(), 1.5);
  JsonReader* c = v.Find("c");
  std::vector<double> items;
  c->BeginArray();
  while (c->NextItem()) items.push_back(c->ReadNumber());
  EXPECT_EQ(items, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(v.Find("d")->ReadBool());
  v.Find("e")->ReadNull();
  JsonObject nested(*v.Find("nested"), kNested);
  EXPECT_DOUBLE_EQ(nested.Find("x")->ReadNumber(), -2000.0);
  nested.Close();
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(v.Find("not-a-name"), nullptr);
  v.Close();
  EXPECT_FALSE(v.stray());
  r.ExpectEnd();
}

// The cursor names the first member it passed that is not one of its names
// or repeats one, and reads on: of a repeated member the first counts.
TEST(Json, CursorReportsTheFirstStrayMember) {
  constexpr std::string_view kNames[] = {"a", "b"};
  double a = 0.0;
  auto stray = [&](const std::string& text) {
    JsonReader r(text);
    JsonObject object(r, kNames);
    if (JsonReader* v = object.Find("a")) a = v->ReadNumber();
    object.Close();
    r.ExpectEnd();
    const auto& s = object.stray();
    return s ? (s->repeated ? "repeated " : "unknown ") + s->key : "none";
  };
  EXPECT_EQ(stray(R"({"b": 1, "a": 2})"), "none");
  EXPECT_EQ(a, 2.0);
  EXPECT_EQ(stray(R"({"a": 1, "zz": [{}], "b": 2, "yy": 3})"), "unknown zz");
  EXPECT_EQ(stray(R"({"a": 1, "a": 2})"), "repeated a");
  EXPECT_EQ(a, 1.0);
  EXPECT_EQ(stray(R"({"b": 1, "": 0, "b": 2})"), "unknown ");
  EXPECT_EQ(stray("[1, 2]"), "none");  // not an object: no members
  // The largest knob table fits one cursor.
  TraceConfig trace;
  const KnobTable table = TraceKnobs(trace);
  EXPECT_EQ(table.knobs.size(), 17u);
  EXPECT_LE(table.knobs.size(), JsonObject::kCapacity);
}

TEST(Json, ParsesStringEscapes) {
  JsonReader r(R"("a\"b\\c\n\tA")");
  EXPECT_EQ(r.ReadString(), "a\"b\\c\n\tA");
}

TEST(Json, RejectsMalformedInputWithLineNumbers) {
  for (const char* bad : {"{", "{\"a\": }", "[1, 2,]", "{} trailing"})
    EXPECT_THROW(JsonReader::CheckSyntax(bad), std::runtime_error) << bad;
  try {
    JsonReader::CheckSyntax("{\n\n  \"a\": nope\n}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "json line 3: invalid literal");
  }
}

TEST(Json, EnforcesStrictNumberGrammar) {
  for (const char* bad : {R"({"n": +5})", R"({"n": .5})", R"({"n": 1.})",
                          R"({"n": 1e})", R"({"n": -})"})
    EXPECT_THROW(JsonReader::CheckSyntax(bad), std::runtime_error) << bad;
  EXPECT_DOUBLE_EQ(JsonReader("-0.5e+2").ReadNumber(), -50.0);
  EXPECT_DOUBLE_EQ(JsonReader("0.25").ReadNumber(), 0.25);
}

TEST(Json, TypeMismatchThrows) {
  JsonReader r(R"({"n": 3})");
  try {
    r.Require(JsonReader::Type::kNumber);
    FAIL() << "expected type error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "json: expected number, got object");
  }
  EXPECT_NO_THROW(r.Require(JsonReader::Type::kObject));
}

// ---------------------------------------------------------------------------
// Scenario loading
// ---------------------------------------------------------------------------

TEST(Scenario, LoadsSpecsWithDefaultsMerged) {
  const auto specs = LoadScenarios(R"({
    "defaults": {
      "policy": "themis",
      "cluster": {"racks": 2, "machines_per_rack": 4, "gpus_per_machine": 4,
                  "gpus_per_slot": 2},
      "trace": {"seed": 9, "num_apps": 12},
      "sim": {"seed": 9, "lease_minutes": 10},
      "themis": {"fairness_knob": 0.6}
    },
    "scenarios": [
      {"name": "base"},
      {"name": "gandiva", "policy": "gandiva"},
      {"name": "hot", "trace": {"contention_factor": 4}}
    ]
  })");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "base");
  EXPECT_EQ(specs[0].config.policy, PolicyKind::kThemis);
  EXPECT_EQ(specs[0].config.cluster.TotalGpus(), 32);
  EXPECT_EQ(specs[0].config.trace.num_apps, 12);
  EXPECT_DOUBLE_EQ(specs[0].config.sim.lease_minutes, 10.0);
  EXPECT_DOUBLE_EQ(specs[0].config.themis.fairness_knob, 0.6);
  EXPECT_EQ(specs[1].config.policy, PolicyKind::kGandiva);
  // Scenario overrides layer on top of defaults, not on each other.
  EXPECT_DOUBLE_EQ(specs[2].config.trace.contention_factor, 4.0);
  EXPECT_EQ(specs[2].config.trace.num_apps, 12);
  EXPECT_EQ(specs[2].config.policy, PolicyKind::kThemis);
}

// Members of the top level may stand in any order: defaults and base_seed
// written after "scenarios" still apply to every scenario, and a seed that
// such defaults pin still wins over the derived one.
TEST(Scenario, DefaultsApplyWhereverTheyStand) {
  const auto first = LoadScenarios(R"({
    "base_seed": 42,
    "defaults": {"trace": {"seed": 5, "num_apps": 12},
                 "sim": {"lease_minutes": 10}, "policy": "gandiva"},
    "scenarios": [{"name": "a"}, {"name": "b", "policy": "themis"}]
  })");
  const auto last = LoadScenarios(R"({
    "scenarios": [{"name": "a"}, {"name": "b", "policy": "themis"}],
    "defaults": {"policy": "gandiva", "sim": {"lease_minutes": 10},
                 "trace": {"num_apps": 12, "seed": 5}},
    "base_seed": 42
  })");
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(last.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(last[i].name, first[i].name);
    EXPECT_EQ(last[i].config.policy, first[i].config.policy);
    EXPECT_EQ(last[i].config.trace.num_apps, 12);
    EXPECT_EQ(last[i].config.trace.seed, 5u);
    EXPECT_EQ(last[i].config.sim.seed, DeriveScenarioSeed(42, i));
    EXPECT_EQ(last[i].config.sim.seed, first[i].config.sim.seed);
    EXPECT_DOUBLE_EQ(last[i].config.sim.lease_minutes, 10.0);
  }
  EXPECT_EQ(last[0].config.policy, PolicyKind::kGandiva);
  EXPECT_EQ(last[1].config.policy, PolicyKind::kThemis);
}

// The loader and ArbiterConfig share ThemisConfig::Validate: a knob outside
// [0, 1] (NaN included, which `--knob nan` reaches through atof) or fewer
// than one bid row is rejected before any round runs.
TEST(Scenario, ThemisKnobAndBidRowsAreRangeChecked) {
  auto load = [](const std::string& themis) {
    return LoadScenarios(R"({"scenarios": [{"name": "t", "themis": )" +
                         themis + "}]}");
  };
  EXPECT_NO_THROW(load(R"({"fairness_knob": 0.0, "max_bid_rows": 1})"));
  EXPECT_NO_THROW(load(R"({"fairness_knob": 1.0})"));
  EXPECT_THROW(load(R"({"fairness_knob": 1.5})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"fairness_knob": -0.1})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"max_bid_rows": 0})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"max_bid_rows": -3})"), std::invalid_argument);

  server::ArbiterConfig arbiter;
  EXPECT_NO_THROW(arbiter.Validate());
  for (const double knob : {std::numeric_limits<double>::quiet_NaN(), -1e-9,
                            1.0 + 1e-9, std::numeric_limits<double>::infinity()}) {
    arbiter.themis.fairness_knob = knob;
    EXPECT_THROW(arbiter.Validate(), std::invalid_argument) << knob;
  }
  arbiter.themis.fairness_knob = 0.8;
  arbiter.themis.max_bid_rows = 0;
  EXPECT_THROW(arbiter.Validate(), std::invalid_argument);
}

TEST(Scenario, BaseSeedDerivesPerScenarioSeeds) {
  const auto specs = LoadScenarios(R"({
    "base_seed": 42,
    "scenarios": [
      {"name": "a"},
      {"name": "b"},
      {"name": "pinned", "trace": {"seed": 7}, "sim": {"seed": 7}}
    ]
  })");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].config.trace.seed, DeriveScenarioSeed(42, 0));
  EXPECT_EQ(specs[0].config.sim.seed, DeriveScenarioSeed(42, 0));
  EXPECT_EQ(specs[1].config.trace.seed, DeriveScenarioSeed(42, 1));
  EXPECT_NE(specs[0].config.trace.seed, specs[1].config.trace.seed);
  // Explicit per-scenario seeds win over the derived default.
  EXPECT_EQ(specs[2].config.trace.seed, 7u);
  EXPECT_EQ(specs[2].config.sim.seed, 7u);
  // Seeds pinned in defaults also win.
  const auto pinned = LoadScenarios(R"({
    "base_seed": 42,
    "defaults": {"trace": {"seed": 5}},
    "scenarios": [{"name": "a"}, {"name": "b"}]
  })");
  EXPECT_EQ(pinned[0].config.trace.seed, 5u);
  EXPECT_EQ(pinned[1].config.trace.seed, 5u);
  EXPECT_EQ(pinned[0].config.sim.seed, DeriveScenarioSeed(42, 0));
  // A trace/sim object that sets other knobs but no seed must not disturb
  // the derived 64-bit seed (a double round-trip would truncate it).
  const auto partial = LoadScenarios(R"({
    "base_seed": 42,
    "scenarios": [{"name": "a", "sim": {"lease_minutes": 5},
                   "trace": {"num_apps": 3}}]
  })");
  EXPECT_EQ(partial[0].config.sim.seed, DeriveScenarioSeed(42, 0));
  EXPECT_EQ(partial[0].config.trace.seed, DeriveScenarioSeed(42, 0));
}

TEST(Scenario, PresetClustersResolve) {
  const auto specs = LoadScenarios(R"({
    "scenarios": [
      {"name": "a", "cluster": {"preset": "sim256"}},
      {"name": "b", "cluster": {"preset": "testbed50"}},
      {"name": "c", "cluster": {"preset": "sim256-mixed"}},
      {"name": "d", "cluster": {"preset": "testbed50-mixed"}}
    ]
  })");
  EXPECT_EQ(specs[0].config.cluster.TotalGpus(), 256);
  EXPECT_EQ(specs[1].config.cluster.TotalGpus(), 50);
  EXPECT_EQ(specs[2].config.cluster.TotalGpus(), 256);
  EXPECT_GT(specs[2].config.cluster.TotalEffectiveGpus(), 256.0);
  EXPECT_EQ(specs[3].config.cluster.TotalGpus(), 50);
  EXPECT_GT(specs[3].config.cluster.TotalEffectiveGpus(), 50.0);
}

TEST(Scenario, GenerationTableAppliesPerRackOrWholeCluster) {
  const auto specs = LoadScenarios(R"({
    "scenarios": [
      {"name": "whole", "cluster": {"racks": 2, "machines_per_rack": 2,
        "gpus_per_machine": 2, "generations": "V100"}},
      {"name": "per-rack", "cluster": {"racks": 2, "machines_per_rack": 2,
        "gpus_per_machine": 2, "generations": ["K80", "A100"]}},
      {"name": "preset", "cluster": {"preset": "sim256",
        "generations": ["K80", "V100", "V100", "A100"]}}
    ]
  })");
  for (const RackSpec& rack : specs[0].config.cluster.racks)
    for (const MachineSpec& m : rack.machines)
      EXPECT_EQ(m.generation.name, "V100");
  EXPECT_EQ(specs[1].config.cluster.racks[0].machines[0].generation.name,
            "K80");
  EXPECT_EQ(specs[1].config.cluster.racks[1].machines[1].generation.name,
            "A100");
  EXPECT_DOUBLE_EQ(specs[1].config.cluster.TotalEffectiveGpus(),
                   4.0 * 1.0 + 4.0 * 6.0);
  // "generations" composes with "preset" (it re-prices, not reshapes).
  EXPECT_EQ(specs[2].config.cluster.TotalGpus(), 256);
  EXPECT_EQ(specs[2].config.cluster.racks[3].machines[0].generation.name,
            "A100");
}

TEST(Scenario, UnknownGenerationFailsWithPointedError) {
  try {
    LoadScenarios(R"({"scenarios": [{"name": "a",
      "cluster": {"racks": 2, "machines_per_rack": 1,
                  "generations": ["K80", "H100"]}}]})");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("generations[1]"), std::string::npos) << what;
    EXPECT_NE(what.find("H100"), std::string::npos) << what;
    EXPECT_NE(what.find("known generations"), std::string::npos) << what;
  }
}

TEST(Scenario, GenerationTableLengthMustMatchRacks) {
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [{"name": "a",
      "cluster": {"racks": 3, "machines_per_rack": 1,
                  "generations": ["K80", "V100"]}}]})"),
               std::runtime_error);
  // A single unknown name (the whole-cluster form) is just as fatal.
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [{"name": "a",
      "cluster": {"racks": 1, "machines_per_rack": 1,
                  "generations": "TPU"}}]})"),
               std::runtime_error);
}

TEST(Scenario, UnknownKeysFailLoudly) {
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [{"name": "a", "polcy": "drf"}]})"),
               std::runtime_error);
  EXPECT_THROW(
      LoadScenarios(R"({"scenarios": [{"name": "a", "sim": {"lease": 5}}]})"),
      std::runtime_error);
  EXPECT_THROW(LoadScenarios(R"({"scenarios": []})"), std::runtime_error);
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [{"name": "a",
      "policy": "nope"}]})"), std::runtime_error);
}

TEST(Scenario, RejectsInvalidSeedsAndPresetDimensionMix) {
  // Negative / fractional seeds would be UB or lossy as uint64 casts.
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "trace": {"seed": -1}}]})"), std::runtime_error);
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "sim": {"seed": 1.5}}]})"), std::runtime_error);
  EXPECT_THROW(LoadScenarios(R"({"base_seed": -3, "scenarios": [
      {"name": "a"}]})"), std::runtime_error);
  // "preset" with explicit dimensions would silently drop the dimensions.
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "cluster": {"preset": "sim256", "racks": 8}}]})"),
               std::runtime_error);
  // Same for a replayed CSV combined with trace-generation knobs.
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "trace_csv": "t.csv", "trace": {"num_apps": 5}}]})"),
               std::runtime_error);
  // Duplicate keys would silently shadow the later value.
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "sim": {"lease_minutes": 5, "lease_minutes": 50}}]})"),
               std::runtime_error);
  // Out-of-int-range knobs would be UB to cast.
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "trace": {"num_apps": 3e9}}]})"), std::runtime_error);
}

TEST(Scenario, InvalidSimConfigRejectedAtLoadTime) {
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "sim": {"lease_minutes": 0}}]})"),
               std::invalid_argument);
  EXPECT_THROW(LoadScenarios(R"({"scenarios": [
      {"name": "a", "sim": {"restart_overhead_minutes": -1}}]})"),
               std::invalid_argument);
}

// One fault per document; each rejection's exact text and exception type.
// A scenario author reads these texts to find the fault, so any change to
// one shows here.
TEST(Scenario, ScenarioErrorPins) {
  struct Pin {
    std::string document;
    std::string what;
    const std::type_info& type = typeid(std::runtime_error);
  };
  // The document with `member` added to its one scenario.
  auto in_scenario = [](const std::string& member) {
    return R"({"scenarios": [{"name": "a", )" + member + "}]}";
  };
  const Pin pins[] = {
      {R"({"engine": "x", "scenarios": [{"name": "a"}]})",
       "unknown key \"engine\" in document"},
      {in_scenario(R"("polcy": "drf")"), "unknown key \"polcy\" in scenario"},
      {in_scenario(R"("sim": {"lease": 5})"), "unknown key \"lease\" in sim"},
      {in_scenario(R"("sim": {"lease_minutes": 5, "lease_minutes": 50})"),
       "duplicate key \"lease_minutes\" in sim"},
      {in_scenario(R"("themis": {"short_app_tiebreak": 1})"),
       "themis.short_app_tiebreak: json: expected bool, got number"},
      {in_scenario(R"("sim": {"lease_minutes": "5"})"),
       "sim.lease_minutes: json: expected number, got string"},
      {in_scenario(R"("policy": 3)"),
       "scenario.policy: json: expected string, got number"},
      {in_scenario(R"("sim": 5)"), "json: expected object, got number"},
      {in_scenario(R"("trace": {"num_apps": 2.5})"),
       "trace.num_apps: expected int, got 2.5"},
      {in_scenario(R"("trace": {"seed": -1})"),
       "trace.seed: expected uint, got -1"},
      {in_scenario(R"("trace": {"num_apps": 3e9})"),
       "trace.num_apps: expected int, got 3000000000"},
      {R"({"base_seed": -3, "scenarios": [{"name": "a"}]})",
       "document.base_seed: expected uint, got -3"},
      {in_scenario(R"("cluster": {"preset": "sim256", "racks": 8})"),
       "scenario: cluster: \"preset\" cannot be combined with explicit "
       "dimensions"},
      {in_scenario(R"("cluster": {"preset": "sim512"})"),
       "scenario: unknown cluster preset: sim512"},
      {in_scenario(R"("trace_csv": "t.csv", "trace": {"num_apps": 5})"),
       "scenario: \"trace_csv\" cannot be combined with \"trace\" knobs"},
      {in_scenario(R"("trace_file": "t.csv", "trace": {"num_apps": 5})"),
       "scenario: \"trace_file\" cannot be combined with \"trace\" knobs"},
      {in_scenario(R"("trace_file": "t.csv", "trace_csv": "t.csv")"),
       "scenario: \"trace_file\" (streamed) and \"trace_csv\" (preloaded) "
       "are mutually exclusive"},
      {R"({"defaults": {"name": "x"}, "scenarios": [{"name": "a"}]})",
       "scenario: \"name\" is per-scenario, not a default"},
      {R"({"base_seed": 1})", "scenario: missing \"scenarios\" array"},
      {R"({"scenarios": []})", "scenario: \"scenarios\" array is empty"},
      {R"({"scenarios": {}})", "json: expected array, got object"},
      {R"({"scenarios": [3]})", "json: expected object, got number"},
      {R"([{"name": "a"}])", "scenario: top level must be an object"},
      {"{\n  \"scenarios\": [\n    {\"name\": nope}]}",
       "json line 3: invalid literal"},
      // The syntax error wins over the unknown key ahead of it.
      {"{\"scenarios\": [{\"name\": \"a\", \"polcy\": 1}],\n\"x\": [1,]}",
       "json line 2: invalid value"},
      {in_scenario(R"("cluster": {"racks": 3, "machines_per_rack": 1,
                                  "generations": ["K80", "V100"]})"),
       "scenario: cluster.generations lists 2 generations for 3 racks (give "
       "one per rack, or a single name for the whole cluster)"},
      {in_scenario(R"("cluster": {"racks": 2, "machines_per_rack": 1,
                                  "generations": ["K80", "H100"]})"),
       "scenario: cluster.generations[1]: unknown GPU generation \"H100\" "
       "(known generations: K80, M60, P100, V100, A100)"},
      {in_scenario(R"("sim": {"lease_minutes": 0})"),
       "SimConfig: lease_minutes must be > 0 (got 0.000000)",
       typeid(std::invalid_argument)},
  };
  for (const Pin& pin : pins) {
    try {
      LoadScenarios(pin.document);
      ADD_FAILURE() << "accepted: " << pin.document;
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()), pin.what) << pin.document;
      EXPECT_EQ(typeid(e), pin.type) << pin.document;
    }
  }
}

// ---------------------------------------------------------------------------
// Knob tables
// ---------------------------------------------------------------------------

TEST(Knobs, NumbersParseWholeTokensOnly) {
  EXPECT_EQ(ParseNumber<int>("42"), 42);
  EXPECT_EQ(ParseNumber<int>("-7"), -7);
  for (const char* bad : {"", "abc", "1x", " 1", "1 ", "+1", "1.5", "1e3",
                          "0x10", "2147483648"})
    EXPECT_FALSE(ParseNumber<int>(bad)) << bad;
  EXPECT_EQ(ParseNumber<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(ParseNumber<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(ParseNumber<std::uint64_t>("-1"));
  EXPECT_EQ(ParseNumber<double>("0.6"), 0.6);
  EXPECT_EQ(ParseNumber<double>("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "0.5 ", "1,5"})
    EXPECT_FALSE(ParseNumber<double>(bad)) << bad;
}

TEST(Knobs, HostPortNeedsAPortInRange) {
  const std::optional<HostPort> hp = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(hp);
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 8080);
  EXPECT_EQ(ParseHostPort(":9")->host, "");
  for (const char* bad : {"127.0.0.1", "127.0.0.1:", "127.0.0.1:80x",
                          "h:0", "h:65536", "h:-1", "h: 80"})
    EXPECT_FALSE(ParseHostPort(bad)) << bad;
}

TEST(Knobs, FlagSetRefusesWhatItCannotParse) {
  int count = 0;
  bool on = false;
  FlagSet flags;
  flags.Add(Knob::Field("", "--count", &count, "a count"));
  flags.Add(Knob::Field("", "--on", &on, "a switch"));
  auto parse = [&](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return flags.Parse(static_cast<int>(args.size()), args.data());
  };
  EXPECT_EQ(parse({"--count", "3", "--on"}), "");
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(on);
  EXPECT_EQ(flags.given(), (std::vector<std::string>{"--count", "--on"}));
  EXPECT_EQ(parse({"--cont", "3"}), "unknown flag: --cont");
  EXPECT_EQ(parse({"--count"}), "--count: missing value");
  EXPECT_EQ(parse({"--count", "3.5"}), "--count: expected int, got \"3.5\"");
  EXPECT_EQ(parse({"file.json"}), "unexpected argument: file.json");
  EXPECT_EQ(count, 3);
  const std::string help = flags.Help("prog");
  EXPECT_NE(help.find("--count <int>"), std::string::npos) << help;
  EXPECT_NE(help.find("--on "), std::string::npos) << help;
  // Selecting a key the table lacks is a programming error.
  TraceConfig trace;
  EXPECT_THROW(flags.Add(TraceKnobs(trace), {"num_ap"}), std::logic_error);
  EXPECT_THROW(flags.Add(TraceKnobs(trace), {"jobs_per_app_max"}),
               std::logic_error);  // no flag
}

// Validate() is the one home of the range checks, and every check fails on
// NaN (a flag can spell "nan"; from_chars accepts it).
TEST(Knobs, ValidateRejectsNaNInEveryRangeCheckedField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double SimConfig::*field :
       {&SimConfig::lease_minutes, &SimConfig::restart_overhead_minutes,
        &SimConfig::max_time, &SimConfig::machine_mtbf_minutes,
        &SimConfig::arrival_lookahead_minutes,
        &SimConfig::auction_epsilon_minutes,
        &SimConfig::metrics_tick_minutes}) {
    SimConfig sim;
    EXPECT_NO_THROW(sim.Validate());
    sim.*field = nan;
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  SimConfig sim;
  sim.machine_mtbf_minutes = 100.0;
  sim.machine_repair_minutes = nan;
  EXPECT_THROW(sim.Validate(), std::invalid_argument);
  for (double server::ArbiterConfig::*field :
       {&server::ArbiterConfig::lease_minutes,
        &server::ArbiterConfig::round_interval_minutes,
        &server::ArbiterConfig::restart_overhead_minutes}) {
    server::ArbiterConfig arbiter;
    EXPECT_NO_THROW(arbiter.Validate());
    arbiter.*field = nan;
    EXPECT_THROW(arbiter.Validate(), std::invalid_argument);
  }
}

/// Every scalar of the configs the knob tables set, as raw bytes.
std::string ConfigBits(const ExperimentConfig& c) {
  std::string bits;
  auto add = [&bits](const auto& v) {
    bits.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const TraceConfig& t = c.trace;
  add(t.seed), add(t.num_apps), add(t.mean_interarrival),
      add(t.contention_factor), add(t.burst_size), add(t.burst_gap_minutes),
      add(t.jobs_per_app_median), add(t.jobs_per_app_sigma),
      add(t.jobs_per_app_min), add(t.jobs_per_app_max),
      add(t.short_duration_median), add(t.long_duration_median),
      add(t.duration_sigma), add(t.frac_long), add(t.duration_scale),
      add(t.frac_four_gpu_tasks), add(t.tasks_per_job),
      add(t.frac_network_intensive), add(t.target_loss), add(t.min_decay),
      add(t.max_decay), add(t.iters_per_minute);
  const SimConfig& s = c.sim;
  add(s.lease_minutes), add(s.restart_overhead_minutes), add(s.max_time),
      add(s.estimator.mode), add(s.estimator.theta), add(s.estimator.seed),
      add(s.seed), add(s.machine_mtbf_minutes), add(s.machine_repair_minutes),
      add(s.retire_finished_apps), add(s.arrival_lookahead_minutes),
      add(s.metrics.bounded_memory), add(s.auction_epsilon_minutes),
      add(s.metrics_tick_minutes);
  const ThemisConfig& th = c.themis;
  add(th.fairness_knob), add(th.max_bid_rows), add(th.short_app_tiebreak),
      add(th.auction_threads);
  add(c.policy);
  return bits;
}

// Walks the tables: every knob with both a JSON key and a flag must set the
// same field to the same bits through LoadScenarios and through FlagSet,
// and both forms must reject "abc", "1x" and "".
TEST(Knobs, JsonAndFlagFormsSetTheSameBits) {
  struct Home {
    const char* object;  // nullptr: a key of the scenario object itself
    std::function<KnobTable(ExperimentConfig&)> table;
  };
  const Home homes[] = {
      {"trace", [](ExperimentConfig& c) { return TraceKnobs(c.trace); }},
      {"sim", [](ExperimentConfig& c) { return SimKnobs(c.sim); }},
      {"themis", [](ExperimentConfig& c) { return ThemisKnobs(c.themis); }},
      {nullptr,
       [](ExperimentConfig& c) {
         return KnobTable{"scenario", {PolicyKnob(&c.policy)}};
       }},
  };
  int walked = 0;
  for (const Home& home : homes) {
    ExperimentConfig probe;
    const KnobTable table = home.table(probe);
    for (const Knob& knob : table.knobs) {
      if (knob.key.empty() || knob.flag.empty()) continue;
      ++walked;
      auto load = [&](const std::string& json_value) {
        std::string member = "\"" + knob.key + "\": " + json_value;
        if (home.object != nullptr)
          member = "\"" + std::string(home.object) + "\": {" + member + "}";
        return LoadScenarios(R"({"scenarios": [{"name": "t", )" + member +
                             "}]}")
            .at(0)
            .config;
      };
      auto parse = [&](const std::string& token, ExperimentConfig& out) {
        FlagSet flags;
        flags.Add(home.table(out), {knob.key});
        const char* argv[] = {"test", knob.flag.c_str(), token.c_str()};
        return flags.Parse(3, argv);
      };
      // The one string knob with both forms is "policy".
      const bool is_string = knob.type == "string";
      const std::string token =
          is_string ? "drf" : knob.type == "number" ? "0.625" : "3";
      const ExperimentConfig from_json =
          load(is_string ? "\"" + token + "\"" : token);
      ExperimentConfig from_flag;
      ASSERT_EQ(parse(token, from_flag), "") << knob.flag;
      EXPECT_EQ(ConfigBits(from_json), ConfigBits(from_flag)) << knob.key;
      EXPECT_NE(ConfigBits(from_flag), ConfigBits(ExperimentConfig{}))
          << knob.flag << " set nothing";
      for (const std::string bad : {"abc", "1x", ""}) {
        EXPECT_THROW(load("\"" + bad + "\""), std::runtime_error)
            << knob.key << " = \"" << bad << "\"";
        ExperimentConfig ignored;
        EXPECT_NE(parse(bad, ignored), "") << knob.flag << " " << bad;
      }
    }
  }
  EXPECT_EQ(walked, 12);
}

// ---------------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------------

ExperimentConfig SmallConfig(PolicyKind policy, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.cluster = ClusterSpec::Uniform(2, 4, 4, 2);
  cfg.policy = policy;
  cfg.trace.seed = seed;
  cfg.trace.num_apps = 8;
  cfg.trace.jobs_per_app_median = 4.0;
  cfg.trace.jobs_per_app_max = 8;
  cfg.sim.seed = seed;
  cfg.sim.lease_minutes = 10.0;
  return cfg;
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly) {
  std::vector<ScenarioSpec> specs;
  for (PolicyKind policy : {PolicyKind::kThemis, PolicyKind::kGandiva,
                            PolicyKind::kTiresias, PolicyKind::kSlaq,
                            PolicyKind::kDrf})
    for (std::uint64_t seed : {11ULL, 12ULL})
      specs.push_back({std::string(ToString(policy)), SmallConfig(policy, seed),
                       "", ""});

  const auto parallel = SweepRunner(/*num_threads=*/4).Run(specs);
  const auto serial = SweepRunner(/*num_threads=*/1).Run(specs);
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(parallel[i].result.rhos, serial[i].result.rhos) << specs[i].name;
    EXPECT_EQ(parallel[i].result.completion_times,
              serial[i].result.completion_times);
    EXPECT_DOUBLE_EQ(parallel[i].result.gpu_time, serial[i].result.gpu_time);
    // And against a direct serial RunExperiment call.
    const ExperimentResult direct = RunExperiment(specs[i].config);
    EXPECT_EQ(parallel[i].result.rhos, direct.rhos);
  }
}

TEST(SweepRunner, FailedScenarioReportsErrorWithoutKillingSweep) {
  std::vector<ScenarioSpec> specs;
  specs.push_back({"ok", SmallConfig(PolicyKind::kThemis, 5), "", ""});
  ScenarioSpec bad{"bad", SmallConfig(PolicyKind::kThemis, 5), "", ""};
  bad.trace_csv = "/nonexistent/trace.csv";
  specs.push_back(bad);
  const auto runs = SweepRunner(2).Run(specs);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_TRUE(runs[0].ok);
  EXPECT_FALSE(runs[1].ok);
  EXPECT_FALSE(runs[1].error.empty());
}

TEST(SweepRunner, ReplaysArchivedCsvTrace) {
  // Archive a generated trace, then sweep a scenario replaying it; results
  // must match generating from the same config directly.
  ExperimentConfig cfg = SmallConfig(PolicyKind::kThemis, 21);
  TraceGenerator gen(cfg.trace);
  const std::string path = ::testing::TempDir() + "/scenario_trace.csv";
  WriteTraceCsvFile(path, gen.Generate());

  ScenarioSpec spec{"replay", cfg, path, ""};
  const auto runs = SweepRunner(1).Run({spec});
  ASSERT_TRUE(runs[0].ok) << runs[0].error;
  const ExperimentResult direct = RunExperiment(cfg);
  EXPECT_EQ(runs[0].result.rhos, direct.rhos);
  std::remove(path.c_str());
}

TEST(SweepRunner, DeriveScenarioSeedIsStableAndDecorrelated) {
  EXPECT_EQ(DeriveScenarioSeed(42, 0), DeriveScenarioSeed(42, 0));
  EXPECT_NE(DeriveScenarioSeed(42, 0), DeriveScenarioSeed(42, 1));
  EXPECT_NE(DeriveScenarioSeed(42, 0), DeriveScenarioSeed(43, 0));
}

TEST(SweepRunner, PolicySeedGridNamesAndSeedsScenarios) {
  const auto specs = PolicySeedGrid(SmallConfig(PolicyKind::kThemis, 0),
                                    {PolicyKind::kThemis, PolicyKind::kDrf},
                                    {7, 8});
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "Themis/seed7");
  EXPECT_EQ(specs[3].name, "DRF/seed8");
  EXPECT_EQ(specs[3].config.policy, PolicyKind::kDrf);
  EXPECT_EQ(specs[3].config.trace.seed, 8u);
  EXPECT_EQ(specs[3].config.sim.seed, 8u);
}

TEST(SweepCsv, OneRowPerRunWithHeaderAndQuoting) {
  ScenarioRun ok;
  ok.name = "themis,f=0.8";  // comma forces quoting
  ok.ok = true;
  ok.result.policy_name = "Themis";
  ok.result.max_fairness = 2.5;
  ok.result.unfinished_apps = 0;
  ok.result.scheduling_passes = 17;
  ScenarioRun failed;
  failed.name = "bad";
  failed.error = "boom \"quoted\"";

  const std::string csv = SweepCsv({ok, failed});
  std::vector<std::string> lines;
  for (std::size_t pos = 0, next; pos < csv.size(); pos = next + 1) {
    next = csv.find('\n', pos);
    lines.push_back(csv.substr(pos, next - pos));
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "name,policy,ok,max_rho,median_rho,min_rho,jain,avg_act_min,"
            "gpu_time_min,peak_contention,unfinished,machine_failures,"
            "scheduling_passes,error");
  EXPECT_EQ(lines[1].substr(0, 27), "\"themis,f=0.8\",Themis,1,2.5");
  EXPECT_NE(lines[1].find(",17,"), std::string::npos);
  EXPECT_NE(lines[2].find("\"boom \"\"quoted\"\"\""), std::string::npos);
  EXPECT_EQ(lines[2].substr(0, 7), "bad,,0,");
}

// Numbers are printf "%.17g" in the C locale: 17 significant digits, which
// read back to the same double; integers are plain decimal.
TEST(SweepCsv, NumbersArePrintf17g) {
  ScenarioRun run;
  run.name = "edge";
  run.ok = true;
  run.result.policy_name = "Themis";
  run.result.max_fairness = 0.1;
  run.result.median_fairness = 1.0 / 3.0;
  run.result.min_fairness = 5e-324;
  run.result.jains_index = 1.0;
  run.result.avg_completion_time = 1e300;
  run.result.gpu_time = 12345678.0;
  run.result.peak_contention = 1e-5;
  run.result.unfinished_apps = 2;
  run.result.machine_failures = 1234567;
  run.result.scheduling_passes = 17;
  const std::string csv = SweepCsv({run});
  EXPECT_EQ(csv.substr(csv.find('\n') + 1),
            "edge,Themis,1,0.10000000000000001,0.33333333333333331,"
            "4.9406564584124654e-324,1,1.0000000000000001e+300,12345678,"
            "1.0000000000000001e-05,2,1234567,17,\n");
}

TEST(SweepCsv, WritesScenarioGridResultsToDisk) {
  const auto specs = PolicySeedGrid(SmallConfig(PolicyKind::kThemis, 3),
                                    {PolicyKind::kThemis, PolicyKind::kDrf},
                                    {3});
  const auto runs = SweepRunner(2).Run(specs);
  const std::string path = ::testing::TempDir() + "/sweep_results.csv";
  WriteSweepCsv(path, runs);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 1 + runs.size());  // header + one row per scenario
  std::remove(path.c_str());
}

}  // namespace
}  // namespace themis

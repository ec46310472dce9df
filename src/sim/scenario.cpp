#include "sim/scenario.h"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "common/json.h"

namespace themis {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

/// Every object in a scenario file is checked against its legal key set so a
/// typo'd knob fails the load instead of silently running the default, and
/// duplicate keys are rejected (lookups return the first occurrence, so a
/// duplicate would silently shadow the later value).
void CheckKeys(const JsonValue& obj, const char* where,
               std::initializer_list<const char*> allowed) {
  const auto& members = obj.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string& key = members[i].first;
    bool ok = false;
    for (const char* a : allowed) ok = ok || key == a;
    if (!ok) Fail(std::string("unknown key \"") + key + "\" in " + where);
    for (std::size_t j = 0; j < i; ++j)
      if (members[j].first == key)
        Fail(std::string("duplicate key \"") + key + "\" in " + where);
  }
}

/// Seeds are 64-bit and must not round-trip through negative or fractional
/// doubles (the cast would be UB or lossy); fail on anything but a
/// non-negative integer.
std::uint64_t SeedFromJson(const JsonValue& v, const char* where) {
  const double d = v.AsNumber();
  if (d < 0.0 || d != std::floor(d) || d >= 1.8446744073709552e19)
    Fail(std::string(where) + " seed must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

/// Integer knob with the same guard: a double outside int range would make
/// the cast UB, turning a typo'd magnitude into silent nonsense instead of
/// the loader's promised error.
int IntKnob(const JsonValue& obj, const char* key, int fallback,
            const char* where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  const double d = v->AsNumber();
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0)
    Fail(std::string(where) + "." + key + " must be an integer in int range");
  return static_cast<int>(d);
}

/// Resolve one generation name from the scenario's generation table against
/// the known-generation registry, failing with the loader's pointed error
/// (which generation, where, and what would be accepted) instead of a bare
/// exception — the unknown-keys-fatal contract applied to generation names.
GpuGeneration GenerationFromJson(const JsonValue& v, const std::string& where) {
  try {
    return GpuGenerationByName(v.AsString());
  } catch (const std::invalid_argument& e) {
    Fail(where + ": " + e.what());
  }
}

/// Apply the cluster object's "generations" table: a single name for the
/// whole cluster, or an array with exactly one name per rack.
void ApplyGenerations(const JsonValue& generations, ClusterSpec& spec) {
  if (generations.is_array()) {
    const std::size_t racks = spec.racks.size();
    if (generations.items().size() != racks)
      Fail("cluster.generations lists " +
           std::to_string(generations.items().size()) +
           " generations for " + std::to_string(racks) +
           " racks (give one per rack, or a single name for the whole "
           "cluster)");
    for (std::size_t r = 0; r < racks; ++r) {
      const GpuGeneration gen = GenerationFromJson(
          generations.items()[r], "cluster.generations[" + std::to_string(r) +
                                      "]");
      for (MachineSpec& m : spec.racks[r].machines) m.generation = gen;
    }
    return;
  }
  const GpuGeneration gen =
      GenerationFromJson(generations, "cluster.generations");
  for (RackSpec& rack : spec.racks)
    for (MachineSpec& m : rack.machines) m.generation = gen;
}

ClusterSpec ClusterFromJson(const JsonValue& v) {
  CheckKeys(v, "cluster",
            {"preset", "racks", "machines_per_rack", "gpus_per_machine",
             "gpus_per_slot", "generations"});
  ClusterSpec spec;
  if (const JsonValue* preset = v.Find("preset")) {
    // "generations" re-prices a preset's machines without changing its
    // shape, so it is the one key allowed alongside "preset".
    if (v.members().size() > (v.Find("generations") != nullptr ? 2u : 1u))
      Fail("cluster: \"preset\" cannot be combined with explicit "
           "dimensions");
    const std::string& name = preset->AsString();
    if (name == "sim256") spec = ClusterSpec::Simulation256();
    else if (name == "sim256-mixed") spec = ClusterSpec::Simulation256Mixed();
    else if (name == "testbed50") spec = ClusterSpec::Testbed50();
    else if (name == "testbed50-mixed") spec = ClusterSpec::Testbed50Mixed();
    else Fail("unknown cluster preset: " + name);
  } else {
    const int racks = IntKnob(v, "racks", 1, "cluster");
    const int machines = IntKnob(v, "machines_per_rack", 1, "cluster");
    const int gpus = IntKnob(v, "gpus_per_machine", 4, "cluster");
    const int slot = IntKnob(v, "gpus_per_slot", gpus % 2 == 0 ? 2 : 1,
                             "cluster");
    if (racks <= 0 || machines <= 0 || gpus <= 0 || slot <= 0)
      Fail("cluster dimensions must be positive");
    spec = ClusterSpec::Uniform(racks, machines, gpus, slot);
  }
  if (const JsonValue* generations = v.Find("generations"))
    ApplyGenerations(*generations, spec);
  return spec;
}

void ApplyTrace(const JsonValue& v, TraceConfig& trace) {
  CheckKeys(v, "trace",
            {"seed", "num_apps", "mean_interarrival", "contention_factor",
             "jobs_per_app_median", "jobs_per_app_sigma", "jobs_per_app_min",
             "jobs_per_app_max", "short_duration_median",
             "long_duration_median", "duration_sigma", "frac_long",
             "duration_scale", "frac_four_gpu_tasks", "tasks_per_job",
             "frac_network_intensive", "target_loss"});
  // Assign only when present: routing the default through a double would
  // truncate 64-bit derived seeds (base_seed path) to 53 bits.
  if (const JsonValue* seed = v.Find("seed"))
    trace.seed = SeedFromJson(*seed, "trace");
  trace.num_apps = IntKnob(v, "num_apps", trace.num_apps, "trace");
  trace.mean_interarrival =
      v.NumberOr("mean_interarrival", trace.mean_interarrival);
  trace.contention_factor =
      v.NumberOr("contention_factor", trace.contention_factor);
  trace.jobs_per_app_median =
      v.NumberOr("jobs_per_app_median", trace.jobs_per_app_median);
  trace.jobs_per_app_sigma =
      v.NumberOr("jobs_per_app_sigma", trace.jobs_per_app_sigma);
  trace.jobs_per_app_min =
      IntKnob(v, "jobs_per_app_min", trace.jobs_per_app_min, "trace");
  trace.jobs_per_app_max =
      IntKnob(v, "jobs_per_app_max", trace.jobs_per_app_max, "trace");
  trace.short_duration_median =
      v.NumberOr("short_duration_median", trace.short_duration_median);
  trace.long_duration_median =
      v.NumberOr("long_duration_median", trace.long_duration_median);
  trace.duration_sigma = v.NumberOr("duration_sigma", trace.duration_sigma);
  trace.frac_long = v.NumberOr("frac_long", trace.frac_long);
  trace.duration_scale = v.NumberOr("duration_scale", trace.duration_scale);
  trace.frac_four_gpu_tasks =
      v.NumberOr("frac_four_gpu_tasks", trace.frac_four_gpu_tasks);
  trace.tasks_per_job = IntKnob(v, "tasks_per_job", trace.tasks_per_job,
                                "trace");
  trace.frac_network_intensive =
      v.NumberOr("frac_network_intensive", trace.frac_network_intensive);
  trace.target_loss = v.NumberOr("target_loss", trace.target_loss);
}

void ApplySim(const JsonValue& v, SimConfig& sim) {
  CheckKeys(v, "sim",
            {"seed", "lease_minutes", "restart_overhead_minutes", "max_time",
             "machine_mtbf_minutes", "machine_repair_minutes", "theta",
             "auction_epsilon_minutes", "metrics_tick_minutes"});
  sim.auction_epsilon_minutes =
      v.NumberOr("auction_epsilon_minutes", sim.auction_epsilon_minutes);
  sim.metrics_tick_minutes =
      v.NumberOr("metrics_tick_minutes", sim.metrics_tick_minutes);
  // See ApplyTrace: never round-trip the default seed through a double.
  if (const JsonValue* seed = v.Find("seed"))
    sim.seed = SeedFromJson(*seed, "sim");
  sim.lease_minutes = v.NumberOr("lease_minutes", sim.lease_minutes);
  sim.restart_overhead_minutes =
      v.NumberOr("restart_overhead_minutes", sim.restart_overhead_minutes);
  sim.max_time = v.NumberOr("max_time", sim.max_time);
  sim.machine_mtbf_minutes =
      v.NumberOr("machine_mtbf_minutes", sim.machine_mtbf_minutes);
  sim.machine_repair_minutes =
      v.NumberOr("machine_repair_minutes", sim.machine_repair_minutes);
  if (const JsonValue* theta = v.Find("theta")) {
    sim.estimator.theta = theta->AsNumber();
    if (sim.estimator.theta > 0.0) sim.estimator.mode = EstimationMode::kNoisy;
  }
  sim.Validate();
}

void ApplyThemis(const JsonValue& v, ThemisConfig& themis) {
  CheckKeys(v, "themis",
            {"fairness_knob", "max_bid_rows", "short_app_tiebreak",
             "auction_threads"});
  themis.fairness_knob = v.NumberOr("fairness_knob", themis.fairness_knob);
  themis.max_bid_rows = IntKnob(v, "max_bid_rows", themis.max_bid_rows,
                                "themis");
  themis.short_app_tiebreak =
      v.BoolOr("short_app_tiebreak", themis.short_app_tiebreak);
  themis.auction_threads =
      IntKnob(v, "auction_threads", themis.auction_threads, "themis");
  themis.Validate();
}

void ApplyScenarioObject(const JsonValue& v, ScenarioSpec& spec) {
  CheckKeys(v, "scenario",
            {"name", "policy", "cluster", "trace", "trace_csv", "trace_file",
             "sim", "themis"});
  // A replayed CSV fixes the workload, so trace-generation knobs alongside
  // it would be silently ignored — reject the mix (same rule as cluster
  // preset + dimensions). "trace_file" is the streamed replay of the same
  // format, so the same rule applies, and the two replay forms are mutually
  // exclusive.
  if (v.Find("trace_csv") != nullptr && v.Find("trace") != nullptr)
    Fail("\"trace_csv\" cannot be combined with \"trace\" knobs");
  if (v.Find("trace_file") != nullptr && v.Find("trace") != nullptr)
    Fail("\"trace_file\" cannot be combined with \"trace\" knobs");
  if (v.Find("trace_file") != nullptr && v.Find("trace_csv") != nullptr)
    Fail("\"trace_file\" (streamed) and \"trace_csv\" (preloaded) are "
         "mutually exclusive");
  if (const JsonValue* policy = v.Find("policy"))
    spec.config.policy = PolicyKindFromString(policy->AsString());
  if (const JsonValue* cluster = v.Find("cluster"))
    spec.config.cluster = ClusterFromJson(*cluster);
  if (const JsonValue* trace = v.Find("trace"))
    ApplyTrace(*trace, spec.config.trace);
  if (const JsonValue* csv = v.Find("trace_csv")) spec.trace_csv = csv->AsString();
  if (const JsonValue* file = v.Find("trace_file"))
    spec.trace_file = file->AsString();
  if (const JsonValue* sim = v.Find("sim")) ApplySim(*sim, spec.config.sim);
  if (const JsonValue* themis = v.Find("themis"))
    ApplyThemis(*themis, spec.config.themis);
}

}  // namespace

ScenarioSpec ScenarioFromJson(const JsonValue& scenario,
                              const ExperimentConfig& base) {
  ScenarioSpec spec;
  spec.config = base;
  ApplyScenarioObject(scenario, spec);
  spec.name = scenario.StringOr("name", ToString(spec.config.policy));
  return spec;
}

std::vector<ScenarioSpec> LoadScenarios(const std::string& json_text) {
  const JsonValue doc = JsonValue::Parse(json_text);
  if (!doc.is_object()) Fail("top level must be an object");
  CheckKeys(doc, "document", {"base_seed", "defaults", "scenarios"});

  ScenarioSpec base_spec;
  if (const JsonValue* defaults = doc.Find("defaults")) {
    ApplyScenarioObject(*defaults, base_spec);
    if (defaults->Find("name") != nullptr)
      Fail("\"name\" is per-scenario, not a default");
  }

  const JsonValue* scenarios = doc.Find("scenarios");
  if (scenarios == nullptr) Fail("missing \"scenarios\" array");

  // Optional "base_seed": scenarios that do not pin a seed themselves get a
  // position-derived one — decorrelated across the grid, reproducible
  // across runs. Seeds pinned in "defaults" or per scenario always win.
  const JsonValue* base_seed = doc.Find("base_seed");
  const JsonValue* defaults = doc.Find("defaults");
  const bool trace_seed_pinned =
      defaults && defaults->Find("trace") &&
      defaults->Find("trace")->Find("seed") != nullptr;
  const bool sim_seed_pinned = defaults && defaults->Find("sim") &&
                               defaults->Find("sim")->Find("seed") != nullptr;

  std::vector<ScenarioSpec> out;
  out.reserve(scenarios->items().size());
  for (const JsonValue& entry : scenarios->items()) {
    ExperimentConfig config = base_spec.config;
    if (base_seed != nullptr) {
      const std::uint64_t seed = DeriveScenarioSeed(
          SeedFromJson(*base_seed, "base_seed"), out.size());
      if (!trace_seed_pinned) config.trace.seed = seed;
      if (!sim_seed_pinned) config.sim.seed = seed;
    }
    ScenarioSpec spec = ScenarioFromJson(entry, config);
    // A scenario that names its own replay source overrides the defaults';
    // otherwise it inherits whichever form (preloaded or streamed) the
    // defaults chose. ApplyScenarioObject already rejects setting both.
    if (spec.trace_csv.empty() && spec.trace_file.empty()) {
      spec.trace_csv = base_spec.trace_csv;
      spec.trace_file = base_spec.trace_file;
    }
    out.push_back(std::move(spec));
  }
  if (out.empty()) Fail("\"scenarios\" array is empty");
  return out;
}

std::vector<ScenarioSpec> LoadScenariosFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scenario: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadScenarios(buf.str());
}

}  // namespace themis

#include "sim/scenario.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/json.h"

namespace themis {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

/// Apply the cluster object's "generations" table: a single name for the
/// whole cluster, or an array with exactly one name per rack. An unknown
/// name fails the load, naming where it stood and the known generations.
void ApplyGenerations(const JsonValue& generations, ClusterSpec& spec) {
  const bool per_rack = generations.is_array();
  if (per_rack && generations.items().size() != spec.racks.size())
    Fail("cluster.generations lists " +
         std::to_string(generations.items().size()) + " generations for " +
         std::to_string(spec.racks.size()) +
         " racks (give one per rack, or a single name for the whole "
         "cluster)");
  for (std::size_t r = 0; r < spec.racks.size(); ++r) {
    const JsonValue& name = per_rack ? generations.items()[r] : generations;
    try {
      const GpuGeneration gen = GpuGenerationByName(name.AsString());
      for (MachineSpec& m : spec.racks[r].machines) m.generation = gen;
    } catch (const std::invalid_argument& e) {
      Fail("cluster.generations" +
           (per_rack ? "[" + std::to_string(r) + "]" : std::string()) + ": " +
           e.what());
    }
  }
}

ClusterSpec ClusterFromJson(const JsonValue& v) {
  std::optional<std::string> preset;
  int racks = 1, machines = 1, gpus = 4;
  std::optional<int> slot;
  const JsonValue* generations = nullptr;
  ApplyJson(v, {"cluster", {
      Knob::Setter<std::string>("preset", "", "a preset cluster's name",
                                [&](std::string name) { preset = name; }),
      Knob::Field("racks", "", &racks, "racks (uniform shape)"),
      Knob::Field("machines_per_rack", "", &machines, "machines per rack"),
      Knob::Field("gpus_per_machine", "", &gpus, "GPUs per machine"),
      Knob::Setter<int>("gpus_per_slot", "", "GPUs per NVLink slot",
                        [&](int s) { slot = s; }),
      Knob::Object("generations", "one GPU generation, or one per rack",
                   [&](const JsonValue& g) { generations = &g; })}});
  ClusterSpec spec;
  if (preset) {
    // "generations" re-prices a preset's machines without changing its
    // shape, so it is the one key allowed alongside "preset".
    if (v.members().size() > (generations != nullptr ? 2u : 1u))
      Fail("cluster: \"preset\" cannot be combined with explicit "
           "dimensions");
    std::optional<ClusterSpec> named = ClusterSpec::Preset(*preset);
    if (!named) Fail("unknown cluster preset: " + *preset);
    spec = std::move(*named);
  } else {
    const int slot_gpus = slot.value_or(gpus % 2 == 0 ? 2 : 1);
    if (racks <= 0 || machines <= 0 || gpus <= 0 || slot_gpus <= 0)
      Fail("cluster dimensions must be positive");
    spec = ClusterSpec::Uniform(racks, machines, gpus, slot_gpus);
  }
  if (generations != nullptr) ApplyGenerations(*generations, spec);
  return spec;
}

void ApplyScenarioObject(const JsonValue& v, ScenarioSpec& spec) {
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
  ExperimentConfig& config = spec.config;
  ApplyJson(v, {"scenario", {
      Knob::Field("name", "", &spec.name, "default: the policy's name"),
      PolicyKnob(&config.policy),
      Knob::Object("cluster", "a preset or a uniform shape",
                   [&](const JsonValue& c) {
                     config.cluster = ClusterFromJson(c);
                   }),
      Knob::Object("trace", "trace generator knobs", [&](const JsonValue& t) {
        ApplyJson(t, TraceKnobs(config.trace));
      }),
      Knob::Field("trace_csv", "", &spec.trace_csv, "preload this trace CSV"),
      Knob::Field("trace_file", "", &spec.trace_file,
                  "stream this arrival-sorted trace CSV"),
      Knob::Object("sim", "simulator knobs", [&](const JsonValue& s) {
        ApplyJson(s, SimKnobs(config.sim));
        config.sim.Validate();
      }),
      Knob::Object("themis", "Themis policy knobs", [&](const JsonValue& t) {
        ApplyJson(t, ThemisKnobs(config.themis));
        config.themis.Validate();
      })}});
}

}  // namespace

KnobTable TraceKnobs(TraceConfig& t) {
  return {"trace", {
      Knob::Field("seed", "--seed", &t.seed, "trace generator seed"),
      Knob::Field("num_apps", "--apps", &t.num_apps, "apps to generate"),
      Knob::Field("mean_interarrival", "--interarrival", &t.mean_interarrival,
                  "mean inter-arrival, minutes"),
      Knob::Field("contention_factor", "--contention", &t.contention_factor,
                  "arrival compression factor"),
      Knob::Field("jobs_per_app_median", "", &t.jobs_per_app_median,
                  "median jobs per app"),
      Knob::Field("jobs_per_app_sigma", "", &t.jobs_per_app_sigma,
                  "lognormal sigma of jobs per app"),
      Knob::Field("jobs_per_app_min", "", &t.jobs_per_app_min, "fewest jobs"),
      Knob::Field("jobs_per_app_max", "", &t.jobs_per_app_max, "most jobs"),
      Knob::Field("short_duration_median", "", &t.short_duration_median,
                  "median short task, minutes"),
      Knob::Field("long_duration_median", "", &t.long_duration_median,
                  "median long task, minutes"),
      Knob::Field("duration_sigma", "", &t.duration_sigma,
                  "lognormal sigma of task durations"),
      Knob::Field("frac_long", "", &t.frac_long, "share of long tasks"),
      Knob::Field("duration_scale", "", &t.duration_scale,
                  "multiplier on every duration"),
      Knob::Field("frac_four_gpu_tasks", "", &t.frac_four_gpu_tasks,
                  "share of 4-GPU tasks; the rest take 2"),
      Knob::Field("tasks_per_job", "", &t.tasks_per_job, "tasks per job"),
      Knob::Field("frac_network_intensive", "--sensitive",
                  &t.frac_network_intensive, "share of placement-bound apps"),
      Knob::Field("target_loss", "", &t.target_loss, "convergence loss")}};
}

KnobTable SimKnobs(SimConfig& s) {
  return {"sim", {
      Knob::Field("seed", "", &s.seed, "simulator seed"),
      Knob::Field("lease_minutes", "--lease", &s.lease_minutes,
                  "GPU lease, minutes"),
      Knob::Field("restart_overhead_minutes", "", &s.restart_overhead_minutes,
                  "stall when a job's gang changes, minutes"),
      Knob::Field("max_time", "", &s.max_time, "time limit, minutes"),
      Knob::Field("machine_mtbf_minutes", "--mtbf", &s.machine_mtbf_minutes,
                  "mean time between machine failures (0: none)"),
      Knob::Field("machine_repair_minutes", "", &s.machine_repair_minutes,
                  "machine repair time, minutes"),
      Knob::Setter<double>("theta", "--theta",
                           "work-estimate error bound (> 0: noisy)",
                           [&s](double theta) {
                             s.estimator.theta = theta;
                             if (theta > 0.0)
                               s.estimator.mode = EstimationMode::kNoisy;
                           }),
      Knob::Field("auction_epsilon_minutes", "--epsilon",
                  &s.auction_epsilon_minutes,
                  "batch lease expiries this close, minutes"),
      Knob::Field("metrics_tick_minutes", "", &s.metrics_tick_minutes,
                  "timeline sampling period (0: off)")}};
}

KnobTable ThemisKnobs(ThemisConfig& t) {
  return {"themis", {
      Knob::Field("fairness_knob", "--knob", &t.fairness_knob,
                  "fairness knob f: the worst 1-f of apps bid"),
      Knob::Field("max_bid_rows", "", &t.max_bid_rows,
                  "most non-zero rows per bid"),
      Knob::Field("short_app_tiebreak", "", &t.short_app_tiebreak,
                  "break rho ties toward shorter apps"),
      Knob::Field("auction_threads", "--round-threads", &t.auction_threads,
                  "threads for the rho probe and bid prep")}};
}

Knob PolicyKnob(PolicyKind* policy) {
  return Knob::Setter<std::string>(
      "policy", "--policy", "themis, gandiva, tiresias, slaq or drf",
      [policy](const std::string& name) {
        *policy = PolicyKindFromString(name);
      });
}

Knob ClusterFlag(ClusterSpec* cluster) {
  Knob knob = Knob::Setter<std::string>(
      "cluster", "--cluster",
      "sim256, sim256-mixed, testbed50, testbed50-mixed or RxMxG (2x4x4)",
      [cluster](const std::string& name) {
        *cluster = ClusterSpec::FromName(name);
      });
  knob.from_json = nullptr;
  return knob;
}

std::vector<ScenarioSpec> LoadScenarios(const std::string& json_text) {
  const JsonValue doc = JsonValue::Parse(json_text);
  if (!doc.is_object()) Fail("top level must be an object");
  std::optional<std::uint64_t> base_seed;
  const JsonValue* defaults = nullptr;
  const JsonValue* scenarios = nullptr;
  ApplyJson(doc, {"document", {
      Knob::Setter<std::uint64_t>("base_seed", "", "seed unpinned scenarios",
                                  [&](std::uint64_t s) { base_seed = s; }),
      Knob::Object("defaults", "merged under every scenario",
                   [&](const JsonValue& d) { defaults = &d; }),
      Knob::Object("scenarios", "the scenario objects",
                   [&](const JsonValue& s) { scenarios = &s; })}});

  ScenarioSpec base_spec;
  if (defaults != nullptr) {
    ApplyScenarioObject(*defaults, base_spec);
    if (defaults->Find("name") != nullptr)
      Fail("\"name\" is per-scenario, not a default");
  }
  if (scenarios == nullptr) Fail("missing \"scenarios\" array");

  // Optional "base_seed": scenarios that do not pin a seed themselves get a
  // position-derived one — decorrelated across the grid, reproducible
  // across runs. Seeds pinned in "defaults" or per scenario always win.
  const bool trace_seed_pinned =
      defaults && defaults->Find("trace") &&
      defaults->Find("trace")->Find("seed") != nullptr;
  const bool sim_seed_pinned = defaults && defaults->Find("sim") &&
                               defaults->Find("sim")->Find("seed") != nullptr;

  std::vector<ScenarioSpec> out;
  out.reserve(scenarios->items().size());
  for (const JsonValue& entry : scenarios->items()) {
    ScenarioSpec spec;
    spec.config = base_spec.config;
    if (base_seed) {
      const std::uint64_t seed = DeriveScenarioSeed(*base_seed, out.size());
      if (!trace_seed_pinned) spec.config.trace.seed = seed;
      if (!sim_seed_pinned) spec.config.sim.seed = seed;
    }
    ApplyScenarioObject(entry, spec);
    if (entry.Find("name") == nullptr) spec.name = ToString(spec.config.policy);
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

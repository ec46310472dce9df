#include "sim/scenario.h"

#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/json.h"

namespace themis {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("scenario: " + what);
}

/// Where the value of `key` starts in the object at `at`, if it has one.
/// Reads a copy of `r`, so `r` stays where it is.
std::optional<std::size_t> Locate(JsonReader r, std::size_t at,
                                  std::string_view key) {
  r.Seek(at);
  JsonObject object(r, std::span(&key, 1));
  if (object.Find(key) == nullptr) return std::nullopt;
  return r.offset();
}

/// Apply the cluster object's "generations" table at `g`: a single name for
/// the whole cluster, or an array with exactly one name per rack. An
/// unknown name fails the load, naming where it stood and the known
/// generations.
void ApplyGenerations(JsonReader& g, ClusterSpec& spec) {
  const bool per_rack = g.Peek() == JsonReader::Type::kArray;
  std::vector<std::string> names;
  if (per_rack) {
    g.BeginArray();
    while (g.NextItem()) names.push_back(FromJson<std::string>(g));
  } else {
    names.push_back(FromJson<std::string>(g));
  }
  if (per_rack && names.size() != spec.racks.size())
    Fail("cluster.generations lists " + std::to_string(names.size()) +
         " generations for " + std::to_string(spec.racks.size()) +
         " racks (give one per rack, or a single name for the whole "
         "cluster)");
  for (std::size_t r = 0; r < spec.racks.size(); ++r) {
    try {
      const GpuGeneration gen = GpuGenerationByName(names[per_rack ? r : 0]);
      for (MachineSpec& m : spec.racks[r].machines) m.generation = gen;
    } catch (const std::invalid_argument& e) {
      Fail("cluster.generations" +
           (per_rack ? "[" + std::to_string(r) + "]" : std::string()) + ": " +
           e.what());
    }
  }
}

ClusterSpec ClusterFromJson(JsonReader& r) {
  const std::size_t at = r.offset();
  std::optional<std::string> preset;
  int racks = 1, machines = 1, gpus = 4;
  std::optional<int> slot;
  std::optional<JsonReader> generations;  // at the "generations" value
  ApplyJson(r, {"cluster", {
      Knob::Setter<std::string>("preset", "", "a preset cluster's name",
                                [&](std::string name) { preset = name; }),
      Knob::Field("racks", "", &racks, "racks (uniform shape)"),
      Knob::Field("machines_per_rack", "", &machines, "machines per rack"),
      Knob::Field("gpus_per_machine", "", &gpus, "GPUs per machine"),
      Knob::Setter<int>("gpus_per_slot", "", "GPUs per NVLink slot",
                        [&](int s) { slot = s; }),
      Knob::Object("generations", "one GPU generation, or one per rack",
                   [&](JsonReader& g) {
                     generations = g;
                     g.Skip();
                   })}});
  ClusterSpec spec;
  if (preset) {
    // "generations" re-prices a preset's machines without changing its
    // shape, so it is the one key allowed alongside "preset".
    for (std::string_view dimension : {"racks", "machines_per_rack",
                                       "gpus_per_machine", "gpus_per_slot"})
      if (Locate(r, at, dimension))
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
  if (generations) ApplyGenerations(*generations, spec);
  return spec;
}

/// Apply the scenario object at `r`. Returns whether it names itself.
bool ApplyScenarioObject(JsonReader& r, ScenarioSpec& spec) {
  const std::size_t at = r.offset();
  auto has = [&](std::string_view key) {
    return Locate(r, at, key).has_value();
  };
  // A replayed CSV fixes the workload, so trace-generation knobs alongside
  // it would be silently ignored — reject the mix (same rule as cluster
  // preset + dimensions). "trace_file" is the streamed replay of the same
  // format, so the same rule applies, and the two replay forms are mutually
  // exclusive.
  if (has("trace_csv") && has("trace"))
    Fail("\"trace_csv\" cannot be combined with \"trace\" knobs");
  if (has("trace_file") && has("trace"))
    Fail("\"trace_file\" cannot be combined with \"trace\" knobs");
  if (has("trace_file") && has("trace_csv"))
    Fail("\"trace_file\" (streamed) and \"trace_csv\" (preloaded) are "
         "mutually exclusive");
  ExperimentConfig& config = spec.config;
  ApplyJson(r, {"scenario", {
      Knob::Field("name", "", &spec.name, "default: the policy's name"),
      PolicyKnob(&config.policy),
      Knob::Object("cluster", "a preset or a uniform shape",
                   [&](JsonReader& c) { config.cluster = ClusterFromJson(c); }),
      Knob::Object("trace", "trace generator knobs", [&](JsonReader& t) {
        ApplyJson(t, TraceKnobs(config.trace));
      }),
      Knob::Field("trace_csv", "", &spec.trace_csv, "preload this trace CSV"),
      Knob::Field("trace_file", "", &spec.trace_file,
                  "stream this arrival-sorted trace CSV"),
      Knob::Object("sim", "simulator knobs", [&](JsonReader& s) {
        ApplyJson(s, SimKnobs(config.sim));
        config.sim.Validate();
      }),
      Knob::Object("themis", "Themis policy knobs", [&](JsonReader& t) {
        ApplyJson(t, ThemisKnobs(config.themis));
        config.themis.Validate();
      })}});
  return has("name");
}

/// Whether the defaults object at `defaults` pins a seed in its `table`.
bool PinsSeed(const JsonReader& r, std::size_t defaults,
              std::string_view table) {
  const std::optional<std::size_t> object = Locate(r, defaults, table);
  return object && Locate(r, *object, "seed");
}

std::vector<ScenarioSpec> ReadScenarios(JsonReader& r) {
  if (r.Peek() != JsonReader::Type::kObject)
    Fail("top level must be an object");
  std::optional<std::uint64_t> base_seed;
  std::optional<JsonReader> defaults, scenarios;  // at their values
  ApplyJson(r, {"document", {
      Knob::Setter<std::uint64_t>("base_seed", "", "seed unpinned scenarios",
                                  [&](std::uint64_t s) { base_seed = s; }),
      Knob::Object("defaults", "merged under every scenario",
                   [&](JsonReader& d) {
                     defaults = d;
                     d.Skip();
                   }),
      Knob::Object("scenarios", "the scenario objects", [&](JsonReader& s) {
        scenarios = s;
        s.Skip();
      })}});
  r.ExpectEnd();

  // Optional "base_seed": scenarios that do not pin a seed themselves get a
  // position-derived one — decorrelated across the grid, reproducible
  // across runs. Seeds pinned in "defaults" or per scenario always win.
  ScenarioSpec base_spec;
  bool trace_seed_pinned = false, sim_seed_pinned = false;
  if (defaults) {
    const std::size_t at = defaults->offset();
    if (ApplyScenarioObject(*defaults, base_spec))
      Fail("\"name\" is per-scenario, not a default");
    trace_seed_pinned = PinsSeed(*defaults, at, "trace");
    sim_seed_pinned = PinsSeed(*defaults, at, "sim");
  }
  if (!scenarios) Fail("missing \"scenarios\" array");

  std::vector<ScenarioSpec> out;
  scenarios->Require(JsonReader::Type::kArray);
  scenarios->BeginArray();
  while (scenarios->NextItem()) {
    ScenarioSpec spec;
    spec.config = base_spec.config;
    if (base_seed) {
      const std::uint64_t seed = DeriveScenarioSeed(*base_seed, out.size());
      if (!trace_seed_pinned) spec.config.trace.seed = seed;
      if (!sim_seed_pinned) spec.config.sim.seed = seed;
    }
    if (!ApplyScenarioObject(*scenarios, spec))
      spec.name = ToString(spec.config.policy);
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
  try {
    JsonReader r(json_text);
    return ReadScenarios(r);
  } catch (const std::exception&) {
    JsonReader::CheckSyntax(json_text);
    throw;
  }
}

std::vector<ScenarioSpec> LoadScenariosFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("scenario: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadScenarios(buf.str());
}

}  // namespace themis

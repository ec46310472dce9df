// JSON scenario files -> ScenarioSpec lists for the SweepRunner.
//
// A scenario file describes a grid of experiments declaratively, so bench
// sweeps can be archived, edited by hand, and replayed — the same workflow
// workload/trace_io gives individual traces (a scenario may reference one of
// those CSV archives via "trace_csv"). Shape:
//
//   {
//     "defaults":  { "policy": "themis", "sim": {"lease_minutes": 10} },
//     "scenarios": [
//       { "name": "themis-base" },
//       { "name": "gandiva-base", "policy": "gandiva" },
//       { "name": "big",
//         "cluster": { "racks": 8, "machines_per_rack": 64,
//                      "gpus_per_machine": 8, "gpus_per_slot": 4 },
//         "trace":   { "seed": 7, "num_apps": 200, "contention_factor": 4 },
//         "themis":  { "fairness_knob": 0.6 } }
//     ]
//   }
//
// "defaults" (optional) is merged under every scenario. "cluster" accepts
// either {"preset": "sim256" | "sim256-mixed" | "testbed50" |
// "testbed50-mixed"} or the uniform shape above, plus an optional
// "generations" table — a single GPU-generation name for the whole cluster
// or an array naming one generation per rack (resolved against the built-in
// table, see cluster/topology.h; unknown names are fatal, like unknown
// keys). "generations" is the one key that composes with "preset": it
// re-prices the preset's machines without changing its shape.
// A top-level "base_seed" gives every scenario a position-derived seed
// (DeriveScenarioSeed) unless a seed is pinned in "defaults" or the
// scenario itself — grids stay reproducible without hand-numbering seeds.
// "trace_csv" replays an archived trace and cannot be combined with
// "trace" knobs in the same object (the knobs would be silently ignored);
// a scenario-level "trace_csv" does override trace settings inherited from
// "defaults". "trace_file" streams the same CSV format instead of
// preloading it (arrival-sorted input required; finished apps are retired
// eagerly — the million-job replay path) and is mutually exclusive with
// both "trace_csv" and "trace" knobs.
// Unknown keys anywhere are an error — scenario files fail loudly, not by
// silently ignoring a typo'd knob.
//
// The keys of "trace", "sim" and "themis" are the knob tables below
// (common/knobs.h), which also carry the command-line flag a binary uses
// for the same field: `--knob F` and `"themis": {"fairness_knob": F}` are
// one declaration.
#pragma once

#include <string>
#include <vector>

#include "common/knobs.h"
#include "sim/experiment.h"

namespace themis {

/// The knobs of the "trace", "sim" and "themis" objects, bound to a config.
KnobTable TraceKnobs(TraceConfig& trace);
KnobTable SimKnobs(SimConfig& sim);
KnobTable ThemisKnobs(ThemisConfig& themis);

/// The scenario key "policy" and the --policy flag.
Knob PolicyKnob(PolicyKind* policy);

/// The --cluster flag: a name for ClusterSpec::FromName. It has no JSON
/// form; a scenario spells its cluster as an object.
Knob ClusterFlag(ClusterSpec* cluster);

/// Parse scenario JSON text. Throws std::runtime_error (with a json line
/// number where applicable) on malformed documents or unknown fields.
std::vector<ScenarioSpec> LoadScenarios(const std::string& json_text);

/// Load and parse a scenario file.
std::vector<ScenarioSpec> LoadScenariosFile(const std::string& path);

}  // namespace themis

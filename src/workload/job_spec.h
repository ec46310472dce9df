// Static descriptions of ML apps and their constituent jobs (Sec. 2.1).
//
// An *app* is one user's hyper-parameter exploration: n closely related
// training jobs differing in learning rate / momentum / etc. Each job is a
// gang of tasks performing synchronous SGD; all of a job's tasks must be
// scheduled together, and the job can use up to num_tasks * gpus_per_task
// GPUs (its maximum parallelism, G_ideal in the paper).
#pragma once

#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/types.h"
#include "placement/model_profile.h"
#include "workload/loss_curve.h"

namespace themis {

struct JobSpec {
  /// Upper limit on data-parallel tasks (Sec. 5.2 step 5).
  int num_tasks = 1;
  /// GPUs demanded by each task; allocations are granted in multiples of
  /// this (gang scheduling).
  int gpus_per_task = 4;
  /// Serial work to reach the target accuracy, in GPU-minutes at S = 1.
  Work total_work = 60.0;
  /// Convergence trajectory; drives HyperBand/HyperDrive kill decisions and
  /// SLAQ's quality bids. total_work corresponds to the curve reaching the
  /// app's target loss.
  LossCurve loss;
  /// Model architecture; selects the placement-sensitivity profile.
  ModelProfile model;

  /// Placement constraint (Sec. 6): the widest topology span this job
  /// tolerates, e.g. kMachine for models whose GPU-memory layout demands
  /// machine-local gangs. Allocations spanning beyond it have S = 0 — the
  /// paper's "valuation table entries for bids containing placement
  /// constraint-violating resource allocations would have infinite rho".
  /// Default: unconstrained.
  LocalityLevel max_span = LocalityLevel::kCrossRack;

  int MaxParallelism() const { return num_tasks * gpus_per_task; }

  /// Work expressed as iterations: iterations are a linear reparameterization
  /// of work (one iteration == total_work / total_iterations GPU-minutes).
  double total_iterations = 1000.0;
  Work WorkPerIteration() const { return total_work / total_iterations; }
};

enum class TunerKind {
  kNone,       // single-job app with known hyper-parameters
  kHyperBand,  // successive halving (Li et al.)
  kHyperDrive, // good/promising/poor classification (Rasley et al.)
};

struct AppSpec {
  std::string name;
  Time arrival = 0.0;
  TunerKind tuner = TunerKind::kHyperBand;
  /// Target loss shared by all jobs in the app: the first job to reach it is
  /// the "best model" that defines the app's finish time.
  double target_loss = 0.1;
  std::vector<JobSpec> jobs;

  /// Ideal running time T_ID (Sec. 5.2 step 5): the fastest constituent job
  /// running at maximum parallelism with perfect placement.
  Time IdealRunningTime() const;

  /// Largest single-job parallelism in the app.
  int MaxJobParallelism() const;
};

/// Progress rate of `job` on `gpus`: |gpus| * S * min-generation-speed
/// (the gang paces on its slowest GPU), or 0 when the set spans a topology
/// boundary beyond the job's placement constraint.
double EffectiveJobRate(const JobSpec& job, const std::vector<GpuId>& gpus,
                        const Topology& topo);

}  // namespace themis

// Figure 4a: "Variation of Fairness with f" — min / median / max finish-time
// fairness across apps as the fairness knob f sweeps [0, 1] on the 256-GPU
// simulated cluster.
//
// Paper shape: max fairness decreases with f (diminishing returns past
// ~0.8); the min-max spread narrows; the median rises slightly because the
// objective is min-max, not median.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace themis;
  using namespace themis::bench;

  BenchReport report("fig04a_fairness_knob");
  report.Config("cluster", "sim256");
  report.Config("contention_factor", 4.0);
  report.Config("trace_seeds", 5.0);

  std::printf("=== Figure 4a: finish-time fairness vs fairness knob f ===\n");
  std::printf("(mean of 5 trace seeds, 256-GPU simulated cluster)\n");
  std::printf("%6s %10s %10s %10s\n", "f", "min_rho", "median_rho", "max_rho");

  // The f x seed grid is one parallel sweep; results come back in input
  // order, so the per-f averages below aggregate the same runs in the same
  // order as the old nested serial loops.
  const double knobs[] = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  const int kSeeds = 5;
  std::vector<ScenarioSpec> specs;
  for (double f : knobs) {
    for (std::uint64_t seed = 42; seed < 42 + kSeeds; ++seed) {
      char name[48];
      std::snprintf(name, sizeof name, "f%.1f/seed%llu", f,
                    static_cast<unsigned long long>(seed));
      ScenarioSpec spec;
      spec.name = name;
      spec.config = ContendedSimConfig(PolicyKind::kThemis, seed);
      spec.config.themis.fairness_knob = f;
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<ScenarioRun> runs = SweepRunner().Run(specs);

  for (std::size_t ki = 0; ki < std::size(knobs); ++ki) {
    const double f = knobs[ki];
    double mn = 0.0, med = 0.0, mx = 0.0;
    for (int s = 0; s < kSeeds; ++s) {
      const ExperimentResult& r = RequireOk(runs[ki * kSeeds + s]);
      mn += r.min_fairness / kSeeds;
      med += r.median_fairness / kSeeds;
      mx += r.max_fairness / kSeeds;
    }
    std::printf("%6.1f %10.2f %10.2f %10.2f\n", f, mn, med, mx);
    char key[48];
    std::snprintf(key, sizeof key, "min_rho@f=%.1f", f);
    report.Metric(key, mn);
    std::snprintf(key, sizeof key, "median_rho@f=%.1f", f);
    report.Metric(key, med);
    std::snprintf(key, sizeof key, "max_rho@f=%.1f", f);
    report.Metric(key, mx);
  }
  std::printf("\npaper reference: max fairness falls as f grows, spread"
              " narrows, diminishing returns past f=0.8\n");
  std::printf("deviation note: our exact product-objective solver plus\n"
              "work-conserving leftovers track finish-time fairness tightly\n"
              "at every f, so the f-dependence is flatter than the paper's\n"
              "(see ROADMAP.md, open item 3)\n");
  return report.Write() ? 0 : 1;
}

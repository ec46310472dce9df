// Ablation bench: the paper argues for each of THEMIS's mechanisms, so this
// bench measures what each one buys by disabling them one at a time on the
// same contended workload:
//   - hidden payments off  -> plain proportional fairness, no truthfulness
//     incentive and no leftover pool from payments
//   - short-app tie-break off -> equal-rho ties fall back to submission
//     order (Sec. 8.3.1 argues short-app preference drives ACT wins)
//   - fairness knob f = 0  -> every hungry app sees every offer
// Reported: max/median fairness, Jain's index, average ACT, GPU time.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace themis;
  using namespace themis::bench;

  struct Variant {
    const char* name;
    const char* key;
    ThemisConfig config;
  };
  ThemisConfig base;
  ThemisConfig no_payments = base;
  no_payments.pa.hidden_payments = false;
  ThemisConfig no_tiebreak = base;
  no_tiebreak.short_app_tiebreak = false;
  ThemisConfig f_zero = base;
  f_zero.fairness_knob = 0.0;
  const Variant variants[] = {
      {"Themis (full)", "full", base},
      {"no hidden payments", "no_payments", no_payments},
      {"no short-app tie-break", "no_tiebreak", no_tiebreak},
      {"fairness knob f=0", "f_zero", f_zero},
  };

  BenchReport report("ablation_design");
  report.Config("cluster", "sim256");
  report.Config("contention_factor", 4.0);
  report.Config("trace_seeds", 3.0);

  std::printf("=== Ablation: Themis design choices (mean of 3 seeds) ===\n");
  std::printf("%-24s %9s %9s %7s %9s %12s\n", "variant", "max_rho", "med_rho",
              "jain", "avg_ACT", "gpu_time");
  for (const Variant& v : variants) {
    double mx = 0, med = 0, jain = 0, act = 0, gpu = 0;
    for (std::uint64_t seed : {42ull, 43ull, 44ull}) {
      ExperimentConfig cfg = ContendedSimConfig(PolicyKind::kThemis, seed, 100);
      cfg.themis = v.config;
      const ExperimentResult r = RunExperiment(cfg);
      mx += r.max_fairness / 3;
      med += r.median_fairness / 3;
      jain += r.jains_index / 3;
      act += r.avg_completion_time / 3;
      gpu += r.gpu_time / 3;
    }
    std::printf("%-24s %9.2f %9.2f %7.3f %9.1f %12.0f\n", v.name, mx, med,
                jain, act, gpu);
    const std::string tag = v.key;
    report.Metric("max_rho." + tag, mx);
    report.Metric("median_rho." + tag, med);
    report.Metric("jains_index." + tag, jain);
    report.Metric("avg_act_min." + tag, act);
    report.Metric("gpu_time_min." + tag, gpu);
  }
  return report.Write() ? 0 : 1;
}

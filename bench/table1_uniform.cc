// Reproduces Table 1 of the paper: fill factor F vs steady-state segment
// emptiness E under a uniform update distribution, with the analytic
// fixpoint (Equation 4), the derived Cost = 2/E, R = E/(1-F) and
// Wamp = (1-E)/E columns, and the simulated MDC-opt emptiness column
// ("MDC-opt is the simulation result for the minimum declining cost
// algorithm"). Analysis and simulation agreeing to ~2 significant digits
// is the paper's §8.1 validation.
//
// Environment:
//   LSS_BENCH_SCALE=N     multiply device size / run length (default 1)
//   LSS_BENCH_SMOKE=1     one fill factor (0.8), for CI
//   LSS_BENCH_JSON=path   machine-readable results (bench_common.h)

#include <cstdio>
#include <vector>

#include "analysis/uniform_model.h"
#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/runner.h"

namespace lss {
namespace {

void Run() {
  // The paper's Table 1 fill factors. Very high fill factors need the
  // most updates to stabilise; the default multipliers suffice at bench
  // scale.
  const std::vector<double> fills =
      bench::SmokeMode()
          ? std::vector<double>{.80}
          : std::vector<double>{.975, .95, .90, .85, .80, .75, .70, .65, .60,
                                .55,  .50, .45, .40, .35, .30, .25, .20};

  TablePrinter table(
      {"F", "1-F", "E(analytic)", "MDC-opt(sim)", "Cost", "R", "Wamp",
       "Wamp(sim)"});
  StoreConfig cfg = bench::DefaultConfig();
  // Uniform updates need no write-sorting batch depth. Many segments
  // with a tiny trigger/batch keep the idle free pool far below the
  // slack even at F = 0.975 (at paper scale it is negligible; here it
  // must be kept so deliberately).
  cfg.segment_bytes = 128 * 4096;
  cfg.num_segments = 2048 * bench::ScaleFactor();
  cfg.clean_trigger_segments = 2;
  cfg.clean_batch_segments = 8;
  cfg.write_buffer_segments = 4;

  for (double f : fills) {
    const double e = SolveSteadyStateEmptiness(f);
    const uint64_t user_pages = bench::UserPagesFor(cfg, f);
    UniformWorkload workload(user_pages);
    RunSpec spec = bench::DefaultSpec(f);
    if (f >= 0.9) spec.measure_multiplier = 16;  // slower convergence
    const RunResult r = RunSynthetic(cfg, Variant::kMdcOpt, workload, spec);
    if (!r.status.ok()) {
      std::fprintf(stderr, "F=%.3f failed: %s\n", f,
                   r.status.ToString().c_str());
      continue;
    }
    table.AddRow({TablePrinter::Cell(f, 3), TablePrinter::Cell(1.0 - f, 3),
                  TablePrinter::Cell(e, 3),
                  TablePrinter::Cell(r.mean_clean_emptiness, 3),
                  TablePrinter::Cell(CostPerSegment(e), 2),
                  TablePrinter::Cell(SlackEfficiency(f), 2),
                  TablePrinter::Cell(WampFromEmptiness(e), 3),
                  TablePrinter::Cell(r.wamp, 3)});
    bench::Emit(bench::JsonRow("table1_uniform")
                    .Str("workload", "uniform")
                    .Str("variant", r.variant)
                    .Num("fill", f)
                    .Num("analytic_emptiness", e)
                    .Num("analytic_wamp", WampFromEmptiness(e))
                    .Num("wamp", r.wamp)
                    .Num("mean_clean_emptiness", r.mean_clean_emptiness)
                    .Num("measured_updates", r.stats.user_updates));
  }
  std::printf("Table 1: fill factor vs segment emptiness when cleaned "
              "(uniform updates)\n");
  std::printf("paper reference E column: .048 .094 .19 .29 .375 .45 .53 "
              ".60 .67 .74 .80 .85 .89 .93 .96 .98 .993\n\n");
  table.Print(stdout);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}

// Reproduces Figure 3: breakdown analysis of the MDC optimisations on
// hot-cold distributions at F = 0.8. Lines: greedy, MDC-no-sep-user-GC,
// MDC-no-sep-user, MDC, MDC-opt, and the analytic optimum ("opt") from
// the §3 slack-division model. Expected shape: all policies equal near
// 50-50; under skew greedy degrades most, each MDC optimisation closes
// part of the gap, and MDC-opt tracks opt.
//
// Environment:
//   LSS_BENCH_SCALE=N     multiply device size / run length (default 1)
//   LSS_BENCH_SMOKE=1     one skew (80-20), for CI
//   LSS_BENCH_JSON=path   machine-readable results (bench_common.h)

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/hotcold_model.h"
#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/runner.h"

namespace lss {
namespace {

void Run() {
  const std::vector<double> skews =
      bench::SmokeMode() ? std::vector<double>{0.8}
                         : std::vector<double>{0.5001, 0.6, 0.7, 0.8, 0.9};
  const std::vector<Variant> lines = {
      Variant::kGreedy, Variant::kMdcNoSepUserGc, Variant::kMdcNoSepUser,
      Variant::kMdc, Variant::kMdcOpt};
  const double f = 0.8;
  const StoreConfig cfg = bench::DefaultConfig();

  TablePrinter table({"skew", "greedy", "MDC-no-sep-user-GC",
                      "MDC-no-sep-user", "MDC", "MDC-opt", "opt"});
  for (double m : skews) {
    const uint64_t user_pages = bench::UserPagesFor(cfg, f);
    HotColdWorkload workload(user_pages, m);
    std::vector<TablePrinter::Cell> row;
    char label[16];
    std::snprintf(label, sizeof(label), "%d-%d",
                  static_cast<int>(m * 100 + 0.5),
                  static_cast<int>((1 - m) * 100 + 0.5));
    row.emplace_back(label);
    for (Variant v : lines) {
      const RunResult r =
          RunSynthetic(cfg, v, workload, bench::DefaultSpec(f));
      if (!r.status.ok()) {
        std::fprintf(stderr, "%s m=%.2f failed: %s\n", VariantName(v).c_str(),
                     m, r.status.ToString().c_str());
        row.emplace_back("err");
        continue;
      }
      row.emplace_back(r.wamp, 3);
      bench::Emit(bench::JsonRow("fig3_breakdown")
                      .Str("workload", std::string("hotcold-") + label)
                      .Str("variant", r.variant)
                      .Num("fill", f)
                      .Num("skew", m)
                      .Num("wamp", r.wamp)
                      .Num("analytic_opt_wamp", OptimalWamp(f, m))
                      .Num("mean_clean_emptiness", r.mean_clean_emptiness));
    }
    row.emplace_back(OptimalWamp(f, m), 3);
    table.AddRow(std::move(row));
  }
  std::printf("Figure 3: write amplification vs hot-cold skew, F = 0.8\n");
  std::printf("expected shape: columns decrease left to right; MDC-opt "
              "~= opt; gap to greedy grows with skew\n\n");
  table.Print(stdout);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}

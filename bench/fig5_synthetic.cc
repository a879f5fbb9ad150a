// Reproduces Figure 5: write amplification of all seven cleaning
// algorithms vs fill factor under (a) uniform, (b) 80-20 Zipfian
// (theta 0.99), (c) 90-10 Zipfian (theta 1.35) update distributions.
//
// Expected shapes (paper §6.2.2):
//  (a) uniform: age ~ greedy ~ optimal; multi-log-opt and MDC-opt match;
//      plain multi-log slightly worse (log proliferation); cost-benefit
//      is near-optimal under the canonical LFS formula we default to —
//      the paper's own cost-benefit is far worse here because of its
//      literal (1-E)age/E priority (see bench/ablation_costbenefit).
//  (b)/(c) skewed: age worst, then greedy, cost-benefit, multi-log,
//      multi-log-opt, MDC, with MDC-opt lowest.
//
// Environment:
//   LSS_BENCH_SCALE=N     multiply device size / run length (default 1)
//   LSS_BENCH_SMOKE=1     one fill factor (0.8) per panel, for CI
//   LSS_BENCH_JSON=path   machine-readable results (bench_common.h)

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/runner.h"
#include "workload/zipfian_workload.h"

namespace lss {
namespace {

void Panel(const char* name,
           const std::function<std::unique_ptr<WorkloadGenerator>(uint64_t)>&
               make_workload,
           const std::vector<double>& fills) {
  const StoreConfig cfg = bench::DefaultConfig();
  std::vector<std::string> headers = {"F"};
  for (Variant v : AllVariants()) {
    if (v == Variant::kMdcNoSepUser || v == Variant::kMdcNoSepUserGc) {
      continue;  // ablations live in fig3
    }
    headers.push_back(VariantName(v));
  }
  TablePrinter table(headers);
  for (double f : fills) {
    const uint64_t user_pages = bench::UserPagesFor(cfg, f);
    auto workload = make_workload(user_pages);
    std::vector<TablePrinter::Cell> row;
    row.emplace_back(f, 2);
    for (Variant v : AllVariants()) {
      if (v == Variant::kMdcNoSepUser || v == Variant::kMdcNoSepUserGc) {
        continue;
      }
      const RunResult r =
          RunSynthetic(cfg, v, *workload, bench::DefaultSpec(f));
      if (!r.status.ok()) {
        std::fprintf(stderr, "%s %s F=%.2f failed: %s\n", name,
                     VariantName(v).c_str(), f, r.status.ToString().c_str());
        row.emplace_back("err");
      } else {
        row.emplace_back(r.wamp, 3);
        bench::EmitRunResult("fig5_synthetic", name, f, r);
      }
    }
    table.AddRow(std::move(row));
  }
  std::printf("Figure 5%s: write amplification vs fill factor\n\n", name);
  table.Print(stdout);
  std::printf("\n");
}

void Run() {
  const std::vector<double> fills =
      bench::SmokeMode() ? std::vector<double>{0.8}
                         : std::vector<double>{0.5, 0.6, 0.7, 0.8, 0.9, 0.95};
  Panel("(a) uniform",
        [](uint64_t pages) -> std::unique_ptr<WorkloadGenerator> {
          return std::make_unique<UniformWorkload>(pages);
        },
        fills);
  Panel("(b) 80-20 zipfian 0.99",
        [](uint64_t pages) -> std::unique_ptr<WorkloadGenerator> {
          return std::make_unique<ZipfianWorkload>(pages, 0.99);
        },
        fills);
  Panel("(c) 90-10 zipfian 1.35",
        [](uint64_t pages) -> std::unique_ptr<WorkloadGenerator> {
          return std::make_unique<ZipfianWorkload>(pages, 1.35);
        },
        fills);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}

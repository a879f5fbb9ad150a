// Reproduces Figure 4: impact of the user-write sort-buffer size on
// MDC's write amplification (80-20 Zipfian, theta = 0.99, F = 0.8).
// Expected shape: Wamp drops steeply as the buffer grows from 0 to ~16
// segments, then flattens ("using a write buffer with 16 segments
// already achieves near-optimal write amplification").
//
// Scale note: the paper sweeps up to 1024 buffer segments on a
// 51200-segment device (2% of the device). Our default device is 1024
// segments, so the sweep stops at 64 segments (~6%) — already past the
// knee; LSS_BENCH_SCALE enlarges the device and the sweep.
//
// Environment:
//   LSS_BENCH_SCALE=N     multiply device size / run length (default 1)
//   LSS_BENCH_SMOKE=1     one buffer size (16 segments), for CI
//   LSS_BENCH_JSON=path   machine-readable results (bench_common.h)

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "util/table_printer.h"
#include "workload/runner.h"
#include "workload/zipfian_workload.h"

namespace lss {
namespace {

void Run() {
  const double f = 0.8;
  StoreConfig cfg = bench::DefaultConfig();
  const std::vector<uint32_t> buffers =
      bench::SmokeMode()
          ? std::vector<uint32_t>{16}
          : std::vector<uint32_t>{0, 1, 4, 16, 64, 256, 1024};

  TablePrinter table({"buffer(segments)", "Wamp", "E(clean)"});
  const uint64_t user_pages = bench::UserPagesFor(cfg, f);
  ZipfianWorkload workload(user_pages, 0.99);
  for (uint32_t b : buffers) {
    if (b >= cfg.num_segments / 8) {
      std::printf("(skipping buffer=%u: exceeds 1/8 of the %u-segment "
                  "device; raise LSS_BENCH_SCALE)\n",
                  b, cfg.num_segments);
      continue;
    }
    cfg.write_buffer_segments = b;
    const RunResult r =
        RunSynthetic(cfg, Variant::kMdc, workload, bench::DefaultSpec(f));
    if (!r.status.ok()) {
      std::fprintf(stderr, "buffer=%u failed: %s\n", b,
                   r.status.ToString().c_str());
      continue;
    }
    table.AddRow({TablePrinter::Cell(static_cast<uint64_t>(b)),
                  TablePrinter::Cell(r.wamp, 3),
                  TablePrinter::Cell(r.mean_clean_emptiness, 3)});
    bench::Emit(bench::JsonRow("fig4_sort_buffer")
                    .Str("workload", "zipf-0.99")
                    .Str("variant", r.variant)
                    .Num("fill", f)
                    .Num("buffer_segments", static_cast<uint64_t>(b))
                    .Num("wamp", r.wamp)
                    .Num("mean_clean_emptiness", r.mean_clean_emptiness));
  }
  std::printf("Figure 4: MDC write amplification vs sort-buffer size "
              "(80-20 Zipfian 0.99, F = 0.8)\n\n");
  table.Print(stdout);
}

}  // namespace
}  // namespace lss

int main() {
  lss::Run();
  return 0;
}

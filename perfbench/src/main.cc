// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --dir DIR
//
// --trace 0 measures the workload untraced (three set-ups; setup_s is
// their median). --trace 1 measures it twice, S/2 seconds each: once
// untraced and once with the tracing decorators installed; the per-layer
// metrics come from the traced half, trace.overhead is traced rate over
// untraced rate, and the metrics the traced half cannot give unperturbed
// (read, transaction and recovery timings) come from the untraced half.
//
// Output: a human-readable table, then `HOST {...}` and, last,
// `RESULT {...}` lines holding JSON. Exit status 1 if any correctness
// gate failed, 2 on bad arguments.

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/uring_backend.h"
#include "metrics.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::RunOptions;
using perfbench::RunOutcome;

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 --dir DIR\n",
               msg);
  std::exit(2);
}

std::string FsType(const std::string& dir) {
  struct statfs sf {};
  if (statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

void PrintTable(const std::string& title, const Report& r) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : r.metrics()) {
    if (m.samples > 0) {
      std::printf("  %-36s %16.6g %-6s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (a == "--dir") {
      o.dir = v;
    } else {
      Usage(("unknown flag " + a).c_str());
    }
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == o.workload;
  if (!known) Usage("--workload must be update-skew, durable-rw or tpcc-live");
  if (!have_seed) Usage("--seed must be a non-negative integer");
  if (!have_seconds) Usage("--seconds must be a positive number");
  if (trace < 0) Usage("--trace must be 0 or 1");
  if (o.dir.empty()) Usage("--dir is required");

  std::string uring_reason;
  const bool uring = lss::UringBackend::ProbeAvailable(&uring_reason);
  char host[1024];
  std::snprintf(
      host, sizeof(host),
      "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"durable_fs\": \"%s\", \"io_uring\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, FsType(o.dir).c_str(),
      uring ? "available" : JsonEscape("unavailable: " + uring_reason).c_str(),
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      trace);

  RunOutcome result;
  if (trace == 0) {
    o.setup_reps = 3;
    result = perfbench::RunWorkload(o);
  } else {
    o.seconds /= 2;
    const RunOutcome plain = perfbench::RunWorkload(o);
    o.traced = true;
    result = perfbench::RunWorkload(o);
    PrintTable("untraced half (" + o.workload + ")", plain.report);
    result.correct = result.correct && plain.correct;
    result.errors.insert(result.errors.end(), plain.errors.begin(),
                         plain.errors.end());
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    // Timings the tracing itself would perturb come from the untraced
    // half; the per-layer ones come from the traced half.
    Report merged;
    for (const Metric& m : result.report.metrics()) {
      if (m.name == "failed_op_ratio") continue;  // recomputed over both
      const Metric* p = plain.report.Find(m.name);
      const bool from_plain =
          p != nullptr && m.name.find('.') == std::string::npos;
      const Metric& src = from_plain ? *p : m;
      merged.Add(src.name, src.value, src.unit, src.samples);
    }
    merged.Add("failed_op_ratio",
               result.attempted > 0 ? static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted)
                                    : 0.0,
               "ratio", result.attempted);
    merged.Add("trace.overhead",
               plain.ops_per_s > 0 ? result.ops_per_s / plain.ops_per_s : 0.0,
               "ratio");
    result.report = merged;
  }

  PrintTable(std::string(trace ? "traced" : "untraced") + " run (" +
                 o.workload + ", seed " + std::to_string(o.seed) + ")",
             result.report);
  for (const std::string& e : result.errors) {
    std::printf("GATE FAILED: %s\n", e.c_str());
  }
  std::printf("HOST %s\n", host);
  std::printf(
      "RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.report.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

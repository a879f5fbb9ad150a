#ifndef LSS_BENCH_BENCH_COMMON_H_
#define LSS_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "btree/eviction_policy.h"
#include "core/config.h"
#include "core/policy_factory.h"
#include "workload/runner.h"

namespace lss::bench {

/// Strict base-10 integer parsing for the LSS_BENCH_* knobs: `s` must be
/// entirely an integer in [min, max], or the bench exits(2) naming the
/// offending variable. A typo'd knob must never silently clamp to a
/// default mid-experiment — the run would report results for a
/// configuration the user did not ask for.
inline int64_t ParseEnvInt(const char* name, const char* s, int64_t min,
                           int64_t max) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < min || v > max) {
    std::fprintf(stderr,
                 "%s: invalid value '%s' (want an integer in [%lld, %lld])\n",
                 name, s, static_cast<long long>(min),
                 static_cast<long long>(max));
    std::exit(2);
  }
  return static_cast<int64_t>(v);
}

/// getenv + ParseEnvInt; `def` when the variable is unset or empty.
inline int64_t EnvInt(const char* name, int64_t def, int64_t min,
                      int64_t max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  return ParseEnvInt(name, s, min, max);
}

/// Upper bound of thread and shard counts read from the environment:
/// ShardedStore's shard cap.
inline constexpr int64_t kMaxThreads = 1024;

/// A comma-separated list of integers, each parsed by ParseEnvInt (an
/// empty element, e.g. "2,,4", is garbage too); `def` when the variable
/// is unset or empty.
inline std::vector<int64_t> EnvIntList(const char* name,
                                       std::vector<int64_t> def, int64_t min,
                                       int64_t max) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  std::vector<int64_t> out;
  const std::string list(s);
  size_t begin = 0;
  while (true) {
    const size_t comma = list.find(',', begin);
    out.push_back(ParseEnvInt(name, list.substr(begin, comma - begin).c_str(),
                              min, max));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

/// LSS_BENCH_SMOKE set to anything but "" or "0" asks a bench for its
/// CI-sized run: each bench that has one shrinks its own sweep (fewer
/// panels, fill factors or transactions).
inline bool SmokeMode() {
  const char* env = std::getenv("LSS_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

/// Shared device geometry for the paper-reproduction benches. The paper
/// simulates a 100 GB device (51 200 x 2 MB segments) and writes 10 TB;
/// it notes device size does not affect write amplification (§6.1.1
/// fn. 2), so we default to a ~0.5 GiB device with proportionally scaled
/// cleaning trigger/batch, which reproduces steady-state Wamp in seconds
/// per configuration. Set LSS_BENCH_SCALE=N (default 1) to multiply the
/// device size and run length for higher-fidelity runs.
inline uint32_t ScaleFactor() {
  return static_cast<uint32_t>(
      EnvInt("LSS_BENCH_SCALE", 1, 1, 1 << 20));
}

inline StoreConfig DefaultConfig() {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;  // 512 KB segments, 128 pages
  cfg.num_segments = 1024 * ScaleFactor();
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 16;
  cfg.write_buffer_segments = 16;
  // LSS_BENCH_BACKEND=<spec> runs any bench over a real segment backend
  // ("file:DIR", "file-nosync:DIR"; see
  // ApplyBackendSpec). The default stays bookkeeping-only.
  if (const char* spec = std::getenv("LSS_BENCH_BACKEND")) {
    Status s = ApplyBackendSpec(spec, &cfg);
    if (!s.ok()) {
      std::fprintf(stderr, "LSS_BENCH_BACKEND: %s\n", s.ToString().c_str());
      std::exit(2);
    }
  }
  return cfg;
}

/// LSS_BENCH_POOL=<lru|clock|2q> selects the buffer-pool replacement
/// policy of benches that run the B+-tree engine (fig6 trace generation,
/// bench/buffer_pool's TPC-C panel). Defaults to exact LRU, the engine's
/// default. Eviction order shapes the collected write trace, so fig6
/// keys its trace cache on this.
inline EvictionPolicyKind PoolPolicy() {
  const char* s = std::getenv("LSS_BENCH_POOL");
  if (s == nullptr || *s == '\0') return EvictionPolicyKind::kExactLru;
  EvictionPolicyKind kind;
  if (!ParseEvictionPolicy(s, &kind)) {
    std::fprintf(stderr,
                 "LSS_BENCH_POOL: unknown policy '%s' (lru|clock|2q)\n", s);
    std::exit(2);
  }
  return kind;
}

/// LSS_BENCH_CKPT_INTERVAL=N overrides the checkpoint interval of the
/// benches that exercise checkpointing. bench/io_backend's seal-pipeline
/// panel feeds it to StoreConfig::checkpoint_interval_ops (backend ops;
/// 0 disables); io_backend's checkpoint sweep uses it as the shortest
/// barrier period (user updates between Checkpoint() calls); fig6_tpcc
/// uses it as the engine-checkpoint period during trace generation
/// (transactions between dirty-page flushes) and mixes it into the
/// trace-cache key so cached traces from different checkpoint settings
/// never alias. Unset keeps each bench's default.
inline uint32_t CheckpointInterval(uint32_t def) {
  return static_cast<uint32_t>(EnvInt("LSS_BENCH_CKPT_INTERVAL", def, 0,
                                      std::numeric_limits<uint32_t>::max()));
}

/// Segments hovering in the free pool / open in steady state — slack the
/// cleaner cannot exploit as dead space. Used only to pad device sizing
/// (fig6); the synthetic benches instead keep this fraction negligible
/// by choosing enough segments, matching the paper's regime where
/// 32 trigger + 64 batch sit inside 51 200 segments.
inline uint32_t ReserveSegments(const StoreConfig& cfg) {
  return cfg.clean_trigger_segments + cfg.clean_batch_segments / 2 + 4;
}

/// User page count so that live data occupies fraction `f` of the
/// device, exactly as the paper defines fill factor (§2.1).
inline uint64_t UserPagesFor(const StoreConfig& cfg, double f) {
  return cfg.UserPagesForFillFactor(f);
}

inline RunSpec DefaultSpec(double f, uint64_t seed = 42) {
  RunSpec spec;
  spec.fill_factor = f;
  spec.warmup_multiplier = 8;
  spec.measure_multiplier = 12;
  spec.seed = seed;
  return spec;
}

// --- Machine-readable results (LSS_BENCH_JSON) ------------------------
//
// Set LSS_BENCH_JSON=<path> and a bench writes its results to that file
// as a JSON array of flat objects, one per measured cell, so the perf
// trajectory can be tracked across PRs without scraping tables:
//
//   LSS_BENCH_JSON=fig5.json ./build/bench/fig5_synthetic
//
// A JsonRow is a flat string/number map; Emit() buffers it. The file is
// written when the process exits (or when WriteJson runs explicitly).

class JsonRow {
 public:
  explicit JsonRow(const std::string& bench) { Str("bench", bench); }

  JsonRow& Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
    return *this;
  }
  JsonRow& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonRow& Num(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  /// One key per StoreStats counter (StoreStats::ForEach), named after
  /// the member.
  JsonRow& Counters(const StoreStats& stats) {
    stats.ForEach([this](const char* name, auto value) { Num(name, value); });
    return *this;
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(fields_[i].first) + ":" + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

namespace internal {
inline std::vector<std::string>& JsonRows() {
  static std::vector<std::string> rows;
  return rows;
}
}  // namespace internal

/// Writes all buffered rows to LSS_BENCH_JSON (no-op when unset).
inline void WriteJson() {
  const char* path = std::getenv("LSS_BENCH_JSON");
  if (path == nullptr || internal::JsonRows().empty()) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "LSS_BENCH_JSON: cannot open %s\n", path);
    return;
  }
  std::fputs("[\n", f);
  const auto& rows = internal::JsonRows();
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "  %s%s\n", rows[i].c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

/// Buffers one result row and arranges for WriteJson at process exit.
inline void Emit(const JsonRow& row) {
  if (std::getenv("LSS_BENCH_JSON") == nullptr) return;
  if (internal::JsonRows().empty()) std::atexit(WriteJson);
  internal::JsonRows().push_back(row.ToJson());
}

/// Convenience: the standard columns of a synthetic run, then every
/// measured counter.
inline void EmitRunResult(const std::string& bench,
                          const std::string& workload, double fill,
                          const RunResult& r) {
  JsonRow row(bench);
  row.Str("workload", workload)
      .Str("variant", r.variant)
      .Num("fill", fill)
      .Num("wamp", r.wamp)
      .Num("mean_clean_emptiness", r.mean_clean_emptiness)
      .Num("measured_updates", r.stats.user_updates)
      .Num("effective_fill", r.effective_fill);
  if (r.stats.device_bytes_written > 0) {
    row.Num("device_bytes_per_user_byte", r.stats.DeviceBytesPerUserByte())
        .Num("device_seconds", r.stats.DeviceSeconds());
  }
  row.Counters(r.stats);
  Emit(row);
}

}  // namespace lss::bench

#endif  // LSS_BENCH_BENCH_COMMON_H_

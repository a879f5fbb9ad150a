#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "core/config.h"
#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "trace.h"
#include "tpcc/tpcc_db.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lss::PageId;
using lss::ShardedStore;
using lss::Status;
using lss::StoreConfig;
using lss::StoreStats;

constexpr double kFillFactor = 0.85;
// Roots kept as spans: one in this many per thread.
constexpr uint32_t kSampleEvery = 64;
constexpr int kTxnTypes = 5;
// The measured window is cut into this many equal intervals; each
// end-to-end figure is the median of its per-interval values, so a burst
// of outside load on the host moves one interval, not the result.
constexpr uint32_t kIntervals = 10;
std::atomic<uint32_t> g_interval{0};  // interval the window is in
const char* const kTxnNames[kTxnTypes] = {"new_order", "payment",
                                          "order_status", "delivery",
                                          "stock_level"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

// Peak resident set of the process so far.
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t ElapsedNs(int64_t start_ns) {
  return static_cast<uint64_t>(NowNs() - start_ns);
}

// The bench-default geometry: 1024 segments of 512 KiB (128 pages of
// 4 KiB), cleaning 16 victims when fewer than 4 segments are free, a
// 16-segment sort buffer. MDC places and cleans.
StoreConfig Geometry(const RunOptions& o) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;
  cfg.num_segments = o.segments > 0 ? o.segments : 1024;
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 16;
  cfg.write_buffer_segments = 16;
  lss::ApplyVariantConfig(lss::Variant::kMdc, &cfg);
  return cfg;
}

// What one closed-loop client measured. Heap-allocated per client so
// neighbouring clients do not share cache lines.
struct Client {
  uint32_t index = 0;
  lss::Rng rng;
  // Per interval: every client operation, and every store Write (a
  // client's own, or an engine write-back it caused).
  std::vector<LatencyHistogram> op_ns{kIntervals};
  std::vector<LatencyHistogram> write_ns{kIntervals};
  LatencyHistogram read_ns;
  LatencyHistogram txn_ns[kTxnTypes];
  LatencyHistogram write_plain_ns;  // traced runs only
  LatencyHistogram write_clean_ns;  // traced runs only
  uint64_t ops = 0;
  uint64_t reads_unsealed = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    if (failed++ == 0) first_error = what;
  }
};

using Clients = std::vector<std::unique_ptr<Client>>;

Clients MakeClients(uint32_t n, uint64_t seed) {
  Clients c;
  for (uint32_t i = 0; i < n; ++i) {
    c.push_back(std::make_unique<Client>());
    c.back()->index = i;
    c.back()->rng = lss::Rng(seed * 0x9E3779B97F4A7C15ull + i + 1);
  }
  return c;
}

// Client i runs on CPU i (mod the CPU count). With as many clients as
// cores and the scheduler placing them, about one run in six ran whole
// at a slower throughput; pinned, runs agree more closely.
void PinToCpu(uint32_t index) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void UnpinThread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    CPU_SET(i, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Hypervisor steal, in seconds, of each vCPU so far (/proc/stat's
// eighth per-CPU column): time the vCPU was runnable while the host ran
// something else.
std::vector<double> StealSeconds() {
  std::vector<double> out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned cpu = 0;
    unsigned long long v[8] = {};
    if (std::sscanf(line, "cpu%u %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 9) {
      if (out.size() <= cpu) out.resize(cpu + 1, 0.0);
      out[cpu] = static_cast<double>(v[7]) / tick;
    }
  }
  std::fclose(f);
  return out;
}

// Seconds stolen from vCPUs [0, cpus), averaged over them, since the
// last Take().
class StealMeter {
 public:
  explicit StealMeter(size_t cpus)
      : cpus_(std::max<size_t>(1, std::min<size_t>(
                  cpus, std::max(1u, std::thread::hardware_concurrency())))),
        last_(StealSeconds()) {}

  double Take() {
    const std::vector<double> now = StealSeconds();
    double stolen = 0.0;
    for (size_t c = 0; c < cpus_ && c < now.size() && c < last_.size(); ++c) {
      stolen += now[c] - last_[c];
    }
    last_ = now;
    return stolen / static_cast<double>(cpus_);
  }

 private:
  size_t cpus_;
  std::vector<double> last_;
};

// Wall time since `start_ns` less the time stolen from the measured
// vCPUs: the time the VM was given to run in.
double GivenSecondsSince(int64_t start_ns, StealMeter* steal) {
  const double wall = SecondsSince(start_ns);
  return std::max(wall - steal->Take(), wall * 0.1);
}

// One interval of the measured window: its wall time, and the share of
// it the hypervisor took from the measured vCPUs.
struct Slice {
  double seconds = 0.0;
  double steal_share = 0.0;
  // The store's page counters since the window began, at the slice's end.
  uint64_t user_pages = 0;
  uint64_t gc_pages = 0;
};

// Runs `op(client)` in a closed loop on one thread per client, either for
// `seconds` or for exactly `ops_per_client` operations (one slice).
// Steal is accounted over CPUs [0, steal_cpus), default the clients'.
// With `store` set, each slice also records its page counters.
std::vector<Slice> RunClosedLoop(Clients& clients, double seconds,
                                 uint64_t ops_per_client,
                                 const std::function<void(Client&)>& op,
                                 const ShardedStore* store = nullptr,
                                 size_t steal_cpus = 0) {
  std::atomic<bool> stop{false};
  g_interval.store(0);
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    Client* cl = c.get();
    threads.emplace_back([&, cl] {
      PinToCpu(cl->index);
      if (ops_per_client > 0) {
        for (uint64_t i = 0; i < ops_per_client; ++i) op(*cl);
      } else {
        while (!stop.load(std::memory_order_relaxed)) op(*cl);
      }
    });
  }
  std::vector<Slice> slices;
  StealMeter steal(steal_cpus > 0 ? steal_cpus : clients.size());
  auto close_slice = [&](int64_t begin, int64_t end) {
    Slice slice;
    slice.seconds = (end - begin) / 1e9;
    slice.steal_share = std::min(0.9, Ratio(steal.Take(), slice.seconds));
    if (store != nullptr) {
      const StoreStats st = store->AggregatedStats();
      slice.user_pages = st.user_pages_written;
      slice.gc_pages = st.gc_pages_written;
    }
    slices.push_back(slice);
  };
  if (ops_per_client == 0) {
    int64_t begin = start;
    for (uint32_t i = 0; i < kIntervals; ++i) {
      const int64_t end =
          start + static_cast<int64_t>(seconds * 1e9 * (i + 1) / kIntervals);
      std::this_thread::sleep_for(std::chrono::nanoseconds(end - NowNs()));
      const int64_t now = NowNs();
      if (i + 1 < kIntervals) g_interval.store(i + 1);
      close_slice(begin, now);
      begin = now;
    }
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  if (ops_per_client > 0) close_slice(start, NowNs());
  return slices;
}

uint32_t CurrentInterval() { return g_interval.load(std::memory_order_relaxed); }

// A timed store Write as a client issues it. In traced runs it is a
// `store.write` root span and is split by whether cleaning ran inside.
void TimedWrite(ShardedStore& store, Tracer* tracer, Client& c, PageId page) {
  if (tracer != nullptr) tracer->TakeSawSelect();
  const int64_t start = NowNs();
  Status s;
  {
    ScopedSpan span(tracer, SpanKind::kStoreWrite);
    s = store.Write(page);
  }
  const uint64_t ns = ElapsedNs(start);
  const uint32_t iv = CurrentInterval();
  c.write_ns[iv].Record(ns);
  c.op_ns[iv].Record(ns);
  if (tracer != nullptr) {
    (tracer->TakeSawSelect() ? c.write_clean_ns : c.write_plain_ns).Record(ns);
  }
  ++c.ops;
  if (!s.ok()) c.Fail("Write(" + std::to_string(page) + "): " + s.ToString());
}

// A timed ReadPage whose payload is checked against the page pattern.
void TimedVerifiedRead(const ShardedStore& store, Tracer* tracer, Client& c,
                       PageId page, std::vector<uint8_t>* buf) {
  const int64_t start = NowNs();
  Status s;
  {
    ScopedSpan span(tracer, SpanKind::kStoreRead);
    s = store.ReadPage(page, buf);
  }
  const uint64_t ns = ElapsedNs(start);
  ++c.ops;
  // ReadPage serves sealed pages only: a page whose newest version is
  // still in the write buffer or an open segment is refused with
  // InvalidArgument by contract. Such reads are counted, not failed.
  if (s.code() == Status::Code::kInvalidArgument) {
    ++c.reads_unsealed;
    return;
  }
  c.read_ns.Record(ns);
  c.op_ns[CurrentInterval()].Record(ns);
  if (!s.ok()) {
    c.Fail("ReadPage(" + std::to_string(page) + "): " + s.ToString());
  } else if (buf->size() != store.shard_config().page_bytes ||
             !lss::VerifyPagePayload(page, static_cast<uint32_t>(buf->size()),
                                     buf->data())) {
    c.Fail("ReadPage(" + std::to_string(page) + "): payload mismatch");
  }
}

lss::PolicyFactory MakePolicyFactory(Tracer* tracer) {
  return [tracer]() -> std::unique_ptr<lss::CleaningPolicy> {
    auto p = lss::MakePolicy(lss::Variant::kMdc);
    return tracer != nullptr ? TracePolicy(std::move(p), tracer) : std::move(p);
  };
}

lss::BackendFactory MakeBackendFactory(const StoreConfig& cfg, Tracer* tracer) {
  if (tracer == nullptr) return nullptr;
  return [cfg, tracer](uint32_t shard) {
    return TraceBackend(lss::MakeBackend(cfg), tracer, shard);
  };
}

std::unique_ptr<ShardedStore> CreateStore(const StoreConfig& cfg,
                                          uint32_t shards, Tracer* tracer,
                                          RunOutcome* out) {
  Status s;
  auto store = ShardedStore::Create(cfg, shards, MakePolicyFactory(tracer), &s,
                                    MakeBackendFactory(cfg, tracer));
  if (store == nullptr) {
    out->correct = false;
    out->errors.push_back("ShardedStore::Create: " + s.ToString());
  }
  return store;
}

void Gate(RunOutcome* out, const Status& s, const std::string& what) {
  if (s.ok()) return;
  out->correct = false;
  ++out->failed;
  out->errors.push_back(what + ": " + s.ToString());
}

void CollectFailures(const Clients& clients, RunOutcome* out) {
  for (const auto& c : clients) {
    out->attempted += c->ops;
    out->failed += c->failed;
    if (c->failed > 0) {
      out->correct = false;
      out->errors.push_back(c->first_error + " (" +
                            std::to_string(c->failed) + " failures)");
    }
  }
}

// What a workload run measured, before it becomes named metrics. A
// workload leaves the fields of layers it does not run empty or 0.
struct Measured {
  std::vector<double> setups;
  std::vector<Slice> slices;
  uint64_t wamp_pages = 0;  // see PrefixWamp
  double setup_peak_rss_mb = 0.0;
  std::vector<LatencyHistogram> op_ns{kIntervals};
  std::vector<LatencyHistogram> write_ns{kIntervals};
  LatencyHistogram read_ns;
  LatencyHistogram txn_ns[kTxnTypes];
  LatencyHistogram write_plain_ns;  // traced runs only
  LatencyHistogram write_clean_ns;  // traced runs only
  uint64_t reads_unsealed = 0;
  double open_s = 0.0;

  Tracer* tracer = nullptr;
  StoreStats stats;  // the measured window
  std::vector<double> shard_wamp;
  double close_s = 0.0;
  uint64_t meta_bytes = 0;
  uint64_t data_bytes = 0;
  uint64_t live_pages = 0;
  uint64_t live_pages_verified = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_write_backs = 0;
  uint64_t pool_latches = 0;

  void Take(Clients& clients) {
    for (auto& c : clients) {
      for (uint32_t i = 0; i < kIntervals; ++i) {
        op_ns[i].Merge(c->op_ns[i]);
        write_ns[i].Merge(c->write_ns[i]);
      }
      read_ns.Merge(c->read_ns);
      for (int k = 0; k < kTxnTypes; ++k) txn_ns[k].Merge(c->txn_ns[k]);
      write_plain_ns.Merge(c->write_plain_ns);
      write_clean_ns.Merge(c->write_clean_ns);
      reads_unsealed += c->reads_unsealed;
    }
  }
};

// Wamp over the window's first `wamp_pages` user page writes, the
// counters interpolated between the slice ends that bracket it. A fixed
// amount of work, not of time: on tpcc-live the database grows with
// every transaction, so Wamp over a time window would follow the
// transaction rate. Falls back to the whole window when it wrote fewer.
double PrefixWamp(const Measured& m) {
  uint64_t user = 0, gc = 0;
  for (const Slice& s : m.slices) {
    if (m.wamp_pages > 0 && s.user_pages >= m.wamp_pages &&
        s.user_pages > user) {
      const double f = static_cast<double>(m.wamp_pages - user) /
                       static_cast<double>(s.user_pages - user);
      const double gc_at =
          static_cast<double>(gc) + f * static_cast<double>(s.gc_pages - gc);
      return gc_at / static_cast<double>(m.wamp_pages);
    }
    user = s.user_pages;
    gc = s.gc_pages;
  }
  return m.stats.WriteAmplification();
}

// p50 and p99 as medians over the intervals that saw samples; p999 over
// the whole window, since one interval holds too few samples beyond it.
void AddIntervalLatency(Report* r, const std::string& name,
                        const std::vector<LatencyHistogram>& per_interval) {
  uint64_t samples = 0;
  std::vector<double> p50, p99;
  for (const LatencyHistogram& h : per_interval) {
    if (h.count() == 0) continue;
    samples += h.count();
    const LatencySummary s = Summarize(h);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
  }
  r->Add(name + "_p50_us", Median(p50), "us", samples);
  r->Add(name + "_p99_us", Median(p99), "us", samples);
  LatencyHistogram all;
  for (const LatencyHistogram& h : per_interval) all.Merge(h);
  r->Add(name + "_p999_us", Summarize(all).p999_us, "us", samples);
}

// Every metric, for every workload: 0 where the workload's layers do no
// such work.
void AddMetrics(const Measured& m, Report* r) {
  Tracer* t = m.tracer;
  auto durations = [t](SpanKind k) {
    return t != nullptr ? t->Durations(k) : LatencyHistogram{};
  };
  auto summary = [&](SpanKind k) { return Summarize(durations(k)); };
  auto total_s = [&](SpanKind k) {
    return static_cast<double>(durations(k).sum_ns()) / 1e9;
  };
  const StoreStats& st = m.stats;

  // End to end. A client operation is a store Write or ReadPage, or, on
  // the engine workload, a New-Order transaction (what TPC-C's tpmC
  // counts). The whole mix's median would sit on the edge between the
  // fast Payment/Order-Status group (47%) and the slower New-Orders, and
  // jump between them from run to run; all five types still run and are
  // reported under txn_* and tpcc.*.
  uint64_t ops = 0;
  double elapsed = 0.0, stolen = 0.0;
  std::vector<double> rates, wall_rates;
  for (size_t i = 0; i < m.slices.size(); ++i) {
    const Slice& sl = m.slices[i];
    const double n = static_cast<double>(m.op_ns[i].count());
    ops += m.op_ns[i].count();
    elapsed += sl.seconds;
    stolen += sl.seconds * sl.steal_share;
    rates.push_back(Ratio(n, sl.seconds * (1.0 - sl.steal_share)));
    wall_rates.push_back(Ratio(n, sl.seconds));
  }
  r->Add("setup_s", Median(m.setups), "s", m.setups.size());
  r->Add("ops_per_s", Median(rates), "1/s", ops);
  r->Add("ops_per_wall_s", Median(wall_rates), "1/s", ops);
  r->Add("host.steal_share", Ratio(stolen, elapsed), "ratio");
  AddIntervalLatency(r, "op", m.op_ns);
  AddIntervalLatency(r, "write", m.write_ns);
  r->Add("wamp", PrefixWamp(m), "ratio");
  // After set-up, so it measures the loaded system, not how far the
  // window's work grew it (the TPC-C database grows with every
  // transaction).
  r->Add("peak_rss_mb", m.setup_peak_rss_mb, "MB");
  const LatencySummary rd = Summarize(m.read_ns);
  r->Add("read_p50_us", rd.p50_us, "us", rd.samples);
  r->Add("read_p99_us", rd.p99_us, "us", rd.samples);
  LatencyHistogram txn;
  for (const auto& h : m.txn_ns) txn.Merge(h);
  r->Add("txn_per_s", Ratio(static_cast<double>(txn.count()), elapsed),
         "1/s", txn.count());
  const LatencySummary tx = Summarize(txn);
  r->Add("txn_p50_us", tx.p50_us, "us", tx.samples);
  r->Add("txn_p99_us", tx.p99_us, "us", tx.samples);
  r->Add("device_bytes_per_user_byte", st.DeviceBytesPerUserByte(), "ratio");
  r->Add("open_s", m.open_s, "s");

  // sharded_store
  const LatencySummary ps = Summarize(m.write_plain_ns);
  const LatencySummary cs = Summarize(m.write_clean_ns);
  r->Add("store.write_plain_us.p50", ps.p50_us, "us", ps.samples);
  r->Add("store.write_plain_us.p999", ps.p999_us, "us", ps.samples);
  r->Add("store.write_clean_us.p50", cs.p50_us, "us", cs.samples);
  r->Add("store.write_clean_us.p99", cs.p99_us, "us", cs.samples);
  r->Add("store.read_unsealed_share",
         Ratio(static_cast<double>(m.reads_unsealed),
               static_cast<double>(m.reads_unsealed + m.read_ns.count())),
         "ratio", m.reads_unsealed + m.read_ns.count());
  r->Add("store.clean_write_share",
         Ratio(static_cast<double>(cs.samples),
               static_cast<double>(cs.samples + ps.samples)),
         "ratio");

  // policies
  const LatencySummary sel = summary(SpanKind::kPolicySelect);
  const PolicyCounters tot = t != nullptr ? t->Totals() : PolicyCounters{};
  r->Add("policy.select_calls", static_cast<double>(sel.samples), "count");
  r->Add("policy.select_us.p50", sel.p50_us, "us", sel.samples);
  r->Add("policy.select_us.p99", sel.p99_us, "us", sel.samples);
  r->Add("policy.victims_per_select",
         Ratio(static_cast<double>(tot.victims_selected),
               static_cast<double>(sel.samples)),
         "count");
  r->Add("policy.place_calls_user", static_cast<double>(tot.place_user),
         "count");
  r->Add("policy.place_calls_gc", static_cast<double>(tot.place_gc), "count");
  r->Add("policy.place_ns_mean",
         Ratio(static_cast<double>(tot.place_ns),
               static_cast<double>(tot.place_user + tot.place_gc)),
         "ns", tot.place_user + tot.place_gc);

  // store_shard
  double wmin = 0.0, wmax = 0.0;
  if (!m.shard_wamp.empty()) {
    wmin = *std::min_element(m.shard_wamp.begin(), m.shard_wamp.end());
    wmax = *std::max_element(m.shard_wamp.begin(), m.shard_wamp.end());
  }
  r->Add("shard.cleanings", static_cast<double>(st.cleanings), "count");
  r->Add("shard.segments_cleaned", static_cast<double>(st.segments_cleaned),
         "count");
  r->Add("shard.gc_pages_written", static_cast<double>(st.gc_pages_written),
         "count");
  r->Add("shard.user_pages_written",
         static_cast<double>(st.user_pages_written), "count");
  r->Add("shard.clean_emptiness_mean", st.MeanCleanEmptiness(), "ratio");
  r->Add("shard.wamp_spread", wmax - wmin, "ratio");

  // seal_pipeline
  r->Add("pipeline.enqueued", static_cast<double>(st.seal_queue_enqueued),
         "count");
  r->Add("pipeline.stalls", static_cast<double>(st.seal_queue_stalls),
         "count");
  r->Add("pipeline.stall_ratio",
         Ratio(static_cast<double>(st.seal_queue_stalls),
               static_cast<double>(st.seal_queue_enqueued)),
         "ratio");
  r->Add("pipeline.group_fsyncs", static_cast<double>(st.group_fsyncs),
         "count");
  r->Add("pipeline.ops_per_group_fsync",
         Ratio(static_cast<double>(st.group_fsync_ops),
               static_cast<double>(st.group_fsyncs)),
         "count");

  // io_backend
  const LatencySummary seal = summary(SpanKind::kBackendSeal);
  const LatencySummary sync = summary(SpanKind::kBackendSync);
  const LatencySummary ckpt = summary(SpanKind::kBackendCheckpoint);
  const LatencySummary recl = summary(SpanKind::kBackendReclaim);
  const LatencySummary read = summary(SpanKind::kBackendRead);
  r->Add("backend.seal_calls", static_cast<double>(seal.samples), "count");
  r->Add("backend.sync_calls", static_cast<double>(sync.samples), "count");
  r->Add("backend.checkpoint_calls", static_cast<double>(ckpt.samples),
         "count");
  r->Add("backend.reclaim_calls", static_cast<double>(recl.samples), "count");
  r->Add("backend.read_calls", static_cast<double>(read.samples), "count");
  r->Add("backend.seal_us.p50", seal.p50_us, "us", seal.samples);
  r->Add("backend.seal_us.p99", seal.p99_us, "us", seal.samples);
  r->Add("backend.sync_us.p50", sync.p50_us, "us", sync.samples);
  r->Add("backend.sync_us.p99", sync.p99_us, "us", sync.samples);
  r->Add("backend.checkpoint_us.p99", ckpt.p99_us, "us", ckpt.samples);
  r->Add("backend.reclaim_us.p99", recl.p99_us, "us", recl.samples);
  r->Add("backend.read_us.p50", read.p50_us, "us", read.samples);
  r->Add("backend.read_us.p99", read.p99_us, "us", read.samples);
  double busy = 0.0;
  for (SpanKind k : {SpanKind::kBackendSeal, SpanKind::kBackendSync,
                     SpanKind::kBackendCheckpoint, SpanKind::kBackendReclaim,
                     SpanKind::kBackendRead, SpanKind::kBackendOther}) {
    busy += total_s(k);
  }
  r->Add("backend.busy_s", busy, "s");
  r->Add("device.bytes_written", static_cast<double>(st.device_bytes_written),
         "bytes");
  r->Add("device.fsyncs", static_cast<double>(st.device_fsyncs), "count");
  r->Add("device.write_s", st.device_write_seconds, "s");
  r->Add("device.fsync_s", st.device_fsync_seconds, "s");
  r->Add("device.checkpoint_bytes",
         static_cast<double>(st.checkpoint_bytes_written), "bytes");
  r->Add("device.checkpoint_delta_share",
         Ratio(static_cast<double>(st.checkpoint_delta_records),
               static_cast<double>(st.checkpoint_delta_records +
                                   st.checkpoint_full_records)),
         "ratio");

  // recovery
  r->Add("recovery.close_s", m.close_s, "s");
  r->Add("recovery.meta_bytes", static_cast<double>(m.meta_bytes), "bytes");
  r->Add("recovery.data_bytes", static_cast<double>(m.data_bytes), "bytes");
  r->Add("recovery.meta_bytes_per_live_page",
         Ratio(static_cast<double>(m.meta_bytes),
               static_cast<double>(m.live_pages)),
         "bytes");
  r->Add("recovery.live_pages_verified",
         static_cast<double>(m.live_pages_verified), "count");

  // tpcc (per transaction type, as the client timed them)
  for (int k = 0; k < kTxnTypes; ++k) {
    const LatencySummary s = Summarize(m.txn_ns[k]);
    const std::string name = std::string("tpcc.") + kTxnNames[k] + "_us";
    if (k == 0) r->Add(name + ".p50", s.p50_us, "us", s.samples);
    r->Add(name + ".p99", s.p99_us, "us", s.samples);
  }

  // btree + buffer_pool
  const double txns = static_cast<double>(txn.count());
  r->Add("pool.hit_ratio",
         Ratio(static_cast<double>(m.pool_hits),
               static_cast<double>(m.pool_hits + m.pool_misses)),
         "ratio");
  r->Add("pool.misses_per_txn", Ratio(m.pool_misses, txns), "count");
  r->Add("pool.evictions_per_txn", Ratio(m.pool_evictions, txns), "count");
  r->Add("pool.write_backs_per_txn", Ratio(m.pool_write_backs, txns),
         "count");
  r->Add("pool.latch_acq_per_txn", Ratio(m.pool_latches, txns), "count");

  // engine -> store seam
  const LatencySummary wb = summary(SpanKind::kWritebackStore);
  r->Add("writeback.store_us.p50", wb.p50_us, "us", wb.samples);
  r->Add("writeback.store_us.p99", wb.p99_us, "us", wb.samples);
  r->Add("writeback.store_share",
         Ratio(total_s(SpanKind::kWritebackStore), total_s(SpanKind::kTpccTxn)),
         "ratio");

  // Self time of the sampled spans: duration minus the part covered by
  // child spans (children of a span run on its thread, one at a time).
  std::vector<Span> spans = t != nullptr ? t->Spans() : std::vector<Span>{};
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = std::lower_bound(
        spans.begin(), spans.end(), s.parent,
        [](const Span& a, uint64_t id) { return a.id < id; });
    if (it != spans.end() && it->id == s.parent) {
      child_ns[static_cast<size_t>(it - spans.begin())] +=
          s.end_ns - s.start_ns;
    }
  }
  const std::pair<SpanKind, const char*> self_kinds[] = {
      {SpanKind::kStoreWrite, "store_write"},
      {SpanKind::kStoreRead, "store_read"},
      {SpanKind::kTpccTxn, "tpcc_txn"},
      {SpanKind::kWritebackStore, "writeback_store"}};
  for (const auto& [kind, name] : self_kinds) {
    double sum = 0.0;
    uint64_t n = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].kind != kind) continue;
      sum += static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                 child_ns[i]);
      ++n;
    }
    r->Add(std::string("self.") + name + "_us.mean",
           Ratio(sum, static_cast<double>(n)) / 1e3, "us", n);
  }
  r->Add("trace.spans", static_cast<double>(spans.size()), "count");
  r->Add("trace.sample_every", t != nullptr ? t->sample_every() : 0.0,
         "count");
}

void Finish(const RunOptions& o, const Measured& m, RunOutcome* out) {
  AddMetrics(m, &out->report);
  out->ops_per_s = out->report.Find("ops_per_s")->value;
  if (m.tracer != nullptr) {
    const std::string path = o.dir + "/spans-" + o.workload + ".csv";
    if (!m.tracer->WriteSpans(path)) {
      out->errors.push_back("could not write " + path);
      out->correct = false;
    }
  }
}

uint64_t FileBytes(const std::string& dir, const std::string& ext) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ext) total += e.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------
// update-skew: the paper's own regime. Hot-cold 80:20 writes at F=0.85
// from 4 clients over 4 shards, null backend: cleaning, placement, the
// sort buffer and the shard locks do all the work.

RunOutcome RunUpdateSkew(const RunOptions& o) {
  RunOutcome out;
  Measured m;
  const StoreConfig cfg = Geometry(o);
  const uint32_t clients = o.clients > 0 ? o.clients : 4;
  const uint64_t pages = cfg.UserPagesForFillFactor(kFillFactor);
  const lss::HotColdWorkload gen(pages, 0.8);
  // Wamp has levelled off after four device-fulls of updates.
  const uint64_t warmup =
      o.warmup_ops > 0 ? o.warmup_ops : 4 * cfg.PhysicalPages();

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ShardedStore> store;
  for (uint32_t rep = 0; rep < o.setup_reps; ++rep) {
    store.reset();
    tracer = o.traced ? std::make_unique<Tracer>(kSampleEvery) : nullptr;
    const int64_t start = NowNs();
    StealMeter steal(clients);
    store = CreateStore(cfg, 4, tracer.get(), &out);
    if (store == nullptr) return out;
    Clients warm = MakeClients(clients, o.seed);
    for (PageId p = 0; p < pages; ++p) {
      Gate(&out, store->Write(p), "load Write");
    }
    RunClosedLoop(warm, 0, warmup / clients, [&](Client& c) {
      const Status s = store->Write(gen.NextPage(c.rng));
      if (!s.ok()) c.Fail("warm-up Write: " + s.ToString());
    });
    store->ResetMeasurement();
    m.setups.push_back(GivenSecondsSince(start, &steal));
    m.setup_peak_rss_mb = PeakRssMb();
    CollectFailures(warm, &out);
  }

  m.wamp_pages = 2 * cfg.PhysicalPages();
  Clients cl = MakeClients(clients, o.seed + 1);
  if (tracer) tracer->SetActive(true);
  m.slices = RunClosedLoop(cl, o.seconds, o.ops_per_client, [&](Client& c) {
    TimedWrite(*store, tracer.get(), c, gen.NextPage(c.rng));
  }, store.get());
  if (tracer) tracer->SetActive(false);

  m.tracer = tracer.get();
  m.stats = store->AggregatedStats();
  m.shard_wamp = store->PerShardWriteAmplification();
  m.Take(cl);
  CollectFailures(cl, &out);
  Gate(&out, store->CheckInvariants(), "CheckInvariants");
  if (store->LivePageCount() != pages) {
    Gate(&out,
         Status::Corruption(std::to_string(store->LivePageCount()) +
                            " live pages, expected " + std::to_string(pages)),
         "live-page count");
  }
  const int64_t close_start = NowNs();
  Gate(&out, store->Close(), "Close");
  m.close_s = SecondsSince(close_start);
  Finish(o, m, &out);
  return out;
}

// ---------------------------------------------------------------------
// durable-rw: one client over the file backend with async seal, group
// commit and delta checkpoints every 8 backend ops. 80% writes,
// scrambled Zipf 1.35 at F=0.85, and 20% verified reads, uniform over
// the pages: Zipf-hot pages mostly sit in the write buffer, which
// ReadPage does not serve, so uniform reads are the ones that exercise
// the backend read path. Ends with a timed Close and Open and a check of
// every live page.
//
// Zipf 1.35 is the paper's "90-10 Zipfian". With its "80-20" (0.99) the
// write median fell among writes whose page metadata is cached only when
// the host's other tenants leave the shared cache free, and moved by up
// to 25% from run to run. At 1.35 about 70% of writes re-update a page
// still in the write buffer, and the median is one of those.

RunOutcome RunDurableRw(const RunOptions& o) {
  RunOutcome out;
  Measured m;
  StoreConfig cfg = Geometry(o);
  const std::string dir = o.dir + "/durable-rw";
  cfg.backend = lss::BackendKind::kFile;
  cfg.backend_dir = dir;
  // No fsync: on a shared virtual disk fsync latency, not the code,
  // decided throughput (54k-79k ops/s over four back-to-back runs of one
  // seed). Seals, group commits, checkpoints and reclaims still run
  // through the pipeline and the file backend, into the page cache.
  cfg.backend_fsync = false;
  cfg.async_seal = true;
  cfg.checkpoint_interval_ops = 8;
  cfg.checkpoint_delta = true;
  const uint64_t pages = cfg.UserPagesForFillFactor(kFillFactor);
  const lss::ScrambledZipfGenerator zipf(pages, 1.35);
  // Three device-fulls of churn: the metadata log then holds several
  // device-fulls of history for Open to replay.
  const uint64_t churn =
      o.warmup_ops > 0 ? o.warmup_ops : 3 * cfg.PhysicalPages();

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ShardedStore> store;
  for (uint32_t rep = 0; rep < o.setup_reps; ++rep) {
    store.reset();
    tracer = o.traced ? std::make_unique<Tracer>(kSampleEvery) : nullptr;
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    const int64_t start = NowNs();
    StealMeter steal(2);
    // The shard's pipeline I/O thread inherits this thread's CPU: CPU 1,
    // beside the client's CPU 0.
    PinToCpu(1);
    store = CreateStore(cfg, 1, tracer.get(), &out);
    UnpinThread();
    if (store == nullptr) return out;
    lss::Rng rng(o.seed);
    for (PageId p = 0; p < pages; ++p) {
      Gate(&out, store->Write(p), "load Write");
    }
    for (uint64_t i = 0; i < churn; ++i) {
      Gate(&out, store->Write(zipf.Next(rng)), "churn Write");
    }
    store->ResetMeasurement();
    m.setups.push_back(GivenSecondsSince(start, &steal));
    m.setup_peak_rss_mb = PeakRssMb();
  }

  m.wamp_pages = 2 * cfg.PhysicalPages();
  Clients cl = MakeClients(1, o.seed + 1);
  std::vector<uint8_t> buf;
  if (tracer) tracer->SetActive(true);
  m.slices = RunClosedLoop(cl, o.seconds, o.ops_per_client, [&](Client& c) {
    if (c.rng.NextBounded(100) < 20) {
      TimedVerifiedRead(*store, tracer.get(), c, c.rng.NextBounded(pages),
                        &buf);
    } else {
      TimedWrite(*store, tracer.get(), c, zipf.Next(c.rng));
    }
  }, store.get(), /*steal_cpus=*/2);
  if (tracer) tracer->SetActive(false);

  m.tracer = tracer.get();
  m.stats = store->AggregatedStats();
  m.shard_wamp = store->PerShardWriteAmplification();
  m.Take(cl);
  CollectFailures(cl, &out);
  Gate(&out, store->CheckInvariants(), "CheckInvariants");
  m.live_pages = store->LivePageCount();

  int64_t start = NowNs();
  Gate(&out, store->Close(), "Close");
  m.close_s = SecondsSince(start);
  store.reset();
  m.meta_bytes = FileBytes(dir, ".meta");
  m.data_bytes = FileBytes(dir, ".dat");

  Status s;
  start = NowNs();
  store = ShardedStore::Open(cfg, 1, MakePolicyFactory(nullptr), &s);
  m.open_s = SecondsSince(start);
  if (store == nullptr) {
    Gate(&out, s.ok() ? Status::Corruption("no store") : s, "Open");
    Finish(o, m, &out);
    return out;
  }
  // Every page was loaded and none deleted, so each must be live and
  // carry its pattern after the reopen.
  if (store->LivePageCount() != pages) {
    Gate(&out,
         Status::Corruption(std::to_string(store->LivePageCount()) +
                            " live pages, expected " + std::to_string(pages)),
         "live-page count after Open");
  }
  for (PageId p = 0; p < pages; ++p) {
    ++out.attempted;
    const Status rs = store->ReadPage(p, &buf);
    if (rs.ok() && buf.size() == cfg.page_bytes &&
        lss::VerifyPagePayload(p, static_cast<uint32_t>(buf.size()),
                               buf.data())) {
      ++m.live_pages_verified;
    } else {
      Gate(&out, rs.ok() ? Status::Corruption("payload mismatch") : rs,
           "ReadPage(" + std::to_string(p) + ") after Open");
    }
  }
  Gate(&out, store->CheckInvariants(), "CheckInvariants after Open");
  Gate(&out, store->Close(), "Close after Open");
  store.reset();
  Finish(o, m, &out);
  return out;
}

// ---------------------------------------------------------------------
// tpcc-live: 4 workers over 4 warehouses of the fig6 scale-1 database
// (about 16.5k pages) with a 1500-page exact-LRU buffer pool, so the
// working set is larger than the cache. Every pool write-back is written
// live into a 4-shard null-backend store of 2048 segments, about 16x
// the database's starting size: the database grows by about 5k pages a
// second, and in 1024 segments it filled more than half the store by
// the end of a 10-second window, so cleaning grew costlier as the
// window went on. Set-up fills the log once, so cleaning runs from the
// window's start.

// The measuring client on this thread, if any: write-backs run on
// whichever thread evicts a dirty page.
thread_local Client* tls_client = nullptr;

RunOutcome RunTpccLive(const RunOptions& o) {
  RunOutcome out;
  Measured m;
  StoreConfig cfg = Geometry(o);
  if (o.segments == 0) cfg.num_segments = 2048;
  const uint32_t workers = o.clients > 0 ? o.clients : 4;
  lss::tpcc::TpccConfig tc;
  tc.warehouses = 4;
  tc.districts_per_warehouse = 10;
  tc.customers_per_district = 400;
  tc.items = 5000;
  tc.orders_per_district = 400;
  tc.buffer_pool_pages = 1500;
  tc.seed = o.seed;
  tc.workers = workers;
  tc.pool_policy = lss::EvictionPolicyKind::kExactLru;
  const uint64_t warmup_txns = o.warmup_ops > 0 ? o.warmup_ops : 40000;

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ShardedStore> store;
  std::unique_ptr<lss::tpcc::TpccDb> db;
  std::vector<lss::tpcc::TpccDb::Session> sessions;
  std::atomic<uint64_t> unattributed_failures{0};
  auto observer = [&](lss::PageNo page) {
    const int64_t start = NowNs();
    Status s;
    {
      ScopedSpan span(tracer.get(), SpanKind::kWritebackStore);
      s = store->Write(page);
    }
    if (Client* c = tls_client) {
      c->write_ns[CurrentInterval()].Record(ElapsedNs(start));
      if (!s.ok()) c->Fail("write-back Write: " + s.ToString());
    } else if (!s.ok()) {
      unattributed_failures.fetch_add(1);
    }
  };
  for (uint32_t rep = 0; rep < o.setup_reps; ++rep) {
    sessions.clear();
    db.reset();
    store.reset();
    tracer = o.traced ? std::make_unique<Tracer>(kSampleEvery) : nullptr;
    const int64_t start = NowNs();
    StealMeter steal(workers);
    store = CreateStore(cfg, 4, tracer.get(), &out);
    if (store == nullptr) return out;
    db = std::make_unique<lss::tpcc::TpccDb>(tc, observer);
    db->Populate();
    for (uint32_t w = 0; w < workers; ++w) {
      sessions.push_back(db->MakeSession(w));
    }
    Clients warm = MakeClients(workers, o.seed);
    RunClosedLoop(warm, 0, warmup_txns / workers, [&](Client& c) {
      db->RunNextTransaction(sessions[c.index]);
    });
    store->ResetMeasurement();
    m.setups.push_back(GivenSecondsSince(start, &steal));
    m.setup_peak_rss_mb = PeakRssMb();
  }

  const lss::BufferPool& pool = db->pool();
  const uint64_t hits = pool.hits(), misses = pool.misses(),
                 evictions = pool.evictions(), write_backs = pool.write_backs(),
                 latches = pool.latch_acquisitions();
  m.wamp_pages = 2 * cfg.PhysicalPages();
  Clients cl = MakeClients(workers, o.seed + 1);
  if (tracer) tracer->SetActive(true);
  m.slices = RunClosedLoop(cl, o.seconds, o.ops_per_client, [&](Client& c) {
    tls_client = &c;
    const int64_t start = NowNs();
    lss::tpcc::TpccDb::TxnType type;
    {
      ScopedSpan span(tracer.get(), SpanKind::kTpccTxn);
      type = db->RunNextTransaction(sessions[c.index]);
    }
    const uint64_t ns = ElapsedNs(start);
    c.txn_ns[static_cast<int>(type)].Record(ns);
    if (type == lss::tpcc::TpccDb::TxnType::kNewOrder) {
      c.op_ns[CurrentInterval()].Record(ns);
    }
    ++c.ops;
    tls_client = nullptr;
  }, store.get());
  if (tracer) tracer->SetActive(false);

  m.tracer = tracer.get();
  m.stats = store->AggregatedStats();
  m.shard_wamp = store->PerShardWriteAmplification();
  m.pool_hits = pool.hits() - hits;
  m.pool_misses = pool.misses() - misses;
  m.pool_evictions = pool.evictions() - evictions;
  m.pool_write_backs = pool.write_backs() - write_backs;
  m.pool_latches = pool.latch_acquisitions() - latches;
  m.Take(cl);
  CollectFailures(cl, &out);
  if (unattributed_failures.load() > 0) {
    Gate(&out, Status::Corruption(std::to_string(unattributed_failures) +
                                  " failed write-backs"),
         "write-back");
  }
  Gate(&out, db->CheckConsistency(), "TPC-C CheckConsistency");
  Gate(&out, store->CheckInvariants(), "CheckInvariants");
  sessions.clear();
  db.reset();
  const int64_t close_start = NowNs();
  Gate(&out, store->Close(), "Close");
  m.close_s = SecondsSince(close_start);
  Finish(o, m, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"update-skew", "durable-rw",
                                                 "tpcc-live"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  if (options.workload == "update-skew") {
    out = RunUpdateSkew(options);
  } else if (options.workload == "durable-rw") {
    out = RunDurableRw(options);
  } else if (options.workload == "tpcc-live") {
    out = RunTpccLive(options);
  } else {
    out.correct = false;
    out.errors.push_back("unknown workload '" + options.workload + "'");
  }
  // Non-OK statuses and failed verifications, over operations attempted.
  out.report.Add("failed_op_ratio",
                 Ratio(static_cast<double>(out.failed),
                       static_cast<double>(out.attempted)),
                 "ratio", out.attempted);
  return out;
}

}  // namespace perfbench

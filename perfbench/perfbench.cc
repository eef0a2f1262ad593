// The repository benchmark: one workload against ldc::DB per run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The DB runs on the in-memory Env behind one shared emulated SSD
// (device_env.h), with real background threads and closed-loop clients.
// Every value a read returns is checked against the version oracle
// (oracle.h). With --trace 0 the run prints the end-to-end metrics; with
// --trace 1 it attaches the engine's tracer, puts its own spans around every
// DB and Env call, and prints the per-layer metrics instead. The last line
// of standard output is one JSON object. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device_env.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/iterator.h"
#include "ldc/perf_context.h"
#include "ldc/statistics.h"
#include "ldc/trace.h"
#include "ldc/write_batch.h"
#include "oracle.h"
#include "span_fold.h"
#include "util/random.h"
#include "workload/zipf.h"

namespace ldc {
namespace perfbench {
namespace {

// Fixed for every workload.
constexpr int kBackgroundJobs = 2;
// Slow enough that the write-heavy workloads are bound by the device, not
// by the CPU the host leaves them (README.md, "Why 40 us/KB").
constexpr double kDeviceUsPerKb = 40.0;
constexpr int kSetupRounds = 3;
constexpr int kMultiGetKeys = 16;
constexpr int kScanLength = 100;
constexpr int kPreloadBatch = 100;
constexpr int kAgingPasses = 2;
constexpr uint32_t kPreloadVersion = 1 + kAgingPasses;
constexpr double kZipfTheta = 0.99;
// Traced runs: events per tracer shard (one shard per thread), and the
// number of buffered events at which the traced phase ends early so the
// drain and the final checks still fit without a dropped event.
constexpr size_t kTraceShardEvents = 1'500'000;
constexpr size_t kTracePhaseEvents = 1'200'000;
// Traced runs measure at most this long, so that the buffer holds the whole
// phase on every workload; the per-layer metrics are rates and ratios.
constexpr double kTracedSeconds = 3.0;
const char* const kDbName = "/perfbench";

struct Workload {
  const char* name;
  CompactionStyle style;
  uint64_t keys;
  int clients;
  size_t cache_bytes;
  bool zipf;
  // Operation mix in percent; scans take the rest.
  int put_pct;
  int get_pct;
  int multiget_pct;
};

// Every workload issues every operation kind so every run reports every
// latency metric; the shares named in README.md dominate each mix.
const Workload kWorkloads[] = {
    // LDC link/merge, the write pipeline and device contention; the key
    // space is ~3.4x the block cache, so Gets miss and probe linked slices.
    {"ldc-write-heavy", CompactionStyle::kLdc, 50000, 2, 4 << 20, false,
     70, 26, 2},
    // The same inputs under UDC: its merge loop, L0 stalls, the baseline.
    {"udc-write-heavy", CompactionStyle::kUdc, 50000, 2, 4 << 20, false,
     70, 26, 2},
    // The read path on a cached tree under skew; compaction barely runs.
    {"ldc-read-zipf", CompactionStyle::kLdc, 50000, 1, 64 << 20, true,
     5, 80, 13},
    // The iterator stack over frozen files, with half the ops writes.
    {"ldc-scan-mixed", CompactionStyle::kLdc, 50000, 1, 64 << 20, false,
     48, 4, 2},
};

double NowSeconds() { return MonoNanos() / 1e9; }

// Latency samples in microseconds over the whole measured phase.
class Samples {
 public:
  void Add(uint64_t start_ns, uint64_t end_ns) {
    us_.push_back((end_ns - start_ns) / 1e3);
  }
  void Merge(const Samples& other) {
    us_.insert(us_.end(), other.us_.begin(), other.us_.end());
  }
  size_t count() const { return us_.size(); }
  double sum_us() const {
    double sum = 0;
    for (double v : us_) sum += v;
    return sum;
  }
  double mean_us() const { return us_.empty() ? 0 : sum_us() / us_.size(); }
  double Percentile(double p) {
    if (us_.empty()) return 0;
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * us_.size()));
    rank = std::clamp<size_t>(rank, 1, us_.size()) - 1;
    std::nth_element(us_.begin(), us_.begin() + rank, us_.end());
    return us_[rank];
  }

 private:
  std::vector<double> us_;
};

// PerfContext counters a point lookup moves; summed over Gets and every
// key of MultiGets.
struct LookupPerf {
  uint64_t keys = 0;
  uint64_t block_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t bloom_checks = 0;
  uint64_t bloom_useful = 0;
  uint64_t bloom_skipped = 0;
  uint64_t slices = 0;
  uint64_t mem_hits = 0;

  void AddDelta(const PerfContext& before, const PerfContext& after,
                uint64_t n) {
    keys += n;
    block_reads += after.block_read_count - before.block_read_count;
    cache_hits += after.block_cache_hit_count - before.block_cache_hit_count;
    bloom_checks += after.bloom_filter_checks - before.bloom_filter_checks;
    bloom_useful += after.bloom_filter_useful - before.bloom_filter_useful;
    bloom_skipped += after.bloom_skipped_tables - before.bloom_skipped_tables;
    slices += after.slice_sources_checked - before.slice_sources_checked;
    mem_hits += (after.memtable_hits - before.memtable_hits) +
                (after.imm_memtable_hits - before.imm_memtable_hits);
  }
  void Merge(const LookupPerf& o) {
    keys += o.keys;
    block_reads += o.block_reads;
    cache_hits += o.cache_hits;
    bloom_checks += o.bloom_checks;
    bloom_useful += o.bloom_useful;
    bloom_skipped += o.bloom_skipped;
    slices += o.slices;
    mem_hits += o.mem_hits;
  }
};

// What one client did in the measured phase.
struct ClientResult {
  uint64_t ops = 0;
  uint64_t failed = 0;     // calls that returned an error
  uint64_t incorrect = 0;  // calls whose output the oracle rejected
  uint64_t puts = 0;
  Samples put, get, multiget, scan;
  uint64_t seek_ns = 0;      // NewIterator + Seek, summed over scans
  uint64_t next_ns = 0;      // the Next loop, summed over scans
  uint64_t scanned = 0;      // entries returned by scans
  LookupPerf lookup;
  std::string first_error;

  void Record(Verdict v, const char* op) {
    if (v == Verdict::kOk) return;
    if (v == Verdict::kError) {
      failed++;
    } else {
      incorrect++;
    }
    if (first_error.empty()) {
      first_error = std::string(op) + ": " + VerdictName(v);
    }
  }
};

// One DB on its own in-memory device.
struct Instance {
  std::unique_ptr<Env> mem;
  std::unique_ptr<SharedDeviceEnv> env;
  std::unique_ptr<Statistics> stats;
  std::unique_ptr<const FilterPolicy> bloom;
  std::unique_ptr<DB> db;
  Options options;

  explicit Instance(const Workload& w)
      : mem(NewMemEnv()),
        env(std::make_unique<SharedDeviceEnv>(mem.get(), kDeviceUsPerKb)),
        stats(std::make_unique<Statistics>()),
        bloom(NewBloomFilterPolicy(10)) {
    // Scaled like bench_common: 128-KB memtables and tables, a 512-KB L1
    // and fan-out 10 put the 50k aged keys three levels deep below L0.
    options.env = env.get();
    options.create_if_missing = true;
    options.compaction_style = w.style;
    options.write_buffer_size = 128 * 1024;
    options.max_file_size = 128 * 1024;
    options.level1_max_bytes = 512 * 1024;
    options.fan_out = 10;
    options.max_open_files = 50000;
    options.block_cache_capacity = w.cache_bytes;
    options.max_background_jobs = kBackgroundJobs;
    options.filter_policy = bloom.get();
    options.statistics = stats.get();
  }

  Status Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options, kDbName, &raw);
    db.reset(raw);
    return s;
  }
  Status Reopen() {
    db.reset();
    return Open();
  }

  uint64_t DirBytes() {
    std::vector<std::string> children;
    uint64_t total = 0;
    if (!env->GetChildren(kDbName, &children).ok()) return 0;
    for (const std::string& c : children) {
      uint64_t size = 0;
      if (env->GetFileSize(std::string(kDbName) + "/" + c, &size).ok()) {
        total += size;
      }
    }
    return total;
  }

  uint64_t Property(const char* name) {
    std::string v;
    return db->GetProperty(name, &v) ? std::strtoull(v.c_str(), nullptr, 10)
                                     : 0;
  }
};

// Shared by the clients of one run.
struct RunState {
  const Workload* w = nullptr;
  DB* db = nullptr;
  VersionOracle* oracle = nullptr;
  Tracer* tracer = nullptr;  // null when untraced
  std::atomic<bool> stop{false};
};

class Client {
 public:
  // `op_seed` drives the operation choice, `key_seed` the keys.
  Client(RunState* run, int id, uint64_t op_seed, uint64_t key_seed)
      : run_(run),
        id_(id),
        rng_(op_seed),
        chooser_(run->oracle->num_keys(), run->w->zipf ? kZipfTheta : 0,
                 key_seed),
        value_(kValueSize, '\0') {
    keys_.resize(kMultiGetKeys);
    for (auto& k : keys_) k.resize(kKeySize);
    scan_keys_.resize(kScanLength);
    scan_values_.resize(kScanLength);
    lo_.resize(kScanLength);
  }

  void Run() {
    const Workload& w = *run_->w;
    while (!run_->stop.load(std::memory_order_relaxed)) {
      const int r = static_cast<int>(rng_.Uniform(100));
      if (r < w.put_pct) {
        Put();
      } else if (r < w.put_pct + w.get_pct) {
        Get();
      } else if (r < w.put_pct + w.get_pct + w.multiget_pct) {
        MultiGet();
      } else {
        Scan();
      }
      result_.ops++;
    }
  }

  ClientResult& result() { return result_; }

 private:
  uint64_t ReadKey() { return chooser_.Next(); }

  // A key this client owns: owners are assigned by index modulo clients.
  uint64_t OwnKey() {
    const uint64_t n = run_->oracle->num_keys();
    const uint64_t clients = static_cast<uint64_t>(run_->w->clients);
    uint64_t k = ReadKey();
    k = k - k % clients + static_cast<uint64_t>(id_);
    return k < n ? k : k - clients;
  }

  void Put() {
    const uint64_t index = OwnKey();
    VersionOracle* oracle = run_->oracle;
    const uint32_t version = oracle->BeginWrite(index);
    char key[kKeySize];
    EncodeKey(index, key);
    EncodeValue(index, version, value_.data());
    Status s;
    {
      TraceSpan span(run_->tracer, TraceCat::kWrite, "bench.put");
      const uint64_t t0 = MonoNanos();
      s = run_->db->Put(WriteOptions(), Slice(key, kKeySize), value_);
      const uint64_t t1 = MonoNanos();
      result_.put.Add(t0, t1);
    }
    result_.puts++;
    if (s.ok()) oracle->EndWrite(index, version);
    result_.Record(s.ok() ? Verdict::kOk : Verdict::kError, "put");
  }

  void Get() {
    const uint64_t index = ReadKey();
    char key[kKeySize];
    EncodeKey(index, key);
    const uint32_t lo = run_->oracle->acked(index);
    const PerfContext before = *GetPerfContext();
    Status s;
    {
      TraceSpan span(run_->tracer, TraceCat::kGet, "bench.get");
      const uint64_t t0 = MonoNanos();
      s = run_->db->Get(ReadOptions(), Slice(key, kKeySize), &got_);
      const uint64_t t1 = MonoNanos();
      result_.get.Add(t0, t1);
    }
    result_.lookup.AddDelta(before, *GetPerfContext(), 1);
    const uint32_t hi = run_->oracle->issued(index);
    result_.Record(CheckLookup(index, s, got_, lo, hi), "get");
  }

  void MultiGet() {
    uint64_t index[kMultiGetKeys];
    uint32_t lo[kMultiGetKeys];
    std::vector<Slice> slices;
    slices.reserve(kMultiGetKeys);
    for (int i = 0; i < kMultiGetKeys; i++) {
      index[i] = ReadKey();
      EncodeKey(index[i], keys_[i].data());
      lo[i] = run_->oracle->acked(index[i]);
      slices.emplace_back(keys_[i]);
    }
    const PerfContext before = *GetPerfContext();
    std::vector<Status> statuses;
    {
      TraceSpan span(run_->tracer, TraceCat::kGet, "bench.multiget");
      const uint64_t t0 = MonoNanos();
      statuses = run_->db->MultiGet(ReadOptions(), slices, &values_);
      const uint64_t t1 = MonoNanos();
      result_.multiget.Add(t0, t1);
    }
    result_.lookup.AddDelta(before, *GetPerfContext(), kMultiGetKeys);
    Verdict v = statuses.size() == kMultiGetKeys &&
                        values_.size() == kMultiGetKeys
                    ? Verdict::kOk
                    : Verdict::kError;
    for (int i = 0; i < kMultiGetKeys && v == Verdict::kOk; i++) {
      v = CheckLookup(index[i], statuses[i], values_[i], lo[i],
                      run_->oracle->issued(index[i]));
    }
    result_.Record(v, "multiget");
  }

  void Scan() {
    const uint64_t start = ReadKey();
    const uint64_t n = run_->oracle->num_keys();
    const uint64_t want = std::min<uint64_t>(kScanLength, n - start);
    for (uint64_t i = 0; i < want; i++) lo_[i] = run_->oracle->acked(start + i);
    char key[kKeySize];
    EncodeKey(start, key);
    size_t got = 0;
    Status s;
    {
      TraceSpan span(run_->tracer, TraceCat::kGet, "bench.scan");
      const uint64_t t0 = MonoNanos();
      std::unique_ptr<Iterator> it;
      {
        TraceSpan seek(run_->tracer, TraceCat::kGet, "bench.iter.seek");
        it.reset(run_->db->NewIterator(ReadOptions()));
        it->Seek(Slice(key, kKeySize));
      }
      const uint64_t t1 = MonoNanos();
      {
        TraceSpan next(run_->tracer, TraceCat::kGet, "bench.iter.next");
        for (; it->Valid() && got < kScanLength; it->Next(), got++) {
          scan_keys_[got].assign(it->key().data(), it->key().size());
          scan_values_[got].assign(it->value().data(), it->value().size());
        }
        s = it->status();
      }
      const uint64_t t2 = MonoNanos();
      it.reset();
      const uint64_t t3 = MonoNanos();
      result_.scan.Add(t0, t3);
      result_.seek_ns += t1 - t0;
      result_.next_ns += t2 - t1;
      result_.scanned += got;
    }
    Verdict v = s.ok() ? Verdict::kOk : Verdict::kError;
    ScanChecker check(start, kScanLength, n);
    for (size_t i = 0; i < got && v == Verdict::kOk; i++) {
      const uint64_t k = check.next();
      const uint32_t lo = k < start + want ? lo_[k - start] : 0;
      const uint32_t hi = k < n ? run_->oracle->issued(k) : 0;
      v = check.Add(scan_keys_[i], scan_values_[i], lo, hi);
    }
    if (v == Verdict::kOk) v = check.Finish();
    result_.Record(v, "scan");
  }

  RunState* const run_;
  const int id_;
  Random rng_;
  ZipfGenerator chooser_;  // uniform when the workload is not skewed
  std::string value_;
  std::string got_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
  std::vector<std::string> scan_keys_;
  std::vector<std::string> scan_values_;
  std::vector<uint32_t> lo_;
  ClientResult result_;
};

// Final read-back: every key must hold exactly its last acknowledged
// version through Get, MultiGet and one full scan. Returns the number of
// calls made; adds failures to *result.
uint64_t VerifyAll(DB* db, const VersionOracle& oracle, ClientResult* result) {
  const uint64_t n = oracle.num_keys();
  uint64_t calls = 0;
  std::string value;
  char key[kKeySize];
  for (uint64_t i = 0; i < n; i++, calls++) {
    EncodeKey(i, key);
    Status s = db->Get(ReadOptions(), Slice(key, kKeySize), &value);
    const uint32_t v = oracle.acked(i);
    result->Record(CheckLookup(i, s, value, v, v), "verify-get");
  }
  std::vector<std::string> keys(kMultiGetKeys, std::string(kKeySize, '\0'));
  std::vector<std::string> values;
  for (uint64_t i = 0; i < n; i += kMultiGetKeys, calls++) {
    const uint64_t m = std::min<uint64_t>(kMultiGetKeys, n - i);
    std::vector<Slice> slices;
    for (uint64_t j = 0; j < m; j++) {
      EncodeKey(i + j, keys[j].data());
      slices.emplace_back(keys[j]);
    }
    std::vector<Status> st = db->MultiGet(ReadOptions(), slices, &values);
    Verdict verdict = st.size() == m && values.size() == m ? Verdict::kOk
                                                           : Verdict::kError;
    for (uint64_t j = 0; j < m && verdict == Verdict::kOk; j++) {
      const uint32_t v = oracle.acked(i + j);
      verdict = CheckLookup(i + j, st[j], values[j], v, v);
    }
    result->Record(verdict, "verify-multiget");
  }
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  ScanChecker check(0, n, n);
  Verdict verdict = Verdict::kOk;
  for (it->SeekToFirst(); it->Valid() && verdict == Verdict::kOk;
       it->Next()) {
    const uint64_t k = check.next();
    const uint32_t v = k < n ? oracle.acked(k) : 0;
    verdict = check.Add(it->key(), it->value(), v, v);
  }
  if (verdict == Verdict::kOk) {
    verdict = it->status().ok() ? check.Finish() : Verdict::kError;
  }
  result->Record(verdict, "verify-scan");
  return calls + 1;
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload NAME "
                       "--seed N --seconds S --trace 0|1\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return args;
}

[[noreturn]] void Fatal(const char* what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

// Builds a fresh DB holding every key at kPreloadVersion: a sorted load,
// then kAgingPasses overwrites of every key in a fixed random order, so the
// tree starts the measured phase aged (frozen files, links, several levels)
// rather than freshly sorted. Then a drain, close and reopen, and a full
// scan that checks the preload and warms the block cache. The device is not
// emulated here; the preload is the same for every seed.
std::unique_ptr<Instance> SetUp(const Workload& w, Tracer* tracer) {
  auto inst = std::make_unique<Instance>(w);
  inst->env->SetEmulation(false);
  inst->options.max_background_jobs = 1;
  Status s = inst->Open();
  if (!s.ok()) Fatal("open", s);
  std::vector<uint64_t> order(w.keys);
  for (uint64_t i = 0; i < w.keys; i++) order[i] = i;
  std::string value(kValueSize, '\0');
  char key[kKeySize];
  for (uint32_t version = 1; version <= kPreloadVersion && s.ok(); version++) {
    if (version > 1) {
      Random rng(version);
      for (uint64_t i = w.keys - 1; i > 0; i--) {
        std::swap(order[i], order[rng.Uniform(i + 1)]);
      }
    }
    for (uint64_t i = 0; i < w.keys && s.ok();) {
      WriteBatch batch;
      for (int j = 0; j < kPreloadBatch && i < w.keys; j++, i++) {
        EncodeKey(order[i], key);
        EncodeValue(order[i], version, value.data());
        batch.Put(Slice(key, kKeySize), value);
      }
      s = inst->db->Write(WriteOptions(), &batch);
      // One job at a time, and settling after every batch (far less than a
      // memtable), runs each flush and the jobs it triggers in a fixed
      // order before the next switch, so the tree does not depend on
      // thread timing.
      if (s.ok()) s = inst->db->WaitForIdle();
    }
  }
  // Recovery of the last memtable and the jobs it triggers still run one at
  // a time; the second reopen finds nothing to recover.
  if (s.ok()) s = inst->Reopen();
  if (s.ok()) s = inst->db->WaitForIdle();
  if (!s.ok()) Fatal("preload", s);
  inst->options.max_background_jobs = kBackgroundJobs;
  if (tracer != nullptr) {
    inst->options.tracer = tracer;
    inst->mem->SetIoTracer(tracer);
    inst->env->SetSpanTracer(tracer);
  }
  s = inst->Reopen();
  if (s.ok()) s = inst->db->WaitForIdle();
  if (!s.ok()) Fatal("reopen after preload", s);
  std::unique_ptr<Iterator> it(inst->db->NewIterator(ReadOptions()));
  ScanChecker check(0, w.keys, w.keys);
  Verdict v = Verdict::kOk;
  for (it->SeekToFirst(); it->Valid() && v == Verdict::kOk; it->Next()) {
    v = check.Add(it->key(), it->value(), kPreloadVersion, kPreloadVersion);
  }
  if (v == Verdict::kOk) v = it->status().ok() ? check.Finish() : Verdict::kError;
  it.reset();
  inst->env->SetEmulation(true);
  if (v != Verdict::kOk) {
    std::fprintf(stderr, "perfbench: preload check failed: %s\n",
                 VerdictName(v));
    std::exit(1);
  }
  return inst;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

void PrintLevels(Instance* inst) {
  std::printf("levels:");
  for (int level = 0; level < 7; level++) {
    char name[64];
    std::snprintf(name, sizeof(name), "ldc.num-files-at-level%d", level);
    std::printf(" L%d=%" PRIu64, level, inst->Property(name));
  }
  std::printf("  frozen=%" PRIu64 "\n", inst->Property("ldc.frozen-files"));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  std::printf("perfbench %s: %s, %" PRIu64 " keys, %d client(s), %d bg jobs, "
              "cache %zu MB, %s keys, device %.0f us/KB, seed %" PRIu64
              ", %.0f s%s\n",
              w.name, w.style == CompactionStyle::kLdc ? "LDC" : "UDC",
              w.keys, w.clients, kBackgroundJobs, w.cache_bytes >> 20,
              w.zipf ? "zipf 0.99" : "uniform", kDeviceUsPerKb, args.seed,
              args.seconds, args.trace ? ", traced" : "");

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(kTraceShardEvents * 16);

  // Set-up: several rounds, the median is setup_s; the last one is kept.
  VersionOracle oracle(w.keys);
  oracle.Preloaded(kPreloadVersion);
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int round = 0; round < kSetupRounds; round++) {
    inst.reset();
    const double t0 = NowSeconds();
    inst = SetUp(w, round + 1 == kSetupRounds ? tracer.get() : nullptr);
    setup_s.push_back(NowSeconds() - t0);
  }
  PrintLevels(inst.get());

  // Measured phase.
  RunState run;
  run.w = &w;
  run.db = inst->db.get();
  run.oracle = &oracle;
  run.tracer = tracer.get();
  const TickerSnapshot tickers = inst->stats->Snapshot();
  const uint64_t dev_bytes0 = inst->env->total_write_bytes();
  uint64_t hint_bytes0[SharedDeviceEnv::kHintCount];
  for (int h = 0; h < SharedDeviceEnv::kHintCount; h++) {
    hint_bytes0[h] = inst->env->write_bytes(static_cast<WriteHint>(h));
  }
  const uint64_t read_bytes0 = inst->env->read_bytes();
  const uint64_t wait_ns0 = inst->env->device_wait_ns();

  std::vector<std::unique_ptr<Client>> clients;
  Random seeds(args.seed);
  for (int c = 0; c < w.clients; c++) {
    const uint64_t op_seed = seeds.Next64();
    clients.push_back(
        std::make_unique<Client>(&run, c, op_seed, seeds.Next64()));
  }
  const double seconds =
      args.trace ? std::min(args.seconds, kTracedSeconds) : args.seconds;
  // Spans before this point belong to the set-up and are not folded.
  const uint64_t trace_start = tracer != nullptr ? tracer->Now() : 0;
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back([&c] { c->Run(); });
  while (NowSeconds() - start < seconds) {
    if (tracer != nullptr && tracer->events() >= kTracePhaseEvents) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  run.stop.store(true);
  for (std::thread& t : threads) t.join();
  const double clients_done = NowSeconds();
  Status s = inst->db->WaitForIdle();
  if (!s.ok()) Fatal("drain", s);
  const double elapsed = NowSeconds() - start;

  ClientResult total;
  for (auto& c : clients) {
    ClientResult& r = c->result();
    total.ops += r.ops;
    total.failed += r.failed;
    total.incorrect += r.incorrect;
    total.puts += r.puts;
    total.put.Merge(r.put);
    total.get.Merge(r.get);
    total.multiget.Merge(r.multiget);
    total.scan.Merge(r.scan);
    total.seek_ns += r.seek_ns;
    total.next_ns += r.next_ns;
    total.scanned += r.scanned;
    total.lookup.Merge(r.lookup);
    if (total.first_error.empty()) total.first_error = r.first_error;
  }
  const TickerSnapshot delta = inst->stats->SnapshotDelta(tickers);
  const double user_bytes = static_cast<double>(total.puts) *
                            (kKeySize + kValueSize);
  const double dev_bytes =
      static_cast<double>(inst->env->total_write_bytes() - dev_bytes0);
  const double live_bytes = static_cast<double>(w.keys) *
                            (kKeySize + kValueSize);
  const double write_amp = Ratio(dev_bytes, user_bytes);
  const double space_amp = Ratio(inst->DirBytes(), live_bytes);
  const uint64_t frozen_bytes = inst->Property("ldc.frozen-bytes");
  const uint64_t frozen_files = inst->Property("ldc.frozen-files");
  std::printf("measured %.2f s (clients %.2f s + drain %.2f s): %" PRIu64
              " ops, %" PRIu64 " puts\n",
              elapsed, clients_done - start, NowSeconds() - clients_done,
              total.ops, total.puts);
  PrintLevels(inst.get());

  std::map<std::string, SpanRow> spans;
  uint64_t trace_events = 0;
  if (tracer != nullptr) {
    trace_events = tracer->events();
    std::vector<TraceEvent> events = tracer->Snapshot();
    events.erase(events.begin(),
                 std::lower_bound(events.begin(), events.end(), trace_start,
                                  [](const TraceEvent& e, uint64_t ts) {
                                    return e.ts < ts;
                                  }));
    spans = FoldSpans(events);
    std::printf("%-22s %10s %14s %14s\n", "span", "count", "total_us",
                "self_us");
    for (const auto& [name, row] : spans) {
      std::printf("%-22s %10" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
                  name.c_str(), row.count, row.total_us, row.self_us);
    }
  }

  // Final read-back, live and after close + reopen.
  const double verify_start = NowSeconds();
  uint64_t verify_calls = VerifyAll(inst->db.get(), oracle, &total);
  s = inst->Reopen();
  if (!s.ok()) Fatal("reopen for verification", s);
  verify_calls += 1 + VerifyAll(inst->db.get(), oracle, &total);

  const bool amp_ok = write_amp >= 1.0 && space_amp >= 1.0;
  const bool correct = total.incorrect == 0 && amp_ok;
  if (!total.first_error.empty()) {
    std::printf("first failure: %s\n", total.first_error.c_str());
  }
  if (!amp_ok) {
    std::printf("amplification check failed: write_amp %.3f space_amp %.3f\n",
                write_amp, space_amp);
  }
  for (auto [name, samples] :
       {std::pair<const char*, Samples*>{"put", &total.put},
        {"get", &total.get},
        {"multiget", &total.multiget},
        {"scan", &total.scan}}) {
    std::printf("%s: %zu samples, mean %.1f p50 %.1f p90 %.1f p95 %.1f "
                "p99 %.1f us\n",
                name, samples->count(), samples->mean_us(),
                samples->Percentile(50),
                samples->Percentile(90), samples->Percentile(95),
                samples->Percentile(99));
  }
  std::printf("verification: %" PRIu64 " calls in %.2f s\n", verify_calls,
              NowSeconds() - verify_start);
  std::printf("setup rounds:");
  for (double t : setup_s) std::printf(" %.3f s", t);
  std::printf("\n");

  std::vector<Metric> metrics;
  auto span_total = [&](const char* name) -> double {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_us);
  };
  auto span_count = [&](const char* name) -> double {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto span_self = [&](const char* name) -> double {
    auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : Ratio(it->second.self_us, it->second.count);
  };
  const double puts = static_cast<double>(total.puts);
  const double mb = user_bytes / (1 << 20);
  const LookupPerf& lp = total.lookup;
  if (!args.trace) {
    std::sort(setup_s.begin(), setup_s.end());
    metrics = {
        {"throughput_ops_s", total.ops / elapsed, "ops/s"},
        {"put_mean_us", total.put.mean_us(), "us"},
        {"put_p95_us", total.put.Percentile(95), "us"},
        {"get_p50_us", total.get.Percentile(50), "us"},
        {"get_p95_us", total.get.Percentile(95), "us"},
        {"multiget_p50_us", total.multiget.Percentile(50), "us"},
        {"scan_p50_us", total.scan.Percentile(50), "us"},
        {"write_amp", write_amp, "B/B"},
        {"space_amp", space_amp, "B/B"},
        {"setup_s", setup_s[setup_s.size() / 2], "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const double stall_us = span_total("stall.l0_slowdown") +
                            span_total("stall.memtable_wait") +
                            span_total("stall.l0_stop");
    const double stalls = span_count("stall.l0_slowdown") +
                          span_count("stall.memtable_wait") +
                          span_count("stall.l0_stop");
    metrics = {
        {"db.write.queue_wait_us", Ratio(span_total("write.queue_wait"), puts),
         "us"},
        {"wal.append_us", Ratio(span_total("wal.append"), puts), "us"},
        {"memtbl.insert_us", Ratio(span_total("memtable.insert"), puts), "us"},
        {"db.stall_us", Ratio(stall_us, puts), "us"},
        {"db.stalls", stalls, "count"},
        {"job.flush.busy_us", Ratio(span_total("job.flush"), elapsed), "us/s"},
        {"job.udc_compaction.busy_us",
         Ratio(span_total("job.udc_compaction"), elapsed), "us/s"},
        {"job.ldc_merge.busy_us", Ratio(span_total("job.ldc_merge"), elapsed),
         "us/s"},
        {"job.stage.read_us", Ratio(span_total("stage.read"), elapsed), "us/s"},
        {"job.stage.merge_us", Ratio(span_total("stage.merge"), elapsed),
         "us/s"},
        {"job.stage.write_us", Ratio(span_total("stage.write"), elapsed),
         "us/s"},
        {"compaction.read_bytes",
         Ratio(delta.Get(kCompactionReadBytes), user_bytes), "B/B"},
        {"compaction.write_bytes",
         Ratio(delta.Get(kCompactionWriteBytes), user_bytes), "B/B"},
        {"flush.write_bytes", Ratio(delta.Get(kFlushWriteBytes), user_bytes),
         "B/B"},
        {"ldc.links", Ratio(delta.Get(kLdcLinks), mb), "1/MB"},
        {"ldc.slices_created", Ratio(delta.Get(kLdcSlicesCreated), mb), "1/MB"},
        {"ldc.merges", Ratio(delta.Get(kLdcMerges), mb), "1/MB"},
        {"ldc.frozen_reclaimed",
         Ratio(delta.Get(kLdcFrozenFilesReclaimed), mb), "1/MB"},
        {"ldc.frozen_bytes", static_cast<double>(frozen_bytes), "B"},
        {"ldc.frozen_files", static_cast<double>(frozen_files), "count"},
        {"version.slices_per_get", Ratio(lp.slices, lp.keys), "1/key"},
        {"memtbl.hit_ratio", Ratio(lp.mem_hits, lp.keys), "ratio"},
        {"table.bloom.useful_ratio", Ratio(lp.bloom_useful, lp.bloom_checks),
         "ratio"},
        {"table.bloom.skipped_per_get", Ratio(lp.bloom_skipped, lp.keys),
         "1/key"},
        {"table.block_reads_per_get", Ratio(lp.block_reads, lp.keys), "1/key"},
        {"cache.block.hit_ratio",
         Ratio(lp.cache_hits, lp.cache_hits + lp.block_reads), "ratio"},
        {"db.multiget.us_per_key",
         Ratio(total.multiget.sum_us(),
               static_cast<double>(total.multiget.count()) * kMultiGetKeys),
         "us"},
        {"db_iter.seek_us", Ratio(total.seek_ns / 1e3, total.scan.count()),
         "us"},
        {"db_iter.next_us", Ratio(total.next_ns / 1e3, total.scanned), "us"},
        {"env.write_bytes.wal",
         Ratio(inst->env->write_bytes(WriteHint::kWal) -
                   hint_bytes0[static_cast<int>(WriteHint::kWal)],
               user_bytes),
         "B/B"},
        {"env.write_bytes.flush",
         Ratio(inst->env->write_bytes(WriteHint::kFlush) -
                   hint_bytes0[static_cast<int>(WriteHint::kFlush)],
               user_bytes),
         "B/B"},
        {"env.write_bytes.compaction",
         Ratio(inst->env->write_bytes(WriteHint::kCompaction) -
                   hint_bytes0[static_cast<int>(WriteHint::kCompaction)],
               user_bytes),
         "B/B"},
        {"env.device_wait_us",
         Ratio((inst->env->device_wait_ns() - wait_ns0) / 1e3, elapsed),
         "us/s"},
        {"env.read_bytes",
         Ratio(inst->env->read_bytes() - read_bytes0, elapsed), "B/s"},
    };
    for (const char* name :
         {"bench.put", "bench.get", "bench.multiget", "bench.scan",
          "bench.iter.seek", "bench.iter.next", "db.write", "write.queue_wait",
          "wal.append", "memtable.insert", "db.get", "db.multiget",
          "env.append", "io.write", "env.read", "io.read", "job.flush",
          "job.udc_compaction", "job.ldc_merge", "table.build"}) {
      metrics.push_back({std::string("self_us.") + name, span_self(name), "us"});
    }
    metrics.push_back({"trace.events", static_cast<double>(trace_events),
                       "count"});
    metrics.push_back({"trace.dropped_events",
                       static_cast<double>(tracer->dropped()), "count"});
    metrics.push_back({"trace.throughput_ops_s", total.ops / elapsed, "ops/s"});
    metrics.push_back({"trace.measured_s", elapsed, "s"});
  }
  PrintResult(correct, total.ops + verify_calls, total.failed + total.incorrect,
              metrics);
  inst.reset();
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace ldc

int main(int argc, char** argv) { return ldc::perfbench::Main(argc, argv); }

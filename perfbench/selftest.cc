// Self-tests of the benchmark's own parts: the shared-device Env and the
// correctness oracle. Exits non-zero on the first failed check.
//
//   .bench_build/perfbench/perfbench_selftest

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "device_env.h"
#include "ldc/env.h"
#include "oracle.h"
#include "span_fold.h"

namespace ldc {
namespace perfbench {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      g_failures++;                                                  \
    }                                                                \
  } while (0)

// --- Shared device -------------------------------------------------------

// Deadlines come from the timeline: a caller that arrives late (it
// overslept its previous deadline) is charged from the end of the previous
// transfer, so its lateness does not move the deadlines after it.
void TestOversleepDoesNotPushDeadlines() {
  DeviceTimeline device(/*us_per_kb=*/1000.0, /*grace_ns=*/500'000);
  // 1 KB = 1000 us = 1'000'000 ns per transfer.
  CHECK(device.Reserve(1024, 0) == 1'000'000);
  // Arrives 300 us after its deadline: still booked back to back.
  CHECK(device.Reserve(1024, 1'300'000) == 2'000'000);
  CHECK(device.Reserve(1024, 1'400'000) == 3'000'000);
  // A writer far ahead of the device queues behind it.
  CHECK(device.Reserve(2048, 0) == 5'000'000);
  // Idle time beyond the grace window is lost, as on a real device.
  CHECK(device.Reserve(1024, 10'000'000) == 10'500'000);
}

struct Harness {
  std::unique_ptr<Env> mem{NewMemEnv()};
  SharedDeviceEnv env;
  explicit Harness(double us_per_kb) : env(mem.get(), us_per_kb) {}
};

// Several writers share one bandwidth: elapsed time ~= total bytes x rate,
// however the bytes are split across threads and files.
void TestConcurrentWritersShareBandwidth() {
  constexpr double kUsPerKb = 20.0;
  constexpr int kThreads = 4;
  constexpr int kAppends = 150;
  constexpr size_t kChunk = 4096;
  Harness h(kUsPerKb);
  const std::string chunk(kChunk, 'x');
  const uint64_t start = MonoNanos();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, &chunk, t] {
      WritableFile* f = nullptr;
      const WriteHint hint = t % 2 == 0 ? WriteHint::kFlush
                                        : WriteHint::kCompaction;
      if (!h.env.NewWritableFile("/d/f" + std::to_string(t), hint, &f).ok()) {
        return;
      }
      for (int i = 0; i < kAppends; i++) f->Append(chunk);
      f->Close();
      delete f;
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_us = (MonoNanos() - start) / 1e3;
  const double expect_us = kThreads * kAppends * (kChunk / 1024.0) * kUsPerKb;
  std::printf("device: %d writers, %.0f us elapsed, %.0f us expected\n",
              kThreads, elapsed_us, expect_us);
  CHECK(elapsed_us >= 0.95 * expect_us);
  CHECK(elapsed_us <= 1.25 * expect_us);
  CHECK(h.env.total_write_bytes() == kThreads * kAppends * kChunk);
}

// Both NewWritableFile overloads, and appendable files, go through the
// device; bytes are tallied by the hint the file was created with.
void TestBothOverloadsWrappedAndTalliedByHint() {
  Harness h(0.0);  // no sleeping; only the counters matter here
  Env* env = &h.env;
  WritableFile* f = nullptr;
  CHECK(env->NewWritableFile("/d/plain", &f).ok());
  f->Append(std::string(100, 'a'));
  delete f;
  CHECK(env->NewWritableFile("/d/wal", WriteHint::kWal, &f).ok());
  f->Append(std::string(200, 'b'));
  delete f;
  CHECK(env->NewWritableFile("/d/flush", WriteHint::kFlush, &f).ok());
  f->Append(std::string(300, 'c'));
  delete f;
  CHECK(env->NewWritableFile("/d/compaction", WriteHint::kCompaction, &f).ok());
  f->Append(std::string(400, 'd'));
  delete f;
  CHECK(env->NewAppendableFile("/d/log", &f).ok());
  f->Append(std::string(50, 'e'));
  delete f;
  CHECK(h.env.write_bytes(WriteHint::kMisc) == 150);
  CHECK(h.env.write_bytes(WriteHint::kWal) == 200);
  CHECK(h.env.write_bytes(WriteHint::kFlush) == 300);
  CHECK(h.env.write_bytes(WriteHint::kCompaction) == 400);
  CHECK(h.env.total_write_bytes() == 1050);

  // Reads are served from memory and counted.
  RandomAccessFile* r = nullptr;
  CHECK(env->NewRandomAccessFile("/d/flush", &r).ok());
  char scratch[64];
  Slice got;
  CHECK(r->Read(10, 64, &got, scratch).ok() && got.size() == 64);
  delete r;
  CHECK(h.env.read_bytes() == 64);
}

// --- Oracle ----------------------------------------------------------------

std::string KeyString(uint64_t index) {
  std::string key(kKeySize, '\0');
  EncodeKey(index, key.data());
  return key;
}

std::string Value(uint64_t index, uint32_t version) {
  std::string v(kValueSize, '\0');
  EncodeValue(index, version, v.data());
  return v;
}

void TestOracleAcceptsGoodValues() {
  CHECK(KeyString(42).size() == kKeySize);
  uint64_t index = 0;
  CHECK(DecodeKey(KeyString(123456789), &index) && index == 123456789);
  CHECK(KeyString(9) < KeyString(10));  // byte order is index order
  CHECK(CheckValue(7, Value(7, 3), 2, 5) == Verdict::kOk);
  CHECK(CheckLookup(7, Status::OK(), Value(7, 3), 3, 3) == Verdict::kOk);
}

void TestOracleFlagsCorruptByte() {
  for (size_t pos : {0ul, 9ul, 12ul, 100ul, kValueSize - 1}) {
    std::string v = Value(7, 3);
    v[pos] ^= 0x20;
    CHECK(CheckValue(7, v, 0, 10) != Verdict::kOk);
  }
  std::string v = Value(7, 3);
  v[200] ^= 1;
  CHECK(CheckValue(7, v, 0, 10) == Verdict::kCorrupt);
  CHECK(CheckValue(7, Value(7, 3).substr(1), 0, 10) == Verdict::kBadLength);
}

void TestOracleFlagsOtherKeysValue() {
  CHECK(CheckValue(7, Value(8, 3), 0, 10) == Verdict::kWrongKey);
}

void TestOracleFlagsStaleVersion() {
  VersionOracle oracle(4);
  oracle.Preloaded(1);
  const uint32_t v = oracle.BeginWrite(2);
  CHECK(v == 2);
  // While the write is in flight either version may be returned.
  CHECK(CheckValue(2, Value(2, 1), oracle.acked(2), oracle.issued(2)) ==
        Verdict::kOk);
  CHECK(CheckValue(2, Value(2, 2), oracle.acked(2), oracle.issued(2)) ==
        Verdict::kOk);
  oracle.EndWrite(2, v);
  // Once acknowledged, the old version is stale.
  CHECK(CheckValue(2, Value(2, 1), oracle.acked(2), oracle.issued(2)) ==
        Verdict::kStale);
  // A version never issued is flagged too.
  CHECK(CheckValue(2, Value(2, 3), oracle.acked(2), oracle.issued(2)) ==
        Verdict::kFuture);
}

void TestOracleFlagsNotFoundForPreloadedKey() {
  CHECK(CheckLookup(5, Status::NotFound("k"), Slice(), 1, 1) ==
        Verdict::kMissing);
  CHECK(CheckLookup(5, Status::IOError("x"), Slice(), 1, 1) ==
        Verdict::kError);
}

void TestOracleScans() {
  const uint64_t n = 10;
  // A complete scan from key 3 with limit 4.
  {
    ScanChecker check(3, 4, n);
    for (uint64_t k = 3; k < 7; k++) {
      CHECK(check.Add(KeyString(k), Value(k, 1), 1, 1) == Verdict::kOk);
    }
    CHECK(check.Finish() == Verdict::kOk);
  }
  // A scan that skips a key.
  {
    ScanChecker check(3, 4, n);
    CHECK(check.Add(KeyString(3), Value(3, 1), 1, 1) == Verdict::kOk);
    CHECK(check.Add(KeyString(5), Value(5, 1), 1, 1) ==
          Verdict::kNotContiguous);
  }
  // A scan that repeats or goes backwards.
  {
    ScanChecker check(3, 4, n);
    CHECK(check.Add(KeyString(3), Value(3, 1), 1, 1) == Verdict::kOk);
    CHECK(check.Add(KeyString(3), Value(3, 1), 1, 1) ==
          Verdict::kNotContiguous);
  }
  // A scan that ends early, and one that runs past the end of the keys.
  {
    ScanChecker check(3, 4, n);
    CHECK(check.Add(KeyString(3), Value(3, 1), 1, 1) == Verdict::kOk);
    CHECK(check.Finish() == Verdict::kShortScan);
  }
  {
    ScanChecker check(8, 4, n);  // only keys 8 and 9 exist
    CHECK(check.Add(KeyString(8), Value(8, 1), 1, 1) == Verdict::kOk);
    CHECK(check.Add(KeyString(9), Value(9, 1), 1, 1) == Verdict::kOk);
    CHECK(check.Finish() == Verdict::kOk);
    CHECK(check.Add(KeyString(10), Value(10, 1), 1, 1) ==
          Verdict::kNotContiguous);
  }
  // An entry whose value is not self-consistent.
  {
    ScanChecker check(0, 2, n);
    CHECK(check.Add(KeyString(0), Value(1, 1), 1, 1) == Verdict::kWrongKey);
  }
}

// --- Span folding ------------------------------------------------------------

TraceEvent Span(const char* name, uint32_t tid, uint64_t ts, uint64_t dur) {
  TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.ts = ts;
  e.dur = dur;
  e.phase = 'X';
  return e;
}

void TestSpanFoldSelfTime() {
  std::vector<TraceEvent> events = {
      Span("put", 1, 0, 100),
      Span("wal", 1, 10, 30),
      Span("io", 1, 15, 20),
      Span("mem", 1, 40, 50),
      Span("put", 1, 100, 10),       // sibling starting where the last ended
      Span("put", 2, 5, 40),         // other thread: not a child of tid 1
      Span("stage.read", 3, 0, 70),  // aggregate: not nested
      Span("job", 3, 0, 100),
      // Same start and length as the parent: written first, as it ends first.
      Span("io.read", 4, 0, 40),
      Span("env.read", 4, 0, 40),
      Span("db.get", 4, 50, 20),
      Span("bench.get", 4, 50, 20),
  };
  auto rows = FoldSpans(events);
  CHECK(rows["put"].count == 3);
  CHECK(rows["put"].total_us == 150);
  CHECK(rows["put"].self_us == (100 - 30 - 50) + 10 + 40);
  CHECK(rows["wal"].self_us == 10);
  CHECK(rows["io"].self_us == 20);
  CHECK(rows["mem"].self_us == 50);
  CHECK(rows["stage.read"].self_us == 70);
  CHECK(rows["job"].self_us == 100);
  CHECK(rows["io.read"].self_us == 40);
  CHECK(rows["env.read"].self_us == 0);
  CHECK(rows["db.get"].self_us == 20);
  CHECK(rows["bench.get"].self_us == 0);
}

}  // namespace
}  // namespace perfbench
}  // namespace ldc

int main() {
  using namespace ldc::perfbench;
  TestOversleepDoesNotPushDeadlines();
  TestConcurrentWritersShareBandwidth();
  TestBothOverloadsWrappedAndTalliedByHint();
  TestOracleAcceptsGoodValues();
  TestOracleFlagsCorruptByte();
  TestOracleFlagsOtherKeysValue();
  TestOracleFlagsStaleVersion();
  TestOracleFlagsNotFoundForPreloadedKey();
  TestOracleScans();
  TestSpanFoldSelfTime();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}

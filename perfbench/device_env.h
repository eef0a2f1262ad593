// A shared emulated SSD for the benchmark. Every file the DB writes — WAL,
// flush output, compaction output, manifest — books its bytes on ONE
// bandwidth timeline, so background jobs and foreground commits contend for
// the device the way they do on a real drive. Reads are served from memory
// (the page-cache substitution DESIGN.md describes) and only counted.

#ifndef LDC_PERFBENCH_DEVICE_ENV_H_
#define LDC_PERFBENCH_DEVICE_ENV_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "ldc/env.h"
#include "ldc/trace.h"

namespace ldc {
namespace perfbench {

// The device's single FIFO timeline. Reserve() books a transfer and returns
// the absolute time it completes. Completion times are derived from the
// timeline, never from when the caller woke up, so a writer that oversleeps
// one deadline does not push back the deadlines after it: a late caller is
// charged from the end of the previous transfer as long as it is no more than
// `grace_ns` late. Idle time beyond the grace window is lost, as on a device
// nobody is writing to.
class DeviceTimeline {
 public:
  DeviceTimeline(double us_per_kb, uint64_t grace_ns);

  // Books `bytes` arriving at `now_ns`; returns the completion time in ns on
  // the same clock.
  uint64_t Reserve(uint64_t bytes, uint64_t now_ns);

  double us_per_kb() const { return ns_per_byte_ * 1024.0 / 1000.0; }

 private:
  const double ns_per_byte_;
  const uint64_t grace_ns_;
  std::mutex mu_;
  double free_at_ns_ = 0;  // guarded by mu_
};

// Env over an in-memory Env whose writable files sleep until the shared
// device completes each append. Scheduling, sleeping and the clock go to the
// POSIX Env, so background jobs run on real threads and latencies are wall
// time. Byte counters are split by the WriteHint the DB stamps on each file.
class SharedDeviceEnv : public EnvWrapper {
 public:
  // Appends whose completion lies less than this far ahead do not sleep:
  // their bytes stay booked on the timeline, so the next writer waits
  // instead. Sleeps shorter than this cost more in wake-up latency than the
  // transfer itself.
  static constexpr uint64_t kMinSleepNs = 200'000;
  static constexpr uint64_t kGraceNs = 500'000;
  static constexpr int kHintCount = 4;  // WriteHint::kMisc .. kCompaction

  SharedDeviceEnv(Env* mem, double us_per_kb);

  Status NewWritableFile(const std::string& f, WritableFile** r) override;
  Status NewWritableFile(const std::string& f, WriteHint hint,
                         WritableFile** r) override;
  Status NewAppendableFile(const std::string& f, WritableFile** r) override;
  Status NewSequentialFile(const std::string& f, SequentialFile** r) override;
  Status NewRandomAccessFile(const std::string& f,
                             RandomAccessFile** r) override;

  void Schedule(void (*fn)(void*), void* arg) override;
  void StartThread(void (*fn)(void*), void* arg) override;
  void SleepForMicroseconds(int micros) override;
  uint64_t NowMicros() override;

  // Benchmark spans ("env.append", "env.read") around every file call; null
  // switches them off. Files opened before the call keep the old setting.
  void SetSpanTracer(Tracer* tracer) { span_tracer_.store(tracer); }
  Tracer* span_tracer() const { return span_tracer_.load(); }

  // While off, appends are counted but do not wait for the device.
  void SetEmulation(bool on) { emulate_.store(on); }

  // Counters since construction.
  uint64_t write_bytes(WriteHint hint) const {
    return write_bytes_[static_cast<int>(hint)].load();
  }
  uint64_t total_write_bytes() const;
  uint64_t read_bytes() const { return read_bytes_.load(); }
  uint64_t device_wait_ns() const { return device_wait_ns_.load(); }

  // Called by the wrapped files.
  void DeviceWrite(WriteHint hint, uint64_t bytes);
  void CountRead(uint64_t bytes) { read_bytes_.fetch_add(bytes); }

 private:
  DeviceTimeline device_;
  std::atomic<bool> emulate_{true};
  std::atomic<Tracer*> span_tracer_{nullptr};
  std::atomic<uint64_t> write_bytes_[kHintCount] = {};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> device_wait_ns_{0};
};

// Monotonic clock in ns shared by the device model and the benchmark.
uint64_t MonoNanos();

// Lowers the calling thread's timer slack so short device sleeps end close
// to their deadline (the Linux default adds up to 50 us to every sleep).
// Affects only the calling thread; a no-op where unsupported.
void UseFineTimerSlack();

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_DEVICE_ENV_H_

#include "device_env.h"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace ldc {
namespace perfbench {

uint64_t MonoNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void UseFineTimerSlack() {
#if defined(__linux__)
  thread_local bool done = false;
  if (!done) {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    done = true;
  }
#endif
}

DeviceTimeline::DeviceTimeline(double us_per_kb, uint64_t grace_ns)
    : ns_per_byte_(us_per_kb * 1000.0 / 1024.0), grace_ns_(grace_ns) {}

uint64_t DeviceTimeline::Reserve(uint64_t bytes, uint64_t now_ns) {
  std::lock_guard<std::mutex> l(mu_);
  const double earliest =
      now_ns > grace_ns_ ? static_cast<double>(now_ns - grace_ns_) : 0.0;
  const double start = std::max(free_at_ns_, earliest);
  free_at_ns_ = start + static_cast<double>(bytes) * ns_per_byte_;
  return static_cast<uint64_t>(free_at_ns_);
}

namespace {

class DeviceWritableFile : public WritableFile {
 public:
  DeviceWritableFile(WritableFile* base, SharedDeviceEnv* env, WriteHint hint)
      : base_(base), env_(env), hint_(hint), tracer_(env->span_tracer()) {}
  ~DeviceWritableFile() override { delete base_; }

  Status Append(const Slice& data) override {
    TraceSpan span(tracer_, TraceCat::kIo, "env.append");
    span.SetArg1("bytes", data.size());
    Status s = base_->Append(data);
    if (s.ok()) env_->DeviceWrite(hint_, data.size());
    return s;
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override { return base_->Sync(); }

 private:
  WritableFile* const base_;
  SharedDeviceEnv* const env_;
  const WriteHint hint_;
  Tracer* const tracer_;
};

class CountingRandomAccessFile : public RandomAccessFile {
 public:
  CountingRandomAccessFile(RandomAccessFile* base, SharedDeviceEnv* env)
      : base_(base), env_(env), tracer_(env->span_tracer()) {}
  ~CountingRandomAccessFile() override { delete base_; }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    TraceSpan span(tracer_, TraceCat::kIo, "env.read");
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) env_->CountRead(result->size());
    return s;
  }

 private:
  RandomAccessFile* const base_;
  SharedDeviceEnv* const env_;
  Tracer* const tracer_;
};

class CountingSequentialFile : public SequentialFile {
 public:
  CountingSequentialFile(SequentialFile* base, SharedDeviceEnv* env)
      : base_(base), env_(env), tracer_(env->span_tracer()) {}
  ~CountingSequentialFile() override { delete base_; }

  Status Read(size_t n, Slice* result, char* scratch) override {
    TraceSpan span(tracer_, TraceCat::kIo, "env.read");
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) env_->CountRead(result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  SequentialFile* const base_;
  SharedDeviceEnv* const env_;
  Tracer* const tracer_;
};

}  // namespace

SharedDeviceEnv::SharedDeviceEnv(Env* mem, double us_per_kb)
    : EnvWrapper(mem), device_(us_per_kb, kGraceNs) {}

Status SharedDeviceEnv::NewWritableFile(const std::string& f,
                                        WritableFile** r) {
  return NewWritableFile(f, WriteHint::kMisc, r);
}

Status SharedDeviceEnv::NewWritableFile(const std::string& f, WriteHint hint,
                                        WritableFile** r) {
  Status s = target()->NewWritableFile(f, hint, r);
  if (s.ok()) *r = new DeviceWritableFile(*r, this, hint);
  return s;
}

Status SharedDeviceEnv::NewAppendableFile(const std::string& f,
                                          WritableFile** r) {
  Status s = target()->NewAppendableFile(f, r);
  if (s.ok()) *r = new DeviceWritableFile(*r, this, WriteHint::kMisc);
  return s;
}

Status SharedDeviceEnv::NewSequentialFile(const std::string& f,
                                          SequentialFile** r) {
  Status s = target()->NewSequentialFile(f, r);
  if (s.ok()) *r = new CountingSequentialFile(*r, this);
  return s;
}

Status SharedDeviceEnv::NewRandomAccessFile(const std::string& f,
                                            RandomAccessFile** r) {
  Status s = target()->NewRandomAccessFile(f, r);
  if (s.ok()) *r = new CountingRandomAccessFile(*r, this);
  return s;
}

void SharedDeviceEnv::Schedule(void (*fn)(void*), void* arg) {
  Env::Default()->Schedule(fn, arg);
}

void SharedDeviceEnv::StartThread(void (*fn)(void*), void* arg) {
  Env::Default()->StartThread(fn, arg);
}

void SharedDeviceEnv::SleepForMicroseconds(int micros) {
  Env::Default()->SleepForMicroseconds(micros);
}

uint64_t SharedDeviceEnv::NowMicros() { return Env::Default()->NowMicros(); }

uint64_t SharedDeviceEnv::total_write_bytes() const {
  uint64_t total = 0;
  for (const auto& b : write_bytes_) total += b.load();
  return total;
}

void SharedDeviceEnv::DeviceWrite(WriteHint hint, uint64_t bytes) {
  write_bytes_[static_cast<int>(hint)].fetch_add(bytes);
  if (device_.us_per_kb() <= 0 || !emulate_.load()) return;
  const uint64_t now = MonoNanos();
  const uint64_t deadline = device_.Reserve(bytes, now);
  if (deadline <= now + kMinSleepNs) return;
  UseFineTimerSlack();
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline)));
  device_wait_ns_.fetch_add(MonoNanos() - now);
}

}  // namespace perfbench
}  // namespace ldc

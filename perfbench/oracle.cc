#include "oracle.h"

#include <algorithm>
#include <cstring>

#include "util/random.h"

namespace ldc {
namespace perfbench {

namespace {

constexpr size_t kHeaderSize = 12;  // index (8) + version (4)

uint64_t FillerSeed(uint64_t index, uint32_t version) {
  return index * 0x9e3779b97f4a7c15ull ^
         (static_cast<uint64_t>(version) << 32 | 0x5bd1e995u);
}

void PutFixed64(char* dst, uint64_t v) {
  for (int i = 0; i < 8; i++) dst[i] = static_cast<char>(v >> (8 * i));
}

uint64_t GetFixed64(const char* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(src[i])) << (8 * i);
  }
  return v;
}

void WriteFiller(uint64_t index, uint32_t version, char* dst) {
  Random rng(FillerSeed(index, version));
  for (size_t off = kHeaderSize; off < kValueSize; off += 8) {
    const uint64_t word = rng.Next64();
    const size_t n = kValueSize - off < 8 ? kValueSize - off : 8;
    std::memcpy(dst + off, &word, n);
  }
}

}  // namespace

void EncodeKey(uint64_t index, char* dst) {
  dst[0] = 'k';
  for (int i = static_cast<int>(kKeySize) - 1; i >= 1; i--) {
    dst[i] = static_cast<char>('0' + index % 10);
    index /= 10;
  }
}

bool DecodeKey(const Slice& key, uint64_t* index) {
  if (key.size() != kKeySize || key[0] != 'k') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < kKeySize; i++) {
    const char c = key[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

void EncodeValue(uint64_t index, uint32_t version, char* dst) {
  PutFixed64(dst, index);
  for (int i = 0; i < 4; i++) dst[8 + i] = static_cast<char>(version >> (8 * i));
  WriteFiller(index, version, dst);
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kError: return "error";
    case Verdict::kMissing: return "missing";
    case Verdict::kBadLength: return "bad-length";
    case Verdict::kWrongKey: return "wrong-key";
    case Verdict::kCorrupt: return "corrupt";
    case Verdict::kStale: return "stale";
    case Verdict::kFuture: return "future";
    case Verdict::kNotContiguous: return "not-contiguous";
    case Verdict::kShortScan: return "short-scan";
  }
  return "unknown";
}

Verdict CheckValue(uint64_t index, const Slice& value, uint32_t min_version,
                   uint32_t max_version) {
  if (value.size() != kValueSize) return Verdict::kBadLength;
  if (GetFixed64(value.data()) != index) return Verdict::kWrongKey;
  uint32_t version = 0;
  for (int i = 0; i < 4; i++) {
    version |= static_cast<uint32_t>(static_cast<unsigned char>(value[8 + i]))
               << (8 * i);
  }
  char expect[kValueSize];
  WriteFiller(index, version, expect);
  if (std::memcmp(expect + kHeaderSize, value.data() + kHeaderSize,
                  kValueSize - kHeaderSize) != 0) {
    return Verdict::kCorrupt;
  }
  if (version < min_version) return Verdict::kStale;
  if (version > max_version) return Verdict::kFuture;
  return Verdict::kOk;
}

Verdict CheckLookup(uint64_t index, const Status& s, const Slice& value,
                    uint32_t min_version, uint32_t max_version) {
  if (s.IsNotFound()) return Verdict::kMissing;
  if (!s.ok()) return Verdict::kError;
  return CheckValue(index, value, min_version, max_version);
}

VersionOracle::VersionOracle(uint64_t num_keys)
    : num_keys_(num_keys),
      acked_(new std::atomic<uint32_t>[num_keys]),
      issued_(new std::atomic<uint32_t>[num_keys]) {
  for (uint64_t i = 0; i < num_keys_; i++) {
    acked_[i].store(0);
    issued_[i].store(0);
  }
}

uint32_t VersionOracle::BeginWrite(uint64_t index) {
  const uint32_t version = issued_[index].load() + 1;
  issued_[index].store(version);
  return version;
}

void VersionOracle::EndWrite(uint64_t index, uint32_t version) {
  acked_[index].store(version);
}

void VersionOracle::Preloaded(uint32_t version) {
  for (uint64_t i = 0; i < num_keys_; i++) {
    issued_[i].store(version);
    acked_[i].store(version);
  }
}

ScanChecker::ScanChecker(uint64_t start, uint64_t limit, uint64_t num_keys)
    : next_(start),
      expected_(start >= num_keys ? 0 : std::min(limit, num_keys - start)) {}

Verdict ScanChecker::Add(const Slice& key, const Slice& value,
                         uint32_t min_version, uint32_t max_version) {
  uint64_t index = 0;
  if (seen_ >= expected_ || !DecodeKey(key, &index) || index != next_) {
    return Verdict::kNotContiguous;
  }
  next_++;
  seen_++;
  return CheckValue(index, value, min_version, max_version);
}

Verdict ScanChecker::Finish() const {
  return seen_ < expected_ ? Verdict::kShortScan : Verdict::kOk;
}

}  // namespace perfbench
}  // namespace ldc

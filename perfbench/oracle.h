// The benchmark's correctness oracle, computed apart from the engine.
//
// Keys are 16 bytes: "k" followed by the key index as 15 decimal digits, so
// byte order is index order. Values are 256 bytes: the key index (8 bytes),
// a version (4 bytes), then filler regenerated from (index, version). A
// value therefore proves which key and which write it came from, and any
// corrupted byte shows.
//
// Each client writes only the keys it owns, and per key the oracle keeps
// the highest version issued to the DB and the highest version the DB
// acknowledged. A read is correct if it returns a version no older than the
// one acknowledged before the read started and no newer than the one issued
// by the time it returned.

#ifndef LDC_PERFBENCH_ORACLE_H_
#define LDC_PERFBENCH_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "ldc/slice.h"
#include "ldc/status.h"

namespace ldc {
namespace perfbench {

constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 256;

// Writes the key for `index` into dst[0..kKeySize).
void EncodeKey(uint64_t index, char* dst);
// Parses a key; false if it is not one the benchmark writes.
bool DecodeKey(const Slice& key, uint64_t* index);

// Writes the value of (`index`, `version`) into dst[0..kValueSize).
void EncodeValue(uint64_t index, uint32_t version, char* dst);

enum class Verdict {
  kOk = 0,
  kError,          // the call returned a status other than OK / NotFound
  kMissing,        // NotFound for a key that was preloaded
  kBadLength,      // value is not kValueSize bytes
  kWrongKey,       // value belongs to another key
  kCorrupt,        // filler does not match (index, version)
  kStale,          // version older than one already acknowledged
  kFuture,         // version newer than any issued
  kNotContiguous,  // a scan skipped, repeated or reordered keys
  kShortScan,      // a scan ended before the expected entry count
};

const char* VerdictName(Verdict v);

// Checks one value read for key `index` against the version window
// [min_version, max_version].
Verdict CheckValue(uint64_t index, const Slice& value, uint32_t min_version,
                   uint32_t max_version);

// Checks a point lookup: its status, then its value.
Verdict CheckLookup(uint64_t index, const Status& s, const Slice& value,
                    uint32_t min_version, uint32_t max_version);

// Per-key version records for a fixed key space [0, num_keys).
class VersionOracle {
 public:
  explicit VersionOracle(uint64_t num_keys);

  uint64_t num_keys() const { return num_keys_; }

  // The writer of `index` calls BeginWrite before the Put and EndWrite after
  // it was acknowledged. Only one thread writes a given key.
  uint32_t BeginWrite(uint64_t index);
  void EndWrite(uint64_t index, uint32_t version);

  // Marks every key as written and acknowledged at `version` (the preload).
  void Preloaded(uint32_t version);

  uint32_t acked(uint64_t index) const {
    return acked_[index].load(std::memory_order_seq_cst);
  }
  uint32_t issued(uint64_t index) const {
    return issued_[index].load(std::memory_order_seq_cst);
  }

 private:
  const uint64_t num_keys_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
};

// Checks a range scan entry by entry. A scan that starts at key `start` and
// asks for `limit` entries must return exactly min(limit, num_keys - start)
// contiguous, increasing, self-consistent entries: keys start, start+1, ...
class ScanChecker {
 public:
  ScanChecker(uint64_t start, uint64_t limit, uint64_t num_keys);

  // The next entry the scan returned; its version must lie in
  // [min_version, max_version] for the key the scan should be at.
  Verdict Add(const Slice& key, const Slice& value, uint32_t min_version,
              uint32_t max_version);
  // After the last entry: whether the scan returned all it should have.
  Verdict Finish() const;

  // Index of the key the next entry must carry.
  uint64_t next() const { return next_; }
  uint64_t expected() const { return expected_; }

 private:
  uint64_t next_;
  const uint64_t expected_;
  uint64_t seen_ = 0;
};

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_ORACLE_H_

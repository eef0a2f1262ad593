// Folds a Tracer's buffered spans into one row per span name: how many
// spans, their total duration, and their self time — the duration minus the
// part of it covered by the span's direct children on the same thread.

#ifndef LDC_PERFBENCH_SPAN_FOLD_H_
#define LDC_PERFBENCH_SPAN_FOLD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ldc/trace.h"

namespace ldc {
namespace perfbench {

struct SpanRow {
  uint64_t count = 0;
  uint64_t total_us = 0;
  uint64_t self_us = 0;
};

// `events` are as Tracer::Snapshot() returns them: sorted by start, and in
// the order they were written where starts are equal; a span is written when
// it ends, after its children. Instants carry no time and are skipped. "stage.*" spans are not nested:
// the engine emits each job's accumulated read/merge/write time as three
// back-to-back spans at the job's start, so they do not sit where the work
// happened; their self time is their total.
std::map<std::string, SpanRow> FoldSpans(const std::vector<TraceEvent>& events);

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_SPAN_FOLD_H_

#include "span_fold.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace ldc {
namespace perfbench {

namespace {

bool IsStage(const char* name) { return std::strncmp(name, "stage.", 6) == 0; }

struct Open {
  uint64_t start;
  uint64_t end;
  uint64_t child_us;
  SpanRow* row;
};

void Close(const Open& span) {
  const uint64_t dur = span.end - span.start;
  span.row->self_us += dur > span.child_us ? dur - span.child_us : 0;
}

}  // namespace

std::map<std::string, SpanRow> FoldSpans(
    const std::vector<TraceEvent>& events) {
  std::map<std::string, SpanRow> rows;
  std::unordered_map<uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || e.name == nullptr) continue;
    SpanRow& row = rows[e.name];
    row.count++;
    row.total_us += e.dur;
    if (IsStage(e.name)) {
      row.self_us += e.dur;
    } else {
      by_thread[e.tid].push_back(&e);
    }
  }

  for (auto& [tid, spans] : by_thread) {
    // Parents before children: earlier start first, longer span first. A
    // span is written when it ends, so of two spans with the same start and
    // length the one written later is the parent: reverse the written order
    // and keep it for such ties.
    std::reverse(spans.begin(), spans.end());
    std::stable_sort(spans.begin(), spans.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       if (a->ts != b->ts) return a->ts < b->ts;
                       return a->dur > b->dur;
                     });
    std::vector<Open> stack;
    for (const TraceEvent* e : spans) {
      const uint64_t start = e->ts;
      const uint64_t end = e->ts + e->dur;
      // Pop every open span that does not contain this one. A span that
      // starts exactly where the open one ends is a sibling unless it is
      // empty.
      while (!stack.empty() &&
             !(end <= stack.back().end &&
               (start < stack.back().end || e->dur == 0))) {
        Close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += e->dur;
      stack.push_back(Open{start, end, 0, &rows[e->name]});
    }
    while (!stack.empty()) {
      Close(stack.back());
      stack.pop_back();
    }
  }
  return rows;
}

}  // namespace perfbench
}  // namespace ldc

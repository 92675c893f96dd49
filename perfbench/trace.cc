#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

std::vector<std::vector<int>> ChildLists(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(int(i));
  }
  return children;
}

/// Length of the union of the children's intervals. Client query spans of
/// one rung overlap each other, so a plain sum would over-count.
int64_t CoveredNanos(const std::vector<Span>& spans,
                     const std::vector<int>& children) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (int c : children) intervals.emplace_back(spans[c].start_ns, spans[c].end_ns);
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > run_end) {
      if (run_end >= run_start) covered += run_end - run_start;
      run_start = start;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end >= run_start) covered += run_end - run_start;
  return covered;
}

void AppendEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

int Tracer::Begin(const std::string& name, const std::string& layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = Nanos(Clock::now());
  span.end_ns = span.start_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  // Closing an already closed span (a ScopedSpan ended early by hand) is a
  // no-op; spans close in LIFO order, and one left open fails Check().
  if (id < 0 || open_.empty() || open_.back() != id) return;
  spans_[id].end_ns = Nanos(Clock::now());
  open_.pop_back();
}

void Tracer::Add(const std::string& name, const std::string& layer,
                 Clock::time_point start, Clock::time_point end, int parent,
                 int64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = Nanos(start);
  span.end_ns = Nanos(end);
  span.parent = parent;
  span.request_id = request_id;
  spans_.push_back(std::move(span));
}

std::vector<int64_t> Tracer::SelfTimes() const {
  const std::vector<std::vector<int>> children = ChildLists(spans_);
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns -
              CoveredNanos(spans_, children[i]);
  }
  return self;
}

std::vector<std::string> Tracer::Check(const std::string& covered_name,
                                       double min_cover) const {
  std::vector<std::string> problems;
  if (!open_.empty()) problems.push_back("spans left open at the end of the run");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) problems.push_back("span ends before it starts: " + s.name);
    if (s.parent >= 0) {
      const Span& p = spans_[s.parent];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        problems.push_back("span " + s.name + " is not inside its parent " + p.name);
      }
    }
  }
  const std::vector<int64_t> self = SelfTimes();
  const std::vector<std::vector<int>> children = ChildLists(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (self[i] < 0) problems.push_back("negative self time: " + spans_[i].name);
    if (spans_[i].name != covered_name) continue;
    const double wall = double(spans_[i].end_ns - spans_[i].start_ns);
    const double covered = double(CoveredNanos(spans_, children[i]));
    if (covered < min_cover * wall) {
      problems.push_back("children cover only " +
                         std::to_string(covered / wall) + " of " + covered_name);
    }
  }
  return problems;
}

std::map<std::string, double> Tracer::LayerSelfSeconds(int root) const {
  const std::vector<int64_t> self = SelfTimes();
  const std::vector<std::vector<int>> children = ChildLists(spans_);
  std::map<std::string, double> seconds;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    seconds[spans_[i].layer] += double(self[i]) * 1e-9;
    for (int c : children[i]) stack.push_back(c);
  }
  return seconds;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::string out = "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"name\":\"";
    AppendEscaped(s.name, &out);
    out += "\",\"layer\":\"";
    AppendEscaped(s.layer, &out);
    out += "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent);
    if (s.request_id >= 0) out += ",\"request_id\":" + std::to_string(s.request_id);
    out += i + 1 < spans_.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  return bool(file);
}

}  // namespace perfbench

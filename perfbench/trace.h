// Span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around the public library calls it
// makes, never from inside the library. They live in memory until the run
// ends and are then written out as one JSON array. Pipeline spans are opened
// and closed on the main thread, so nesting follows from a plain stack. The
// spans of served queries, one per request id from due time to reply, are
// added with Add() from the client's results once a phase has ended.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  int parent = -1;        ///< index into Tracer::spans(), -1 for a root
  int64_t request_id = -1;  ///< set for served queries
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span. Returns -1 (and
  /// records nothing) when tracing is off.
  int Begin(const std::string& name, const std::string& layer);
  void End(int id);

  /// Records a finished span under `parent` (client query spans).
  void Add(const std::string& name, const std::string& layer,
           Clock::time_point start, Clock::time_point end, int parent,
           int64_t request_id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the part of it covered by the span's children.
  std::vector<int64_t> SelfTimes() const;

  /// Checks that every span ends after it starts and lies inside its parent,
  /// that every self time is >= 0, and that the children of every span named
  /// `covered_name` cover at least `min_cover` of it. Returns one line per
  /// violation.
  std::vector<std::string> Check(const std::string& covered_name,
                                 double min_cover) const;

  /// Self time per layer, in seconds, over the subtree rooted at `root`.
  std::map<std::string, double> LayerSelfSeconds(int root) const;

  /// Writes every span as a JSON array to `path`. Returns false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& layer)
      : tracer_(tracer), id_(tracer->Begin(name, layer)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

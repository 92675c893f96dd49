#pragma once
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/core/thread_annotations.h"
#include "src/serve/engine.h"
#include "src/serve/metrics.h"

namespace adpa::serve {

/// One result per request of an AnswerAll call, in Add order.
using Answers = std::vector<Result<std::vector<int64_t>>>;

/// Micro-batching request queue in front of an InferenceSession, owned by
/// the one thread that runs a serving loop (the TCP event loop, the stdin
/// loop, a benchmark). It has no locks: nothing else ever touches it.
///
/// The loop `Add`s every request it has read, then makes one `AnswerAll`
/// call against the session it serves from. That call coalesces the queue
/// into as few `Classify` calls as `max_batch_nodes` allows, so point
/// queries share a forward whose kernels fan out across the ParallelFor
/// worker pool, and returns one result per request in `Add` order.
///
/// Batching never changes answers: ForwardRows is row-wise, so a node's
/// logits are bitwise identical no matter which batch it lands in.
class MicroBatcher {
 public:
  struct Options {
    /// Soft cap on nodes per coalesced forward; a single larger request
    /// still runs alone rather than being split.
    int64_t max_batch_nodes = 4096;
    /// Hard ceiling on queued requests. An Add against a full queue is
    /// answered with kUnavailable (counted in ServeMetrics::rejected) —
    /// bounded memory under overload, and clients get a retryable error
    /// instead of unbounded latency.
    int64_t max_queue_depth = 4096;
  };

  /// `metrics` must outlive the batcher; it may be null.
  explicit MicroBatcher(ServeMetrics* metrics);
  MicroBatcher(ServeMetrics* metrics, Options options);

  /// Queues a request and returns its index into the next AnswerAll
  /// result. Against a full queue the request is answered kUnavailable.
  /// `deadline_ms` > 0 bounds the queue wait: a request older than that
  /// when its batch forms is shed with a kUnavailable error instead of
  /// being served stale (0 = no deadline).
  int64_t Add(std::vector<int64_t> nodes, int64_t deadline_ms = 0);

  /// Answers every request added since the last call and empties the
  /// queue. A null `session` (a registry with no model loaded yet) answers
  /// each query with FailedPrecondition. The caller keeps `session` alive
  /// for the call, which is what pins one model across a hot swap.
  ADPA_HOT Answers AnswerAll(const InferenceSession* session);

 private:
  struct Request {
    std::vector<int64_t> nodes;
    int64_t deadline_ms = 0;  ///< 0 = no deadline
    std::chrono::steady_clock::time_point enqueue_time;
    /// Non-OK once the request is answered without a forward: rejected at
    /// Add, shed past its deadline, or no session to serve it.
    Status error;
  };

  /// Records the request's latency and outcome, and appends its result.
  void Deliver(const Request& request, Result<std::vector<int64_t>> result,
               Answers* answers);

  ServeMetrics* const metrics_;
  const Options options_;
  std::vector<Request> requests_;  ///< every Add since the last AnswerAll
  int64_t queued_ = 0;             ///< requests_ not rejected at Add
  std::vector<int64_t> merged_;    ///< coalesced node ids, reused per batch
};

/// A reply a serving loop owes its client, held in request order until the
/// batch it waits on is answered.
struct PendingReply {
  int64_t id = 0;
  /// The query's Add index, or -1 when `immediate` already is the reply
  /// (parse errors, admin replies).
  int64_t answer = -1;
  std::string immediate;
};

/// The reply line owed for `pending` (no trailing newline): `immediate`, or
/// its answer formatted as classes, as the overloaded shape (kUnavailable:
/// queue full or deadline shed), or as an error. Both serving loops
/// format every reply through here.
std::string FormatReply(const PendingReply& pending, const Answers& answers);

}  // namespace adpa::serve

#include "src/serve/batcher.h"

#include <utility>

#include "src/serve/jsonl.h"

namespace adpa::serve {

MicroBatcher::MicroBatcher(ServeMetrics* metrics)
    : MicroBatcher(metrics, Options{}) {}

MicroBatcher::MicroBatcher(ServeMetrics* metrics, Options options)
    : metrics_(metrics), options_(options) {}

int64_t MicroBatcher::Add(std::vector<int64_t> nodes, int64_t deadline_ms) {
  Request request;
  request.nodes = std::move(nodes);
  request.deadline_ms = deadline_ms;
  // Wall-clock reads feed queue deadlines/latency metrics only, never
  // results.
  // lint:allow(deterministic-randomness)
  request.enqueue_time = std::chrono::steady_clock::now();
  if (queued_ >= options_.max_queue_depth) {
    if (metrics_ != nullptr) metrics_->RecordRejected();
    request.error = Status::Unavailable(
        "queue full (" + std::to_string(options_.max_queue_depth) +
        " requests pending); retry with backoff");
  } else {
    ++queued_;
    if (metrics_ != nullptr) metrics_->RecordQueueDepth(queued_);
  }
  requests_.push_back(std::move(request));
  return static_cast<int64_t>(requests_.size()) - 1;
}

Answers MicroBatcher::AnswerAll(const InferenceSession* session) {
  Answers answers;
  answers.reserve(requests_.size());  // analyze:allow(alloc): one result per request, bounded by max_queue_depth
  size_t begin = 0;
  while (begin < requests_.size()) {
    // One batch: [begin, end) holds its queries plus any requests between
    // them that are answered without a forward.
    // lint:allow(deterministic-randomness) — deadline check, not results
    const auto now = std::chrono::steady_clock::now();
    merged_.clear();
    int64_t batch_requests = 0;
    size_t end = begin;
    for (; end < requests_.size(); ++end) {
      Request& request = requests_[end];
      if (!request.error.ok()) continue;  // rejected at Add
      if (request.deadline_ms > 0 &&
          std::chrono::duration<double, std::milli>(now -
                                                    request.enqueue_time)
                  .count() > static_cast<double>(request.deadline_ms)) {
        // Past its deadline: serving it now would hand the client an
        // answer it already gave up on — shed instead of serve stale.
        if (metrics_ != nullptr) metrics_->RecordShed();
        request.error = Status::Unavailable(
            "deadline exceeded after " +
            std::to_string(request.deadline_ms) +  // analyze:allow(alloc): error path only
            " ms in queue; retry with backoff");
        continue;
      }
      const int64_t request_nodes = static_cast<int64_t>(request.nodes.size());
      if (batch_requests > 0 &&
          static_cast<int64_t>(merged_.size()) + request_nodes >
              options_.max_batch_nodes) {
        break;
      }
      if (session == nullptr) {
        request.error = Status::FailedPrecondition(
            "no model is loaded yet; reload a checkpoint");
        continue;
      }
      merged_.insert(merged_.end(), request.nodes.begin(), request.nodes.end());  // analyze:allow(alloc): reused buffer, bounded by max_batch_nodes
      ++batch_requests;
    }

    Result<std::vector<int64_t>> all = std::vector<int64_t>{};
    if (batch_requests > 0) {
      if (metrics_ != nullptr) metrics_->RecordBatch(batch_requests);
      all = session->Classify(merged_);
    }
    size_t offset = 0;
    for (size_t i = begin; i < end; ++i) {
      const Request& request = requests_[i];
      if (!request.error.ok()) {
        Deliver(request, request.error, &answers);
      } else if (all.ok()) {
        const auto first = all->begin() + static_cast<int64_t>(offset);
        offset += request.nodes.size();
        Deliver(request,
                std::vector<int64_t>(
                    first, first + static_cast<int64_t>(request.nodes.size())),
                &answers);
      } else {
        // One malformed request must not poison its batch mates: fall back
        // to answering each request on its own so errors stay per-request.
        Deliver(request, session->Classify(request.nodes), &answers);
      }
    }
    begin = end;
  }
  requests_.clear();
  queued_ = 0;
  return answers;
}

void MicroBatcher::Deliver(const Request& request,
                           Result<std::vector<int64_t>> result,
                           Answers* answers) {
  if (metrics_ != nullptr) {
    // lint:allow(deterministic-randomness) — latency metric, not results
    const auto now = std::chrono::steady_clock::now();
    metrics_->RecordRequest(
        std::chrono::duration<double, std::milli>(now - request.enqueue_time)
            .count(),
        result.ok() ? static_cast<int64_t>(result->size()) : 0, result.ok());
  }
  answers->push_back(std::move(result));  // analyze:allow(alloc): capacity reserved by AnswerAll
}

std::string FormatReply(const PendingReply& pending, const Answers& answers) {
  if (pending.answer < 0) return pending.immediate;
  const Result<std::vector<int64_t>>& answer =
      answers[static_cast<size_t>(pending.answer)];
  if (answer.ok()) return FormatClassesReply(pending.id, *answer);
  if (answer.status().code() == StatusCode::kUnavailable) {
    return FormatOverloadedReply(pending.id, answer.status().message());
  }
  return FormatErrorReply(pending.id, answer.status().message());
}

}  // namespace adpa::serve

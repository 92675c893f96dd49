#include "src/serve/metrics.h"

#include <algorithm>
#include <cmath>

namespace adpa::serve {
namespace {

/// splitmix64: a full-period 64-bit mixer; one multiply-xor chain per draw.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void ServeMetrics::RecordRequest(double latency_ms, int64_t nodes_answered,
                                 bool ok) {
  ++requests_;
  if (!ok) ++errors_;
  nodes_ += static_cast<uint64_t>(nodes_answered);
  latency_sum_ms_ += latency_ms;
  ++latency_samples_;
  if (latencies_ms_.size() < kLatencyReservoirCapacity) {
    // Bounded growth: the reservoir caps at kLatencyReservoirCapacity.
    latencies_ms_.push_back(latency_ms);  // analyze:allow(alloc): bounded reservoir
  } else {
    // Algorithm R: sample n replaces a random reservoir slot with
    // probability capacity/n, keeping every sample equally likely to stay.
    const uint64_t slot = NextRandom(&reservoir_state_) % latency_samples_;
    if (slot < kLatencyReservoirCapacity) {
      latencies_ms_[static_cast<size_t>(slot)] = latency_ms;
    }
  }
}

void ServeMetrics::RecordBatch(int64_t coalesced_requests) {
  ++batches_;
  batched_requests_ += static_cast<uint64_t>(coalesced_requests);
}

void ServeMetrics::RecordQueueDepth(int64_t depth) {
  max_queue_depth_ = std::max(max_queue_depth_, depth);
}

void ServeMetrics::RecordRejected() {
  ++rejected_;
}

void ServeMetrics::RecordShed() {
  ++shed_;
}

MetricsSnapshot ServeMetrics::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.requests = requests_;
  snapshot.errors = errors_;
  snapshot.nodes = nodes_;
  snapshot.batches = batches_;
  snapshot.rejected = rejected_;
  snapshot.shed = shed_;
  snapshot.max_queue_depth = max_queue_depth_;
  if (batches_ > 0) {
    snapshot.mean_batch_requests =
        static_cast<double>(batched_requests_) / static_cast<double>(batches_);
  }
  if (latency_samples_ > 0) {
    snapshot.mean_latency_ms =
        latency_sum_ms_ / static_cast<double>(latency_samples_);
    snapshot.p50_latency_ms = Percentile(latencies_ms_, 50.0);
    snapshot.p99_latency_ms = Percentile(latencies_ms_, 99.0);
  }
  return snapshot;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: smallest value with at least p% of samples at or below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

}  // namespace adpa::serve

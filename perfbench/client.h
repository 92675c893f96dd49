// Open-loop JSONL load generator for the TCP serving workload.
//
// Requests go out on a fixed schedule whatever the server does, as
// independent users would send them, and each latency is measured from the
// time the request was due, so a stall also charges the requests queued
// behind it. The generator uses two threads: the calling thread sends, one
// reader thread polls every connection and checks each reply as it arrives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct ScheduledRequest {
  int64_t due_ns = 0;  ///< offset from the start of the schedule
  int connection = 0;
  int64_t id = 0;
  std::string line;  ///< one JSONL request, newline included
  /// Classes the reply must carry; null for a reload request, whose reply
  /// must be a reload acknowledgement.
  const std::vector<int64_t>* expected = nullptr;
};

struct RequestOutcome {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  bool answered = false;
  bool ok = false;  ///< reply parsed and matched what was expected
};

struct LoadResult {
  std::vector<RequestOutcome> outcomes;  ///< parallel to the schedule
  std::vector<std::string> errors;       ///< first few failures, for the log
  int64_t unexpected_replies = 0;        ///< lines beyond the requests sent
};

/// CPUs for the generator's two threads; -1 leaves a thread unpinned.
struct ClientCpus {
  int sender = -1;
  int reader = -1;
};

/// Pins the calling thread to `cpu` (no-op for -1). The benchmark pins the
/// server loop and both client threads to distinct CPUs: unpinned, on a
/// 4-vCPU x86-64 VM, the median latency moved every few seconds between
/// levels about 0.05, 0.075 and 0.095 ms as the scheduler moved the threads.
void PinCurrentThread(int cpu);

/// Connects `connections` sockets to 127.0.0.1:`port`, runs `schedule`
/// (sorted by due time) and waits up to `drain_s` past the last due time for
/// the remaining replies. Unanswered requests come back with answered=false.
/// The calling thread's CPU affinity is restored before returning.
LoadResult RunOpenLoop(uint16_t port, int connections,
                       const std::vector<ScheduledRequest>& schedule,
                       double drain_s, ClientCpus cpus);

}  // namespace perfbench

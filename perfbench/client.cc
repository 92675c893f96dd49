#include "client.h"

#include <poll.h>
#include <sched.h>

#include <thread>

#include "src/core/logging.h"
#include "src/net/framing.h"
#include "src/net/socket.h"
#include "src/serve/jsonl.h"

namespace perfbench {
namespace {

constexpr size_t kMaxErrors = 5;
constexpr std::chrono::microseconds kSpin(50);

bool SendAll(int fd, const std::string& line) {
  size_t offset = 0;
  while (offset < line.size()) {
    adpa::Result<adpa::net::IoResult> io =
        adpa::net::WriteSome(fd, line.data() + offset, line.size() - offset);
    if (!io.ok() || io->closed) return false;
    offset += static_cast<size_t>(io->bytes);
  }
  return true;
}

std::string CheckReply(const std::string& line, const ScheduledRequest& request) {
  adpa::Result<adpa::serve::ServeReply> reply = adpa::serve::ParseReplyLine(line);
  if (!reply.ok()) return "unparseable reply: " + line;
  if (reply->id != request.id) return "reply out of order: " + line;
  if (request.expected == nullptr) {
    return reply->kind == adpa::serve::ServeReply::Kind::kReloaded
               ? ""
               : "reload not acknowledged: " + line;
  }
  if (reply->kind != adpa::serve::ServeReply::Kind::kClasses) {
    return "query not answered with classes: " + line;
  }
  return reply->classes == *request.expected
             ? ""
             : "classes differ from in-process Classify: " + line;
}

}  // namespace

void PinCurrentThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: unpinned still works
}

LoadResult RunOpenLoop(uint16_t port, int connections,
                       const std::vector<ScheduledRequest>& schedule,
                       double drain_s, ClientCpus cpus) {
  std::vector<adpa::net::FdOwner> fds;
  for (int c = 0; c < connections; ++c) {
    adpa::Result<adpa::net::FdOwner> fd = adpa::net::ConnectTcp("127.0.0.1", port);
    ADPA_CHECK(fd.ok()) << fd.status().ToString();
    fds.push_back(std::move(*fd));
  }
  // Replies arrive in request order per connection, so the reader matches
  // them by position in each connection's queue.
  std::vector<std::vector<size_t>> per_connection(connections);
  for (size_t i = 0; i < schedule.size(); ++i) {
    per_connection[schedule[i].connection].push_back(i);
  }

  LoadResult result;
  result.outcomes.resize(schedule.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < schedule.size(); ++i) {
    result.outcomes[i].due = start + std::chrono::nanoseconds(schedule[i].due_ns);
  }
  const Clock::time_point give_up =
      (schedule.empty() ? start : result.outcomes.back().due) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(drain_s));

  std::thread reader([&] {
    PinCurrentThread(cpus.reader);
    std::vector<adpa::net::LineFramer> framers(connections);
    std::vector<size_t> next(connections, 0);
    size_t remaining = schedule.size();
    std::vector<pollfd> polls(connections);
    for (int c = 0; c < connections; ++c) polls[c] = {fds[c].get(), POLLIN, 0};
    char buffer[1 << 16];
    std::string line;
    while (remaining > 0 && Clock::now() < give_up) {
      if (::poll(polls.data(), polls.size(), 50) <= 0) continue;
      for (int c = 0; c < connections; ++c) {
        if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        adpa::Result<adpa::net::IoResult> io =
            adpa::net::ReadSome(fds[c].get(), buffer, sizeof(buffer));
        if (!io.ok() || io->closed) {
          polls[c].fd = -1;  // the connection is gone; its requests stay unanswered
          continue;
        }
        const Clock::time_point now = Clock::now();
        framers[c].Append(buffer, static_cast<size_t>(io->bytes));
        while (framers[c].NextLine(&line) == adpa::net::LineFramer::Next::kLine) {
          if (next[c] >= per_connection[c].size()) {
            ++result.unexpected_replies;
            continue;
          }
          const size_t i = per_connection[c][next[c]++];
          RequestOutcome& outcome = result.outcomes[i];
          outcome.done = now;
          outcome.answered = true;
          const std::string error = CheckReply(line, schedule[i]);
          outcome.ok = error.empty();
          if (!outcome.ok && result.errors.size() < kMaxErrors) {
            result.errors.push_back(error);
          }
          --remaining;
        }
      }
    }
  });

  cpu_set_t saved;
  const bool restore = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  PinCurrentThread(cpus.sender);
  for (size_t i = 0; i < schedule.size(); ++i) {
    // Sleep to just short of the due time, then spin: a timer wake-up alone
    // can be late by more than the latencies being measured.
    const Clock::time_point due = result.outcomes[i].due;
    std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    result.outcomes[i].sent = Clock::now();
    // No catch-up skipping: a late send keeps its original due time, so the
    // generator's own lag shows up as latency and in the send-lag figure.
    if (!SendAll(fds[schedule[i].connection].get(), schedule[i].line)) break;
  }
  reader.join();
  if (restore) sched_setaffinity(0, sizeof(saved), &saved);
  return result;
}

}  // namespace perfbench

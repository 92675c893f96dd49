// adpa_serve — JSON-lines inference server over a trained checkpoint.
//
//   adpa_cli train --in=g.txt --save_checkpoint=m.ckpt
//   adpa_serve --checkpoint=m.ckpt --in=g.txt < queries.jsonl > replies.jsonl
//
// Protocol: one request object per stdin line, one reply per stdout line,
// in request order. Requests are {"id": 7, "nodes": [0, 12, 3]} with an
// optional "deadline_ms"; replies are {"id":7,"classes":[1,0,2]},
// {"id":7,"error":"..."}, or — when the request was rejected at a full
// queue or shed past its deadline — the structured retry shape
// {"id":7,"error":"overloaded","detail":"..."}. The process exits at EOF
// and prints a metrics summary (latency percentiles, QPS, batching and
// shedding counters) to stderr, keeping stdout byte-stable for golden
// comparisons.
//
// Stdin mode reads up to --batch_lines lines with a blocking reader, adds
// their queries to a single-owner serve::MicroBatcher, answers them in one
// AnswerAll call, and formats each reply with serve::FormatReply — the
// same request-to-reply path the TCP event loop runs per wakeup. The
// reader stays blocking rather than epoll-driven because stdin may be a
// regular file (`< queries.jsonl`), which epoll cannot register.
//
// Shutdown: SIGTERM/SIGINT switch the server to draining — it stops
// reading stdin, answers every request already read, flushes stdout,
// and exits 0. SIGPIPE is ignored so a vanished reader surfaces as a
// write error instead of killing the process.
//
// TCP mode (--listen host:port): an epoll event loop (src/net/server.h)
// serves the same JSONL protocol to many concurrent connections, replies
// in order per connection, and additionally accepts the admin request
// {"reload": "/path/to/model.ckpt"} which hot-swaps the serving checkpoint
// without dropping a request (SIGHUP re-reads the current checkpoint
// path). Port 0 binds an ephemeral port; the actual address is announced
// on stderr as "listening on HOST:PORT". SIGTERM/SIGINT drain exactly as
// in stdin mode: stop accepting, answer everything received, flush, exit 0.
//
// Flags:
//   --listen=HOST:PORT    serve over TCP instead of stdin/stdout
//   --no_reload           refuse {"reload": ...} admin requests (TCP mode)
//   --idle_timeout_ms=N   close connections idle for N ms (TCP mode;
//                         0 = never, the default)
//   --stall_timeout_ms=N  drop connections whose request line has been
//                         incomplete for N ms (slow-loris defense; 0 =
//                         never, the default)
//   --checkpoint=F        trained model (required)
//   --in=F                the dataset the model was trained on (required)
//   --undirect            mirror the training run's --undirect
//   --cache=F             sidecar file for the Eq. 9 propagation precompute
//   --batch_lines=N       stdin lines read before each batch is answered
//                         (default 1; raise to coalesce pipelined queries
//                         per forward)
//   --max_batch_nodes=N   node cap per coalesced forward (default 4096)
//   --max_queue_depth=N   pending-request ceiling; requests past it are
//                         answered "overloaded" (default 4096)
//   --threads=N           kernel thread count (0 = auto)
//   --simd_level=<portable|avx2|avx512>
//                         pin the kernel dispatch level (default: fastest
//                         level the CPU supports)

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/core/flags.h"
#include "src/core/parallel.h"
#include "src/data/io.h"
#include "src/io/checkpoint.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/serve/batcher.h"
#include "src/serve/engine.h"
#include "src/serve/hot_swap.h"
#include "src/serve/jsonl.h"
#include "src/serve/metrics.h"
#include "src/tensor/simd.h"

namespace adpa {
namespace {

volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void HandleShutdownSignal(int signal_number) {
  g_shutdown_signal = signal_number;
}

/// TCP mode: signals wake the event loop through its self-pipe. Both the
/// flag store and the single-byte write are async-signal-safe.
volatile std::sig_atomic_t g_server_wake_fd = -1;

extern "C" void HandleServerSignal(int signal_number) {
  if (signal_number != SIGHUP) g_shutdown_signal = signal_number;
  const int fd = g_server_wake_fd;
  if (fd < 0) return;
  const char command = signal_number == SIGHUP ? 'H' : 'T';
  const ssize_t wrote = ::write(fd, &command, 1);
  (void)wrote;  // a full wake pipe already has a wakeup queued
}

/// Line reader over fd 0 built on raw ::read. std::getline can't be used
/// here: libstdc++ retries read() on EINTR inside the stream buffer, so a
/// SIGTERM delivered while blocked on stdin would never interrupt the wait
/// and the drain path would only run at the next newline.
class StdinLineReader {
 public:
  enum class ReadResult { kLine, kEof, kInterrupted };

  ReadResult Next(std::string* line) {
    while (true) {
      const size_t newline = buffer_.find('\n', scan_from_);
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scan_from_ = 0;
        return ReadResult::kLine;
      }
      scan_from_ = buffer_.size();
      char chunk[4096];
      const ssize_t got = ::read(STDIN_FILENO, chunk, sizeof(chunk));
      if (got > 0) {
        buffer_.append(chunk, static_cast<size_t>(got));
        continue;
      }
      if (got == 0) {
        if (buffer_.empty()) return ReadResult::kEof;
        line->swap(buffer_);  // final unterminated line
        buffer_.clear();
        scan_from_ = 0;
        return ReadResult::kLine;
      }
      if (errno == EINTR) {
        if (g_shutdown_signal != 0) return ReadResult::kInterrupted;
        continue;
      }
      return ReadResult::kEof;  // unreadable stdin ends the serve loop
    }
  }

 private:
  std::string buffer_;
  size_t scan_from_ = 0;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintMetricsSummary(const serve::ServeMetrics& metrics,
                         double elapsed_s) {
  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  std::fprintf(stderr,
               "served %llu requests (%llu errors, %llu nodes) in %llu "
               "batches; mean batch %.2f req; latency ms p50 %.3f p99 %.3f "
               "mean %.3f; %.1f req/s; max queue depth %lld; rejected %llu; "
               "shed %llu\n",
               static_cast<unsigned long long>(snapshot.requests),
               static_cast<unsigned long long>(snapshot.errors),
               static_cast<unsigned long long>(snapshot.nodes),
               static_cast<unsigned long long>(snapshot.batches),
               snapshot.mean_batch_requests, snapshot.p50_latency_ms,
               snapshot.p99_latency_ms, snapshot.mean_latency_ms,
               elapsed_s > 0.0 ? static_cast<double>(snapshot.requests) /
                                     elapsed_s
                               : 0.0,
               static_cast<long long>(snapshot.max_queue_depth),
               static_cast<unsigned long long>(snapshot.rejected),
               static_cast<unsigned long long>(snapshot.shed));
}

/// --listen mode: epoll event loop over TCP with hot checkpoint swap.
int ServeTcp(const std::string& listen_spec, const Flags& flags,
             const Dataset& input, const std::string& checkpoint_path) {
  Result<net::HostPort> listen = net::ParseHostPort(listen_spec);
  if (!listen.ok()) return Fail(listen.status());

  serve::EngineOptions engine_options;
  engine_options.propagation_cache_path = flags.GetString("cache", "");
  serve::SessionRegistry registry(&input, engine_options);
  const Result<serve::SessionRegistry::ReloadInfo> initial =
      registry.Reload(checkpoint_path);
  if (!initial.ok()) return Fail(initial.status());
  const std::shared_ptr<const serve::InferenceSession> session =
      registry.Current();
  std::fprintf(stderr,
               "serving %s on %s: %lld nodes, %lld classes, propagation %s\n",
               initial->model_name.c_str(), input.name.c_str(),
               static_cast<long long>(session->num_nodes()),
               static_cast<long long>(session->num_classes()),
               initial->used_propagation_cache ? "cache hit" : "computed");

  serve::ServeMetrics metrics;
  net::ServerOptions options;
  options.host = listen->host;
  options.port = listen->port;
  options.batcher.max_batch_nodes = flags.GetInt("max_batch_nodes", 4096);
  options.batcher.max_queue_depth = flags.GetInt("max_queue_depth", 4096);
  options.allow_reload = !flags.Has("no_reload");
  options.idle_timeout_ms = flags.GetInt("idle_timeout_ms", 0);
  options.stall_timeout_ms = flags.GetInt("stall_timeout_ms", 0);
  Result<std::unique_ptr<net::Server>> server =
      net::Server::Create(options, &registry, &metrics);
  if (!server.ok()) return Fail(server.status());
  std::fprintf(stderr, "listening on %s:%u\n",
               options.host.empty() || options.host == "*"
                   ? "0.0.0.0"
                   : options.host.c_str(),
               static_cast<unsigned>((*server)->port()));
  std::fflush(stderr);  // harnesses grep the announced port immediately

  g_server_wake_fd = (*server)->wake_fd();
  struct sigaction wake_action {};
  wake_action.sa_handler = HandleServerSignal;
  sigemptyset(&wake_action.sa_mask);
  wake_action.sa_flags = 0;  // no SA_RESTART: epoll_wait must wake
  sigaction(SIGTERM, &wake_action, nullptr);
  sigaction(SIGINT, &wake_action, nullptr);
  sigaction(SIGHUP, &wake_action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  const auto serve_start = std::chrono::steady_clock::now();
  const Status status = (*server)->Serve();
  g_server_wake_fd = -1;
  if (!status.ok()) return Fail(status);
  if (g_shutdown_signal != 0) {
    std::fprintf(stderr,
                 "draining: received signal %d; in-flight requests "
                 "answered, exiting cleanly\n",
                 static_cast<int>(g_shutdown_signal));
  }

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_start)
          .count();
  const net::ServerStats& stats = (*server)->stats();
  std::fprintf(stderr,
               "connections: %llu accepted, %llu closed by peer, %llu "
               "dropped, %llu io errors, %llu over capacity, %llu idle "
               "closed, %llu stall dropped, %llu fd exhausted; reloads: "
               "%llu ok, %llu failed (generation %lld)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.closed_by_peer),
               static_cast<unsigned long long>(stats.dropped),
               static_cast<unsigned long long>(stats.io_errors),
               static_cast<unsigned long long>(stats.over_capacity),
               static_cast<unsigned long long>(stats.idle_closed),
               static_cast<unsigned long long>(stats.stall_dropped),
               static_cast<unsigned long long>(stats.fd_exhausted),
               static_cast<unsigned long long>(stats.reloads),
               static_cast<unsigned long long>(stats.reload_failures),
               static_cast<long long>(registry.generation()));
  PrintMetricsSummary(metrics, elapsed_s);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: adpa_serve --checkpoint=F --in=F [--undirect]\n"
               "                  [--listen=HOST:PORT --no_reload\n"
               "                  --idle_timeout_ms=N --stall_timeout_ms=N]\n"
               "                  [--cache=F --batch_lines=N "
               "--max_batch_nodes=N\n"
               "                  --max_queue_depth=N --threads=N\n"
               "                  --simd_level=<portable|avx2|avx512>]\n"
               "reads JSON-lines requests from stdin, writes replies to "
               "stdout;\n"
               "with --listen, serves the same protocol over TCP (port 0 =\n"
               "ephemeral; the bound address is printed to stderr) and\n"
               "accepts {\"reload\": \"path\"} hot-swap requests (SIGHUP\n"
               "re-reads the current checkpoint);\n"
               "SIGTERM/SIGINT drain in-flight requests and exit 0\n");
  return 2;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) return Usage();
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const std::string dataset_path = flags.GetString("in", "");
  if (checkpoint_path.empty() || dataset_path.empty()) return Usage();
  if (flags.Has("threads")) {
    SetNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  }
  // Resolve the dispatch level eagerly so a bad ADPA_SIMD_LEVEL aborts at
  // startup instead of on the first kernel call.
  simd::ActiveLevel();
  if (flags.Has("simd_level")) {
    const std::string level_name = flags.GetString("simd_level", "");
    simd::Level level;
    if (!simd::ParseLevel(level_name, &level)) {
      std::fprintf(stderr, "error: unknown --simd_level=%s\n",
                   level_name.c_str());
      return Usage();
    }
    if (!simd::LevelSupported(level)) {
      std::fprintf(stderr, "error: --simd_level=%s not supported by this CPU\n",
                   level_name.c_str());
      return 1;
    }
    simd::SetLevel(level);
  }

  // No SA_RESTART: a signal must interrupt the blocking stdin read so the
  // drain path runs immediately rather than at the next request line.
  struct sigaction drain_action {};
  drain_action.sa_handler = HandleShutdownSignal;
  sigemptyset(&drain_action.sa_mask);
  drain_action.sa_flags = 0;
  sigaction(SIGTERM, &drain_action, nullptr);
  sigaction(SIGINT, &drain_action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  Result<Dataset> dataset = LoadDataset(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status());
  Dataset input = flags.GetBool("undirect", false)
                      ? dataset->WithUndirectedGraph()
                      : std::move(*dataset);

  if (flags.Has("listen")) {
    return ServeTcp(flags.GetString("listen", ""), flags, input,
                    checkpoint_path);
  }

  Result<Checkpoint> checkpoint = TryLoadCheckpoint(checkpoint_path);
  if (!checkpoint.ok()) return Fail(checkpoint.status());

  serve::EngineOptions engine_options;
  engine_options.propagation_cache_path = flags.GetString("cache", "");
  Result<serve::InferenceSession> session =
      serve::InferenceSession::Create(*checkpoint, input, engine_options);
  if (!session.ok()) return Fail(session.status());
  std::fprintf(stderr,
               "serving %s on %s: %lld nodes, %lld classes, propagation %s\n",
               checkpoint->model_name.c_str(), input.name.c_str(),
               static_cast<long long>(session->num_nodes()),
               static_cast<long long>(session->num_classes()),
               session->used_propagation_cache() ? "cache hit" : "computed");

  serve::ServeMetrics metrics;
  serve::MicroBatcher::Options batcher_options;
  batcher_options.max_batch_nodes = flags.GetInt("max_batch_nodes", 4096);
  batcher_options.max_queue_depth = flags.GetInt("max_queue_depth", 4096);
  serve::MicroBatcher batcher(&metrics, batcher_options);
  const int64_t batch_lines = std::max<int64_t>(1, flags.GetInt("batch_lines", 1));

  const auto serve_start = std::chrono::steady_clock::now();
  StdinLineReader reader;
  std::string line;
  bool at_eof = false;
  while (!at_eof) {
    // The same request-to-reply path as the TCP server: parse each line,
    // Add its query, answer the batch, format every reply in order.
    std::vector<serve::PendingReply> pending;
    while (static_cast<int64_t>(pending.size()) < batch_lines) {
      if (g_shutdown_signal != 0) {
        at_eof = true;
        break;
      }
      const StdinLineReader::ReadResult read = reader.Next(&line);
      if (read != StdinLineReader::ReadResult::kLine) {
        at_eof = true;
        break;
      }
      if (line.empty()) continue;
      serve::PendingReply reply;
      Result<serve::ServeRequest> request = serve::ParseRequestLine(line);
      if (!request.ok()) {
        reply.immediate =
            serve::FormatErrorReply(-1, request.status().message());
      } else if (request->is_reload) {
        reply.immediate = serve::FormatErrorReply(
            request->id, "reload requires --listen mode");
      } else {
        reply.id = request->id;
        reply.answer =
            batcher.Add(std::move(request->nodes), request->deadline_ms);
      }
      pending.push_back(std::move(reply));
    }
    const serve::Answers answers = batcher.AnswerAll(&*session);
    for (const serve::PendingReply& reply : pending) {
      std::fputs(serve::FormatReply(reply, answers).c_str(), stdout);
      std::fputc('\n', stdout);
    }
    std::fflush(stdout);
  }
  if (g_shutdown_signal != 0) {
    std::fprintf(stderr,
                 "draining: received signal %d; in-flight requests "
                 "answered, exiting cleanly\n",
                 static_cast<int>(g_shutdown_signal));
  }

  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_start)
          .count();
  PrintMetricsSummary(metrics, elapsed_s);
  return 0;
}

}  // namespace
}  // namespace adpa

int main(int argc, char** argv) { return adpa::Main(argc, argv); }

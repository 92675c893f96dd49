#pragma once
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/core/status.h"
#include "src/net/framing.h"
#include "src/net/socket.h"
#include "src/serve/batcher.h"
#include "src/serve/hot_swap.h"
#include "src/serve/metrics.h"

namespace adpa::net {

struct ServerOptions {
  /// Bind address. Port 0 picks an ephemeral port; read it back from
  /// Server::port() (the harness and tests depend on this).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Per-connection line cap; a longer line is answered with a framing
  /// error and the connection is closed (LineFramer latches — see
  /// src/net/framing.h for why resync is unsafe).
  size_t max_line_bytes = LineFramer::kDefaultMaxLineBytes;
  /// Per-connection reply backlog cap; a client that stops reading while
  /// replies accumulate past this is dropped (bounded memory under
  /// slow-consumer abuse).
  size_t max_write_buffer_bytes = 4u << 20;
  /// Accepted-connection ceiling; extra connects are closed immediately.
  int64_t max_connections = 1024;

  /// Connection hygiene (DESIGN.md §15); 0 disables each timeout, which is
  /// the default so timing never leaks into unit-test harnesses. Idle: a
  /// connection that has sent no bytes for this long and is owed nothing
  /// (no queued replies, write buffer flushed) is closed cleanly — the
  /// client sees an orderly FIN. An unfinished partial line is discarded,
  /// exactly as drain discards one.
  int64_t idle_timeout_ms = 0;
  /// Read-stall (slow-loris) timeout: a connection whose current request
  /// line has been sitting incomplete for this long is dropped without a
  /// reply. The clock starts when the oldest unconsumed byte of the
  /// partial arrives and is NOT reset by further bytes of the same line,
  /// so a 1-byte-per-second trickle cannot hold a connection open.
  int64_t stall_timeout_ms = 0;

  /// Batch cap, queue-full reject and deadline shed for the loop's
  /// batcher (DESIGN.md §10 degradation matrix). They apply per request
  /// exactly as in stdin mode.
  serve::MicroBatcher::Options batcher;

  /// When false, {"reload": ...} admin requests are answered with an error
  /// instead of swapping checkpoints.
  bool allow_reload = true;
};

/// Counters the single-threaded event loop keeps outside ServeMetrics
/// (which tracks requests; these track connections). Read them after
/// Serve() returns, or from the loop thread.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed_by_peer = 0;       ///< clean EOF from the client
  uint64_t dropped = 0;              ///< oversized line / write-buffer cap
  uint64_t io_errors = 0;            ///< read/write/accept syscall failures
  uint64_t over_capacity = 0;        ///< connects refused at max_connections
  uint64_t reloads = 0;              ///< successful checkpoint swaps
  uint64_t reload_failures = 0;      ///< rejected swaps (old session kept)
  uint64_t idle_closed = 0;          ///< reaped by the idle timeout
  uint64_t stall_dropped = 0;        ///< reaped by the read-stall timeout
  uint64_t fd_exhausted = 0;         ///< EMFILE accepts absorbed via the
                                     ///< reserved emergency fd
};

/// epoll-based multi-client JSONL inference server (DESIGN.md §14).
///
/// One thread runs Serve(): it owns every socket, the LineFramer per
/// connection, the batcher and the metrics, so the server needs no locks at
/// all — concurrency lives in the kernel (epoll) and in the ParallelFor
/// worker pool under each coalesced forward. Clients connect over TCP,
/// write one JSONL request per line, and read one reply line per request,
/// in order, per connection. Each wakeup adds every query it read, from
/// all readable connections, to the batcher and answers them in one
/// AnswerAll call, keeping queue-full reject and deadline shed per request.
///
/// Admin: {"reload": "path"} loads the checkpoint and atomically swaps it
/// into the SessionRegistry; queries already received ahead of the reload
/// are answered by the old session before the swap (the batcher is
/// answered first), so every connection sees a clean old→new reply
/// boundary.
///
/// Shutdown: RequestStop() (or a signal handler writing 'T' to wake_fd())
/// stops accepting, answers everything already received, flushes every
/// write buffer, and returns from Serve(). RequestReload() / 'H' re-reads
/// the last loaded checkpoint path (the SIGHUP convention).
class Server {
 public:
  /// `registry` and `metrics` must outlive the server; `metrics` may be
  /// null. The registry may be empty (no session yet) — queries are then
  /// answered with a structured error until a reload succeeds.
  static Result<std::unique_ptr<Server>> Create(
      const ServerOptions& options, serve::SessionRegistry* registry,
      serve::ServeMetrics* metrics);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (== options.port unless that was 0).
  uint16_t port() const { return port_; }

  /// Write end of the self-pipe. Async-signal-safe wakeups: write a single
  /// byte 'T' (drain and stop) or 'H' (reload current checkpoint path).
  int wake_fd() const { return wake_writer_.get(); }

  /// Thread-safe wakeups for tests and embedders (write to the self-pipe).
  void RequestStop() const;
  void RequestReload() const;

  /// Serves until a stop request, then drains: stops accepting, answers
  /// every request already received, flushes replies (bounded by a 5 s
  /// drain budget per loop exit), closes all connections. Only
  /// environmental failures (epoll itself breaking) return non-OK;
  /// per-connection errors are counted in stats() and survived.
  ADPA_NODISCARD Status Serve();

  const ServerStats& stats() const { return stats_; }

 private:
  struct Connection {
    Connection(FdOwner socket, size_t max_line_bytes)
        : fd(std::move(socket)), framer(max_line_bytes) {}

    FdOwner fd;
    LineFramer framer;
    /// Replies owed, in request order. A query's `answer` indexes answers_.
    std::deque<serve::PendingReply> pending;
    std::string out;                   ///< bytes owed to the socket
    size_t out_offset = 0;
    bool peer_eof = false;           ///< no more requests; close once idle
    bool close_after_flush = false;  ///< condemned (oversized line)
    bool dead = false;               ///< close at end of loop iteration
    uint32_t interest = 0;           ///< epoll event mask currently armed

    /// Hygiene clocks, stamped by the loop thread only. `last_read` is the
    /// accept time or the last time bytes arrived; `partial_since` is when
    /// the oldest unconsumed byte of the current incomplete line arrived
    /// (valid only while `has_partial`).
    std::chrono::steady_clock::time_point last_read;
    std::chrono::steady_clock::time_point partial_since;
    bool has_partial = false;
  };

  Server(const ServerOptions& options, serve::SessionRegistry* registry,
         serve::ServeMetrics* metrics);

  Status SetupSockets();
  void HandleWake();
  void HandleAccept();
  /// EMFILE/ENFILE on accept: burn the reserved emergency fd to accept one
  /// queued connection, close it immediately (shedding the newcomer, not
  /// an established client), then re-arm the reserve. Without this the
  /// level-triggered listener would re-report the same pending connection
  /// on every wakeup, forever, while the client hangs in connect().
  void DrainAcceptWithReserveFd();
  void HandleReadable(int fd);
  void ProcessLines(Connection* conn);
  void HandleLine(Connection* conn, const std::string& line);
  /// Answers everything the batcher holds against the current session and
  /// appends the results to answers_.
  void AnswerQueued();
  void ResolvePending(Connection* conn);
  void FlushWrites(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CollectFinished();
  void StartDrain();
  bool HygieneEnabled() const {
    return options_.idle_timeout_ms > 0 || options_.stall_timeout_ms > 0;
  }
  /// Milliseconds until the earliest idle/stall deadline, or -1 when no
  /// connection has one armed. Bounds the epoll_wait timeout.
  int NextHygieneDelayMs(std::chrono::steady_clock::time_point now) const;
  /// Reaps connections past their idle/stall deadline (marks them dead;
  /// CollectFinished closes them).
  void EnforceHygiene();

  const ServerOptions options_;
  serve::SessionRegistry* const registry_;
  serve::MicroBatcher batcher_;
  /// Results of this loop iteration's AnswerAll calls, in Add order across
  /// calls; emptied once every connection has taken its replies.
  serve::Answers answers_;

  ListenSocket listener_;
  uint16_t port_ = 0;
  FdOwner epoll_;
  FdOwner wake_reader_;
  FdOwner wake_writer_;
  /// Reserved emergency descriptor (/dev/null), closed and re-opened to
  /// absorb EMFILE storms on accept — see DrainAcceptWithReserveFd.
  FdOwner reserve_fd_;

  std::map<int, std::unique_ptr<Connection>> connections_;
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;
  ServerStats stats_;
};

}  // namespace adpa::net

#include "src/net/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/serve/jsonl.h"

namespace adpa::net {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + " failed: " + std::strerror(errno));
}

/// Async-signal-safe single-byte write to the self-pipe. The pipe is
/// non-blocking: if it is somehow full, commands are already queued and
/// dropping this one is harmless (wake commands are idempotent).
void SendWakeByte(int fd, char command) {
  while (true) {
    const ssize_t wrote = ::write(fd, &command, 1);
    if (wrote >= 0 || errno != EINTR) return;
  }
}

/// Drain budget once a stop request lands: connections that cannot absorb
/// their replies within this window are force-closed so shutdown cannot
/// hang on a stalled client.
constexpr std::chrono::seconds kDrainBudget{5};

}  // namespace

Server::Server(const ServerOptions& options, serve::SessionRegistry* registry,
               serve::ServeMetrics* metrics)
    : options_(options),
      registry_(registry),
      batcher_(metrics, options.batcher) {}

Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Create(
    const ServerOptions& options, serve::SessionRegistry* registry,
    serve::ServeMetrics* metrics) {
  if (registry == nullptr) {
    return Status::InvalidArgument("Server::Create: registry must not be null");
  }
  std::unique_ptr<Server> server(new Server(options, registry, metrics));
  ADPA_RETURN_IF_ERROR(server->SetupSockets());
  return server;
}

Status Server::SetupSockets() {
  Result<ListenSocket> listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port;

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return ErrnoStatus("epoll_create1");
  epoll_.Reset(epoll_fd);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    return ErrnoStatus("pipe2");
  }
  wake_reader_.Reset(pipe_fds[0]);
  wake_writer_.Reset(pipe_fds[1]);

  // Emergency descriptor for EMFILE storms on accept. Held open from the
  // start so the reserve exists even once the table is full.
  const int reserve = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve < 0) return ErrnoStatus("open(/dev/null)");
  reserve_fd_.Reset(reserve);

  for (const int fd : {listener_.fd.get(), wake_reader_.get()}) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
      return ErrnoStatus("epoll_ctl(add)");
    }
  }
  return Status::OK();
}

void Server::RequestStop() const { SendWakeByte(wake_writer_.get(), 'T'); }

void Server::RequestReload() const { SendWakeByte(wake_writer_.get(), 'H'); }

Status Server::Serve() {
  std::array<epoll_event, 64> events;
  while (true) {
    int timeout_ms = -1;
    if (draining_) {
      if (connections_.empty()) break;
      // lint:allow(deterministic-randomness) — drain budget, not results
      const auto now = std::chrono::steady_clock::now();
      if (now >= drain_deadline_) {
        connections_.clear();  // budget exhausted: force-close stragglers
        break;
      }
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              drain_deadline_ - now)
              .count()) +
          1;
    }
    if (HygieneEnabled() && !connections_.empty()) {
      // lint:allow(deterministic-randomness) — hygiene clock, not results
      const int hygiene_ms = NextHygieneDelayMs(std::chrono::steady_clock::now());
      if (hygiene_ms >= 0 && (timeout_ms < 0 || hygiene_ms < timeout_ms)) {
        timeout_ms = hygiene_ms;
      }
    }

    const int ready = ::epoll_wait(epoll_.get(), events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("epoll_wait");
    }

    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_reader_.get()) {
        HandleWake();
      } else if (fd == listener_.fd.get()) {
        HandleAccept();
      } else {
        HandleReadable(fd);
      }
    }

    if (HygieneEnabled()) EnforceHygiene();

    // All requests harvested this wakeup — including lines from several
    // connections readable at once — coalesce through one AnswerAll call.
    AnswerQueued();
    for (auto& [fd, conn] : connections_) {
      if (conn->dead) continue;
      ResolvePending(conn.get());
      FlushWrites(conn.get());
    }
    answers_.clear();
    CollectFinished();
    if (draining_ && connections_.empty()) break;
  }
  return Status::OK();
}

void Server::HandleWake() {
  char commands[64];
  while (true) {
    const ssize_t got =
        ::read(wake_reader_.get(), commands, sizeof(commands));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EAGAIN: the pipe is drained
    for (ssize_t i = 0; i < got; ++i) {
      if (commands[i] == 'T') {
        StartDrain();
      } else if (commands[i] == 'H') {
        // SIGHUP convention: re-read the last loaded checkpoint path.
        // Answer everything already queued with the old session first so
        // the reply stream has a clean swap boundary.
        AnswerQueued();
        const Result<serve::SessionRegistry::ReloadInfo> info =
            registry_->ReloadCurrent();
        if (info.ok()) {
          ++stats_.reloads;
        } else {
          ++stats_.reload_failures;
        }
      }
    }
  }
}

void Server::HandleAccept() {
  while (!draining_) {
    Result<AcceptResult> accepted = AcceptConnection(listener_.fd.get());
    if (!accepted.ok()) {
      // A peer that vanished mid-handshake (or the net.accept failpoint):
      // count it and keep listening. Level-triggered epoll re-reports any
      // still-pending connection on the next wakeup.
      ++stats_.io_errors;
      break;
    }
    if (accepted->would_block) break;
    if (accepted->fd_exhausted) {
      ++stats_.fd_exhausted;
      DrainAcceptWithReserveFd();
      break;  // level-triggered epoll re-reports any remaining backlog
    }
    if (static_cast<int64_t>(connections_.size()) >=
        options_.max_connections) {
      ++stats_.over_capacity;
      continue;  // the AcceptResult closes the surplus fd
    }
    const int fd = accepted->fd.get();
    auto conn = std::make_unique<Connection>(std::move(accepted->fd),
                                             options_.max_line_bytes);
    if (HygieneEnabled()) {
      // lint:allow(deterministic-randomness) — hygiene clock, not results
      conn->last_read = std::chrono::steady_clock::now();
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
      ++stats_.io_errors;
      continue;  // conn (and its fd) die at scope exit
    }
    conn->interest = EPOLLIN;
    connections_.emplace(fd, std::move(conn));
    ++stats_.accepted;
  }
}

void Server::DrainAcceptWithReserveFd() {
  if (!reserve_fd_.valid()) return;  // already lost the reserve: nothing to do
  reserve_fd_.Reset();               // free one descriptor
  {
    // With one fd free, accept the queued connection and close it at scope
    // exit: the newcomer gets an orderly refusal instead of hanging in
    // connect() while the listener busy-reports EMFILE forever.
    Result<AcceptResult> shed = AcceptConnection(listener_.fd.get());
    if (shed.ok() && shed->fd.valid()) ++stats_.over_capacity;
  }
  const int reserve = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve >= 0) reserve_fd_.Reset(reserve);
  // If even /dev/null will not open, the table is still full: the reserve
  // stays lost until descriptors free up, and the next EMFILE report is a
  // no-op rather than a busy loop.
}

void Server::HandleReadable(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;  // closed earlier in this batch
  Connection* conn = it->second.get();
  char chunk[16384];
  while (!conn->dead && !conn->close_after_flush && !conn->peer_eof &&
         !draining_) {
    const Result<IoResult> got =
        ReadSome(fd, chunk, sizeof(chunk));
    if (!got.ok()) {
      // Mid-stream read failure: the protocol state is unknown, so there
      // is nothing meaningful left to answer — drop the connection.
      ++stats_.io_errors;
      conn->dead = true;
      return;
    }
    if (got->closed) {
      conn->peer_eof = true;
      ++stats_.closed_by_peer;
      break;
    }
    if (got->would_block || got->bytes == 0) break;
    const size_t buffered_before = conn->framer.buffered_bytes();
    conn->framer.Append(chunk, static_cast<size_t>(got->bytes));
    ProcessLines(conn);
    if (HygieneEnabled()) {
      // lint:allow(deterministic-randomness) — hygiene clock, not results
      const auto now = std::chrono::steady_clock::now();
      conn->last_read = now;
      const size_t buffered_after = conn->framer.buffered_bytes();
      if (buffered_after == 0) {
        conn->has_partial = false;
      } else if (!conn->has_partial ||
                 buffered_after <
                     buffered_before + static_cast<size_t>(got->bytes)) {
        // The oldest unconsumed byte arrived in this read (buffer was
        // empty, or a completed line consumed the older bytes). Pure
        // growth of an existing partial keeps the original clock — that
        // is what defeats a 1-byte-per-second trickle.
        conn->has_partial = true;
        conn->partial_since = now;
      }
    }
  }
  if (conn->peer_eof && !conn->dead && !conn->close_after_flush) {
    // Serve a final unterminated line, mirroring the stdin server at EOF.
    std::string last;
    if (conn->framer.TakeRemainder(&last)) HandleLine(conn, last);
  }
  UpdateInterest(conn);
}

void Server::ProcessLines(Connection* conn) {
  std::string line;
  while (!conn->close_after_flush) {
    const LineFramer::Next next = conn->framer.NextLine(&line);
    if (next == LineFramer::Next::kLine) {
      HandleLine(conn, line);
      continue;
    }
    if (next == LineFramer::Next::kOversized) {
      ++stats_.dropped;
      serve::PendingReply reply;
      reply.immediate = serve::FormatErrorReply(
          -1, "request line exceeds " +
                  std::to_string(conn->framer.max_line_bytes()) +
                  " bytes; closing connection");
      conn->pending.push_back(std::move(reply));
      conn->close_after_flush = true;
    }
    break;
  }
}

void Server::HandleLine(Connection* conn, const std::string& line) {
  if (line.empty()) return;  // blank lines are ignored, as in stdin mode
  Result<serve::ServeRequest> request = serve::ParseRequestLine(line);
  serve::PendingReply reply;
  if (!request.ok()) {
    reply.immediate = serve::FormatErrorReply(-1, request.status().message());
  } else if (request->is_reload) {
    if (!options_.allow_reload) {
      reply.immediate = serve::FormatErrorReply(
          request->id, "reload is disabled on this server");
    } else {
      // Answer queries received ahead of the reload with the old session:
      // the swap lands on a clean reply boundary.
      AnswerQueued();
      const Result<serve::SessionRegistry::ReloadInfo> info =
          registry_->Reload(request->reload_path);
      if (info.ok()) {
        ++stats_.reloads;
        reply.immediate = serve::FormatReloadReply(request->id, info->path,
                                                   info->generation);
      } else {
        ++stats_.reload_failures;
        reply.immediate =
            serve::FormatErrorReply(request->id, info.status().message());
      }
    }
  } else {
    reply.id = request->id;
    // Add indexes the next AnswerAll result, which AnswerQueued appends
    // after the answers_ already held.
    reply.answer = static_cast<int64_t>(answers_.size()) +
                   batcher_.Add(std::move(request->nodes),
                                request->deadline_ms);
  }
  conn->pending.push_back(std::move(reply));
}

void Server::AnswerQueued() {
  // Pin the serving session for the whole call: a reload cannot release
  // the model under an in-flight forward.
  const std::shared_ptr<const serve::InferenceSession> session =
      registry_->Current();
  for (Result<std::vector<int64_t>>& answer :
       batcher_.AnswerAll(session.get())) {
    answers_.push_back(std::move(answer));
  }
}

void Server::ResolvePending(Connection* conn) {
  while (!conn->pending.empty()) {
    conn->out += serve::FormatReply(conn->pending.front(), answers_);
    conn->out += '\n';
    conn->pending.pop_front();
    if (conn->out.size() - conn->out_offset >
        options_.max_write_buffer_bytes) {
      // Slow consumer: replies are piling up faster than the client reads.
      // Dropping the connection bounds per-connection memory.
      ++stats_.dropped;
      conn->dead = true;
      return;
    }
  }
}

void Server::FlushWrites(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const Result<IoResult> wrote =
        WriteSome(conn->fd.get(), conn->out.data() + conn->out_offset,
                  conn->out.size() - conn->out_offset);
    if (!wrote.ok()) {
      ++stats_.io_errors;
      conn->dead = true;
      return;
    }
    if (wrote->closed) {
      conn->dead = true;  // peer vanished; nothing left to deliver to
      return;
    }
    if (wrote->would_block) break;
    conn->out_offset += static_cast<size_t>(wrote->bytes);
  }
  if (conn->out_offset >= conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    if (conn->close_after_flush ||
        ((conn->peer_eof || draining_) && conn->pending.empty())) {
      conn->dead = true;
      return;
    }
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection* conn) {
  if (conn->dead) return;
  uint32_t want = 0;
  // Once reading stops (EOF, condemned stream, drain), EPOLLIN must come
  // off the mask: a level-triggered EOF or unread payload would otherwise
  // wake the loop continuously.
  if (!conn->peer_eof && !conn->close_after_flush && !draining_) {
    want |= EPOLLIN;
  }
  if (conn->out_offset < conn->out.size()) want |= EPOLLOUT;
  if (want == conn->interest) return;
  epoll_event event{};
  event.events = want;
  event.data.fd = conn->fd.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd.get(), &event) != 0) {
    ++stats_.io_errors;
    conn->dead = true;
    return;
  }
  conn->interest = want;
}

void Server::CollectFinished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->dead) {
      // Closing the fd (FdOwner destructor) deregisters it from epoll.
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

int Server::NextHygieneDelayMs(
    std::chrono::steady_clock::time_point now) const {
  std::chrono::steady_clock::time_point earliest{};
  bool have_deadline = false;
  for (const auto& [fd, conn] : connections_) {
    const Connection* c = conn.get();
    if (c->dead) continue;
    if (options_.stall_timeout_ms > 0 && c->has_partial) {
      const auto deadline =
          c->partial_since +
          std::chrono::milliseconds(options_.stall_timeout_ms);
      if (!have_deadline || deadline < earliest) earliest = deadline;
      have_deadline = true;
    }
    if (options_.idle_timeout_ms > 0 && c->pending.empty() &&
        c->out_offset >= c->out.size()) {
      const auto deadline =
          c->last_read + std::chrono::milliseconds(options_.idle_timeout_ms);
      if (!have_deadline || deadline < earliest) earliest = deadline;
      have_deadline = true;
    }
  }
  if (!have_deadline) return -1;
  if (earliest <= now) return 0;
  return static_cast<int>(
             std::chrono::duration_cast<std::chrono::milliseconds>(earliest -
                                                                   now)
                 .count()) +
         1;
}

void Server::EnforceHygiene() {
  if (connections_.empty()) return;
  // lint:allow(deterministic-randomness) — hygiene clock, not results
  const auto now = std::chrono::steady_clock::now();
  for (auto& [fd, conn] : connections_) {
    Connection* c = conn.get();
    if (c->dead) continue;
    if (options_.stall_timeout_ms > 0 && c->has_partial &&
        now - c->partial_since >=
            std::chrono::milliseconds(options_.stall_timeout_ms)) {
      // Slow-loris: the line never completed, so there is no reply to owe.
      // Abrupt drop — buffered replies for earlier requests die with it.
      ++stats_.stall_dropped;
      c->dead = true;
      continue;
    }
    if (options_.idle_timeout_ms > 0 && c->pending.empty() &&
        c->out_offset >= c->out.size() &&
        now - c->last_read >=
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
      // Nothing owed in either direction: orderly FIN. A dangling partial
      // line is discarded, exactly as drain discards one.
      ++stats_.idle_closed;
      c->dead = true;
    }
  }
}

void Server::StartDrain() {
  if (draining_) return;
  draining_ = true;
  // lint:allow(deterministic-randomness) — drain budget, not results
  drain_deadline_ = std::chrono::steady_clock::now() + kDrainBudget;
  // Stop accepting: closing the listener both refuses new connections and
  // removes it from the epoll set.
  listener_.fd.Reset();
  // Answer every complete request already buffered; an unterminated
  // partial line was never finished by the client and is discarded.
  for (auto& [fd, conn] : connections_) {
    if (conn->dead) continue;
    ProcessLines(conn.get());
    UpdateInterest(conn.get());
  }
}

}  // namespace adpa::net

#ifndef ARIEL_SERVER_SERVER_H_
#define ARIEL_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ariel/database.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "util/status.h"

namespace ariel::server {

/// Knobs for ariel-server. Defaults suit interactive/loopback use; FromEnv
/// applies the documented environment overrides on top of them.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (tests, benches) — read the real
  /// one back from ArielServer::port(). Env: ARIEL_PORT.
  uint16_t port = 7087;
  /// Accepted connections beyond this are answered with an error response
  /// and closed. Env: ARIEL_SERVER_MAX_CONNECTIONS.
  size_t max_connections = 64;
  /// Connections silent for this long are torn down (their open transaction
  /// aborts, like any disconnect). 0 = never. Env:
  /// ARIEL_SERVER_IDLE_TIMEOUT_MS.
  int idle_timeout_ms = 0;
  /// Upper bound on one request frame (and on one bare line). Oversized or
  /// malformed frames get an error response, then the connection closes.
  /// Env: ARIEL_SERVER_MAX_FRAME_BYTES.
  size_t max_frame_bytes = 1 << 20;
  /// Per-connection unflushed-response cap: past it the connection stops
  /// executing requests and stops reading until the peer drains responses
  /// (backpressure), so one slow reader cannot balloon server memory.
  size_t max_output_buffer_bytes = 256 * 1024;
  /// Decoded-but-unexecuted requests held per connection before reading
  /// pauses; bounds pipelined-queue memory while a transaction owner has
  /// the engine gated.
  size_t max_pipelined_requests = 1024;
  /// "" = epoll where available (Linux), else poll; or force "epoll" /
  /// "poll". Env: ARIEL_EVENT_BACKEND.
  std::string event_backend;

  /// Defaults with environment overrides applied (malformed values are
  /// ignored, keeping the default).
  static ServerOptions FromEnv();
};

/// The networked front end (ISSUE 7 tentpole): a readiness-loop TCP server
/// over one Database. Connection I/O, framing, pipelining, backpressure,
/// and timeouts live here; command execution and transaction bracketing
/// live in Session (the only caller of Database::Execute*).
///
/// Threading: Start() and Run() must be called from the same thread; Run
/// blocks until RequestShutdown (which is safe to call from any thread or
/// a signal handler) and drains in-flight commands before returning. The
/// Database must not be touched by other threads while Run is executing.
///
/// Execution is serialized, as in the paper's one-command-at-a-time
/// recognize-act cycle: every request runs through Session::HandleRequest on
/// the event-loop thread, round-robin across connections. A connection's
/// replies are sent as soon as its request queue runs dry, so a lone
/// request's reply leaves before other sessions' deferred work runs, while a
/// pipelined burst still batches its replies into one send.
class ArielServer {
 public:
  ArielServer(Database* db, ServerOptions options);
  ~ArielServer();

  ArielServer(const ArielServer&) = delete;
  ArielServer& operator=(const ArielServer&) = delete;

  /// Creates the event loop, binds and listens. After Start, port() is the
  /// actual bound port.
  [[nodiscard]] Status Start();

  /// Serves until RequestShutdown. Graceful teardown: stop accepting,
  /// execute every request already received, flush replies (bounded grace
  /// period), abort any transaction left open, close everything.
  [[nodiscard]] Status Run();

  /// Signals Run to shut down. Async-signal-safe: an atomic flag plus one
  /// write to the wake pipe.
  void RequestShutdown();

  uint16_t port() const { return bound_port_; }
  const char* backend_name() const;
  size_t active_connections() const { return connections_.size(); }

 private:
  void AcceptNew();
  /// Reads a connection's socket and decodes complete frames into its
  /// request queue; framing errors park a pending_error reply.
  void ReadAndDecode(Connection& conn);
  /// Executes runnable requests across connections, round-robin, until no
  /// progress: skips connections stalled on backpressure and, while one
  /// session holds the explicit transaction, everyone but the owner.
  /// Returns true if any request executed (or framing error was emitted).
  bool Pump();
  Session* TransactionOwner();
  /// Flushes outputs and reconciles each connection's event-loop interest
  /// bits with its current state.
  void FlushAndUpdateInterest();
  /// Tears down broken, fully-drained, and idle-timed-out connections.
  /// Returns true if any connection closed (teardown can free the
  /// transaction gate, so the caller must pump again).
  bool CloseEligible();
  void CloseConnection(size_t index);
  int ComputeTimeoutMs() const;

  Database* db_;
  ServerOptions options_;
  std::unique_ptr<EventLoop> loop_;
  std::vector<std::unique_ptr<Connection>> connections_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t bound_port_ = 0;
  uint64_t next_conn_id_ = 1;
  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};
};

}  // namespace ariel::server

#endif  // ARIEL_SERVER_SERVER_H_

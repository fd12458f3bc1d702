#ifndef ARIEL_SERVER_SESSION_H_
#define ARIEL_SERVER_SESSION_H_

#include <cstdint>
#include <string>

#include "ariel/database.h"

namespace ariel::server {

/// One client's execution context: the only layer of src/server/ that may
/// call into Database::Execute* (enforced by ariel_lint's server-session
/// rule). It brackets the engine's single explicit-transaction slot:
///
///   - a session that executes `begin` becomes the transaction owner; the
///     server defers every other session's commands until the owner commits,
///     aborts, or disconnects (interleaving them would silently enroll them
///     in — and roll them back with — a stranger's transaction);
///   - a session that disconnects (or is torn down at shutdown) with its
///     transaction still open aborts it, never commits (ISSUE 7 satellite:
///     a dropped connection must not publish half a transaction).
///
/// Sessions are driven exclusively from the server's event-loop thread, so
/// commands across all connections execute serialized through the engine —
/// the match-stage thread pool already parallelizes within a command.
class Session {
 public:
  struct Reply {
    char kind;            // kRespOk / kRespError / kRespIncomplete
    std::string payload;  // rendered results or rendered Status
  };

  Session(Database* db, uint64_t id) : db_(db), id_(id) {}
  ~Session() { OnDisconnect(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes one request (a script of one or more commands)
  /// and renders the wire reply. Incomplete input executes nothing and
  /// returns kRespIncomplete so the client keeps accumulating lines.
  Reply HandleRequest(const std::string& text);

  /// True iff `text` parses completely and every command in it is read-only
  /// (IsReadOnlyCommand). Parse errors and incomplete input classify as
  /// not-read-only. Static and side-effect-free; a probe for tools that
  /// split request traffic by class (the server does not call it).
  static bool ClassifyRequest(const std::string& text);

  /// True while this session's `begin` holds the engine's explicit
  /// transaction open — the server's serialization gate.
  bool owns_transaction() const { return owns_txn_; }

  /// Aborts the session's open transaction, if any. Idempotent; called on
  /// peer disconnect, idle-timeout teardown, and server shutdown.
  void OnDisconnect();

  uint64_t id() const { return id_; }
  uint64_t commands_executed() const { return commands_; }

 private:
  Database* db_;
  uint64_t id_;
  bool owns_txn_ = false;
  uint64_t commands_ = 0;
};

}  // namespace ariel::server

#endif  // ARIEL_SERVER_SESSION_H_

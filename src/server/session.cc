#include "server/session.h"

#include <utility>
#include <vector>

#include "parser/parser.h"
#include "server/protocol.h"
#include "util/metrics.h"

namespace ariel::server {

namespace {

/// Renders an execution outcome as the wire reply and counts the executed
/// commands.
Session::Reply RenderReply(
    const Result<std::vector<CommandResult>>& results) {
  if (!results.ok()) {
    if (results.status().IsIncompleteInput()) {
      return Session::Reply{kRespIncomplete,
                            results.status().ToString() + "\n"};
    }
    return Session::Reply{kRespError,
                          "error: " + results.status().ToString() + "\n"};
  }
  Metrics().server_commands.Increment(results->size());
  if (results->empty()) return Session::Reply{kRespOk, "ok\n"};
  std::string payload;
  for (const CommandResult& result : *results) {
    payload += RenderCommandResult(result);
  }
  return Session::Reply{kRespOk, std::move(payload)};
}

}  // namespace

Session::Reply Session::HandleRequest(const std::string& text) {
  Result<std::vector<CommandResult>> results = [&] {
    ScopedTimer timer(Metrics().server_command_ns);
    return db_->ExecuteAll(text);
  }();
  // The engine has a single explicit-transaction slot and the server only
  // dispatches to this session when that slot is free or already ours, so
  // "open after the request" means ours.
  owns_txn_ = db_->txn().in_explicit();
  if (results.ok()) commands_ += results->size();
  return RenderReply(results);
}

bool Session::ClassifyRequest(const std::string& text) {
  Result<std::vector<CommandPtr>> commands = ParseScript(text);
  // Parse errors and incomplete input are not read-only: the serialized
  // path owns error/continuation reporting (and session line accumulation).
  if (!commands.ok() || commands->empty()) return false;
  for (const CommandPtr& command : *commands) {
    if (!IsReadOnlyCommand(*command)) return false;
  }
  return true;
}

void Session::OnDisconnect() {
  if (!owns_txn_ || !db_->txn().in_explicit()) {
    owns_txn_ = false;
    return;
  }
  // The peer vanished mid-transaction: abort, never commit. Routed through
  // Execute so audit builds get their post-abort network cross-check.
  Metrics().server_txn_aborts_on_disconnect.Increment();
  Result<CommandResult> aborted = db_->Execute("abort");
  if (!aborted.ok()) {
    // Nobody is left to report to; the undo layer has already restored
    // what it could, and the auditor will flag residue at quiescence.
    (void)aborted.status();
  }
  owns_txn_ = false;
}

}  // namespace ariel::server

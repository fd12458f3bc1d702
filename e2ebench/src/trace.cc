// The traced run (--trace 1): attributes a workload's time to the engine's
// layers from outside, by timing calls into each layer's public functions.
// Nothing inside the engine is instrumented; nested engine work (token
// propagation, batch stages, rule firings) is read from the engine's own
// histograms around each call.
//
// Three passes over the same serial request stream:
//   1. Session pass — untraced: each request through server::Session on a
//      fresh engine (the server's per-request work minus the socket). Gives
//      session_us, the untraced throughput and the reference state digest.
//   2. Stepped pass — traced: a fresh engine, set up with rule install and
//      activation timed apart, then exactly the same requests replayed
//      through the public steps Database::ExecuteTransacted takes. Its
//      final state digest must equal the Session pass's.
//   3. Server pass — a server child (ArielServer over the same engine
//      options) driven over loopback, for the round trip and the server's
//      own counters and timers (`show stats`).

#include <cstdio>
#include <map>
#include <sstream>

#include "parser/parser.h"
#include "runner.h"
#include "server/protocol.h"
#include "server/session.h"
#include "util/metrics.h"

namespace e2e {

namespace {

using ariel::Command;
using ariel::CommandKind;
using ariel::CommandResult;
using ariel::Database;

uint64_t Ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Network time the engine recorded so far: per-token propagation plus the
/// three batch stages (each timed on the calling thread).
uint64_t NetworkNs() {
  ariel::EngineMetrics& m = ariel::Metrics();
  return m.token_process_ns.Snapshot().sum + m.batch_select_ns.Snapshot().sum +
         m.batch_match_ns.Snapshot().sum + m.batch_merge_ns.Snapshot().sum;
}

/// Serial form of a workload's streams: client streams taken in turn, one
/// command group at a time (a whole begin … abort stays together).
class Interleaved : public StreamGen {
 public:
  explicit Interleaved(const Workload& w) {
    for (int c = 0; c < w.clients; ++c) gens_.push_back(w.Stream(c));
  }

 protected:
  void Refill(std::deque<Request>* out) override {
    Request r;
    do {
      r = gens_[next_]->Next();
      out->push_back(r);
    } while (r.kind == Kind::kBegin || r.kind == Kind::kTxnWrite);
    next_ = (next_ + 1) % gens_.size();
  }

 private:
  std::vector<std::unique_ptr<StreamGen>> gens_;
  size_t next_ = 0;
};

/// Registry counters read around a pass.
struct CounterSet {
  uint64_t tokens, isl_visits, sel_evals, sel_matches, join_probes,
      hash_probes, hash_hits, bindings, fired, undo_records, batches_built,
      values_copied, steals, flushes;
  ariel::HistogramData token, select, match, merge, firing;

  static CounterSet Now() {
    ariel::EngineMetrics& m = ariel::Metrics();
    return CounterSet{m.tokens_emitted.value(),
                      m.isl_node_visits.value(),
                      m.selection_predicate_evals.value(),
                      m.selection_matches.value(),
                      m.join_probes.value(),
                      m.join_hash_probes.value(),
                      m.join_hash_hits.value(),
                      m.pnode_bindings_created.value(),
                      m.rules_fired.value(),
                      m.txn_undo_records.value(),
                      m.columnar_batches_built.value(),
                      m.values_copied.value(),
                      m.match_steal_count.value(),
                      m.batch_flushes.value(),
                      m.token_process_ns.Snapshot(),
                      m.batch_select_ns.Snapshot(),
                      m.batch_match_ns.Snapshot(),
                      m.batch_merge_ns.Snapshot(),
                      m.rule_firing_ns.Snapshot()};
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Accumulated span times (ns) and counts of the stepped pass.
struct Spans {
  uint64_t wall = 0;  // Σ per-request wall time
  uint64_t classify = 0, parse = 0, plan = 0, exec = 0, read_exec = 0,
           snapshot = 0, commit = 0, transition = 0, cycle = 0, begin = 0,
           abort = 0, render = 0, framing = 0;
  // Network time nested inside exec / transition / cycle / abort.
  uint64_t net_exec = 0, net_transition = 0, net_cycle = 0, net_abort = 0;
  uint64_t requests = 0, plans = 0, mutations = 0, reads = 0, aborts = 0;
  uint64_t rollback_records = 0, read_rows = 0, read_scanned = 0;
};

/// Replays one request through the public steps of Database::Execute and
/// times each; returns the outcome the correctness check sees.
Outcome Step(Database* db, const Request& request, Spans* sp) {
  ariel::EngineMetrics& m = ariel::Metrics();
  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  auto lap = [&t](uint64_t* into) {
    const Clock::time_point now = Clock::now();
    *into += Ns(t, now);
    t = now;
  };

  // The server classifies every request at decode time (a parse of its
  // own) before executing it.
  (void)ariel::server::Session::ClassifyRequest(request.text);
  lap(&sp->classify);
  auto parsed = ariel::ParseScript(request.text);
  lap(&sp->parse);

  Outcome out;
  std::string payload;
  ariel::Status status;
  if (!parsed.ok()) status = parsed.status();
  for (size_t i = 0; parsed.ok() && i < parsed->size() && status.ok(); ++i) {
    const Command& cmd = *(*parsed)[i];
    ariel::Result<CommandResult> result = CommandResult{};
    if (ariel::IsReadOnlyCommand(cmd)) {
      const ariel::ReadSnapshot snapshot = db->AcquireReadSnapshot();
      lap(&sp->snapshot);
      if (db->executor().PlanFor(cmd).ok()) ++sp->plans;
      lap(&sp->plan);
      const uint64_t scanned0 = m.tuples_scanned.value();
      result = db->ExecuteReadOnly(cmd, snapshot);
      lap(&sp->read_exec);
      sp->read_scanned += m.tuples_scanned.value() - scanned0;
      ++sp->reads;
      if (result.ok() && result->rows.has_value()) {
        sp->read_rows += result->rows->num_rows();
      }
    } else if (cmd.kind == CommandKind::kAppend ||
               cmd.kind == CommandKind::kDelete ||
               cmd.kind == CommandKind::kReplace) {
      if (db->executor().PlanFor(cmd).ok()) ++sp->plans;
      lap(&sp->plan);
      ++sp->mutations;
      status = db->txn().BeginCommand();
      lap(&sp->commit);
      if (status.ok()) {
        db->transitions().BeginTransition();
        lap(&sp->transition);
        uint64_t n0 = NetworkNs();
        t = Clock::now();
        result = db->executor().Execute(cmd);
        lap(&sp->exec);
        sp->net_exec += NetworkNs() - n0;
        n0 = NetworkNs();
        t = Clock::now();
        ariel::Status end = db->transitions().EndTransition();
        lap(&sp->transition);
        sp->net_transition += NetworkNs() - n0;
        if (!result.ok()) {
          status = result.status();
        } else if (!end.ok()) {
          status = end;
        } else {
          n0 = NetworkNs();
          t = Clock::now();
          status = db->monitor().RunCycle();
          lap(&sp->cycle);
          sp->net_cycle += NetworkNs() - n0;
        }
        t = Clock::now();
        ariel::Status close = status.ok() ? db->txn().CommitCommand()
                                          : db->txn().AbortCommand();
        lap(&sp->commit);
        if (status.ok()) status = close;
      }
    } else if (cmd.kind == CommandKind::kBeginTxn) {
      status = db->txn().BeginExplicit();
      lap(&sp->begin);
    } else if (cmd.kind == CommandKind::kAbortTxn) {
      sp->rollback_records += db->txn().undo_log().size();
      const uint64_t n0 = NetworkNs();
      t = Clock::now();
      status = db->txn().AbortExplicit();
      lap(&sp->abort);
      sp->net_abort += NetworkNs() - n0;
      ++sp->aborts;
    } else {
      status = ariel::Status::InvalidArgument(
          "the stepped replay has no steps for this command");
    }
    if (status.ok() && !result.ok()) status = result.status();
    if (!status.ok()) break;
    payload += ariel::server::RenderCommandResult(*result);
    if (result->rows.has_value()) {
      out.rows = static_cast<int64_t>(result->rows->num_rows());
    }
    out.affected = static_cast<int64_t>(result->affected);
    lap(&sp->render);
  }
  out.ok = status.ok();
  if (!out.ok) {
    out.error = status.ToString();
    payload = "error: " + status.ToString() + "\n";
  }
  t = Clock::now();
  // Wire framing of this request and its reply, both directions.
  std::string wire = ariel::server::EncodeRequest(request.text);
  std::string text, error;
  (void)ariel::server::DecodeRequest(&wire, 1 << 30, &text, &error);
  std::string reply =
      ariel::server::EncodeResponse(out.ok ? '+' : '-', payload);
  char kind = 0;
  (void)ariel::server::DecodeResponse(&reply, &kind, &text, &error);
  lap(&sp->framing);
  sp->wall += Ns(start, t);
  ++sp->requests;
  return out;
}

/// Setup with rule installation and activation timed apart (the paper's
/// two phases): DefineRule, then ActivateRule, rule by rule — the order
/// `define rule` with auto-activation uses.
std::string SteppedSetup(Database* db, const Setup& setup, double* install_ms,
                         double* activate_ms) {
  for (const std::string& script : setup.data) {
    auto r = db->ExecuteAll(script);
    if (!r.ok()) return r.status().ToString();
  }
  uint64_t install = 0, activate = 0;
  for (const std::string& text : setup.rules) {
    auto parsed = ariel::ParseCommand(text);
    if (!parsed.ok()) return parsed.status().ToString();
    const auto& cmd = static_cast<const ariel::DefineRuleCommand&>(**parsed);
    Clock::time_point t0 = Clock::now();
    ariel::Status s = db->rules().DefineRule(cmd);
    Clock::time_point t1 = Clock::now();
    install += Ns(t0, t1);
    if (!s.ok()) return s.ToString();
    s = db->rules().ActivateRule(cmd.rule_name);
    activate += Ns(t1, Clock::now());
    if (!s.ok()) return s.ToString();
  }
  *install_ms = static_cast<double>(install) / 1e6;
  *activate_ms = static_cast<double>(activate) / 1e6;
  for (const std::string& script : setup.settle) {
    auto r = db->ExecuteAll(script);
    if (!r.ok()) return r.status().ToString();
  }
  return "";
}

/// Audits the engine and returns its state digest; records any violation.
std::string AuditAndDigest(Database* db, const char* pass, Report* report) {
  auto audit = db->AuditNetwork();
  if (!audit.ok() || !audit->empty()) {
    report->correct = false;
    ++report->failed;
    report->notes.push_back(
        std::string(pass) + " AuditNetwork: " +
        (audit.ok() ? audit->front().ToString() : audit.status().ToString()));
  }
  return Digest(db->DebugDumpState());
}

void Fail(Report* report, const std::string& why) {
  report->correct = false;
  report->notes.push_back(why);
}

}  // namespace

Report RunTraced(const Workload& w, double seconds) {
  Report report;
  const double slice = seconds / 3;

  // 1. Session pass (untraced).
  std::string digest_session;
  Samples session;
  {
    ariel::Metrics().firing_trace.Clear();
    Database db(w.options);
    if (std::string e = RunSetup(&db, w.setup); !e.empty()) {
      Fail(&report, "setup failed: " + e);
      return report;
    }
    ariel::server::Session sess(&db, 1);
    Interleaved gen(w);
    DriveOptions options;
    options.seconds = slice;
    session = Drive(&gen, options, [&sess](const Request& r) {
      const ariel::server::Session::Reply reply = sess.HandleRequest(r.text);
      return OutcomeFromReply(reply.kind, reply.payload);
    });
    digest_session = AuditAndDigest(&db, "session pass", &report);
  }
  report.attempted += session.attempted;
  report.failed += session.failed;
  if (session.failed > 0) {
    Fail(&report, "session pass: " + session.first_failure);
  }

  // 2. Stepped pass (traced), exactly the Session pass's requests.
  Spans sp;
  double install_ms = 0, activate_ms = 0;
  CounterSet c0{}, c1{};
  std::string digest_stepped;
  Samples stepped;
  {
    ariel::Metrics().firing_trace.Clear();
    Database db(w.options);
    if (std::string e = SteppedSetup(&db, w.setup, &install_ms, &activate_ms);
        !e.empty()) {
      Fail(&report, "stepped setup failed: " + e);
      return report;
    }
    Interleaved gen(w);
    Database* engine = &db;
    c0 = CounterSet::Now();
    DriveOptions options;
    options.max_requests = session.requests;
    stepped = Drive(&gen, options, [engine, &sp](const Request& r) {
      return Step(engine, r, &sp);
    });
    c1 = CounterSet::Now();
    digest_stepped = AuditAndDigest(&db, "stepped pass", &report);
  }
  report.attempted += stepped.attempted;
  report.failed += stepped.failed;
  if (stepped.failed > 0) {
    Fail(&report, "stepped pass: " + stepped.first_failure);
  }
  report.notes.push_back("state digest after " +
                         std::to_string(session.requests) +
                         " requests: session " + digest_session +
                         ", stepped " + digest_stepped);
  if (digest_session != digest_stepped ||
      stepped.requests != session.requests) {
    ++report.failed;
    Fail(&report, "stepped replay diverged from the untraced run");
  }

  // 3. Server pass.
  ServerPass server = RunServerPass(w, 1, 0, slice);
  if (!server.error.empty()) {
    Fail(&report, "server pass failed: " + server.error);
    return report;
  }
  report.attempted += server.samples.attempted;
  report.failed += server.samples.failed;
  if (server.samples.failed > 0) {
    Fail(&report, "server pass: " + server.samples.first_failure);
  }
  if (!server.final_state_ok) {
    ++report.failed;
    Fail(&report, server.final_state_note);
  }

  // --- metrics ---------------------------------------------------------
  auto us = [](uint64_t ns, uint64_t n) {
    return Ratio(static_cast<double>(ns) / 1e3, static_cast<double>(n));
  };
  const double n_req = static_cast<double>(sp.requests);
  const double tokens = static_cast<double>(c1.tokens - c0.tokens);
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  auto hist_ms = [](const ariel::HistogramData& a,
                    const ariel::HistogramData& b) {
    return Ratio(static_cast<double>(b.sum - a.sum) / 1e6,
                 static_cast<double>(b.count - a.count));
  };
  const double stage_ns = delta(c0.select.sum, c1.select.sum) +
                          delta(c0.match.sum, c1.match.sum) +
                          delta(c0.merge.sum, c1.merge.sum);

  // Session time per request and the server's round trip.
  const double session_us = Ratio(session.busy_ms * 1e3,
                                  static_cast<double>(session.requests));
  const double roundtrip_us =
      Ratio(server.samples.busy_ms * 1e3,
            static_cast<double>(server.samples.requests));
  const double framing_ns = Ratio(static_cast<double>(sp.framing), n_req);
  const uint64_t srv_reads = server.samples.read_ms.size();
  const uint64_t srv_writes = server.samples.write_ms.size();
  auto srv_delta = [&](const char* name) {
    return static_cast<double>(StatValue(server.stats_after, name) -
                               StatValue(server.stats_before, name));
  };

  // Self time per layer over the stepped pass (ns).
  const double net_nested = static_cast<double>(sp.net_exec + sp.net_cycle +
                                                sp.net_abort);
  std::map<std::string, double> self;
  self["server"] = static_cast<double>(sp.classify + sp.render + sp.framing);
  self["parser"] = static_cast<double>(sp.parse);
  self["exec"] = static_cast<double>(sp.plan + sp.exec - sp.net_exec +
                                     sp.read_exec);
  self["txn"] = static_cast<double>(sp.commit + sp.begin + sp.abort -
                                    sp.net_abort);
  self["network"] = net_nested + static_cast<double>(sp.transition);
  self["rules"] = static_cast<double>(sp.cycle - sp.net_cycle);
  self["storage"] = static_cast<double>(sp.snapshot);
  double self_sum = 0;
  for (const auto& [layer, ns] : self) self_sum += ns;
  const double wall = static_cast<double>(sp.wall);

  const double traced_tput = Ratio(static_cast<double>(stepped.requests),
                                   static_cast<double>(sp.wall) / 1e9);
  const double untraced_tput = Ratio(static_cast<double>(session.requests),
                                     session.seconds);

  std::vector<Metric>& out = report.metrics;
  out.push_back({"server.roundtrip_us", roundtrip_us, "us"});
  out.push_back({"server.session_us", session_us, "us"});
  out.push_back({"server.framing_ns", framing_ns, "ns"});
  // The child's own per-request execute+render time, so the residual is
  // what the round trip adds on the same engine: socket, loop, queueing.
  const double child_command_us =
      Ratio(srv_delta("server_command_ns.sum") / 1e3,
            srv_delta("server_command_ns.count"));
  out.push_back({"server.residual_us",
                 roundtrip_us - child_command_us - framing_ns / 1e3, "us"});
  out.push_back({"server.classify_us", us(sp.classify, sp.requests), "us"});
  out.push_back({"server.read_dispatch_ratio",
                 Ratio(srv_delta("server_read_dispatches"),
                       static_cast<double>(srv_reads)),
                 "ratio"});
  out.push_back({"server.barrier_waits_per_write",
                 Ratio(srv_delta("server_read_barrier_waits"),
                       static_cast<double>(srv_writes)),
                 "1/write"});
  out.push_back({"parser.parse_us", us(sp.parse, sp.requests), "us"});
  out.push_back({"exec.plan_us", us(sp.plan, sp.plans), "us"});
  out.push_back({"exec.execute_us", us(sp.exec, sp.mutations), "us"});
  out.push_back({"exec.read_us", us(sp.read_exec, sp.reads), "us"});
  out.push_back({"exec.rows_examined_per_result",
                 Ratio(static_cast<double>(sp.read_scanned),
                       static_cast<double>(sp.read_rows)),
                 "ratio"});
  out.push_back({"exec.column_rebuilds_per_cmd",
                 Ratio(delta(c0.batches_built, c1.batches_built), n_req),
                 "1/cmd"});
  out.push_back({"exec.values_copied_per_cmd",
                 Ratio(delta(c0.values_copied, c1.values_copied), n_req),
                 "1/cmd"});
  out.push_back({"txn.commit_us", us(sp.commit, sp.mutations), "us"});
  out.push_back({"txn.undo_records_per_cmd",
                 Ratio(delta(c0.undo_records, c1.undo_records),
                       static_cast<double>(sp.mutations)),
                 "1/cmd"});
  out.push_back({"txn.rollback_ms",
                 Ratio(static_cast<double>(sp.abort) / 1e6,
                       static_cast<double>(sp.aborts)),
                 "ms"});
  out.push_back({"txn.rollback_us_per_record",
                 us(sp.abort, sp.rollback_records), "us"});
  out.push_back({"network.token_us", hist_ms(c0.token, c1.token) * 1e3, "us"});
  out.push_back({"network.isl_visits_per_token",
                 Ratio(delta(c0.isl_visits, c1.isl_visits), tokens),
                 "1/token"});
  out.push_back({"network.selection_match_ratio",
                 Ratio(delta(c0.sel_matches, c1.sel_matches),
                       delta(c0.sel_evals, c1.sel_evals)),
                 "ratio"});
  out.push_back({"network.join_probes_per_token",
                 Ratio(delta(c0.join_probes, c1.join_probes), tokens),
                 "1/token"});
  out.push_back({"network.join_hash_hit_ratio",
                 Ratio(delta(c0.hash_hits, c1.hash_hits),
                       delta(c0.hash_probes, c1.hash_probes)),
                 "ratio"});
  out.push_back({"network.pnode_bindings_per_token",
                 Ratio(delta(c0.bindings, c1.bindings), tokens), "1/token"});
  out.push_back({"network.transition_us", us(sp.transition, sp.mutations),
                 "us"});
  out.push_back({"network.merge_share",
                 Ratio(delta(c0.merge.sum, c1.merge.sum), stage_ns), "ratio"});
  out.push_back({"network.match_steals",
                 Ratio(delta(c0.steals, c1.steals),
                       delta(c0.flushes, c1.flushes)),
                 "1/flush"});
  out.push_back({"rules.install_ms", install_ms, "ms"});
  out.push_back({"rules.activate_ms", activate_ms, "ms"});
  out.push_back({"rules.cycle_us", us(sp.cycle, sp.mutations), "us"});
  out.push_back({"rules.firing_us",
                 Ratio(delta(c0.firing.sum, c1.firing.sum) / 1e3,
                       delta(c0.firing.count, c1.firing.count)),
                 "us"});
  out.push_back({"rules.firings_per_cmd",
                 Ratio(delta(c0.fired, c1.fired), n_req), "1/cmd"});
  out.push_back({"storage.cow_copies_per_write",
                 Ratio(srv_delta("snapshot_cow_copies"),
                       static_cast<double>(srv_writes)),
                 "1/write"});
  out.push_back({"storage.snapshot_us", us(sp.snapshot, sp.reads), "us"});
  for (const auto& [layer, ns] : self) {
    out.push_back({layer + ".self_share", Ratio(ns, wall), "ratio"});
  }
  out.push_back(
      {"trace.residual_share", Ratio(wall - self_sum, wall), "ratio"});
  out.push_back({"trace.overhead", Ratio(untraced_tput - traced_tput,
                                         untraced_tput),
                 "ratio"});

  // Workload-specific stage times (zero where the stage never runs, so
  // they are printed here rather than as registered per-layer metrics).
  std::ostringstream extra;
  extra << "batch stages (mean per flush): select "
        << hist_ms(c0.select, c1.select) << " ms, match "
        << hist_ms(c0.match, c1.match) << " ms, merge "
        << hist_ms(c0.merge, c1.merge) << " ms; flushes per request "
        << Ratio(delta(c0.flushes, c1.flushes), n_req);
  report.notes.push_back(extra.str());
  std::ostringstream layers;
  layers << "self time per request (us):";
  for (const auto& [layer, ns] : self) {
    layers << " " << layer << "=" << Ratio(ns / 1e3, n_req);
  }
  layers << " residual=" << Ratio((wall - self_sum) / 1e3, n_req)
         << " end-to-end=" << Ratio(wall / 1e3, n_req);
  report.notes.push_back(layers.str());
  report.notes.push_back("server child: command " +
                         std::to_string(child_command_us) + " us/request");
  report.notes.push_back("passes: session " + std::to_string(session.requests) +
                         " requests, stepped " +
                         std::to_string(stepped.requests) + ", server " +
                         std::to_string(server.samples.requests));
  if (!server.final_state_note.empty()) {
    report.notes.push_back(server.final_state_note);
  }
  return report;
}

}  // namespace e2e

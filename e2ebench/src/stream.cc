#include "stream.h"

#include <utility>

namespace e2e {

namespace {

/// Seed of one client's stream (distinct from the setup data's seed).
uint64_t ClientSeed(uint64_t seed, int client) {
  return Rng(seed * 0x100000001B3ULL + static_cast<uint64_t>(client) + 1)
      .Next();
}

std::string Num(int64_t v) { return std::to_string(v); }
std::string Sal(int64_t v) { return std::to_string(v) + ".0"; }
std::string Quote(const std::string& s) { return "\"" + s + "\""; }

/// Joins commands into setup scripts of at most `per_script` commands, so
/// a bulk load is a few requests rather than one per row.
void Chunk(const std::vector<std::string>& commands, size_t per_script,
           std::vector<std::string>* out) {
  for (size_t i = 0; i < commands.size(); i += per_script) {
    std::string script;
    for (size_t j = i; j < commands.size() && j < i + per_script; ++j) {
      script += commands[j];
      script += '\n';
    }
    out->push_back(std::move(script));
  }
}

// --- paper_oltp ------------------------------------------------------------
//
// The paper's emp/dept/job schema at scale under §6-style rules: rule i of
// type t holds the salary band (1000 i + 300 (t-1), +200]; type 2 adds the
// dept join and type 3 the job join. Salaries are uniform over [0, 10^5),
// so a written salary lands in some band with probability 0.6.

constexpr int64_t kOltpEmp = 20000;
constexpr int64_t kOltpDept = 200;
constexpr int64_t kOltpJob = 50;
constexpr int64_t kOltpRulesPerType = 100;
constexpr int64_t kSalDomain = 100000;
constexpr size_t kOltpLiveAppends = 256;

std::string OltpAppend(const std::string& name, Rng* rng) {
  return "append emp (name = " + Quote(name) +
         ", age = " + Num(20 + rng->Below(45)) +
         ", sal = " + Sal(rng->Below(kSalDomain)) +
         ", dno = " + Num(1 + rng->Below(kOltpDept)) +
         ", jno = " + Num(1 + rng->Below(kOltpJob)) + ")";
}

Setup OltpSetup(uint64_t seed) {
  Setup s;
  Rng rng(seed);
  s.data.push_back(
      "create emp (name = string, age = int, sal = float, dno = int, "
      "jno = int)\n"
      "create dept (dno = int, name = string, building = string)\n"
      "create job (jno = int, title = string, paygrade = int, "
      "description = string)\n"
      "create bench_log (name = string)\n");
  std::vector<std::string> rows;
  for (int64_t d = 1; d <= kOltpDept; ++d) {
    rows.push_back("append dept (dno = " + Num(d) + ", name = " +
                   Quote("dept" + Num(d)) + ", building = " +
                   Quote("B" + Num(d % 7)) + ")");
  }
  for (int64_t j = 1; j <= kOltpJob; ++j) {
    rows.push_back("append job (jno = " + Num(j) + ", title = " +
                   Quote("title" + Num(j)) + ", paygrade = " + Num(j % 9) +
                   ", description = \"desc\")");
  }
  for (int64_t e = 0; e < kOltpEmp; ++e) {
    rows.push_back(OltpAppend("e" + Num(e), &rng));
  }
  Chunk(rows, 500, &s.data);
  s.data.push_back("define index on emp (name)\n");
  for (int64_t type = 1; type <= 3; ++type) {
    for (int64_t i = 0; i < kOltpRulesPerType; ++i) {
      const int64_t lo = 1000 * i + 300 * (type - 1);
      std::string cond = Num(lo) + " < emp.sal and emp.sal <= " +
                         Num(lo + 200);
      if (type >= 2) cond += " and emp.dno = dept.dno";
      if (type >= 3) cond += " and emp.jno = job.jno";
      s.rules.push_back("define rule r" + Num(type) + "_" + Num(i) + " if " +
                        cond + " then append to bench_log (name = emp.name)");
    }
  }
  s.settle = {"delete bench_log", "delete bench_log"};
  return s;
}

/// 25% append, 20% indexed replace, 25% delete of the oldest live append,
/// 30% indexed point read joined to dept; every 50th group is `begin`,
/// five point replaces and `abort`. Appends and deletes balance, so the
/// table stays at 2*10^4 + ~256 rows however long the run lasts.
class OltpStream : public StreamGen {
 public:
  explicit OltpStream(uint64_t seed) : rng_(seed) {}

 protected:
  void Refill(std::deque<Request>* out) override {
    ++group_;
    if (group_ % 50 == 0) {
      out->push_back(Request{Kind::kBegin, "begin", -1});
      for (int i = 0; i < 5; ++i) {
        out->push_back(Request{Kind::kTxnWrite, Replace(), 1});
      }
      out->push_back(Request{Kind::kAbort, "abort", -1});
      return;
    }
    const int64_t pick = rng_.Below(100);
    const bool delete_pick = pick >= 45 && pick < 70;
    if (pick < 25 || (delete_pick && live_.size() < kOltpLiveAppends)) {
      const std::string name = "n" + Num(next_append_++);
      live_.push_back(name);
      out->push_back(Request{Kind::kWrite, OltpAppend(name, &rng_), 1});
    } else if (pick < 45) {
      out->push_back(Request{Kind::kWrite, Replace(), 1});
    } else if (pick < 70) {
      out->push_back(Request{Kind::kWrite,
                             "delete emp where emp.name = " +
                                 Quote(live_.front()),
                             1});
      live_.pop_front();
    } else {
      out->push_back(Request{
          Kind::kRead,
          "retrieve (emp.name, emp.sal, dept.name) where emp.name = " +
              Quote("e" + Num(rng_.Below(kOltpEmp))) +
              " and emp.dno = dept.dno",
          1});
    }
  }

 private:
  std::string Replace() {
    return "replace emp (sal = " + Sal(rng_.Below(kSalDomain)) +
           ") where emp.name = " + Quote("e" + Num(rng_.Below(kOltpEmp)));
  }

  Rng rng_;
  uint64_t group_ = 0;
  int64_t next_append_ = 0;
  std::deque<std::string> live_;
};

// --- bulk_cascade ----------------------------------------------------------
//
// The eight pattern rules of bench/bulk_transitions over emp x dept: two
// hash equijoins, four band scans of all 128 dept rows, two hash probes
// with a residual. dno spans 10x the dept keys and the bands cover 1/16 of
// the salary domain, so a tuple creates ~0.55 bindings on average.

constexpr int64_t kBulkEmp = 20000;
constexpr int64_t kBulkDept = 128;
constexpr int64_t kBulkSalDomain = kBulkDept * 400;
constexpr int64_t kBulkRange = 128;  // tuples per bulk replace
constexpr int64_t kBulkAbortRange = 32;
constexpr int64_t kBulkReadRange = 16;

Setup BulkSetup(uint64_t seed) {
  Setup s;
  Rng rng(seed);
  s.data.push_back(
      "create emp (id = int, sal = int, dno = int)\n"
      "create dept (dno = int, lo = int, hi = int, budget = int)\n"
      "create sink (x = int)\n");
  std::vector<std::string> rows;
  for (int64_t d = 0; d < kBulkDept; ++d) {
    rows.push_back("append dept (dno = " + Num(d) + ", lo = " + Num(d * 400) +
                   ", hi = " + Num(d * 400 + 25) + ", budget = " +
                   Num((d * 148) % kBulkSalDomain) + ")");
  }
  for (int64_t e = 0; e < kBulkEmp; ++e) {
    rows.push_back("append emp (id = " + Num(e) + ", sal = " +
                   Num(rng.Below(kBulkSalDomain)) + ", dno = " +
                   Num(rng.Below(kBulkDept * 10)) + ")");
  }
  Chunk(rows, 500, &s.data);
  s.data.push_back("define index on emp (id)\n");
  const char* conds[] = {
      "emp.dno = dept.dno",
      "emp.dno = dept.dno and emp.sal >= 0",
      "emp.sal >= dept.lo and emp.sal < dept.hi",
      "emp.sal + 10 >= dept.lo and emp.sal + 10 < dept.hi",
      "emp.sal + 25 >= dept.lo and emp.sal + 25 < dept.hi",
      "emp.sal + 40 >= dept.lo and emp.sal + 40 < dept.hi",
      "emp.dno = dept.dno and emp.sal > dept.budget",
      "emp.dno = dept.dno and emp.sal < dept.budget + 100",
  };
  for (int i = 0; i < 8; ++i) {
    s.rules.push_back("define rule b" + Num(i) + " if " + conds[i] +
                      " then append to sink (x = 1)");
  }
  s.settle = {"delete sink", "delete sink"};
  return s;
}

/// Each group is one bulk replace of a 128-tuple id window followed by a
/// 16-row range read. Windows sweep the table in order; alternate sweeps
/// add and subtract 13 so salaries stay in their domain. Every 8th group
/// empties the rules' sink relation; every 16th adds `begin`, a 32-tuple
/// replace and `abort`.
class BulkStream : public StreamGen {
 public:
  explicit BulkStream(uint64_t seed) : rng_(seed) {}

 protected:
  void Refill(std::deque<Request>* out) override {
    const int64_t windows = kBulkEmp / kBulkRange;
    const int64_t lo = (group_ % windows) * kBulkRange;
    const bool up = (group_ / windows) % 2 == 0;
    ++group_;
    out->push_back(Request{
        Kind::kWrite,
        "replace emp (sal = emp.sal " + std::string(up ? "+" : "-") +
            " 13) where emp.id >= " + Num(lo) + " and emp.id < " +
            Num(lo + kBulkRange),
        kBulkRange});
    const int64_t r = rng_.Below(kBulkEmp - kBulkReadRange);
    out->push_back(Request{Kind::kRead,
                           "retrieve (emp.id, emp.sal) where emp.id >= " +
                               Num(r) + " and emp.id < " +
                               Num(r + kBulkReadRange),
                           kBulkReadRange});
    if (group_ % 8 == 0) {
      out->push_back(Request{Kind::kWrite, "delete sink", -1});
    }
    if (group_ % 16 == 0) {
      const int64_t a = rng_.Below(kBulkEmp - kBulkAbortRange);
      out->push_back(Request{Kind::kBegin, "begin", -1});
      out->push_back(Request{
          Kind::kTxnWrite,
          "replace emp (sal = emp.sal + 7) where emp.id >= " + Num(a) +
              " and emp.id < " + Num(a + kBulkAbortRange),
          kBulkAbortRange});
      out->push_back(Request{Kind::kAbort, "abort", -1});
    }
  }

 private:
  Rng rng_;
  int64_t group_ = 0;
};

// --- server_mix ------------------------------------------------------------
//
// 10^4 emp rows behind a server child, 20 band rules (10 single-relation, 10
// joined to dept), three closed-loop connections. Connection c writes only
// keys congruent to c mod 3, so the final table is predictable from each
// connection's completed writes whatever the interleaving.

constexpr int64_t kMixDept = 200;
constexpr int kMixClients = 3;

uint64_t Mix(uint64_t a, uint64_t b) {
  return Rng(a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL)).Next();
}

Setup MixSetup(uint64_t seed) {
  Setup s;
  Rng rng(seed);
  s.data.push_back(
      "create emp (name = string, age = int, sal = float, dno = int, "
      "jno = int)\n"
      "create dept (dno = int, name = string, building = string)\n"
      "create log (name = string)\n");
  std::vector<std::string> rows;
  for (int64_t d = 1; d <= kMixDept; ++d) {
    rows.push_back("append dept (dno = " + Num(d) + ", name = " +
                   Quote("dept" + Num(d)) + ", building = \"B\")");
  }
  for (int64_t e = 0; e < kServerMixRows; ++e) {
    rows.push_back("append emp (name = " + Quote("e" + Num(e)) +
                   ", age = " + Num(20 + rng.Below(45)) + ", sal = " +
                   Sal(ServerMixInitialSal(seed, e)) + ", dno = " +
                   Num(1 + rng.Below(kMixDept)) + ", jno = 1)");
  }
  Chunk(rows, 500, &s.data);
  s.data.push_back("define index on emp (name)\n");
  for (int64_t type = 1; type <= 2; ++type) {
    for (int64_t i = 0; i < 10; ++i) {
      const int64_t lo = 10000 * i + 5000 * (type - 1);
      std::string cond = Num(lo) + " < emp.sal and emp.sal <= " +
                         Num(lo + 1000);
      if (type == 2) cond += " and emp.dno = dept.dno";
      s.rules.push_back("define rule m" + Num(type) + "_" + Num(i) + " if " +
                        cond + " then append to log (name = emp.name)");
    }
  }
  s.settle = {"delete log", "delete log"};
  return s;
}

/// 90% point reads of any preloaded name, 10% indexed salary replaces of
/// this connection's own keys; every 50th group is `begin`, one replace and
/// `abort`.
class MixStream : public StreamGen {
 public:
  MixStream(uint64_t seed, int client) : rng_(seed), client_(client) {}

 protected:
  void Refill(std::deque<Request>* out) override {
    ++group_;
    if (group_ % 50 == 0) {
      out->push_back(Request{Kind::kBegin, "begin", -1});
      out->push_back(Write(Kind::kTxnWrite));
      out->push_back(Request{Kind::kAbort, "abort", -1});
      return;
    }
    if (rng_.Below(10) == 0) {
      out->push_back(Write(Kind::kWrite));
      return;
    }
    out->push_back(Request{
        Kind::kRead,
        "retrieve (emp.name, emp.sal) where emp.name = " +
            Quote("e" + Num(rng_.Below(kServerMixRows))),
        1});
  }

 private:
  Request Write(Kind kind) {
    const int64_t owned = kServerMixRows / kMixClients;
    const int64_t key = rng_.Below(owned) * kMixClients + client_;
    const int64_t sal = rng_.Below(kSalDomain);
    Request r{kind,
              "replace emp (sal = " + Sal(sal) + ") where emp.name = " +
                  Quote("e" + Num(key)),
              1};
    r.key = key;
    r.value = sal;
    return r;
  }

  Rng rng_;
  int client_;
  uint64_t group_ = 0;
};

}  // namespace

Request StreamGen::Next() {
  if (pending_.empty()) Refill(&pending_);
  Request r = std::move(pending_.front());
  pending_.pop_front();
  return r;
}

int64_t ServerMixInitialSal(uint64_t seed, int64_t key) {
  return static_cast<int64_t>(Mix(seed, static_cast<uint64_t>(key)) %
                              static_cast<uint64_t>(kSalDomain));
}

std::vector<std::string> WorkloadNames() {
  return {"paper_oltp", "bulk_cascade", "server_mix"};
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.read_threads = 2;  // every server pass runs the reader pool
  if (name == "paper_oltp") {
    w.setup = OltpSetup(seed);
  } else if (name == "bulk_cascade") {
    w.setup = BulkSetup(seed);
    // Stored α-memories, as in bench/bulk_transitions: a virtual memory
    // over emp would flush the batch before every emp mutation.
    w.options.alpha_policy.mode = ariel::AlphaMemoryPolicy::Mode::kAllStored;
    w.setup_reps = 3;  // its setup takes seconds
    w.options.batch_tokens = 512;
    // One match worker beside the caller. With three (caller plus workers
    // = nproc) every flush waits for the slowest of four shared CPUs: on a
    // 4-vCPU host, interleaved runs spread twice as wide for the same
    // throughput.
    w.options.match_threads = 1;
  } else if (name == "server_mix") {
    w.setup = MixSetup(seed);
    w.server = true;
    w.clients = kMixClients;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::unique_ptr<StreamGen> Workload::Stream(int client) const {
  const uint64_t s = ClientSeed(seed, client);
  if (name == "paper_oltp") return std::make_unique<OltpStream>(s);
  if (name == "bulk_cascade") return std::make_unique<BulkStream>(s);
  return std::make_unique<MixStream>(s, client);
}

}  // namespace e2e

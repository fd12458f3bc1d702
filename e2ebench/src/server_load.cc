// The server side of the benchmark: a server child process set up
// over the wire, driven by closed-loop connections from this process, with
// its counters scraped through `show stats` and its peak RSS read from
// /proc before shutdown.

#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "runner.h"
#include "stats.h"
#include "server/client.h"
#include "server/server.h"

extern char** environ;

namespace e2e {

namespace {

/// This binary: the child runs it in --serve mode.
std::string SelfBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : "ariel_e2e";
}

ariel::server::ArielServer* g_server = nullptr;

void OnSignal(int /*signo*/) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

/// One server child (this binary in --serve mode) listening on an
/// ephemeral loopback port. The destructor stops it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it.
class ServerChild {
 public:
  ServerChild() = default;
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;
  ~ServerChild() { Stop(); }

  /// Starts `ariel_e2e --serve NAME REP` with the reader-pool width in its
  /// environment (the Database constructor reads ARIEL_READ_THREADS).
  std::string Start(const Workload& w, int rep) {
    int out[2];
    if (::pipe(out) != 0) return "pipe failed";
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string var = *e;
      if (var.rfind("ARIEL_", 0) == 0) continue;  // engine knobs: ours only
      env.push_back(var);
    }
    env.push_back("ARIEL_READ_THREADS=" + std::to_string(w.read_threads));
    std::vector<char*> envp;
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    const std::string binary = SelfBinary();
    std::string a0 = binary, a1 = "--serve", a2 = w.name,
                a3 = std::to_string(rep);
    char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), nullptr};

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv, envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
      ::close(out[0]);
      pid_ = -1;
      return "cannot spawn " + binary + ": " + std::strerror(rc);
    }
    out_fd_ = out[0];
    // First line: "listening on 127.0.0.1:PORT".
    std::string line;
    char c = 0;
    while (::read(out_fd_, &c, 1) == 1 && c != '\n') line += c;
    const size_t colon = line.rfind(':');
    if (line.find("listening") == std::string::npos ||
        colon == std::string::npos) {
      return "server did not start: " + line;
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
    return "";
  }

  /// Peak resident set (VmHWM) of the child in MiB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kib = 0;
        status >> kib;
        return kib / 1024.0;
      }
      status.ignore(1 << 20, '\n');
    }
    return 0;
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 500 && !reaped; ++i) {  // up to 5 s
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) ::usleep(10000);
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

using Stats = std::vector<std::pair<std::string, uint64_t>>;

/// Parses the counter lines ("  name = value") of a `show stats` reply,
/// and each timer line ("  name: count=C mean=M ...") as name.count and
/// name.sum (C * M, in the timer's unit).
Stats ParseStats(const std::string& text) {
  Stats out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  ", 0) != 0) continue;
    const size_t eq = line.find(" = ");
    const size_t count = line.find(": count=");
    const size_t mean = line.find(" mean=");
    if (eq != std::string::npos) {
      const std::string name = line.substr(2, eq - 2);
      if (name.find(' ') != std::string::npos) continue;
      out.emplace_back(name, std::strtoull(line.c_str() + eq + 3, nullptr, 10));
    } else if (count != std::string::npos && mean != std::string::npos) {
      const std::string name = line.substr(2, count - 2);
      const uint64_t c = std::strtoull(line.c_str() + count + 8, nullptr, 10);
      const uint64_t m = std::strtoull(line.c_str() + mean + 6, nullptr, 10);
      out.emplace_back(name + ".count", c);
      out.emplace_back(name + ".sum", c * m);
    }
  }
  return out;
}

std::string Scrape(ariel::server::ClientConnection* conn, Stats* out) {
  auto reply = conn->RoundTrip("show stats");
  if (!reply.ok()) return reply.status().ToString();
  if (reply->kind != '+') return reply->payload;
  *out = ParseStats(reply->payload);
  return "";
}

/// Compares the child's emp table with the model built from the setup and
/// every completed write: one full retrieve, each row checked exactly.
bool CheckFinalTable(ariel::server::ClientConnection* conn,
                     const std::map<int64_t, int64_t>& model, uint64_t seed,
                     std::string* note) {
  auto reply = conn->RoundTrip("retrieve (emp.name, emp.sal)");
  if (!reply.ok() || reply->kind != '+') {
    *note = "final retrieve failed";
    return false;
  }
  std::istringstream in(reply->payload);
  std::string line;
  int64_t rows = 0;
  int64_t mismatches = 0;
  while (std::getline(in, line)) {
    // Data rows look like: | "e123" | 45678 |
    const size_t q1 = line.find("\"e");
    if (line.rfind("| ", 0) != 0 || q1 == std::string::npos) continue;
    const int64_t key = std::atoll(line.c_str() + q1 + 2);
    const size_t bar = line.find('|', q1);
    if (bar == std::string::npos) continue;
    const double sal = std::strtod(line.c_str() + bar + 1, nullptr);
    auto it = model.find(key);
    const int64_t want =
        it != model.end() ? it->second : ServerMixInitialSal(seed, key);
    if (static_cast<int64_t>(sal) != want) ++mismatches;
    ++rows;
  }
  *note = "final table: " + std::to_string(rows) + " rows, " +
          std::to_string(mismatches) + " salary mismatches against " +
          std::to_string(model.size()) + " modelled writes";
  return rows == kServerMixRows && mismatches == 0;
}

}  // namespace

uint64_t StatValue(const Stats& stats, const std::string& name) {
  for (const auto& [n, v] : stats) {
    if (n == name) return v;
  }
  return 0;
}

ServerPass RunServerPass(const Workload& w, int reps, double warmup,
                         double seconds) {
  const int clients = w.clients;
  ServerPass pass;
  std::unique_ptr<ServerChild> child;
  for (int rep = 0; rep < reps; ++rep) {
    child.reset();
    const Clock::time_point t0 = Clock::now();
    child = std::make_unique<ServerChild>();
    pass.error = child->Start(w, rep);
    if (!pass.error.empty()) return pass;
    auto conn = ariel::server::ClientConnection::Connect("127.0.0.1",
                                                         child->port());
    if (!conn.ok()) {
      pass.error = conn.status().ToString();
      return pass;
    }
    auto send = [&](const std::string& script) {
      auto reply = conn->RoundTrip(script);
      if (!reply.ok()) return reply.status().ToString();
      return reply->kind == '+' ? std::string() : reply->payload;
    };
    for (const auto* part : {&w.setup.data, &w.setup.rules, &w.setup.settle}) {
      for (const std::string& script : *part) {
        pass.error = send(script);
        if (!pass.error.empty()) return pass;
      }
    }
    pass.setup_s.push_back(SecondsSince(t0));
  }

  auto admin = ariel::server::ClientConnection::Connect("127.0.0.1",
                                                        child->port());
  if (!admin.ok()) {
    pass.error = admin.status().ToString();
    return pass;
  }
  pass.error = Scrape(&*admin, &pass.stats_before);
  if (!pass.error.empty()) return pass;

  std::vector<Samples> per(static_cast<size_t>(clients));
  std::vector<std::map<int64_t, int64_t>> models(static_cast<size_t>(clients));
  std::vector<std::string> errors(static_cast<size_t>(clients));
  std::vector<std::unique_ptr<StreamGen>> gens;
  std::vector<ariel::server::ClientConnection> conns;
  for (int c = 0; c < clients; ++c) {
    gens.push_back(w.Stream(c));
    auto conn = ariel::server::ClientConnection::Connect("127.0.0.1",
                                                         child->port());
    if (!conn.ok()) {
      pass.error = conn.status().ToString();
      return pass;
    }
    conns.push_back(std::move(*conn));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto i = static_cast<size_t>(c);
      auto* conn = &conns[i];
      auto* model = &models[i];
      DriveOptions options;
      options.warmup = warmup;
      options.seconds = seconds;
      per[i] = Drive(gens[i].get(), options,
                     [conn, model](const Request& r) {
                       auto reply = conn->RoundTrip(r.text);
                       if (!reply.ok()) {
                         Outcome out;
                         out.error = reply.status().ToString();
                         return out;
                       }
                       Outcome out =
                           OutcomeFromReply(reply->kind, reply->payload);
                       if (out.ok && r.kind == Kind::kWrite && r.key >= 0) {
                         (*model)[r.key] = r.value;
                       }
                       return out;
                     });
    });
  }
  for (std::thread& t : threads) t.join();
  // Connections start together and measure windows of the same length, so
  // the server's throughput is all their requests over the longest window.
  double window = 0;
  for (const Samples& s : per) {
    pass.samples.Merge(s);
    pass.per_client.push_back(s.requests);
    window = std::max(window, s.seconds);
  }
  pass.samples.seconds = window;

  pass.error = Scrape(&*admin, &pass.stats_after);
  if (!pass.error.empty()) return pass;
  if (w.name == "server_mix") {
    std::map<int64_t, int64_t> model;
    for (const auto& m : models) model.insert(m.begin(), m.end());
    pass.final_state_ok =
        CheckFinalTable(&*admin, model, w.seed, &pass.final_state_note);
  }
  pass.peak_rss_mb = child->PeakRssMb();
  return pass;
}

Report RunServer(const Workload& w, double seconds) {
  Report report;
  ServerPass pass =
      RunServerPass(w, w.setup_reps, kWarmupSeconds, seconds);
  if (!pass.error.empty()) {
    report.correct = false;
    report.notes.push_back("server pass failed: " + pass.error);
    return report;
  }
  const uint64_t tokens = StatValue(pass.stats_after, "tokens_emitted") -
                          StatValue(pass.stats_before, "tokens_emitted");
  const uint64_t firings = StatValue(pass.stats_after, "rules_fired") -
                           StatValue(pass.stats_before, "rules_fired");
  AddEndToEnd(pass.samples, Median(pass.setup_s), tokens, firings,
              pass.peak_rss_mb, &report);
  report.notes.push_back(pass.final_state_note);
  if (!pass.final_state_ok) {
    report.correct = false;
    ++report.failed;
  }
  std::string split = "requests per connection:";
  for (uint64_t n : pass.per_client) split += " " + std::to_string(n);
  report.notes.push_back(split);
  return report;
}

int Serve(const std::string& workload, int first_cpu) {
  // Never outlive the benchmark process, even if it dies without Stop().
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() == 1) return 1;
  Workload w;
  if (!MakeWorkload(workload, 0, &w)) return 2;
  ariel::Database db(w.options);
  ariel::server::ServerOptions options;
  options.port = 0;
  ariel::server::ArielServer server(&db, options);
  if (ariel::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  g_server = &server;
  struct sigaction action {};
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  std::printf("listening on 127.0.0.1:%u\n", server.port());
  std::fflush(stdout);
  // The event loop runs every mutating command: move it across the CPUs
  // every half second, like the in-process client (see CpuRotation),
  // starting from the setup repetition's own CPU so that the repetitions
  // do not all run on the same one.
  const auto loop_tid = static_cast<pid_t>(::syscall(SYS_gettid));
  std::atomic<bool> stop{false};
  std::thread rotator([&stop, loop_tid, first_cpu] {
    CpuRotation rotation(true, loop_tid, static_cast<size_t>(first_cpu));
    for (int tick = 1; !stop.load(); ++tick) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (tick % 10 == 0) rotation.Next();
    }
  });
  const ariel::Status ran = server.Run();
  stop = true;
  rotator.join();
  g_server = nullptr;
  if (!ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace e2e

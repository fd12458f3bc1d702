// Loopback throughput of the networked front end (ISSUE 7 acceptance):
// N concurrent clients issue synchronous round-trip commands against an
// in-process ariel-server; we report commands/sec and client-observed
// latency percentiles per concurrency level.
//
// Read/write mixes (ISSUE 10 acceptance): 100/0, 90/10, and 50/50
// read/write mixes at 8 clients over a pre-populated relation, with
// throughput plus per-class (read vs write) latency percentiles.
//
// Smoke mode (ARIEL_BENCH_SMOKE=1): one configuration, 8 clients — the
// acceptance floor — with a small per-client command count. Full mode
// sweeps {1, 2, 4, 8, 16} clients.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ariel/database.h"
#include "bench/bench_report.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using Clock = std::chrono::steady_clock;

// Nearest-rank percentile: the smallest sample with at least p·n samples
// at or below it, i.e. index ceil(p·n) − 1.
double PercentileMs(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted_ms.size()));
  const size_t index = std::min(
      sorted_ms.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return sorted_ms[index];
}

struct RunResult {
  double commands_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

RunResult RunConcurrency(int clients, int commands_per_client) {
  ariel::Database db;
  ariel::server::ServerOptions options;
  options.port = 0;
  ariel::server::ArielServer server(&db, options);
  ariel::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return {};
  }
  ariel::Status run_status;
  std::thread server_thread([&] { run_status = server.Run(); });

  {
    auto setup =
        ariel::server::ClientConnection::Connect("127.0.0.1", server.port());
    if (setup.ok()) {
      ARIEL_IGNORE_STATUS(
          setup->RoundTrip("create emp (name = string, sal = float)")
              .status());
      ARIEL_IGNORE_STATUS(
          setup
              ->RoundTrip("define rule watch\nif emp.sal > 1000000.0\n"
                          "then delete emp")
              .status());
    }
  }

  std::vector<std::vector<double>> latencies_ms(
      static_cast<size_t>(clients));
  const auto begin = Clock::now();
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      auto client = ariel::server::ClientConnection::Connect("127.0.0.1",
                                                             server.port());
      if (!client.ok()) return;
      auto& mine = latencies_ms[static_cast<size_t>(c)];
      mine.reserve(static_cast<size_t>(commands_per_client));
      for (int i = 0; i < commands_per_client; ++i) {
        const auto t0 = Clock::now();
        auto response =
            client->RoundTrip("append emp (name=\"w\", sal=50.0)");
        const auto t1 = Clock::now();
        if (!response.ok() || response->kind != ariel::server::kRespOk) {
          return;
        }
        mine.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - begin).count();
  server.RequestShutdown();
  server_thread.join();
  if (!run_status.ok()) {
    std::fprintf(stderr, "server run failed: %s\n",
                 run_status.ToString().c_str());
  }

  std::vector<double> all_ms;
  for (const auto& mine : latencies_ms) {
    all_ms.insert(all_ms.end(), mine.begin(), mine.end());
  }
  std::sort(all_ms.begin(), all_ms.end());
  RunResult result;
  result.commands_per_sec =
      elapsed > 0 ? static_cast<double>(all_ms.size()) / elapsed : 0.0;
  result.p50_ms = PercentileMs(all_ms, 0.50);
  result.p99_ms = PercentileMs(all_ms, 0.99);
  std::printf(
      "clients=%2d  commands=%6zu  throughput=%9.0f cmd/s  "
      "p50=%7.3f ms  p99=%7.3f ms\n",
      clients, all_ms.size(), result.commands_per_sec, result.p50_ms,
      result.p99_ms);
  return result;
}

struct MixResult {
  double commands_per_sec = 0.0;
  double read_p50_ms = 0.0;
  double read_p99_ms = 0.0;
  double write_p50_ms = 0.0;
  double write_p99_ms = 0.0;
};

// Runs a deterministic read/write mix: client command i is a write iff
// i % 10 < writes_per_10, so every client (and every run) issues the same
// sequence. Reads are selective retrieves over a pre-populated 1000-row
// relation; writes are appends behind the same never-firing rule as the
// throughput sweep.
MixResult RunMix(int clients, int commands_per_client, int writes_per_10,
                 const char* tag) {
  ariel::Database db;
  ariel::server::ServerOptions options;
  options.port = 0;
  ariel::server::ArielServer server(&db, options);
  ariel::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return {};
  }
  ariel::Status run_status;
  std::thread server_thread([&] { run_status = server.Run(); });

  {
    auto setup =
        ariel::server::ClientConnection::Connect("127.0.0.1", server.port());
    if (setup.ok()) {
      ARIEL_IGNORE_STATUS(
          setup->RoundTrip("create emp (name = string, sal = float)")
              .status());
      ARIEL_IGNORE_STATUS(
          setup
              ->RoundTrip("define rule watch\nif emp.sal > 1000000.0\n"
                          "then delete emp")
              .status());
      for (int i = 0; i < 1000; ++i) {
        ARIEL_IGNORE_STATUS(
            setup
                ->RoundTrip("append emp (name=\"e" + std::to_string(i) +
                            "\", sal=" + std::to_string(i) + ".0)")
                .status());
      }
    }
  }

  std::vector<std::vector<double>> read_ms(static_cast<size_t>(clients));
  std::vector<std::vector<double>> write_ms(static_cast<size_t>(clients));
  const auto begin = Clock::now();
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      auto client = ariel::server::ClientConnection::Connect("127.0.0.1",
                                                             server.port());
      if (!client.ok()) return;
      auto& reads = read_ms[static_cast<size_t>(c)];
      auto& writes = write_ms[static_cast<size_t>(c)];
      for (int i = 0; i < commands_per_client; ++i) {
        const bool is_write = i % 10 < writes_per_10;
        // Rotate the read predicate so reads touch different rows.
        const std::string command =
            is_write
                ? "append emp (name=\"w\", sal=50.0)"
                : "retrieve (emp.name, emp.sal) where emp.sal = " +
                      std::to_string((i * 37 + c * 101) % 1000) + ".0";
        const auto t0 = Clock::now();
        auto response = client->RoundTrip(command);
        const auto t1 = Clock::now();
        if (!response.ok() || response->kind != ariel::server::kRespOk) {
          return;
        }
        (is_write ? writes : reads)
            .push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - begin).count();
  server.RequestShutdown();
  server_thread.join();
  if (!run_status.ok()) {
    std::fprintf(stderr, "server run failed: %s\n",
                 run_status.ToString().c_str());
  }

  std::vector<double> all_reads;
  std::vector<double> all_writes;
  for (int c = 0; c < clients; ++c) {
    const auto index = static_cast<size_t>(c);
    all_reads.insert(all_reads.end(), read_ms[index].begin(),
                     read_ms[index].end());
    all_writes.insert(all_writes.end(), write_ms[index].begin(),
                      write_ms[index].end());
  }
  std::sort(all_reads.begin(), all_reads.end());
  std::sort(all_writes.begin(), all_writes.end());
  const size_t total = all_reads.size() + all_writes.size();
  MixResult result;
  result.commands_per_sec =
      elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0;
  result.read_p50_ms = PercentileMs(all_reads, 0.50);
  result.read_p99_ms = PercentileMs(all_reads, 0.99);
  result.write_p50_ms = PercentileMs(all_writes, 0.50);
  result.write_p99_ms = PercentileMs(all_writes, 0.99);
  std::printf(
      "%-9s clients=%2d  commands=%6zu  throughput=%9.0f cmd/s  "
      "read p50=%7.3f p99=%7.3f ms  write p50=%7.3f p99=%7.3f ms\n",
      tag, clients, total, result.commands_per_sec, result.read_p50_ms,
      result.read_p99_ms, result.write_p50_ms, result.write_p99_ms);
  return result;
}

}  // namespace

int main() {
  ariel::bench::BenchReporter reporter("server_throughput");
  const bool smoke = ariel::bench::SmokeMode();
  const int commands_per_client = smoke ? 25 : 500;
  std::vector<int> sweep = smoke ? std::vector<int>{8}
                                 : std::vector<int>{1, 2, 4, 8, 16};
  std::printf("server_throughput: loopback, synchronous round trips, "
              "%d commands/client%s\n",
              commands_per_client, smoke ? " (smoke)" : "");
  for (int clients : sweep) {
    RunResult result = RunConcurrency(clients, commands_per_client);
    const std::string prefix = "c" + std::to_string(clients) + "_";
    reporter.AddResult(prefix + "commands_per_sec", result.commands_per_sec);
    reporter.AddResult(prefix + "p50_latency_ms", result.p50_ms);
    reporter.AddResult(prefix + "p99_latency_ms", result.p99_ms);
  }

  // Read/write mixes at the 8-client acceptance point.
  const int mix_commands = smoke ? 40 : 400;
  struct Mix {
    int writes_per_10;
    const char* tag;
  };
  const Mix mixes[] = {{0, "mix100_0"}, {1, "mix90_10"}, {5, "mix50_50"}};
  std::printf("read/write mixes: 8 clients, %d commands/client, "
              "1000-row emp\n",
              mix_commands);
  for (const Mix& mix : mixes) {
    MixResult result = RunMix(8, mix_commands, mix.writes_per_10, mix.tag);
    const std::string prefix = std::string(mix.tag) + "_c8_";
    reporter.AddResult(prefix + "commands_per_sec", result.commands_per_sec);
    reporter.AddResult(prefix + "read_p50_ms", result.read_p50_ms);
    reporter.AddResult(prefix + "read_p99_ms", result.read_p99_ms);
    if (mix.writes_per_10 > 0) {
      reporter.AddResult(prefix + "write_p50_ms", result.write_p50_ms);
      reporter.AddResult(prefix + "write_p99_ms", result.write_p99_ms);
    }
  }
  return 0;
}

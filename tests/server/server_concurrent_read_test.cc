// Concurrent clients against the serialized server: loopback tests of
// read-heavy traffic, parameterized over event-loop backends.
//
// The claims covered here:
//   - many clients reading at once get replies, and leave final engine
//     state, byte-identical to executing the same commands in process;
//   - a pipelined mix of writes and reads answers in request order, each
//     read seeing exactly the writes issued before it;
//   - a client that disconnects with a burst of reads still queued harms
//     nothing, and the server keeps serving;
//   - reads never observe another session's uncommitted transaction state
//     (the transaction owner gates every other session).

#include "server/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ariel/database.h"
#include "server/client.h"
#include "server/protocol.h"
#include "test_util.h"

namespace ariel::server {
namespace {

class ServerConcurrentReadTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    options.event_backend = GetParam();
    db_ = std::make_unique<Database>();
    server_ = std::make_unique<ArielServer>(db_.get(), options);
    ASSERT_OK(server_->Start());
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  void StopServer() {
    server_->RequestShutdown();
    thread_.join();
    EXPECT_OK(run_status_);
  }

  Result<ClientConnection> Connect() {
    return ClientConnection::Connect("127.0.0.1", server_->port());
  }

  std::string Ask(ClientConnection& client, const std::string& text,
                  char want_kind = kRespOk) {
    auto response = client.RoundTrip(text);
    EXPECT_OK(response.status());
    if (!response.ok()) return "";
    EXPECT_EQ(response->kind, want_kind)
        << text << " -> " << response->payload;
    return response->payload;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ArielServer> server_;
  std::thread thread_;
  Status run_status_;
};

// A write phase, then 8 clients reading concurrently: every read reply,
// and the final engine state, is byte-identical to running the same
// commands in process on a Database of its own.
TEST_P(ServerConcurrentReadTest, EquivalentAcrossThreadCounts) {
  constexpr int kClients = 8;
  constexpr int kReadsPerClient = 15;
  auto read_text = [](int c, int i) {
    return "retrieve (emp.name, emp.sal) where emp.sal = " +
           std::to_string((i * 7 + c) % 50) + ".0";
  };
  std::vector<std::string> writes = {
      "create emp (name = string, sal = float)"};
  for (int i = 0; i < 50; ++i) {
    writes.push_back("append emp (name=\"e" + std::to_string(i) +
                     "\", sal=" + std::to_string(i) + ".0)");
  }

  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    for (const std::string& write : writes) Ask(*setup, write);
  }
  std::vector<std::vector<std::string>> per_client(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this, c, &per_client, &read_text] {
      auto client = Connect();
      ASSERT_OK(client.status());
      for (int i = 0; i < kReadsPerClient; ++i) {
        per_client[static_cast<size_t>(c)].push_back(
            Ask(*client, read_text(c, i)));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  StopServer();

  Database local;
  for (const std::string& write : writes) {
    ASSERT_OK(local.Execute(write).status());
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(per_client[static_cast<size_t>(c)].size(),
              static_cast<size_t>(kReadsPerClient));
    for (int i = 0; i < kReadsPerClient; ++i) {
      auto result = local.Execute(read_text(c, i));
      ASSERT_OK(result.status());
      EXPECT_EQ(per_client[static_cast<size_t>(c)][static_cast<size_t>(i)],
                RenderCommandResult(*result))
          << "client " << c << " read " << i;
    }
  }
  EXPECT_EQ(db_->DebugDumpState(), local.DebugDumpState());
}

// One connection pipelines interleaved writes and reads in a single burst:
// replies must come back in request order with the exact payload each
// request would get serially — no read leapfrogs the writes bracketing it.
TEST_P(ServerConcurrentReadTest, MixedPipelineKeepsPerSessionOrder) {
  constexpr int kRounds = 25;
  StartServer();
  auto client = Connect();
  ASSERT_OK(client.status());
  EXPECT_EQ(Ask(*client, "create t (n = int)"), "ok\n");

  std::string burst;
  for (int i = 1; i <= kRounds; ++i) {
    burst += EncodeRequest("append t (n=" + std::to_string(i) + ")");
    burst += EncodeRequest("retrieve (t.all) where t.n = " +
                           std::to_string(i));
    burst += EncodeRequest("retrieve (t.all)");
  }
  ASSERT_OK(client->SendRaw(burst));

  for (int i = 1; i <= kRounds; ++i) {
    auto append_reply = client->ReadResponse();
    ASSERT_OK(append_reply.status());
    EXPECT_EQ(append_reply->kind, kRespOk) << "round " << i;
    EXPECT_EQ(append_reply->payload, "(1 tuples affected)\n")
        << "round " << i;

    auto point_read = client->ReadResponse();
    ASSERT_OK(point_read.status());
    EXPECT_EQ(point_read->kind, kRespOk) << "round " << i;
    EXPECT_NE(point_read->payload.find("(1 rows)"), std::string::npos)
        << "round " << i << ": " << point_read->payload;

    // The full scan sees exactly the i appends issued before it.
    auto scan = client->ReadResponse();
    ASSERT_OK(scan.status());
    EXPECT_EQ(scan->kind, kRespOk) << "round " << i;
    EXPECT_NE(
        scan->payload.find("(" + std::to_string(i) + " rows)"),
        std::string::npos)
        << "round " << i << ": " << scan->payload;
  }
  StopServer();
}

// A client that fires a burst of reads and disconnects without reading a
// byte back: the server neither crashes nor leaks the replies to anyone,
// and other clients keep working.
TEST_P(ServerConcurrentReadTest, DisconnectMidDispatchedReadIsHarmless) {
  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    EXPECT_EQ(Ask(*setup, "create emp (name = string, sal = float)"),
              "ok\n");
    for (int i = 0; i < 200; ++i) {
      Ask(*setup, "append emp (name=\"e" + std::to_string(i) +
                      "\", sal=" + std::to_string(i) + ".0)");
    }
  }
  for (int round = 0; round < 5; ++round) {
    auto doomed = Connect();
    ASSERT_OK(doomed.status());
    std::string burst;
    for (int i = 0; i < 20; ++i) {
      burst += EncodeRequest("retrieve (emp.all)");
    }
    ASSERT_OK(doomed->SendRaw(burst));
    doomed->Close();  // never reads a reply
  }
  // The server is still fully functional for a well-behaved client.
  auto survivor = Connect();
  ASSERT_OK(survivor.status());
  EXPECT_EQ(Ask(*survivor, "append emp (name=\"alive\", sal=1.0)"),
            "(1 tuples affected)\n");
  EXPECT_NE(Ask(*survivor, "retrieve (emp.all) where emp.name = \"alive\"")
                .find("(1 rows)"),
            std::string::npos);
  StopServer();
}

// Owner gating covers reads: while session A holds an explicit
// transaction with an uncommitted append, session B's retrieve is deferred
// — it answers only after A aborts, and never sees the uncommitted row.
TEST_P(ServerConcurrentReadTest, TransactionOwnerGatesDispatchedReads) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  ASSERT_OK(a.status());
  ASSERT_OK(b.status());
  EXPECT_EQ(Ask(*a, "create emp (name = string, sal = float)"), "ok\n");
  EXPECT_EQ(Ask(*a, "begin"), "ok\n");
  EXPECT_EQ(Ask(*a, "append emp (name=\"mine\", sal=1.0)"),
            "(1 tuples affected)\n");

  ASSERT_OK(b->Send("retrieve (emp.all)"));
  EXPECT_EQ(Ask(*a, "abort"), "ok\n");

  auto deferred = b->ReadResponse();
  ASSERT_OK(deferred.status());
  EXPECT_EQ(deferred->kind, kRespOk);
  EXPECT_EQ(deferred->payload.find("mine"), std::string::npos)
      << deferred->payload;
  EXPECT_NE(deferred->payload.find("(0 rows)"), std::string::npos)
      << deferred->payload;
  StopServer();
}

// Eight clients hammering a 90/10 read/write mix leave exactly the same
// relation contents a serial execution would.
TEST_P(ServerConcurrentReadTest, MixedWorkloadConvergesToSerialState) {
  constexpr int kClients = 8;
  constexpr int kCommandsPerClient = 20;
  StartServer();
  {
    auto setup = Connect();
    ASSERT_OK(setup.status());
    EXPECT_EQ(Ask(*setup, "create t (n = int)"), "ok\n");
  }
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this] {
      auto client = Connect();
      ASSERT_OK(client.status());
      for (int i = 0; i < kCommandsPerClient; ++i) {
        if (i % 10 == 9) {
          Ask(*client, "append t (n=1)");
        } else {
          Ask(*client, "retrieve (t.all) where t.n = 1");
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  {
    auto check = Connect();
    ASSERT_OK(check.status());
    const int writes = kClients * (kCommandsPerClient / 10);
    EXPECT_NE(Ask(*check, "retrieve (t.all)")
                  .find("(" + std::to_string(writes) + " rows)"),
              std::string::npos);
  }
  StopServer();
}

INSTANTIATE_TEST_SUITE_P(Backends, ServerConcurrentReadTest,
#if defined(__linux__)
                         ::testing::Values("poll", "epoll"),
#else
                         ::testing::Values("poll"),
#endif
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace ariel::server

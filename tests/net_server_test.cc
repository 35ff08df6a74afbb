// The live network service over loopback TCP: full-protocol round
// trips, session-state misuse, the >= 4 concurrent-client oracle (every
// acked commit survives server shutdown + WAL recovery, and the final
// and recovered states pass a full constraint check), deterministic
// admission-control backpressure via the run-probe seam, oversized-frame
// rejection, degraded-mode surfacing and reopen, and the manager
// counters and validation-window gauges in `stats`. Registered as a
// threaded test (TSan covers it in CI).

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/common/vfs.h"
#include "src/core/subsystem.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/relational/persist.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::net {
namespace {

using txn::TxnManager;
using txn::TxnManagerOptions;

constexpr int kKeys = 16;

/// The constraints every fixture's manager enforces.
const std::vector<txmod::testing::NamedConstraint> kConstraints = {
    {"domain", bench::DomainConstraint()},
    {"refint", bench::RefIntConstraint()}};

// `amount` is spelled by the caller ("2.0", not 2.0): the algebra lexer
// types literals syntactically, and StrCat would print 2.0 as "2".
std::string InsertFkText(int id, int key, const std::string& amount) {
  return StrCat("insert(fk_rel, {(", id, ", \"k", key, "\", ", amount,
                ")});");
}

/// Everything one live server test needs: scratch dir, constrained
/// database, durable TxnManager, started Server.
struct ServerFixture {
  std::filesystem::path dir;
  Database db;
  std::unique_ptr<core::IntegritySubsystem> ics;
  std::unique_ptr<TxnManager> manager;
  std::unique_ptr<Server> server;
  TxnManagerOptions txn_options;

  explicit ServerFixture(ServerOptions server_options = {},
                         TxnManagerOptions txn_opts = {}) {
    // gtest ASSERTs require a void-returning frame; constructors are not.
    Init(std::move(server_options), std::move(txn_opts));
  }

  void Init(ServerOptions server_options, TxnManagerOptions txn_opts) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir = std::filesystem::temp_directory_path() /
          StrCat("txmod_net_", ::getpid(), "_", info->name());
    std::filesystem::create_directories(dir);
    txn_options = std::move(txn_opts);
    txn_options.wal_path = (dir / "wal.log").string();
    txn_options.checkpoint_path = (dir / "checkpoint.db").string();
    db = bench::MakeKeyFkDatabase(kKeys, 32);
    bench::AddUnreferencedKeys(&db, 8);
    ics = std::make_unique<core::IntegritySubsystem>(&db);
    for (const txmod::testing::NamedConstraint& c : kConstraints) {
      TXMOD_ASSERT_OK(ics->DefineConstraint(c.name, c.cl_text));
    }
    TXMOD_ASSERT_OK_AND_ASSIGN(manager,
                               TxnManager::Create(ics.get(), txn_options));
    server = std::make_unique<Server>(manager.get(), server_options);
    TXMOD_ASSERT_OK(server->Start());
  }

  ~ServerFixture() {
    server.reset();
    manager.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  Client MustConnect() {
    auto client = Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }
};

TEST(NetServerTest, FullProtocolRoundTrip) {
  ServerFixture f;
  Client client = f.MustConnect();
  TXMOD_ASSERT_OK(client.Ping());

  TXMOD_ASSERT_OK_AND_ASSIGN(const uint64_t snapshot_version,
                             client.Begin());
  EXPECT_EQ(snapshot_version, f.manager->committed_version());
  TXMOD_ASSERT_OK_AND_ASSIGN(Outcome executed,
                             client.Execute(InsertFkText(910007, 3, "2.5")));
  EXPECT_TRUE(executed.committed);  // ran cleanly; commit is authoritative
  TXMOD_ASSERT_OK_AND_ASSIGN(Outcome committed, client.Commit());
  EXPECT_TRUE(committed.committed);
  EXPECT_TRUE(committed.installed);
  EXPECT_GT(committed.commit_version, snapshot_version);

  TXMOD_ASSERT_OK_AND_ASSIGN(const std::string shown, client.Show("fk_rel"));
  EXPECT_NE(shown.find("i:910007"), std::string::npos);
  EXPECT_NE(shown.find("s:\"k3\""), std::string::npos);

  // An integrity violation is an OK response whose outcome reports the
  // abort — the request succeeded, the transaction aborted.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Outcome aborted, client.Run(InsertFkText(910008, 3, "-1.0")));
  EXPECT_FALSE(aborted.committed);
  EXPECT_FALSE(aborted.conflict);
  EXPECT_FALSE(aborted.reason.empty());

  TXMOD_ASSERT_OK_AND_ASSIGN(const auto stats, client.Stats());
  ASSERT_TRUE(stats.count("server.commits_acked"));
  EXPECT_EQ(stats.at("server.commits_acked"), "1");
  EXPECT_EQ(stats.at("txn.degraded"), "0");
  EXPECT_EQ(stats.at("txn.checkpoints"), "0");
  ASSERT_TRUE(stats.count("server.requests"));

  TXMOD_ASSERT_OK(f.manager->Checkpoint());
  TXMOD_ASSERT_OK_AND_ASSIGN(const auto after, client.Stats());
  EXPECT_EQ(after.at("txn.checkpoints"), "1");
}

TEST(NetServerTest, StatsReportTheValidationWindow) {
  ServerFixture f;
  Client holder = f.MustConnect();
  Client writer = f.MustConnect();
  TXMOD_ASSERT_OK(writer.Run(InsertFkText(920001, 1, "2.0")).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(const auto quiet, writer.Stats());
  EXPECT_EQ(quiet.at("txn.validation_records"), "0");
  EXPECT_EQ(quiet.at("txn.validation_tuples"), "0");

  // A session held open on another connection keeps the commits behind
  // it, until it ends.
  TXMOD_ASSERT_OK(holder.Begin().status());
  TXMOD_ASSERT_OK(writer.Run(InsertFkText(920002, 2, "2.0")).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(const auto held, writer.Stats());
  EXPECT_EQ(held.at("txn.validation_records"), "1");
  EXPECT_EQ(held.at("txn.validation_tuples"), "1");
  TXMOD_ASSERT_OK(holder.Abort());
  TXMOD_ASSERT_OK_AND_ASSIGN(const auto released, writer.Stats());
  EXPECT_EQ(released.at("txn.validation_records"), "0");
}

TEST(NetServerTest, SessionStateMisuseIsFailedPrecondition) {
  ServerFixture f;
  Client client = f.MustConnect();

  EXPECT_EQ(client.Execute("insert(fk_rel, {(1, \"k0\", 1.0)});")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Commit().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Abort().code(), StatusCode::kFailedPrecondition);

  TXMOD_ASSERT_OK(client.Begin().status());
  EXPECT_EQ(client.Begin().status().code(),
            StatusCode::kFailedPrecondition);
  TXMOD_ASSERT_OK(client.Abort());

  // A malformed program kills the session: the server reports the parse
  // error and a fresh `begin` is required.
  TXMOD_ASSERT_OK(client.Begin().status());
  EXPECT_EQ(client.Execute("not a transaction !!!").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Commit().status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(client.Show("no_such_relation").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.SetPolicy({{"bogus_field", "1"}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.SetPolicy({{"max_attempts", "0"}}).code(),
            StatusCode::kInvalidArgument);
  TXMOD_ASSERT_OK(client.SetPolicy({{"max_attempts", "4"},
                                    {"deadline_micros", "0"},
                                    {"backoff_initial_micros", "100"},
                                    {"backoff_max_micros", "1000"}}));
}

// The acceptance oracle: >= 4 concurrent client connections hammer the
// server with a conflict-bearing mix; after shutdown, WAL recovery must
// contain EVERY insert the server acknowledged as committed — an acked
// commit is durable, full stop.
TEST(NetServerTest, AckedCommitsSurviveShutdownAndRecovery) {
  constexpr int kClients = 6;
  constexpr int kRunsPerClient = 24;
  ServerOptions server_options;
  server_options.num_workers = 3;
  auto f = std::make_unique<ServerFixture>(server_options);
  const std::size_t initial_fk = (*f->db.Find("fk_rel"))->size();
  const TxnManagerOptions txn_options = f->txn_options;

  std::vector<std::set<int>> acked_ids(kClients);
  std::atomic<int> request_failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", f->server->port());
      if (!client.ok()) {
        ++request_failures;
        return;
      }
      std::mt19937 rng(77 * (c + 1));
      int next_id = 2'000'000 + c * 100'000;
      for (int i = 0; i < kRunsPerClient; ++i) {
        if (rng() % 4 == 0) {
          // Contended no-payload churn on shared keys: conflict fuel.
          const std::string key = StrCat("x", rng() % 8);
          (void)client->Run(StrCat("delete(key_rel, {(\"", key,
                                   "\", \"payload\")});"));
          (void)client->Run(StrCat("insert(key_rel, {(\"", key,
                                   "\", \"payload\")});"));
          continue;
        }
        const int id = next_id++;
        auto outcome = client->Run(
            InsertFkText(id, static_cast<int>(rng() % kKeys), "2.0"));
        if (!outcome.ok()) {
          ++request_failures;
          return;
        }
        if (outcome->committed) {
          acked_ids[static_cast<std::size_t>(c)].insert(id);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(request_failures.load(), 0);

  std::size_t total_acked = 0;
  for (const auto& ids : acked_ids) total_acked += ids.size();
  ASSERT_GT(total_acked, 0u);

  // Shut everything down, then recover from the WAL alone. The final
  // and the recovered state each pass a full check of every constraint.
  f->server.reset();
  f->manager.reset();
  EXPECT_EQ(txmod::testing::FullCheckViolation(
                txmod::testing::Rebuild(f->db), kConstraints),
            "");
  TXMOD_ASSERT_OK_AND_ASSIGN(const Database recovered,
                             TxnManager::Recover(txn_options));
  EXPECT_EQ(txmod::testing::FullCheckViolation(
                txmod::testing::Rebuild(recovered), kConstraints),
            "");
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* fk_rel, recovered.Find("fk_rel"));
  std::set<int64_t> recovered_ids;
  for (const Tuple& t : *fk_rel) {
    recovered_ids.insert(t.at(0).as_int());
  }
  for (int c = 0; c < kClients; ++c) {
    for (const int id : acked_ids[static_cast<std::size_t>(c)]) {
      EXPECT_TRUE(recovered_ids.count(id))
          << "acked commit of id " << id << " lost after recovery";
    }
  }
  EXPECT_EQ(fk_rel->size(), initial_fk + total_acked);
}

// Deterministic saturation: a commit budget of 1, one `run` parked
// between Execute and Commit via the manager's run-probe seam, and a
// second client on a different worker must be refused IMMEDIATELY with
// kUnavailable — explicit backpressure, never a queue or a hang.
TEST(NetServerTest, SaturatedCommitBudgetReturnsUnavailable) {
  ServerOptions server_options;
  server_options.num_workers = 2;  // round-robin pins the two clients apart
  server_options.max_inflight_commits = 1;
  ServerFixture f(server_options);

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  bool probe_armed = true;
  f.manager->set_run_probe([&](int) {
    std::unique_lock<std::mutex> lock(mu);
    if (!probe_armed) return;
    probe_armed = false;
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  Client first = f.MustConnect();   // worker 0
  Client second = f.MustConnect();  // worker 1

  Result<Outcome> first_outcome = Status::Internal("not yet run");
  std::thread holder([&] {
    first_outcome = first.Run(InsertFkText(930001, 1, "2.0"));
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }

  // The budget slot is held by the parked run; the second client is
  // refused without waiting.
  auto refused = second.Run(InsertFkText(930002, 2, "2.0"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("commit budget"),
            std::string::npos);
  EXPECT_EQ(f.server->stats().backpressure_rejections, 1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  TXMOD_ASSERT_OK(first_outcome.status());
  EXPECT_TRUE(first_outcome->committed);

  // With the slot free again the refused client succeeds on retry.
  TXMOD_ASSERT_OK_AND_ASSIGN(const Outcome retried,
                             second.Run(InsertFkText(930002, 2, "2.0")));
  EXPECT_TRUE(retried.committed);
  f.manager->set_run_probe(nullptr);
}

TEST(NetServerTest, OversizedFrameIsRejectedAndConnectionCloses) {
  ServerOptions server_options;
  server_options.max_frame_payload = 512;
  ServerFixture f(server_options);
  Client client = f.MustConnect();
  TXMOD_ASSERT_OK(client.Ping());

  const std::string huge(2048, 'x');
  auto response = client.Call({Verb::kExecute, huge});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(ResponseStatus(*response).code(), StatusCode::kInvalidArgument);

  // The stream past an over-limit frame cannot be resynchronized; the
  // server closed the connection.
  EXPECT_FALSE(client.Ping().ok());
  EXPECT_EQ(f.server->stats().protocol_errors, 1u);
}

TEST(NetServerTest, DegradedManagerSurfacesUnavailableToClients) {
  FaultInjectingVfs vfs;
  TxnManagerOptions txn_options;
  txn_options.vfs = &vfs;
  ServerFixture f(ServerOptions{}, txn_options);
  Client client = f.MustConnect();

  // First commit works; then every WAL write fails until cleared.
  TXMOD_ASSERT_OK_AND_ASSIGN(Outcome ok_outcome,
                             client.Run(InsertFkText(940001, 1, "2.0")));
  EXPECT_TRUE(ok_outcome.committed);

  FaultSpec spec;
  spec.op = VfsOp::kWrite;
  spec.kind = FaultKind::kEIO;
  spec.nth = 1;
  spec.sticky = true;
  spec.path_substring = "wal";
  vfs.InjectFault(spec);

  auto failing = client.Run(InsertFkText(940002, 2, "2.0"));
  ASSERT_FALSE(failing.ok());
  EXPECT_EQ(failing.status().code(), StatusCode::kUnavailable);

  // The manager is now degraded: writers are refused fast, and the
  // stats verb says so.
  auto rejected = client.Run(InsertFkText(940003, 3, "2.0"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  TXMOD_ASSERT_OK_AND_ASSIGN(const auto stats, client.Stats());
  EXPECT_EQ(stats.at("txn.degraded"), "1");
  EXPECT_EQ(stats.at("txn.wal_reopens"), "0");

  // Reads still serve.
  TXMOD_ASSERT_OK(client.Show("fk_rel").status());

  // Storage recovers: a reopen restores writes, and the stats verb
  // counts it.
  vfs.ClearFaults();
  TXMOD_ASSERT_OK(f.manager->TryReopenWal());
  TXMOD_ASSERT_OK_AND_ASSIGN(const auto reopened, client.Stats());
  EXPECT_EQ(reopened.at("txn.wal_reopens"), "1");
  EXPECT_EQ(reopened.at("txn.degraded"), "0");
}

}  // namespace
}  // namespace txmod::net

// Multi-threaded load driver for the network service (src/net): N client
// threads hammer a served TxnManager over loopback TCP with a
// conflict-bearing insert mix, recording commits/sec and request-latency
// percentiles. Not a Google Benchmark binary — wall-clock load with many
// live connections doesn't fit the timer model — but it speaks the same
// CLI dialect so scripts/bench.sh can drive it uniformly:
//
//   bench_server [--clients=8] [--workers=4] [--seconds=2]
//                [--json=PATH] [--verify]
//                [--benchmark_min_time=X]   (smoke: shrinks the run)
//
// --json writes a Google-Benchmark-shaped report (context block +
// "benchmarks" array) so the checked-in BENCH_server.json baseline sits
// beside the other BENCH_*.json files. --verify recovers the database
// from the WAL after shutdown and fails (exit 1) unless EVERY commit the
// server acknowledged is present and the recovered state satisfies every
// constraint, each evaluated in full — the zero-lost-acked-commits and
// zero-violations gate the CI server-integration job runs. It then
// restarts a manager on the recovered state over the same paths (which
// checkpoints that state and replaces the served log), commits one more
// insert, recovers again and requires the same of that state, the new
// insert included.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "src/baseline/posthoc_checker.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/txn/txn_manager.h"

namespace txmod::bench {
namespace {

constexpr int kKeys = 64;
/// The fk_rel id --verify inserts after the restart: below every id a
/// client inserts, above the initial rows'.
constexpr int64_t kRestartInsertId = 9'000'000;

/// The constraints the served database enforces.
const std::pair<const char*, const char*> kConstraints[] = {
    {"domain", DomainConstraint()}, {"refint", RefIntConstraint()}};

/// Every constraint evaluated in full on `db` by the post-hoc baseline
/// (no trigger selection, no differential), which shares no plan with
/// the compiled checks: the empty string when `db` satisfies them all,
/// else the violated rule or the error.
std::string FullCheckViolation(Database db) {
  core::IntegritySubsystem ics(&db);
  for (const auto& [name, text] : kConstraints) {
    const Status st = ics.DefineConstraint(name, text);
    if (!st.ok()) return st.ToString();
  }
  baseline::PostHocOptions options;
  options.use_triggers = false;
  baseline::PostHocChecker checker(&ics, options);
  auto result = checker.Execute(algebra::Transaction{});
  if (!result.ok()) return result.status().ToString();
  return result->committed ? "" : result->abort_reason;
}

/// Whether `recovered` holds every id of `acked_ids` in fk_rel and
/// passes the full check; reports what it found, labelled `when`.
bool VerifyRecovered(const Database& recovered,
                     const std::set<int64_t>& acked_ids,
                     std::size_t initial_fk, const char* when) {
  auto fk_rel = recovered.Find("fk_rel");
  TXMOD_BENCH_CHECK_OK(fk_rel.status());
  std::set<int64_t> recovered_ids;
  for (const Tuple& t : **fk_rel) {
    recovered_ids.insert(t.at(0).as_int());
  }
  uint64_t lost = 0;
  for (const int64_t id : acked_ids) {
    if (!recovered_ids.count(id)) {
      ++lost;
      std::cerr << "LOST acked commit: fk_rel id " << id << "\n";
    }
  }
  std::cout << "verify: " << acked_ids.size() << " acked inserts, " << lost
            << " lost after " << when << " (initial fk_rel " << initial_fk
            << ", recovered " << (*fk_rel)->size() << ")\n";
  const std::string violation = FullCheckViolation(recovered.Clone());
  if (!violation.empty()) {
    std::cerr << "VIOLATION after " << when << ": " << violation << "\n";
  }
  std::cout << "verify: full check of the state after " << when << " "
            << (violation.empty() ? "passed" : "failed") << "\n";
  return lost == 0 && violation.empty();
}

struct Options {
  int clients = 8;
  int workers = 4;
  double seconds = 2.0;
  std::string json_path;
  bool verify = false;
};

struct ClientResult {
  std::vector<int64_t> latencies_micros;  // every request, committed or not
  std::set<int64_t> acked_ids;            // inserts the server acked
  uint64_t requests = 0;
  uint64_t conflicts = 0;
  uint64_t backpressure = 0;
  uint64_t errors = 0;
};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ClientLoop(uint16_t port, int client_id, int64_t deadline_micros,
                ClientResult* out) {
  auto connected = net::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    ++out->errors;
    return;
  }
  net::Client client = std::move(*connected);
  std::mt19937 rng(static_cast<unsigned>(1 + client_id));
  int64_t next_id = 10'000'000 + static_cast<int64_t>(client_id) * 1'000'000;
  while (NowMicros() < deadline_micros) {
    std::string txn;
    int64_t insert_id = -1;
    if (rng() % 8 == 0) {
      // Contended churn on a shared key: conflict + retry fuel.
      const std::string key = StrCat("x", rng() % 8);
      txn = StrCat("delete(key_rel, {(\"", key, "\", \"payload\")}); ",
                   "insert(key_rel, {(\"", key, "\", \"payload\")});");
    } else {
      insert_id = next_id++;
      txn = StrCat("insert(fk_rel, {(", insert_id, ", \"k", rng() % kKeys,
                   "\", 2.0)});");
    }
    const int64_t start = NowMicros();
    auto outcome = client.Run(txn);
    out->latencies_micros.push_back(NowMicros() - start);
    ++out->requests;
    if (!outcome.ok()) {
      if (outcome.status().code() == StatusCode::kUnavailable) {
        ++out->backpressure;
      } else {
        ++out->errors;
        return;  // transport failure: stop this client
      }
      continue;
    }
    if (outcome->committed) {
      if (insert_id >= 0) out->acked_ids.insert(insert_id);
    } else if (outcome->conflict) {
      ++out->conflicts;
    }
  }
}

int64_t Percentile(std::vector<int64_t>* sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  std::nth_element(sorted_in_place->begin(),
                   sorted_in_place->begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted_in_place->end());
  return (*sorted_in_place)[idx];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const Options& options, const std::string& executable,
               double elapsed_seconds, double commits_per_sec, int64_t p50,
               int64_t p99, uint64_t requests, uint64_t acked,
               uint64_t conflicts, uint64_t backpressure) {
  std::ofstream out(options.json_path);
  if (!out) {
    std::cerr << "cannot write " << options.json_path << "\n";
    return;
  }
  char date[64];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%FT%T%z", std::localtime(&now));
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const std::string name =
      StrCat("BM_ServerLoad/clients:", options.clients,
             "/workers:", options.workers);
  out << "{\n  \"context\": {\n"
      << "    \"date\": \"" << date << "\",\n"
      << "    \"host_name\": \"" << JsonEscape(host) << "\",\n"
      << "    \"executable\": \"" << JsonEscape(executable) << "\",\n"
      << "    \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"library_build_type\": \"release\"\n"
      << "  },\n  \"benchmarks\": [\n"
      << "    {\n"
      << "      \"name\": \"" << name << "\",\n"
      << "      \"run_type\": \"iteration\",\n"
      << "      \"iterations\": " << requests << ",\n"
      << "      \"real_time\": " << elapsed_seconds * 1e9 << ",\n"
      << "      \"time_unit\": \"ns\",\n"
      << "      \"commits_per_sec\": " << commits_per_sec << ",\n"
      << "      \"latency_p50_us\": " << p50 << ",\n"
      << "      \"latency_p99_us\": " << p99 << ",\n"
      << "      \"requests\": " << requests << ",\n"
      << "      \"acked_commits\": " << acked << ",\n"
      << "      \"conflict_aborts\": " << conflicts << ",\n"
      << "      \"backpressure_rejections\": " << backpressure << "\n"
      << "    }\n  ]\n}\n";
  std::cout << "JSON written to " << options.json_path << "\n";
}

int Run(const Options& options, const std::string& executable) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      StrCat("txmod_bench_server_", ::getpid());
  std::filesystem::create_directories(dir);
  txn::TxnManagerOptions txn_options;
  txn_options.wal_path = (dir / "wal.log").string();
  txn_options.checkpoint_path = (dir / "checkpoint.db").string();

  Database db = MakeKeyFkDatabase(kKeys, 128);
  AddUnreferencedKeys(&db, 8);
  const std::size_t initial_fk = (*db.Find("fk_rel"))->size();
  core::IntegritySubsystem ics(&db);
  for (const auto& [name, text] : kConstraints) {
    TXMOD_BENCH_CHECK_OK(ics.DefineConstraint(name, text));
  }
  auto created = txn::TxnManager::Create(&ics, txn_options);
  TXMOD_BENCH_CHECK_OK(created.status());
  std::unique_ptr<txn::TxnManager> manager = std::move(*created);

  net::ServerOptions server_options;
  server_options.num_workers = options.workers;
  net::Server server(manager.get(), server_options);
  TXMOD_BENCH_CHECK_OK(server.Start());

  const int64_t bench_start = NowMicros();
  const int64_t deadline =
      bench_start + static_cast<int64_t>(options.seconds * 1e6);
  std::vector<ClientResult> results(
      static_cast<std::size_t>(options.clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back(ClientLoop, server.port(), c, deadline,
                         &results[static_cast<std::size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      static_cast<double>(NowMicros() - bench_start) / 1e6;

  server.Stop();
  const net::ServerStats server_stats = server.stats();
  manager.reset();

  std::vector<int64_t> latencies;
  std::set<int64_t> acked_ids;
  uint64_t requests = 0, conflicts = 0, backpressure = 0, errors = 0;
  for (auto& r : results) {
    latencies.insert(latencies.end(), r.latencies_micros.begin(),
                     r.latencies_micros.end());
    acked_ids.insert(r.acked_ids.begin(), r.acked_ids.end());
    requests += r.requests;
    conflicts += r.conflicts;
    backpressure += r.backpressure;
    errors += r.errors;
  }
  const double commits_per_sec =
      elapsed > 0 ? static_cast<double>(server_stats.commits_acked) / elapsed
                  : 0;
  const int64_t p50 = Percentile(&latencies, 0.50);
  const int64_t p99 = Percentile(&latencies, 0.99);

  std::cout << "clients " << options.clients << ", workers "
            << options.workers << ", " << elapsed << " s\n"
            << "requests            " << requests << "\n"
            << "acked commits       " << server_stats.commits_acked << "\n"
            << "commits/sec         " << commits_per_sec << "\n"
            << "latency p50 (us)    " << p50 << "\n"
            << "latency p99 (us)    " << p99 << "\n"
            << "conflict aborts     " << conflicts << "\n"
            << "backpressure        " << backpressure << "\n"
            << "client errors       " << errors << "\n";

  int exit_code = errors == 0 ? 0 : 1;
  if (options.verify) {
    // The acceptance gate: recover from the WAL and require every acked
    // insert to be present — an acknowledged commit is durable — and
    // every constraint to hold.
    auto recovered = txn::TxnManager::Recover(txn_options);
    TXMOD_BENCH_CHECK_OK(recovered.status());
    if (!VerifyRecovered(*recovered, acked_ids, initial_fk, "recovery")) {
      exit_code = 1;
    }
    // Then a restart over the served log: Create checkpoints the
    // recovered state and replaces the log, and the commit after it must
    // survive the next recovery with every earlier one.
    Database restarted = *std::move(recovered);
    core::IntegritySubsystem restarted_ics(&restarted);
    for (const auto& [name, text] : kConstraints) {
      TXMOD_BENCH_CHECK_OK(restarted_ics.DefineConstraint(name, text));
    }
    {
      auto restarted_manager =
          txn::TxnManager::Create(&restarted_ics, txn_options);
      TXMOD_BENCH_CHECK_OK(restarted_manager.status());
      auto committed = (*restarted_manager)
                           ->RunText(StrCat("insert(fk_rel, {(",
                                            kRestartInsertId,
                                            ", \"k1\", 2.0)});"));
      TXMOD_BENCH_CHECK_OK(committed.status());
      if (!committed->committed) {
        std::cerr << "the insert after the restart did not commit: "
                  << committed->abort_reason << "\n";
        exit_code = 1;
      }
    }
    acked_ids.insert(kRestartInsertId);
    auto recovered_again = txn::TxnManager::Recover(txn_options);
    TXMOD_BENCH_CHECK_OK(recovered_again.status());
    if (!VerifyRecovered(*recovered_again, acked_ids, initial_fk,
                         "the restart and its commit")) {
      exit_code = 1;
    }
  }

  if (!options.json_path.empty()) {
    WriteJson(options, executable, elapsed, commits_per_sec, p50, p99,
              requests, server_stats.commits_acked, conflicts, backpressure);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return exit_code;
}

}  // namespace
}  // namespace txmod::bench

int main(int argc, char** argv) {
  txmod::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--clients=", 0) == 0) {
      options.clients = std::atoi(value("--clients="));
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.workers = std::atoi(value("--workers="));
    } else if (arg.rfind("--seconds=", 0) == 0) {
      options.seconds = std::atof(value("--seconds="));
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = value("--json=");
    } else if (arg == "--json" && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (arg == "--verify") {
      options.verify = true;
    } else if (arg.rfind("--benchmark_min_time=", 0) == 0) {
      // scripts/bench.sh --smoke passes this to every bench binary:
      // interpret it as "run briefly".
      const double t = std::atof(value("--benchmark_min_time="));
      options.seconds = std::max(0.05, t * 10);
      options.clients = std::min(options.clients, 4);
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      // Other Google Benchmark flags are meaningless here; ignore.
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: bench_server [--clients=N] [--workers=N] "
                   "[--seconds=S] [--json=PATH] [--verify]\n";
      return 2;
    }
  }
  if (options.clients < 1 || options.workers < 1 || options.seconds <= 0) {
    std::cerr << "invalid options\n";
    return 2;
  }
  return txmod::bench::Run(options, argv[0]);
}

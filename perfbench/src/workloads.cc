#include "src/workloads.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "src/algebra/parser.h"
#include "src/common/frame.h"
#include "src/common/str_util.h"
#include "src/common/vfs.h"
#include "src/core/subsystem.h"
#include "src/gate.h"
#include "src/gen.h"
#include "src/measure.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/parallel/executor.h"
#include "src/parallel/parallel_db.h"
#include "src/relational/persist.h"
#include "src/relational/wal.h"
#include "src/txn/txn_manager.h"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
namespace algebra = txmod::algebra;
namespace core = txmod::core;
namespace net = txmod::net;
namespace parallel = txmod::parallel;
namespace txn = txmod::txn;
using txmod::Database;
using txmod::Result;
using txmod::Status;
using txmod::StrCat;

namespace {

// Runs are bound by transaction counts, not by time: recovery time grows
// with the WAL and peak RSS with the number of commits (the validation
// window keeps up to 1024 commits' write sets), so a time-bound run would
// make both track the host's speed.
constexpr int kServedWarmup = 200;  // per connection, outside percentiles
constexpr int kServedMeasured = 5000;  // per connection
constexpr int kServedWindow = 250;  // measured requests per connection
constexpr int kServedWindows = kServedMeasured / kServedWindow;
constexpr int kWarmupCycles = 1;  // compiles the shaped plans
constexpr int kMeasuredCycles = 24;
constexpr int kPartitions = 4;
constexpr int kPings = 2000;
constexpr int kFsyncProbes = 300;
constexpr uint64_t kConnIdStride = 1'000'000;

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}
int Connections() { return std::max(1, Nproc() / 2); }
// The caller joins the pool, so parallel_enforce runs nproc/2 threads, as
// many as served_point has connections. With a thread on every vCPU of a
// shared host, how much work the pool's workers took depended on how soon
// the host woke them, and peak RSS moved by 15% with it.
int ParallelWorkers() { return std::max(1, Nproc() / 2 - 1); }

bool IsServed(const std::string& w) { return w == "served_point"; }
bool IsParallel(const std::string& w) { return w == "parallel_enforce"; }

int Fail(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  return 1;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Highest resident set size of a process's own address space so far
/// (VmHWM), in KiB; "self" for this process. Not getrusage's ru_maxrss:
/// posix_spawn execs from the parent's address space, and exec folds that
/// address space's peak into ru_maxrss.
long PeakRssKb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

/// CPU time of another process (all its threads), in nanoseconds.
int64_t CpuNanos(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return ts.tv_sec * int64_t{1000000000} + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// The system under test.

txn::TxnManagerOptions DurableOptions(const std::string& dir) {
  txn::TxnManagerOptions options;  // sync_commits on, one WAL shard
  options.wal_path = dir + "/wal";
  options.checkpoint_path = dir + "/checkpoint";
  return options;
}

/// TxnManager::Recover; traced, the public calls it is made of, each in
/// its own span.
Result<Database> Recover(const txn::TxnManagerOptions& options,
                         Tracer* tracer) {
  if (tracer == nullptr) return txn::TxnManager::Recover(options);
  Database db;
  {
    ScopedSpan span(tracer, "relational.checkpoint_load", 0);
    TXMOD_ASSIGN_OR_RETURN(db,
                           txmod::LoadDatabaseFromFile(options.checkpoint_path));
  }
  std::vector<txmod::WalRecord> records;
  {
    ScopedSpan span(tracer, "relational.wal_read", 0);
    TXMOD_ASSIGN_OR_RETURN(records,
                           txmod::ReadShardedWal(options.wal_path, nullptr,
                                                 db.logical_time()));
  }
  ScopedSpan span(tracer, "relational.wal_apply", 0);
  for (const txmod::WalRecord& record : records) {
    TXMOD_RETURN_IF_ERROR(txmod::ApplyWalRecord(record, &db));
  }
  return db;
}

struct System {
  txn::TxnManagerOptions options;
  std::unique_ptr<Database> db;
  std::unique_ptr<core::IntegritySubsystem> ics;
  std::unique_ptr<txn::TxnManager> manager;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<parallel::ParallelDatabase> pdb;
  std::unique_ptr<parallel::ParallelExecutor> executor;
};

/// A fresh working directory holding a copy of the initial checkpoint.
/// Done before any timing starts.
Status Stage(const Args& args) {
  std::error_code ec;
  fs::remove_all(args.dir, ec);
  fs::create_directories(args.dir, ec);
  if (ec) return Status::Internal(StrCat("mkdir ", args.dir, ": ", ec.message()));
  fs::copy_file(args.checkpoint, args.dir + "/checkpoint", ec);
  if (ec) return Status::Internal(StrCat("copy checkpoint: ", ec.message()));
  return Status::OK();
}

/// From the start of the system until it is ready: recovery from the
/// checkpoint, both constraints, the manager, then the server or the
/// partitioned database.
Status SetUp(const Args& args, Tracer* tracer, System* sys) {
  sys->options = DurableOptions(args.dir);
  TXMOD_ASSIGN_OR_RETURN(Database db, Recover(sys->options, tracer));
  sys->db = std::make_unique<Database>(std::move(db));
  sys->ics = std::make_unique<core::IntegritySubsystem>(sys->db.get());
  {
    ScopedSpan span(tracer, "core.define", 0);
    TXMOD_RETURN_IF_ERROR(
        sys->ics->DefineConstraint("domain", DomainConstraint()));
    TXMOD_RETURN_IF_ERROR(
        sys->ics->DefineConstraint("refint", RefIntConstraint()));
  }
  {
    ScopedSpan span(tracer, "txn.create", 0);
    TXMOD_ASSIGN_OR_RETURN(
        sys->manager, txn::TxnManager::Create(sys->ics.get(), sys->options));
  }
  if (IsServed(args.workload)) {
    ScopedSpan span(tracer, "net.start", 0);
    net::ServerOptions options;
    options.num_workers = Connections();
    sys->server = std::make_unique<net::Server>(sys->manager.get(), options);
    TXMOD_RETURN_IF_ERROR(sys->server->Start());
  } else if (IsParallel(args.workload)) {
    ScopedSpan span(tracer, "parallel.partition", 0);
    TXMOD_ASSIGN_OR_RETURN(
        parallel::ParallelDatabase pdb,
        parallel::ParallelDatabase::Partition(*sys->db, {}, kPartitions));
    sys->pdb = std::make_unique<parallel::ParallelDatabase>(std::move(pdb));
    parallel::ParallelOptions options;
    options.use_threads = true;
    options.num_workers = static_cast<std::size_t>(ParallelWorkers());
    sys->executor =
        std::make_unique<parallel::ParallelExecutor>(sys->pdb.get(), options);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One transaction of the in-process workloads.

struct TxnRecord {
  int cycle = 0;
  Observed obs;
  int64_t latency_ns = 0;
  int64_t cpu_us = 0;  // process CPU across the call, all threads
  algebra::EvalStats stats;
  int statements_added = 0;
  // parallel_enforce: ParallelStats and the CPU/wall across Execute.
  double par_wall_us = 0;
  double par_sim_us = 0;
  uint64_t par_batches = 0;
  uint64_t par_transferred = 0;
  int64_t exec_cpu_us = 0;
  int64_t exec_wall_ns = 0;
};

Observed ObservedOf(const Result<txn::TxnResult>& result) {
  Observed obs;
  if (!result.ok()) {
    obs.call_ok = false;
    obs.reason = result.status().ToString();
    return obs;
  }
  obs.committed = result->committed;
  obs.conflict = result->conflict;
  obs.reason = result->abort_reason;
  return obs;
}

/// Begin, Execute and Commit as TxnManager::Run calls them, retrying
/// conflict losers up to the manager's attempt limit. Modify is called on
/// its own before Execute (which modifies again internally) so that
/// modification is timed apart from execution.
Result<txn::TxnResult> RunDecomposed(System* sys, const algebra::Transaction& t,
                                     Tracer* tracer, uint64_t id,
                                     int parent, TxnRecord* rec) {
  Result<txn::TxnResult> result = Status::Internal("no attempt made");
  for (int attempt = 1; attempt <= sys->options.max_attempts; ++attempt) {
    std::unique_ptr<txn::TxnSession> session;
    {
      ScopedSpan span(tracer, "txn.begin", id, parent);
      session = sys->manager->Begin();
    }
    {
      ScopedSpan span(tracer, "core.modify", id, parent);
      core::ModifyStats modify_stats;
      auto modified = sys->ics->Modify(t, &modify_stats);
      if (!modified.ok()) return modified.status();
      if (attempt == 1) rec->statements_added = modify_stats.statements_added;
    }
    {
      ScopedSpan span(tracer, "txn.execute", id, parent);
      auto executed = session->Execute(t);
      if (!executed.ok()) return executed.status();
      rec->stats.Add(executed->stats);
    }
    {
      ScopedSpan span(tracer, "txn.commit", id, parent);
      result = session->Commit();
    }
    if (!result.ok()) return result;
    result->attempts = static_cast<uint32_t>(attempt);
    if (!result->conflict) break;
  }
  return result;
}

/// bulk_enforce: TxnManager::Run; traced, its decomposition.
TxnRecord RunBulkTxn(System* sys, const TxnSpec& spec, uint64_t id,
                     Tracer* tracer) {
  TxnRecord rec;
  const int64_t cpu0 = ProcessCpuMicros();
  const int64_t t0 = NowNanos();
  Result<txn::TxnResult> result = Status::Internal("not run");
  if (tracer == nullptr) {
    result = sys->manager->Run(spec.txn);
    if (result.ok()) rec.stats = result->stats;
  } else {
    ScopedSpan root(tracer, "txn", id);
    result = RunDecomposed(sys, spec.txn, tracer, id, root.id(), &rec);
  }
  rec.latency_ns = NowNanos() - t0;
  rec.cpu_us = ProcessCpuMicros() - cpu0;
  rec.obs = ObservedOf(result);
  return rec;
}

/// parallel_enforce: IntegritySubsystem::Modify, then
/// ParallelExecutor::Execute.
TxnRecord RunParallelTxn(System* sys, const TxnSpec& spec, uint64_t id,
                         Tracer* tracer) {
  TxnRecord rec;
  const int64_t cpu0 = ProcessCpuMicros();
  const int64_t t0 = NowNanos();
  {
    ScopedSpan root(tracer, "txn", id);
    Result<algebra::Transaction> modified = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "core.modify", id, root.id());
      core::ModifyStats modify_stats;
      modified = sys->ics->Modify(spec.txn, &modify_stats);
      rec.statements_added = modify_stats.statements_added;
    }
    if (!modified.ok()) {
      rec.obs.call_ok = false;
      rec.obs.reason = modified.status().ToString();
    } else {
      ScopedSpan span(tracer, "parallel.execute", id, root.id());
      const int64_t c0 = ProcessCpuMicros();
      const int64_t w0 = NowNanos();
      auto executed = sys->executor->Execute(*modified);
      rec.exec_wall_ns = NowNanos() - w0;
      rec.exec_cpu_us = ProcessCpuMicros() - c0;
      if (!executed.ok()) {
        rec.obs.call_ok = false;
        rec.obs.reason = executed.status().ToString();
      } else {
        rec.obs.committed = executed->committed;
        rec.obs.reason = executed->abort_reason;
        rec.stats = executed->eval_stats;
        rec.par_wall_us = executed->stats.measured_us();
        rec.par_sim_us = executed->stats.simulated_us();
        rec.par_batches = executed->stats.exchange_batches();
        rec.par_transferred = executed->stats.tuples_transferred();
      }
    }
  }
  rec.latency_ns = NowNanos() - t0;
  rec.cpu_us = ProcessCpuMicros() - cpu0;
  return rec;
}

int TotalCycles() { return kWarmupCycles + kMeasuredCycles; }

/// The bulk cycles, generated one at a time so the generator's batches
/// never pile up in the system's memory.
std::vector<TxnRecord> RunCycles(System* sys, const Args& args,
                                 Tracer* tracer) {
  std::vector<TxnRecord> out;
  uint64_t id = 1;
  for (int cycle = 0; cycle < TotalCycles(); ++cycle) {
    for (const TxnSpec& spec : MakeBulkCycle(args.seed, cycle)) {
      TxnRecord rec = IsParallel(args.workload)
                          ? RunParallelTxn(sys, spec, id, tracer)
                          : RunBulkTxn(sys, spec, id, tracer);
      rec.cycle = cycle;
      out.push_back(std::move(rec));
      ++id;
    }
  }
  return out;
}

void WriteRecords(const std::vector<TxnRecord>& records,
                  const std::string& path) {
  std::ofstream out(path);
  out.precision(17);
  for (const TxnRecord& r : records) {
    std::string reason = r.obs.reason;
    std::replace(reason.begin(), reason.end(), '\n', ' ');
    out << r.cycle << ' ' << r.obs.call_ok << ' ' << r.obs.committed << ' '
        << r.obs.conflict << ' ' << r.latency_ns << ' ' << r.cpu_us << ' '
        << r.stats.tuples_scanned << ' '
        << r.stats.index_probes << ' ' << r.stats.plan_cache_hits << ' '
        << r.stats.plan_cache_misses << ' ' << r.statements_added << ' '
        << r.par_wall_us << ' ' << r.par_sim_us << ' ' << r.par_batches << ' '
        << r.par_transferred << ' ' << r.exec_cpu_us << ' ' << r.exec_wall_ns
        << ' ' << reason << '\n';
  }
}

std::vector<TxnRecord> ReadRecords(const std::string& path) {
  std::vector<TxnRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    TxnRecord r;
    fields >> r.cycle >> r.obs.call_ok >> r.obs.committed >> r.obs.conflict >>
        r.latency_ns >> r.cpu_us >> r.stats.tuples_scanned >>
        r.stats.index_probes >> r.stats.plan_cache_hits >>
        r.stats.plan_cache_misses >> r.statements_added >> r.par_wall_us >>
        r.par_sim_us >> r.par_batches >> r.par_transferred >> r.exec_cpu_us >>
        r.exec_wall_ns;
    std::getline(fields, r.obs.reason);
    if (!r.obs.reason.empty()) r.obs.reason.erase(0, 1);
    out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The system process.

void Notify(int fd, const std::string& line) {
  const std::string data = line + "\n";
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

/// Blocks until the system process writes a line (or exits).
std::string ReadLine(int fd) {
  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') return line;
    line.push_back(c);
  }
}

struct Child {
  pid_t pid = -1;
  int fd = -1;
};

Result<Child> Spawn(const Args& args) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  std::error_code ec;
  const std::string exe = fs::read_symlink("/proc/self/exe", ec).string();
  std::vector<std::string> argv_strings = {
      exe,           "system",
      "--workload",  args.workload,
      "--seed",      std::to_string(args.seed),
      "--dir",       args.dir,
      "--notify-fd", std::to_string(fds[1]),
      "--parent-pid", std::to_string(::getpid())};
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), environ);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return Status::Internal(StrCat("posix_spawn failed: ", rc));
  }
  return Child{pid, fds[0]};
}

/// Stops the system without a clean shutdown.
void KillAndReap(const Child& child) {
  ::kill(child.pid, SIGKILL);
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  ::close(child.fd);
}

// ---------------------------------------------------------------------------
// Rounds.

struct RoundResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::vector<std::string> problems;
  std::vector<std::string> failures;  // the first few, for the log
  std::vector<double> latencies_us;  // measured transactions only
  double measured_s = 0;  // wall time of the measured transactions
  RoundSamples samples;
  // Filled by the traced run only.
  std::vector<double> ping_us;
  double commits_per_fsync = 0;
  double conflict_ratio = 0;
  double wal_bytes = 0;
  double committed_user_bytes = 0;
  uint64_t commits = 0;
};

/// served_point: the request stream of every connection.
std::vector<std::vector<TxnSpec>> ServedStreams(uint64_t seed) {
  std::vector<std::vector<TxnSpec>> streams;
  for (int c = 0; c < Connections(); ++c) {
    streams.push_back(MakeServedStream(seed, c, Connections(),
                                       kServedWarmup + kServedMeasured));
  }
  return streams;
}

/// served_point: the id of request `i` of connection `conn` in spans.
uint64_t RequestId(int conn, int i) {
  return static_cast<uint64_t>(conn) * kConnIdStride +
         static_cast<uint64_t>(i) + 1;
}

void CheckOutcome(const TxnSpec& spec, const Observed& obs,
                  ExpectedState* expected, RoundResult* res) {
  ++res->attempted;
  const std::string mismatch = VerdictMismatch(spec, obs);
  if (!mismatch.empty()) {
    ++res->mismatches;
    if (res->problems.size() < 8) res->problems.push_back(mismatch);
  }
  if (IsFailure(spec, obs)) {
    ++res->failed;
    if (res->failures.size() < 3) {
      res->failures.push_back(obs.conflict ? "conflict: retries exhausted"
                                           : obs.reason);
    }
  }
  if (obs.committed) {
    ++res->commits;
    res->committed_user_bytes += static_cast<double>(spec.user_bytes);
  }
  expected->Record(spec, obs);
}

void CheckState(const Database& recovered, const ExpectedState& expected,
                RoundResult* res) {
  for (std::string& diff : expected.Diff(recovered)) {
    res->problems.push_back(std::move(diff));
  }
  const std::string violation = PostHocViolation(recovered);
  if (!violation.empty()) {
    res->problems.push_back("constraint violated after recovery: " +
                            violation);
  }
}

bool Correct(const RoundResult& res) {
  return res.mismatches == 0 && res.problems.empty();
}

/// served_point. The measured requests of every connection fall into
/// kServedWindows windows of kServedWindow requests; connection 0 also
/// reads the server's CPU clock at its window boundaries. With a tracer,
/// the run also pings the live server, reads its counters through the
/// `stats` verb and times recovery by parts.
int ServedRound(const Args& args, Tracer* tracer, RoundResult* res) {
  const int conns = Connections();
  const int per_conn = kServedWarmup + kServedMeasured;
  const std::vector<std::vector<TxnSpec>> streams = ServedStreams(args.seed);

  const int64_t t0 = NowNanos();
  Result<Child> child = Spawn(args);
  if (!child.ok()) return Fail(child.status().ToString());
  std::istringstream ready(ReadLine(child->fd));
  res->samples.setup_s = Seconds(NowNanos() - t0);
  std::string word;
  int port = 0;
  ready >> word >> port;
  clockid_t server_cpu{};
  if (word != "ready" || ::clock_getcpuclockid(child->pid, &server_cpu) != 0) {
    KillAndReap(*child);
    return Fail("server did not start: " + ready.str());
  }

  struct Conn {
    std::vector<Observed> obs;
    std::vector<uint32_t> attempts;
    std::vector<double> latency_us;
    std::vector<int64_t> marks;  // window boundaries, kServedWindows + 1
    std::vector<double> ping_us;
  };
  std::vector<Conn> out(static_cast<std::size_t>(conns));
  std::atomic<int64_t> completed{0};
  std::vector<int64_t> cpu_marks;    // server CPU ns at connection 0's marks
  std::vector<int64_t> count_marks;  // requests completed by then
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Conn& me = out[static_cast<std::size_t>(c)];
      const auto mark = [&] {
        me.marks.push_back(NowNanos());
        if (c == 0) {
          cpu_marks.push_back(CpuNanos(server_cpu));
          count_marks.push_back(completed.load());
        }
      };
      auto client = net::Client::Connect("127.0.0.1", static_cast<uint16_t>(port));
      for (int i = 0; i < per_conn; ++i) {
        if (i >= kServedWarmup && (i - kServedWarmup) % kServedWindow == 0) {
          mark();
        }
        Observed obs;
        uint32_t attempts = 1;
        const int64_t s = NowNanos();
        if (!client.ok()) {
          obs.call_ok = false;
          obs.reason = client.status().ToString();
        } else {
          auto outcome = client->Run(streams[static_cast<std::size_t>(c)]
                                            [static_cast<std::size_t>(i)]
                                                .text);
          if (!outcome.ok()) {
            obs.call_ok = false;
            obs.reason = outcome.status().ToString();
          } else {
            obs.committed = outcome->committed;
            obs.conflict = outcome->conflict;
            obs.reason = outcome->reason;
            attempts = outcome->attempts;
          }
        }
        const int64_t e = NowNanos();
        completed.fetch_add(1);
        if (i >= kServedWarmup) me.latency_us.push_back(Micros(e - s));
        me.obs.push_back(std::move(obs));
        me.attempts.push_back(attempts);
      }
      mark();
      if (tracer != nullptr && client.ok()) {
        for (int k = 0; k < kPings; ++k) {
          const int64_t s = NowNanos();
          if (client->Ping().ok()) me.ping_us.push_back(Micros(NowNanos() - s));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  if (tracer != nullptr) {
    auto client = net::Client::Connect("127.0.0.1", static_cast<uint16_t>(port));
    auto stats = client.ok() ? client->Stats()
                             : Result<std::map<std::string, std::string>>(
                                   client.status());
    if (stats.ok()) {
      const auto counter = [&stats](const char* key) {
        const auto it = stats->find(key);
        return it == stats->end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
      };
      const double fsyncs = counter("txn.wal_fsyncs");
      res->commits_per_fsync = fsyncs > 0 ? counter("txn.commits") / fsyncs : 0;
    } else {
      res->problems.push_back("stats verb failed: " + stats.status().ToString());
    }
  }
  res->samples.peak_rss_mb =
      static_cast<double>(PeakRssKb(std::to_string(child->pid))) / 1024.0;
  KillAndReap(*child);

  const txn::TxnManagerOptions options = DurableOptions(args.dir);
  std::error_code ec;
  res->wal_bytes = static_cast<double>(fs::file_size(options.wal_path, ec));
  const int64_t r0 = NowNanos();
  Result<Database> recovered = Recover(options, tracer);
  res->samples.recover_s = Seconds(NowNanos() - r0);

  ExpectedState expected(args.seed);
  uint64_t losses = 0;
  uint64_t attempts = 0;
  for (int c = 0; c < conns; ++c) {
    const Conn& me = out[static_cast<std::size_t>(c)];
    for (int i = 0; i < per_conn; ++i) {
      const Observed& obs = me.obs[static_cast<std::size_t>(i)];
      CheckOutcome(streams[static_cast<std::size_t>(c)]
                          [static_cast<std::size_t>(i)],
                   obs, &expected, res);
      const uint32_t a = me.attempts[static_cast<std::size_t>(i)];
      attempts += a;
      losses += obs.conflict ? a : a - 1;
    }
    res->latencies_us.insert(res->latencies_us.end(), me.latency_us.begin(),
                             me.latency_us.end());
    res->ping_us.insert(res->ping_us.end(), me.ping_us.begin(),
                        me.ping_us.end());
  }
  for (int k = 0; k < kServedWindows; ++k) {
    Window w;
    std::vector<double> latency_us;
    for (int c = 0; c < conns; ++c) {
      const Conn& me = out[static_cast<std::size_t>(c)];
      const auto first = static_cast<std::size_t>(k * kServedWindow);
      latency_us.insert(latency_us.end(), me.latency_us.begin() + first,
                        me.latency_us.begin() + first + kServedWindow);
      int commits = 0;
      for (std::size_t i = 0; i < kServedWindow; ++i) {
        commits += me.obs[kServedWarmup + first + i].committed ? 1 : 0;
      }
      const auto kk = static_cast<std::size_t>(k);
      w.tps += commits / Seconds(me.marks[kk + 1] - me.marks[kk]);
    }
    w.p50_us = Percentile(latency_us, 0.5);
    w.latency_us = std::move(latency_us);
    const auto kk = static_cast<std::size_t>(k);
    w.cpu_us_per_txn = Micros(cpu_marks[kk + 1] - cpu_marks[kk]) /
                       static_cast<double>(count_marks[kk + 1] - count_marks[kk]);
    res->samples.windows.push_back(w);
  }
  res->measured_s = Seconds(out[0].marks.back() - out[0].marks.front());
  res->conflict_ratio =
      attempts > 0 ? static_cast<double>(losses) / static_cast<double>(attempts)
                   : 0;
  if (!recovered.ok()) {
    res->problems.push_back("recovery failed: " +
                            recovered.status().ToString());
  } else {
    CheckState(*recovered, expected, res);
  }
  return 0;
}

/// The checkpoint parallel_enforce leaves its final state in: its
/// partitions live in memory only, so the durable image of the run is the
/// merged state written after the last transaction.
txn::TxnManagerOptions FinalStateOptions(const std::string& dir) {
  txn::TxnManagerOptions options;
  options.checkpoint_path = dir + "/final.checkpoint";
  options.wal_path = dir + "/final.wal";  // never written: no log to replay
  return options;
}

/// Folds the in-process records into `res` and checks them against the
/// generator's verdicts.
void CheckRecords(const Args& args, const std::vector<TxnRecord>& records,
                  ExpectedState* expected, RoundResult* res) {
  std::size_t next = 0;
  for (int cycle = 0; cycle < TotalCycles(); ++cycle) {
    for (const TxnSpec& spec : MakeBulkCycle(args.seed, cycle)) {
      if (next >= records.size()) {
        res->problems.push_back("fewer transaction records than submitted");
        return;
      }
      const TxnRecord& rec = records[next++];
      CheckOutcome(spec, rec.obs, expected, res);
      if (cycle >= kWarmupCycles) {
        res->measured_s += Seconds(rec.latency_ns);
        res->samples.txn_us.push_back(Micros(rec.latency_ns));
        res->samples.txn_cpu_us.push_back(static_cast<double>(rec.cpu_us));
        if (rec.obs.committed) ++res->samples.commits;
      }
    }
  }
  res->latencies_us = res->samples.txn_us;
}

int InProcessRound(const Args& args, RoundResult* res) {
  const int64_t t0 = NowNanos();
  Result<Child> child = Spawn(args);
  if (!child.ok()) return Fail(child.status().ToString());
  const std::string ready = ReadLine(child->fd);
  res->samples.setup_s = Seconds(NowNanos() - t0);
  if (ready.rfind("ready", 0) != 0) {
    KillAndReap(*child);
    return Fail("system did not start: " + ready);
  }
  // "done <peak RSS in KiB after the last transaction>"
  std::istringstream done(ReadLine(child->fd));
  KillAndReap(*child);
  std::string word;
  double peak_rss_kb = 0;
  done >> word >> peak_rss_kb;
  if (word != "done") return Fail("system did not finish: " + done.str());
  res->samples.peak_rss_mb = peak_rss_kb / 1024.0;

  const std::vector<TxnRecord> records = ReadRecords(args.dir + "/records.txt");
  const txn::TxnManagerOptions options = IsParallel(args.workload)
                                             ? FinalStateOptions(args.dir)
                                             : DurableOptions(args.dir);
  const int64_t r0 = NowNanos();
  Result<Database> recovered = txn::TxnManager::Recover(options);
  res->samples.recover_s = Seconds(NowNanos() - r0);

  ExpectedState expected(args.seed);
  CheckRecords(args, records, &expected, res);
  if (!recovered.ok()) {
    res->problems.push_back("recovery failed: " +
                            recovered.status().ToString());
  } else {
    CheckState(*recovered, expected, res);
  }
  return 0;
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : "; ") + p;
  return out;
}

using Metric = std::tuple<std::string, double, std::string>;  // name, value, unit

/// Prints the result line: correct, attempted, failed and every metric
/// with its unit.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string body;
  for (const auto& [name, value, unit] : metrics) {
    JsonLine metric;
    metric.Num("value", value).Str("unit", unit);
    body += (body.empty() ? "\"" : ", \"") + name + "\": " + metric.ToString();
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << body << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// The traced run.

/// Every per-layer metric with its unit. A workload reports 0 for a layer
/// it does not cross.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.ping_rtt_us", "us"},
      {"net.request_decode_us", "us"},
      {"net.response_encode_us", "us"},
      {"net.bytes_per_txn", "bytes"},
      {"net.unaccounted_us", "us"},
      {"algebra.parse_us", "us"},
      {"algebra.plan_cache_hit_ratio", "ratio"},
      {"algebra.tuples_scanned_per_txn", "count"},
      {"algebra.index_probes_per_txn", "count"},
      {"core.modify_us", "us"},
      {"core.statements_added_per_txn", "count"},
      {"core.define_s", "s"},
      {"txn.begin_us", "us"},
      {"txn.execute_us", "us"},
      {"txn.commit_us", "us"},
      {"txn.commits_per_fsync", "ratio"},
      {"txn.conflict_ratio", "ratio"},
      {"vfs.fsync_us", "us"},
      {"relational.wal_bytes_per_txn", "bytes"},
      {"relational.wal_bytes_per_user_byte", "ratio"},
      {"relational.checkpoint_load_s", "s"},
      {"relational.wal_read_s", "s"},
      {"relational.wal_apply_s", "s"},
      {"parallel.execute_wall_us", "us"},
      {"parallel.cpu_per_wall", "ratio"},
      {"parallel.exchange_batches_per_txn", "count"},
      {"parallel.tuples_transferred_per_txn", "count"},
      {"parallel.sim_makespan_us", "us"},
      {"trace.overhead_us", "us"},
  };
  return kMetrics;
}

/// Total duration of the spans named `name`, in seconds.
double SpanSeconds(const Tracer& tracer, const std::string& name) {
  int64_t ns = 0;
  for (const Span& s : tracer.spans()) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return Seconds(ns);
}

/// p50 over the transactions in `measured` of a per-transaction value
/// (0 where a transaction has none).
double P50Over(const std::map<uint64_t, double>& per_txn,
               const std::vector<uint64_t>& measured) {
  std::vector<double> values;
  for (uint64_t id : measured) {
    const auto it = per_txn.find(id);
    values.push_back(it == per_txn.end() ? 0 : it->second);
  }
  return Median(std::move(values));
}

using SelfTimes = std::map<std::string, std::map<uint64_t, double>>;

void MergeSelfTimes(const Tracer& tracer, SelfTimes* into) {
  for (auto& [name, per_txn] : SelfTimeByTxn(tracer.spans())) {
    for (auto& [id, us] : per_txn) (*into)[name][id] += us;
  }
}

/// execute minus the separately timed modify, per transaction.
std::map<uint64_t, double> ExecuteMinusModify(const SelfTimes& self) {
  std::map<uint64_t, double> out;
  const auto exec = self.find("txn.execute");
  if (exec == self.end()) return out;
  const auto modify = self.find("core.modify");
  for (const auto& [id, us] : exec->second) {
    double m = 0;
    if (modify != self.end()) {
      const auto it = modify->second.find(id);
      if (it != modify->second.end()) m = it->second;
    }
    out[id] = us - m;
  }
  return out;
}

const std::map<uint64_t, double>& Layer(const SelfTimes& self,
                                        const std::string& name) {
  static const std::map<uint64_t, double> kNone;
  const auto it = self.find(name);
  return it == self.end() ? kNone : it->second;
}

/// served_point's server path replayed in process, one thread per
/// connection, through the public calls the server makes in its order:
/// frame decode, parse, Begin, Execute, Commit (conflicts retried as Run
/// does), response encode.
struct Replay {
  std::vector<Tracer> tracers;  // one per connection
  Tracer setup;
  std::vector<double> request_us;  // measured requests, span or not
  std::vector<uint64_t> measured;  // their ids
  algebra::EvalStats stats;
  double statements_added = 0;
  double bytes = 0;
  RoundResult gate;
};

int ReplayServed(const Args& args, bool traced, Replay* out) {
  const Status staged = Stage(args);
  if (!staged.ok()) return Fail(staged.ToString());
  System sys;
  const Status st = SetUp(args, traced ? &out->setup : nullptr, &sys);
  if (!st.ok()) return Fail("set-up: " + st.ToString());

  const int conns = Connections();
  const int per_conn = kServedWarmup + kServedMeasured;
  const std::vector<std::vector<TxnSpec>> streams = ServedStreams(args.seed);
  out->tracers.resize(static_cast<std::size_t>(conns));
  struct Conn {
    std::vector<Observed> obs;
    std::vector<double> request_us;
    algebra::EvalStats stats;
    double statements_added = 0;
    double bytes = 0;
  };
  std::vector<Conn> conn_out(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Tracer* tracer = traced ? &out->tracers[static_cast<std::size_t>(c)] : nullptr;
      Conn& me = conn_out[static_cast<std::size_t>(c)];
      for (int i = 0; i < per_conn; ++i) {
        const TxnSpec& spec =
            streams[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
        const uint64_t id = RequestId(c, i);
        std::string frame;  // what the client sends; built off the clock
        txmod::AppendFrame(
            net::EncodeRequest(net::Request{net::Verb::kRun, spec.text}),
            &frame);
        std::string response_frame;
        TxnRecord rec;
        Result<txn::TxnResult> result = Status::Internal("not run");
        const int64_t s = NowNanos();
        {
          ScopedSpan root(tracer, "request", id);
          Result<net::Request> request = Status::Internal("not decoded");
          {
            ScopedSpan span(tracer, "net.decode", id, root.id());
            std::string payload;
            std::size_t consumed = 0;
            if (txmod::TryDecodeFrame(frame, 0, txmod::kDefaultMaxFramePayload,
                                      &payload, &consumed) ==
                txmod::FrameDecode::kFrame) {
              request = net::DecodeRequest(payload);
            }
          }
          Result<algebra::Transaction> parsed = Status::Internal("not parsed");
          if (request.ok()) {
            ScopedSpan span(tracer, "algebra.parse", id, root.id());
            algebra::AlgebraParser parser(&sys.db->schema());
            parsed = parser.ParseTransaction(request->body);
          }
          result = parsed.ok()
                       ? RunDecomposed(&sys, *parsed, tracer, id, root.id(), &rec)
                       : Result<txn::TxnResult>(parsed.status());
          {
            ScopedSpan span(tracer, "net.encode", id, root.id());
            net::Response response;
            if (result.ok()) {
              net::Outcome outcome;
              outcome.committed = result->committed;
              outcome.conflict = result->conflict;
              outcome.installed = result->installed;
              outcome.commit_version = result->commit_version;
              outcome.attempts = result->attempts;
              outcome.reason = result->abort_reason;
              response.body = net::EncodeOutcome(outcome);
            } else {
              response = net::ErrorResponse(result.status());
            }
            txmod::AppendFrame(net::EncodeResponse(response), &response_frame);
          }
        }
        const int64_t e = NowNanos();
        me.obs.push_back(ObservedOf(result));
        if (i >= kServedWarmup) {
          me.request_us.push_back(Micros(e - s));
          me.stats.Add(rec.stats);
          me.statements_added += rec.statements_added;
          me.bytes += static_cast<double>(frame.size() + response_frame.size());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ExpectedState expected(args.seed);
  for (int c = 0; c < conns; ++c) {
    Conn& me = conn_out[static_cast<std::size_t>(c)];
    for (int i = 0; i < per_conn; ++i) {
      CheckOutcome(streams[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)],
                   me.obs[static_cast<std::size_t>(i)], &expected, &out->gate);
      if (i >= kServedWarmup) {
        out->measured.push_back(RequestId(c, i));
      }
    }
    out->request_us.insert(out->request_us.end(), me.request_us.begin(),
                           me.request_us.end());
    out->stats.Add(me.stats);
    out->statements_added += me.statements_added;
    out->bytes += me.bytes;
  }
  const double n = static_cast<double>(out->measured.size());
  out->statements_added /= n;
  out->bytes /= n;
  CheckState(*sys.db, expected, &out->gate);
  return 0;
}

double CacheHitRatio(const algebra::EvalStats& stats) {
  const double lookups =
      static_cast<double>(stats.plan_cache_hits + stats.plan_cache_misses);
  return lookups > 0 ? static_cast<double>(stats.plan_cache_hits) / lookups : 0;
}

/// Appends and syncs `bytes`-sized records through the default Vfs on a
/// file beside the WAL; p50 of one append + Sync.
double FsyncProbeUs(const std::string& dir, std::size_t bytes) {
  auto file = txmod::Vfs::Default()->OpenAppend(dir + "/fsync_probe");
  if (!file.ok()) return 0;
  const std::string record(std::max<std::size_t>(bytes, 1), 'r');
  std::vector<double> samples;
  for (int i = 0; i < kFsyncProbes; ++i) {
    const int64_t s = NowNanos();
    if (!txmod::WriteFullyTo(file->get(), record, "fsync probe").ok() ||
        !(*file)->Sync().ok()) {
      return 0;
    }
    samples.push_back(Micros(NowNanos() - s));
  }
  return Median(std::move(samples));
}

void Fold(const RoundResult& from, int64_t* attempted, int64_t* failed,
          std::vector<std::string>* problems) {
  *attempted += from.attempted;
  *failed += from.failed;
  problems->insert(problems->end(), from.problems.begin(), from.problems.end());
}

int TraceServed(const Args& args, std::map<std::string, double>* m,
                int64_t* attempted, int64_t* failed,
                std::vector<std::string>* problems) {
  // 1. The untraced served round for reference, then the transport.
  Args live_args = args;
  live_args.dir = args.dir + "/live";
  const Status staged = Stage(live_args);
  if (!staged.ok()) return Fail(staged.ToString());
  Tracer recovery;
  RoundResult live;
  if (ServedRound(live_args, &recovery, &live) != 0) return 1;
  Fold(live, attempted, failed, problems);
  const double live_p50 = Median(live.latencies_us);

  // 2. The server path in process, untraced then traced.
  Args plain_args = args;
  plain_args.dir = args.dir + "/plain";
  Replay plain;
  if (ReplayServed(plain_args, false, &plain) != 0) return 1;
  Fold(plain.gate, attempted, failed, problems);
  Args traced_args = args;
  traced_args.dir = args.dir + "/traced";
  Replay traced;
  if (ReplayServed(traced_args, true, &traced) != 0) return 1;
  Fold(traced.gate, attempted, failed, problems);

  SelfTimes self;
  for (const Tracer& t : traced.tracers) MergeSelfTimes(t, &self);
  const auto p50 = [&](const std::string& name) {
    return P50Over(Layer(self, name), traced.measured);
  };
  const double ping = Median(live.ping_us);
  const double decode = p50("net.decode");
  const double parse = p50("algebra.parse");
  const double begin = p50("txn.begin");
  const double modify = p50("core.modify");
  const double execute = P50Over(ExecuteMinusModify(self), traced.measured);
  const double commit = p50("txn.commit");
  const double encode = p50("net.encode");
  (*m)["net.ping_rtt_us"] = ping;
  (*m)["net.request_decode_us"] = decode;
  (*m)["net.response_encode_us"] = encode;
  (*m)["net.bytes_per_txn"] = traced.bytes;
  (*m)["net.unaccounted_us"] =
      live_p50 -
      (ping + decode + parse + begin + modify + execute + commit + encode);
  (*m)["algebra.parse_us"] = parse;
  (*m)["algebra.plan_cache_hit_ratio"] = CacheHitRatio(traced.stats);
  const double n = static_cast<double>(traced.measured.size());
  (*m)["algebra.tuples_scanned_per_txn"] =
      static_cast<double>(traced.stats.tuples_scanned) / n;
  (*m)["algebra.index_probes_per_txn"] =
      static_cast<double>(traced.stats.index_probes) / n;
  (*m)["core.modify_us"] = modify;
  (*m)["core.statements_added_per_txn"] = traced.statements_added;
  (*m)["core.define_s"] = SpanSeconds(traced.setup, "core.define");
  (*m)["txn.begin_us"] = begin;
  (*m)["txn.execute_us"] = execute;
  (*m)["txn.commit_us"] = commit;
  (*m)["txn.commits_per_fsync"] = live.commits_per_fsync;
  (*m)["txn.conflict_ratio"] = live.conflict_ratio;
  const double commits = static_cast<double>(std::max<uint64_t>(live.commits, 1));
  (*m)["vfs.fsync_us"] = FsyncProbeUs(
      live_args.dir, static_cast<std::size_t>(live.wal_bytes / commits));
  (*m)["relational.wal_bytes_per_txn"] = live.wal_bytes / commits;
  (*m)["relational.wal_bytes_per_user_byte"] =
      live.committed_user_bytes > 0 ? live.wal_bytes / live.committed_user_bytes
                                    : 0;
  (*m)["relational.checkpoint_load_s"] =
      SpanSeconds(traced.setup, "relational.checkpoint_load");
  (*m)["relational.wal_read_s"] = SpanSeconds(recovery, "relational.wal_read");
  (*m)["relational.wal_apply_s"] =
      SpanSeconds(recovery, "relational.wal_apply");
  (*m)["trace.overhead_us"] =
      Median(traced.request_us) - Median(plain.request_us);

  std::cerr << "perfbench trace served_point: untraced served p50 "
            << live_p50 << " us = ping " << ping << " + decode " << decode
            << " + parse " << parse << " + begin " << begin << " + modify "
            << modify << " + execute " << execute << " + commit " << commit
            << " + encode " << encode << " + unaccounted "
            << (*m)["net.unaccounted_us"] << "; in-process replay p50 "
            << Median(plain.request_us) << " us untraced, "
            << Median(traced.request_us) << " us traced\n";
  for (const Tracer& t : traced.tracers) {
    WriteSpans(t.spans(), StrCat(args.dir, "/spans-", &t - &traced.tracers[0],
                                 ".jsonl"));
  }
  return 0;
}

/// One in-process pass of bulk_enforce or parallel_enforce.
struct Pass {
  Tracer setup;
  Tracer txns;
  Tracer recovery;
  std::vector<TxnRecord> records;
  double wal_bytes = 0;
  RoundResult gate;
};

int RunPass(const Args& args, bool traced, Pass* out) {
  const Status staged = Stage(args);
  if (!staged.ok()) return Fail(staged.ToString());
  System sys;
  const Status st = SetUp(args, traced ? &out->setup : nullptr, &sys);
  if (!st.ok()) return Fail("set-up: " + st.ToString());
  std::error_code ec;
  const auto wal_before = fs::file_size(sys.options.wal_path, ec);
  out->records = RunCycles(&sys, args, traced ? &out->txns : nullptr);
  const auto wal_after = fs::file_size(sys.options.wal_path, ec);
  out->wal_bytes = static_cast<double>(wal_after - wal_before);

  ExpectedState expected(args.seed);
  CheckRecords(args, out->records, &expected, &out->gate);
  if (IsParallel(args.workload)) {
    CheckState(sys.pdb->Merge(), expected, &out->gate);
  } else {
    Result<Database> recovered =
        Recover(sys.options, traced ? &out->recovery : nullptr);
    if (!recovered.ok()) {
      out->gate.problems.push_back("recovery failed: " +
                                   recovered.status().ToString());
    } else {
      CheckState(*recovered, expected, &out->gate);
    }
  }
  return 0;
}

int TraceInProcess(const Args& args, std::map<std::string, double>* m,
                   int64_t* attempted, int64_t* failed,
                   std::vector<std::string>* problems) {
  Args plain_args = args;
  plain_args.dir = args.dir + "/plain";
  Pass plain;
  if (RunPass(plain_args, false, &plain) != 0) return 1;
  Fold(plain.gate, attempted, failed, problems);
  Args traced_args = args;
  traced_args.dir = args.dir + "/traced";
  Pass traced;
  if (RunPass(traced_args, true, &traced) != 0) return 1;
  Fold(traced.gate, attempted, failed, problems);

  // The simulated makespan is a function of the transactions alone.
  for (std::size_t i = 0;
       i < plain.records.size() && i < traced.records.size(); ++i) {
    if (plain.records[i].par_sim_us != traced.records[i].par_sim_us) {
      problems->push_back(StrCat(
          "parallel.sim_makespan_us did not repeat for transaction ", i + 1,
          ": ", plain.records[i].par_sim_us, " then ",
          traced.records[i].par_sim_us));
      break;
    }
  }

  SelfTimes self;
  MergeSelfTimes(traced.txns, &self);
  std::vector<uint64_t> measured;
  algebra::EvalStats stats;
  double statements_added = 0;
  double user_bytes = 0;
  double commits = 0;
  std::vector<double> par_wall;
  double exec_cpu_us = 0;
  double exec_wall_us = 0;
  double batches = 0;
  double transferred = 0;
  double sim_us = 0;
  uint64_t id = 1;
  std::size_t next = 0;
  for (int cycle = 0; cycle < TotalCycles(); ++cycle) {
    for (const TxnSpec& spec : MakeBulkCycle(args.seed, cycle)) {
      const TxnRecord& rec = traced.records[next++];
      if (rec.obs.committed) {
        user_bytes += static_cast<double>(spec.user_bytes);
        ++commits;
      }
      if (cycle >= kWarmupCycles) {
        measured.push_back(id);
        stats.Add(rec.stats);
        statements_added += rec.statements_added;
        par_wall.push_back(rec.par_wall_us);
        exec_cpu_us += static_cast<double>(rec.exec_cpu_us);
        exec_wall_us += Micros(rec.exec_wall_ns);
        batches += static_cast<double>(rec.par_batches);
        transferred += static_cast<double>(rec.par_transferred);
        sim_us += rec.par_sim_us;
      }
      ++id;
    }
  }
  const double n = static_cast<double>(measured.size());
  const auto latencies = [](const Pass& pass) {
    std::vector<double> out;
    for (const TxnRecord& rec : pass.records) {
      if (rec.cycle >= kWarmupCycles) out.push_back(Micros(rec.latency_ns));
    }
    return out;
  };
  (*m)["algebra.plan_cache_hit_ratio"] = CacheHitRatio(stats);
  (*m)["algebra.tuples_scanned_per_txn"] =
      static_cast<double>(stats.tuples_scanned) / n;
  (*m)["algebra.index_probes_per_txn"] =
      static_cast<double>(stats.index_probes) / n;
  (*m)["core.modify_us"] = P50Over(Layer(self, "core.modify"), measured);
  (*m)["core.statements_added_per_txn"] = statements_added / n;
  (*m)["core.define_s"] = SpanSeconds(traced.setup, "core.define");
  (*m)["relational.checkpoint_load_s"] =
      SpanSeconds(traced.setup, "relational.checkpoint_load");
  (*m)["trace.overhead_us"] =
      Median(latencies(traced)) - Median(latencies(plain));
  if (IsParallel(args.workload)) {
    (*m)["parallel.execute_wall_us"] = Median(par_wall);
    (*m)["parallel.cpu_per_wall"] =
        exec_wall_us > 0 ? exec_cpu_us / exec_wall_us : 0;
    (*m)["parallel.exchange_batches_per_txn"] = batches / n;
    (*m)["parallel.tuples_transferred_per_txn"] = transferred / n;
    (*m)["parallel.sim_makespan_us"] = sim_us / n;
  } else {
    (*m)["txn.begin_us"] = P50Over(Layer(self, "txn.begin"), measured);
    (*m)["txn.execute_us"] = P50Over(ExecuteMinusModify(self), measured);
    (*m)["txn.commit_us"] = P50Over(Layer(self, "txn.commit"), measured);
    (*m)["relational.wal_bytes_per_txn"] =
        commits > 0 ? traced.wal_bytes / commits : 0;
    (*m)["relational.wal_bytes_per_user_byte"] =
        user_bytes > 0 ? traced.wal_bytes / user_bytes : 0;
    (*m)["relational.wal_read_s"] =
        SpanSeconds(traced.recovery, "relational.wal_read");
    (*m)["relational.wal_apply_s"] =
        SpanSeconds(traced.recovery, "relational.wal_apply");
  }
  WriteSpans(traced.txns.spans(), args.dir + "/spans.jsonl");
  return 0;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "served_point" || name == "bulk_enforce" ||
         name == "parallel_enforce";
}

int Prepare(const Args& args) {
  const Status st =
      txmod::CheckpointDatabaseToFile(MakeInitialState(args.seed),
                                      args.checkpoint);
  return st.ok() ? 0 : Fail("prepare: " + st.ToString());
}

int RunSystem(const Args& args) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != args.parent_pid) return 1;  // coordinator already gone
  // Never destroyed: the coordinator stops this process with SIGKILL.
  auto* sys = new System;
  const Status st = SetUp(args, nullptr, sys);
  if (!st.ok()) {
    Notify(args.notify_fd, "error " + st.ToString());
    return 1;
  }
  Notify(args.notify_fd,
         StrCat("ready ", sys->server != nullptr ? sys->server->port() : 0));
  if (!IsServed(args.workload)) {
    const std::vector<TxnRecord> records = RunCycles(sys, args, nullptr);
    // Taken before the benchmark's own work below (the merged copy of the
    // partitions and its checkpoint) can raise it.
    const long peak_rss_kb = PeakRssKb("self");
    WriteRecords(records, args.dir + "/records.txt");
    if (IsParallel(args.workload)) {
      const Status saved = txmod::CheckpointDatabaseToFile(
          sys->pdb->Merge(), FinalStateOptions(args.dir).checkpoint_path);
      if (!saved.ok()) {
        Notify(args.notify_fd, "error " + saved.ToString());
        return 1;
      }
    }
    Notify(args.notify_fd, StrCat("done ", peak_rss_kb));
  }
  for (;;) ::pause();
}

int RunRounds(const Args& args) {
  std::vector<RoundSamples> rounds;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  const int64_t run_start = NowNanos();
  for (int r = 0; r < args.rounds; ++r) {
    if (r >= 3 && Seconds(NowNanos() - run_start) > args.max_seconds) {
      std::cerr << "perfbench: stopped after " << r << " of " << args.rounds
                << " rounds: --max-seconds " << args.max_seconds
                << " passed (the host is much slower than usual)\n";
      break;
    }
    const int64_t start = NowNanos();
    const Status staged = Stage(args);
    if (!staged.ok()) return Fail(staged.ToString());
    RoundResult res;
    const int rc = IsServed(args.workload) ? ServedRound(args, nullptr, &res)
                                           : InProcessRound(args, &res);
    if (rc != 0) return rc;
    attempted += res.attempted;
    failed += res.failed;
    correct = correct && Correct(res);
    if (!res.problems.empty() || !res.failures.empty()) {
      std::cerr << "perfbench: round " << r + 1 << ": "
                << Join(res.problems) << " failed: " << Join(res.failures)
                << "\n";
    }
    std::cerr << "perfbench: round " << r + 1 << ": p50 "
              << Median(res.latencies_us) << " us, setup "
              << res.samples.setup_s << " s, recover " << res.samples.recover_s
              << " s, measured " << res.measured_s << " of "
              << Seconds(NowNanos() - start) << " s\n";
    rounds.push_back(std::move(res.samples));
  }
  const EndToEnd e = Fold(rounds);
  PrintResult(correct, attempted, failed,
              {{"txn_p50_us", e.txn_p50_us, "us"},
               {"txn_p90_us", e.txn_p90_us, "us"},
               {"throughput_tps", e.throughput_tps, "1/s"},
               {"cpu_us_per_txn", e.cpu_us_per_txn, "us"},
               {"setup_s", e.setup_s, "s"},
               {"peak_rss_mb", e.peak_rss_mb, "MB"},
               {"recover_s", e.recover_s, "s"}});
  return 0;
}

int RunTrace(const Args& args) {
  std::map<std::string, double> m;
  for (const auto& metric : LayerMetrics()) m[metric.first] = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  if (IsServed(args.workload)) {
    if (TraceServed(args, &m, &attempted, &failed, &problems) != 0) return 1;
  } else {
    std::map<std::string, double> served_metrics;
    if (args.workload == "bulk_enforce") {
      // served_point is not a gated workload (see README.md), so
      // bulk_enforce's traced run also traces the served path and reports
      // the metrics that only the served path measures.
      Args served = args;
      served.workload = "served_point";
      served.dir = args.dir + "/served";
      std::map<std::string, double> sm = m;
      if (TraceServed(served, &sm, &attempted, &failed, &problems) != 0) {
        return 1;
      }
      for (const char* name :
           {"net.ping_rtt_us", "net.request_decode_us",
            "net.response_encode_us", "net.bytes_per_txn",
            "net.unaccounted_us", "algebra.parse_us",
            "algebra.plan_cache_hit_ratio", "core.modify_us",
            "core.statements_added_per_txn", "txn.begin_us",
            "txn.commits_per_fsync", "txn.conflict_ratio", "vfs.fsync_us"}) {
        served_metrics[name] = sm[name];
      }
      for (const auto& entry : fs::directory_iterator(served.dir)) {
        if (entry.path().extension() == ".jsonl") {
          std::error_code ec;
          fs::rename(entry.path(),
                     args.dir + "/served-" + entry.path().filename().string(),
                     ec);
        }
      }
    }
    if (TraceInProcess(args, &m, &attempted, &failed, &problems) != 0) {
      return 1;
    }
    for (const auto& [name, value] : served_metrics) m[name] = value;
  }
  if (!problems.empty()) std::cerr << "perfbench: " << Join(problems) << "\n";
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerMetrics()) {
    metrics.emplace_back(name, m[name], unit);
  }
  PrintResult(problems.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

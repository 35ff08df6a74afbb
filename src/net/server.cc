#include "src/net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/str_util.h"
#include "src/relational/persist.h"

namespace txmod::net {

namespace {

/// Trims ASCII whitespace from both ends (verb bodies arrive as raw
/// frame text; `show fk_rel\n` must name the same relation as `show
/// fk_rel`).
std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

Result<int64_t> ParseI64(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty number");
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return Status::InvalidArgument(StrCat("bad number: '", text, "'"));
  }
  return static_cast<int64_t>(v);
}

Outcome OutcomeFromResult(const txn::TxnResult& result) {
  Outcome outcome;
  outcome.committed = result.committed;
  outcome.conflict = result.conflict;
  outcome.installed = result.installed;
  outcome.commit_version = result.commit_version;
  outcome.attempts = result.attempts;
  outcome.reason = result.abort_reason;
  return outcome;
}

Response OkResponse(std::string body) {
  Response response;
  response.body = std::move(body);
  return response;
}

/// RAII commit-budget slot (see ServerOptions::max_inflight_commits).
class CommitSlot {
 public:
  CommitSlot(std::atomic<int>* inflight, int budget)
      : inflight_(inflight) {
    if (budget <= 0) {
      acquired_ = true;
      counted_ = false;
      return;
    }
    int cur = inflight_->load(std::memory_order_relaxed);
    while (cur < budget) {
      if (inflight_->compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_acq_rel)) {
        acquired_ = true;
        counted_ = true;
        return;
      }
    }
  }
  ~CommitSlot() {
    if (counted_) inflight_->fetch_sub(1, std::memory_order_acq_rel);
  }
  CommitSlot(const CommitSlot&) = delete;
  CommitSlot& operator=(const CommitSlot&) = delete;

  bool acquired() const { return acquired_; }

 private:
  std::atomic<int>* inflight_;
  bool acquired_ = false;
  bool counted_ = false;
};

}  // namespace

Server::Server(txn::TxnManager* manager, ServerOptions options)
    : manager_(manager), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  TXMOD_ASSIGN_OR_RETURN(
      listener_,
      ListenTcp(options_.host, options_.port, /*backlog=*/128, &port_));
  const int num_workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      Stop();
      return Status::Internal(StrCat("pipe(): ", std::strerror(errno)));
    }
    worker->wake_read = pipe_fds[0];
    worker->wake_write = pipe_fds[1];
    workers_.push_back(std::move(worker));
  }
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(w); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) {
    // A failed Start() may still have allocated worker pipes.
    for (auto& worker : workers_) {
      if (worker->wake_read >= 0) ::close(worker->wake_read);
      if (worker->wake_write >= 0) ::close(worker->wake_write);
    }
    workers_.clear();
    listener_.Close();
    return;
  }
  stopping_.store(true, std::memory_order_release);
  // shutdown() pops the acceptor out of accept() (EINVAL); the fd itself
  // is closed only after the join, because AcceptLoop reads listener_.fd()
  // every iteration and Close() mutates it.
  ::shutdown(listener_.fd(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  for (auto& worker : workers_) {
    Wake(worker.get());
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    // The worker closed its connections (aborting open sessions) on the
    // way out; only the pipe remains.
    ::close(worker->wake_read);
    ::close(worker->wake_write);
  }
  workers_.clear();
  started_ = false;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_closed = connections_closed_.load();
  s.requests = requests_.load();
  s.commits_acked = commits_acked_.load();
  s.backpressure_rejections = backpressure_rejections_.load();
  s.protocol_errors = protocol_errors_.load();
  s.inflight_commits = inflight_commits_.load();
  return s;
}

void Server::AcceptLoop() {
  std::size_t next = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener closed (Stop) or a transient accept failure on a
      // connection that died in the backlog; only the former ends us.
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == ECONNABORTED) continue;
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // Deterministic round-robin pinning by accept order.
    Worker* worker = workers_[next % workers_.size()].get();
    ++next;
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->incoming.push_back(fd);
    }
    Wake(worker);
  }
}

void Server::Wake(Worker* worker) {
  const char byte = 0;
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(worker->wake_write, &byte, 1);
}

void Server::WorkerLoop(Worker* worker) {
  std::vector<pollfd> pfds;
  std::vector<int> fds;  // pfds[i+1] is connection fds[i]
  for (;;) {
    pfds.clear();
    fds.clear();
    pfds.push_back({worker->wake_read, POLLIN, 0});
    for (const auto& [fd, conn] : worker->conns) {
      pfds.push_back({fd, POLLIN, 0});
      fds.push_back(fd);
    }
    const int rc = ::poll(pfds.data(), pfds.size(), /*timeout=*/-1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[0].revents != 0) {
      char drain[64];
      while (::read(worker->wake_read, drain, sizeof(drain)) ==
             static_cast<ssize_t>(sizeof(drain))) {
      }
      std::vector<int> adopted;
      {
        std::lock_guard<std::mutex> lock(worker->mu);
        adopted.swap(worker->incoming);
      }
      for (const int fd : adopted) {
        Connection conn;
        conn.sock = Socket(fd);
        worker->conns.emplace(fd, std::move(conn));
      }
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (pfds[i + 1].revents == 0) continue;
      auto it = worker->conns.find(fds[i]);
      if (it == worker->conns.end()) continue;
      if (!HandleReadable(&it->second)) {
        worker->conns.erase(it);  // closes the socket, aborts the session
        connections_closed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Shutdown: drop every connection; Connection destructors close the
  // sockets and TxnSession destructors abort open sessions.
  connections_closed_.fetch_add(worker->conns.size(),
                                std::memory_order_relaxed);
  worker->conns.clear();
}

bool Server::HandleReadable(Connection* conn) {
  char buf[65536];
  const ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
  if (n < 0) {
    return errno == EINTR;  // anything else: drop the connection
  }
  if (n == 0) {
    return false;  // peer closed
  }
  conn->inbuf.append(buf, static_cast<std::size_t>(n));
  std::size_t offset = 0;
  bool keep = true;
  std::string payload;
  std::size_t consumed = 0;
  while (keep) {
    const FrameDecode decoded = TryDecodeFrame(
        conn->inbuf, offset, options_.max_frame_payload, &payload, &consumed);
    if (decoded == FrameDecode::kNeedMore) break;
    if (decoded == FrameDecode::kTooLarge) {
      // The stream cannot be resynchronized past an over-limit frame;
      // answer with the error, then drop the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      // Best effort: the connection is being dropped either way.
      (void)SendFrame(conn->sock.fd(),
                      EncodeResponse(ErrorResponse(Status::InvalidArgument(
                          StrCat("frame exceeds the ",
                                 options_.max_frame_payload,
                                 "-byte payload limit")))));
      keep = false;
      break;
    }
    offset += consumed;
    requests_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    Result<Request> request = DecodeRequest(payload);
    if (!request.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      response = ErrorResponse(request.status());
    } else {
      response = HandleRequest(conn, *request);
    }
    if (!SendFrame(conn->sock.fd(), EncodeResponse(response)).ok()) {
      keep = false;
    }
  }
  conn->inbuf.erase(0, offset);
  return keep;
}

Response Server::HandleRequest(Connection* conn, const Request& request) {
  switch (request.verb) {
    case Verb::kPing:
      return OkResponse("");
    case Verb::kBegin: {
      if (conn->session != nullptr) {
        return ErrorResponse(Status::FailedPrecondition(
            "a session is already open on this connection"));
      }
      conn->session = manager_->Begin();
      return OkResponse(StrCat("version=", conn->session->snapshot_version(),
                               "\n"));
    }
    case Verb::kExecute: {
      if (conn->session == nullptr) {
        return ErrorResponse(
            Status::FailedPrecondition("no open session; send `begin` first"));
      }
      Result<txn::TxnResult> executed =
          conn->session->ExecuteText(request.body);
      if (!executed.ok()) {
        // Malformed program or dead session: the session is finished.
        conn->session.reset();
        return ErrorResponse(executed.status());
      }
      return OkResponse(EncodeOutcome(OutcomeFromResult(*executed)));
    }
    case Verb::kCommit:
    case Verb::kRun:
      return HandleCommitCarrying(conn, request);
    case Verb::kAbort: {
      if (conn->session == nullptr) {
        return ErrorResponse(
            Status::FailedPrecondition("no open session; send `begin` first"));
      }
      conn->session->Abort();
      conn->session.reset();
      return OkResponse("");
    }
    case Verb::kShow:
      return HandleShow(Trim(request.body));
    case Verb::kPolicy:
      return HandlePolicy(conn, request.body);
    case Verb::kStats:
      return HandleStats();
  }
  return ErrorResponse(Status::Internal("unhandled verb"));
}

Response Server::HandleCommitCarrying(Connection* conn,
                                      const Request& request) {
  if (request.verb == Verb::kCommit && conn->session == nullptr) {
    return ErrorResponse(
        Status::FailedPrecondition("no open session; send `begin` first"));
  }
  CommitSlot slot(&inflight_commits_, options_.max_inflight_commits);
  if (!slot.acquired()) {
    backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(Status::Unavailable(StrCat(
        "commit budget saturated (", options_.max_inflight_commits,
        " in flight); retry after backoff")));
  }
  Result<txn::TxnResult> result = Status::Internal("unreachable");
  if (request.verb == Verb::kCommit) {
    result = conn->session->Commit();
    conn->session.reset();  // Commit always finishes the session
  } else {
    result = manager_->RunText(request.body, conn->policy);
  }
  if (!result.ok()) {
    return ErrorResponse(result.status());
  }
  if (result->committed) {
    commits_acked_.fetch_add(1, std::memory_order_relaxed);
  }
  return OkResponse(EncodeOutcome(OutcomeFromResult(*result)));
}

Response Server::HandleShow(const std::string& relation_name) {
  // A fresh session pins a committed snapshot; reading through it keeps
  // `show` consistent without touching the commit path.
  std::unique_ptr<txn::TxnSession> session = manager_->Begin();
  Result<const Relation*> relation =
      session->snapshot().Find(relation_name);
  if (!relation.ok()) {
    session->Abort();
    return ErrorResponse(relation.status());
  }
  std::string body;
  for (const Tuple& tuple : (*relation)->SortedTuples()) {
    for (std::size_t i = 0; i < tuple.arity(); ++i) {
      if (i > 0) body += ' ';
      AppendValueText(tuple.at(i), &body);
    }
    body += '\n';
  }
  session->Abort();
  return OkResponse(std::move(body));
}

Response Server::HandlePolicy(Connection* conn, const std::string& body) {
  Result<std::map<std::string, std::string>> kv = DecodeKeyValues(body);
  if (!kv.ok()) return ErrorResponse(kv.status());
  txn::RunPolicy policy = conn->policy;
  for (const auto& [key, value] : *kv) {
    Result<int64_t> parsed = ParseI64(value);
    if (!parsed.ok()) {
      return ErrorResponse(Status::InvalidArgument(
          StrCat("policy field ", key, ": ", parsed.status().message())));
    }
    if (key == "deadline_micros") {
      if (*parsed < 0) {
        return ErrorResponse(
            Status::InvalidArgument("deadline_micros must be >= 0"));
      }
      policy.run_timeout_micros = *parsed;
    } else if (key == "max_attempts") {
      constexpr int64_t kMost = std::numeric_limits<int>::max();
      if (*parsed < 1 || *parsed > kMost) {
        return ErrorResponse(Status::InvalidArgument(
            StrCat("max_attempts must be >= 1 and <= ", kMost)));
      }
      policy.max_attempts = static_cast<int>(*parsed);
    } else if (key == "backoff_initial_micros") {
      if (*parsed < 0) {
        return ErrorResponse(
            Status::InvalidArgument("backoff_initial_micros must be >= 0"));
      }
      policy.retry_backoff_initial_micros = *parsed;
    } else if (key == "backoff_max_micros") {
      if (*parsed < 0) {
        return ErrorResponse(
            Status::InvalidArgument("backoff_max_micros must be >= 0"));
      }
      policy.retry_backoff_max_micros = *parsed;
    } else {
      return ErrorResponse(
          Status::InvalidArgument(StrCat("unknown policy field '", key, "'")));
    }
  }
  conn->policy = policy;
  return OkResponse("");
}

Response Server::HandleStats() {
  const txn::TxnManagerStats txn_stats = manager_->stats();
  const ServerStats server_stats = stats();
  std::map<std::string, std::string> kv;
  kv["txn.commits"] = StrCat(txn_stats.commits);
  kv["txn.readonly_commits"] = StrCat(txn_stats.readonly_commits);
  kv["txn.conflicts"] = StrCat(txn_stats.conflicts);
  kv["txn.integrity_aborts"] = StrCat(txn_stats.integrity_aborts);
  kv["txn.retries"] = StrCat(txn_stats.retries);
  kv["txn.backoff_sleeps"] = StrCat(txn_stats.backoff_sleeps);
  kv["txn.deadlines_exceeded"] = StrCat(txn_stats.deadlines_exceeded);
  kv["txn.wal_appends"] = StrCat(txn_stats.wal_appends);
  kv["txn.wal_fsyncs"] = StrCat(txn_stats.wal_fsyncs);
  kv["txn.checkpoints"] = StrCat(txn_stats.checkpoints);
  kv["txn.wal_failures"] = StrCat(txn_stats.wal_failures);
  kv["txn.wal_reopens"] = StrCat(txn_stats.wal_reopens);
  kv["txn.unavailable_rejections"] = StrCat(txn_stats.unavailable_rejections);
  kv["txn.validation_records"] = StrCat(txn_stats.validation_records);
  kv["txn.validation_tuples"] = StrCat(txn_stats.validation_tuples);
  kv["txn.degraded"] = txn_stats.degraded ? "1" : "0";
  kv["server.connections_accepted"] = StrCat(server_stats.connections_accepted);
  kv["server.connections_closed"] = StrCat(server_stats.connections_closed);
  kv["server.requests"] = StrCat(server_stats.requests);
  kv["server.commits_acked"] = StrCat(server_stats.commits_acked);
  kv["server.backpressure_rejections"] =
      StrCat(server_stats.backpressure_rejections);
  kv["server.protocol_errors"] = StrCat(server_stats.protocol_errors);
  kv["server.inflight_commits"] = StrCat(server_stats.inflight_commits);
  return OkResponse(EncodeKeyValues(kv));
}

}  // namespace txmod::net

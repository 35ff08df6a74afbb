#ifndef TXMOD_NET_SERVER_H_
#define TXMOD_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/frame.h"
#include "src/common/result.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/txn/txn_manager.h"

namespace txmod::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the actual one.
  uint16_t port = 0;
  /// Event-loop worker threads. Connections are assigned round-robin in
  /// accept order and stay pinned to their worker for life (a TxnSession
  /// is single-threaded; pinning makes the contract structural).
  int num_workers = 2;
  /// Per-frame payload ceiling; an over-limit frame is a protocol error
  /// that closes the connection (the stream cannot be resynchronized).
  std::size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Admission control: commit-carrying requests (commit/run) admitted
  /// concurrently. A request over budget is refused immediately with
  /// kUnavailable — explicit backpressure, never a queue or a hang.
  /// <= 0 disables the budget.
  int max_inflight_commits = 64;
};

/// Monotonic counters (plus one gauge) since Start().
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t requests = 0;
  /// Commit/run requests whose response acknowledged a durable commit.
  uint64_t commits_acked = 0;
  /// Commit/run requests refused by the admission budget.
  uint64_t backpressure_rejections = 0;
  /// Frames that failed to decode (bad verb, over-limit, truncated).
  uint64_t protocol_errors = 0;
  /// Gauge: commit-carrying requests in flight right now.
  int inflight_commits = 0;
};

/// The network face of one TxnManager: accepts framed-protocol
/// connections (src/net/protocol.h) and multiplexes them onto
/// txn::TxnSessions across a small pool of poll()-based event-loop
/// workers.
///
/// Threading: one acceptor thread plus num_workers event loops. Each
/// connection lives entirely on one worker — its reads, its session,
/// and its response writes — so no per-connection locking exists.
/// Responses are written synchronously from the worker; a commit's
/// group-commit fsync therefore blocks that worker's loop, which is the
/// intended admission unit (budget + workers bound total commit
/// concurrency).
///
/// Shutdown: Stop() closes the listener, wakes every worker, closes all
/// live connections (open sessions abort), and joins the threads. Every
/// response written before Stop() is an honored acknowledgment: acked
/// commits are durable per the manager's group-commit contract and
/// survive recovery.
class Server {
 public:
  /// `manager` must outlive the server.
  Server(txn::TxnManager* manager, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  /// Idempotent; safe to call without a successful Start().
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  ServerStats stats() const;

 private:
  struct Connection {
    Socket sock;
    std::string inbuf;
    std::unique_ptr<txn::TxnSession> session;
    /// RunPolicy{} until the client's `policy` verb sets its own.
    txn::RunPolicy policy;
  };

  struct Worker {
    std::thread thread;
    int wake_read = -1;
    int wake_write = -1;
    std::mutex mu;
    std::vector<int> incoming;  // accepted fds awaiting adoption
    // Owned and touched only by the worker thread after adoption.
    std::map<int, Connection> conns;
  };

  void AcceptLoop();
  void WorkerLoop(Worker* worker);
  void Wake(Worker* worker);
  /// Drains readable bytes + completed frames; false => close connection.
  bool HandleReadable(Connection* conn);
  Response HandleRequest(Connection* conn, const Request& request);
  Response HandleCommitCarrying(Connection* conn, const Request& request);
  Response HandleShow(const std::string& relation_name);
  Response HandlePolicy(Connection* conn, const std::string& body);
  Response HandleStats();

  txn::TxnManager* const manager_;
  const ServerOptions options_;

  Socket listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::atomic<int> inflight_commits_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> commits_acked_{0};
  std::atomic<uint64_t> backpressure_rejections_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace txmod::net

#endif  // TXMOD_NET_SERVER_H_

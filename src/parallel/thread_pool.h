#ifndef TXMOD_PARALLEL_THREAD_POOL_H_
#define TXMOD_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace txmod::parallel {

/// Runs a list of tasks on N persistent threads plus the caller: the
/// parallel runtime's one piece of concurrency. The executor hands it one
/// task per node for each kernel and aggregate phase.
///
/// The caller of Run takes tasks too, so a pool of 0 threads runs every
/// task inline. Concurrent Run callers take turns; a task must not call
/// Run on its own pool.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool threads (the Run caller participates on top of these).
  std::size_t workers() const { return threads_.size(); }

  /// Runs task(0), ..., task(count - 1), each exactly once, and returns
  /// when every one has finished. `task` must not throw.
  void Run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Process-wide pool of std::thread::hardware_concurrency() workers
  /// (floor 1), built on first use and shared by every executor that does
  /// not size its own.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();
  /// Takes and runs tasks of the current Run until none is left to take.
  /// Called and returns with `lock` held on mu_.
  void RunTasks(std::unique_lock<std::mutex>* lock);

  std::mutex run_mu_;  // serializes concurrent Run callers
  std::mutex mu_;      // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;    // tasks of the current Run
  std::size_t next_ = 0;     // the next task to take
  std::size_t running_ = 0;  // tasks taken but not finished
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_THREAD_POOL_H_

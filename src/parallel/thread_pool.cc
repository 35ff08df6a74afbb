#include "src/parallel/thread_pool.h"

#include <algorithm>

namespace txmod::parallel {

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || next_ < count_; });
    if (stop_) return;
    RunTasks(&lock);
  }
}

void ThreadPool::RunTasks(std::unique_lock<std::mutex>* lock) {
  while (next_ < count_) {
    const std::size_t i = next_++;
    ++running_;
    lock->unlock();
    (*task_)(i);
    lock->lock();
    if (--running_ == 0 && next_ == count_) done_cv_.notify_all();
  }
}

void ThreadPool::Run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  std::lock_guard<std::mutex> run_lock(run_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  task_ = &task;
  count_ = count;
  next_ = 0;
  work_cv_.notify_all();
  RunTasks(&lock);
  done_cv_.wait(lock, [&] { return running_ == 0; });
  task_ = nullptr;
  count_ = 0;
}

}  // namespace txmod::parallel

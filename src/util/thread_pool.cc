#include "util/thread_pool.h"

#include <chrono>
#include <utility>

namespace distperm {
namespace util {

ThreadPool::ThreadPool(size_t thread_count) {
  if (thread_count == 0) thread_count = 1;
  workers_.reserve(thread_count);
  for (size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (instruments_.tasks_submitted != nullptr) {
    instruments_.tasks_submitted->Increment();
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!queue_.empty()) RunFront(lock);
  all_idle_.wait(lock,
                 [this]() { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_ready_.wait(lock,
                     [this]() { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with no work left
    RunFront(lock);
  }
}

void ThreadPool::RunFront(std::unique_lock<std::mutex>& lock) {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  lock.unlock();
  if (instruments_.task_seconds != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    task();
    instruments_.task_seconds->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  } else {
    task();
  }
  task = nullptr;  // the task's captures die outside the lock
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (instruments_.tasks_executed != nullptr) {
    instruments_.tasks_executed->Increment();
  }
  lock.lock();
  --in_flight_;
  if (queue_.empty() && in_flight_ == 0) all_idle_.notify_all();
}

}  // namespace util
}  // namespace distperm

// ccmm/util/ring_buffer.hpp
//
// BoundedChannel: the bounded work queue between ccmm_serve's socket
// shards and their kernel threads.
//
// The implementation is deliberately a mutex + two condvars, not a
// lock-free queue: items are coarse (whole event batches), so the
// channel is hit rarely next to the kernel work — but the blocking
// semantics (refusal when full, close() draining) have to be exactly
// right.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace ccmm {

/// Bounded multi-producer single-consumer channel, the work queue
/// between ccmm_serve's socket shards and their kernel thread.
/// Producers must be able to REFUSE work instead of blocking — an
/// event-loop thread that blocks on a full queue stalls every session
/// on that shard — so the non-blocking try_push is the
/// primary producer API; the socket layer translates `false` into
/// dropping EPOLLIN interest for the offending session (backpressure
/// lands on the client's socket buffer, where TCP/UDS flow control
/// already knows how to handle it).
template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Producer: enqueue unless the channel is full or closed. Never
  /// blocks; returns false when the item was NOT taken.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Producer: enqueue, blocking while full (used by non-event-loop
  /// producers — tests, the stress harness). False iff closed.
  bool push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Consumer: dequeue the oldest item, blocking until one arrives.
  /// False when the channel is closed and drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.erase(items_.begin());
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Consumer: dequeue without blocking. False when nothing is ready
  /// (closed or merely empty — check closed() to distinguish).
  bool try_pop(T& out) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.erase(items_.begin());
    }
    not_full_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  std::vector<T> items_;  // FIFO; coarse items, so O(n) pop-front is fine
  bool closed_ = false;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
};

}  // namespace ccmm

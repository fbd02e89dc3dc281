/// \file event_loop.h
/// \brief Portable readiness event loop over poll(2).
///
/// One thread runs the loop; every registered fd has an interest mask
/// and a callback invoked with the ready events. Cross-thread
/// interaction goes through RunInLoop — a task queue drained on the
/// loop thread after a self-pipe wakeup — so fd registration and
/// connection state never need locks (the libsxe idiom: a small
/// portable poller driving per-connection state machines, with all
/// descriptor mutation confined to the loop thread).
///
/// \ingroup kathdb_net

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace kathdb::net {

/// Interest / readiness bits.
enum : uint32_t {
  kEventRead = 1u << 0,
  kEventWrite = 1u << 1,
};

/// \brief N fds, one loop thread, a cross-thread task queue.
class EventLoop {
 public:
  using EventFn = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with the given interest mask. Loop-thread only
  /// (or before Run starts).
  Status Add(int fd, uint32_t interest, EventFn fn);

  /// Updates the interest mask of a registered fd. Loop-thread only.
  Status SetInterest(int fd, uint32_t interest);

  /// Deregisters `fd` (the caller closes it). Loop-thread only.
  void Remove(int fd);

  /// Runs until Stop(); dispatches fd events and RunInLoop tasks.
  void Run();

  /// Thread-safe: makes Run return after the current iteration.
  void Stop();

  /// Thread-safe: queues `task` for execution on the loop thread and
  /// wakes the loop. Tasks queued after Stop are never executed.
  void RunInLoop(std::function<void()> task) KATHDB_EXCLUDES(tasks_mu_);

 private:
  void Wakeup();
  void DispatchTasks() KATHDB_EXCLUDES(tasks_mu_);
  void PollOnce();
  void Dispatch(int fd, uint32_t events);

  struct Entry {
    uint32_t interest;
    EventFn fn;
  };

  int wake_pipe_[2] = {-1, -1};
  std::map<int, Entry> entries_;  ///< loop thread only
  std::atomic<bool> stop_{false};
  common::Mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_ KATHDB_GUARDED_BY(tasks_mu_);
};

}  // namespace kathdb::net

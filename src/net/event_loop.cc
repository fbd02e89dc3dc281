#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <utility>

namespace kathdb::net {

namespace {
void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}
}  // namespace

EventLoop::EventLoop() {
  if (::pipe(wake_pipe_) == 0) {
    SetNonBlocking(wake_pipe_[0]);
    SetNonBlocking(wake_pipe_[1]);
  }
}

EventLoop::~EventLoop() {
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status EventLoop::Add(int fd, uint32_t interest, EventFn fn) {
  if (entries_.count(fd) > 0) {
    return Status::AlreadyExists("fd " + std::to_string(fd) +
                                 " already registered");
  }
  entries_[fd] = Entry{interest, std::move(fn)};
  return Status::OK();
}

Status EventLoop::SetInterest(int fd, uint32_t interest) {
  auto it = entries_.find(fd);
  if (it == entries_.end()) {
    return Status::NotFound("fd " + std::to_string(fd) + " not registered");
  }
  it->second.interest = interest;
  return Status::OK();
}

void EventLoop::Remove(int fd) { entries_.erase(fd); }

void EventLoop::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    PollOnce();
    DispatchTasks();
  }
  // A final drain so tasks queued right before Stop still run.
  DispatchTasks();
}

void EventLoop::PollOnce() {
  std::vector<struct pollfd> fds;
  fds.reserve(entries_.size() + 1);
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  for (const auto& [fd, entry] : entries_) {
    short events = 0;
    if (entry.interest & kEventRead) events |= POLLIN;
    if (entry.interest & kEventWrite) events |= POLLOUT;
    fds.push_back({fd, events, 0});
  }
  int n = ::poll(fds.data(), fds.size(), -1);
  if (n <= 0) return;  // EINTR
  if (fds[0].revents & POLLIN) {
    char buf[256];
    while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }
  }
  for (size_t i = 1; i < fds.size(); ++i) {
    uint32_t ev = 0;
    if (fds[i].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) {
      ev |= kEventRead;
    }
    if (fds[i].revents & POLLOUT) ev |= kEventWrite;
    if (ev != 0) Dispatch(fds[i].fd, ev);
  }
}

void EventLoop::Dispatch(int fd, uint32_t events) {
  // A handler earlier in this batch may have removed the fd: look it up
  // fresh and copy the callback, since the handler may remove itself.
  auto it = entries_.find(fd);
  if (it == entries_.end()) return;
  EventFn fn = it->second.fn;
  fn(events);
}

void EventLoop::DispatchTasks() {
  std::vector<std::function<void()>> tasks;
  {
    common::MutexLock lock(tasks_mu_);
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) task();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

void EventLoop::RunInLoop(std::function<void()> task) {
  {
    common::MutexLock lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  Wakeup();
}

void EventLoop::Wakeup() {
  char byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  (void)ignored;
}

}  // namespace kathdb::net

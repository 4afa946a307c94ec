// Readiness reactor: epoll(7) on Linux (O(1) per wait, no per-iteration
// fd-set rebuild), poll(2) elsewhere. One reactor per shard thread and
// one behind the legacy net::event_loop. Level-triggered: a callback
// that does not fully drain its fd simply runs again next turn, which
// is how shards bound their per-turn receive work without losing data.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace vtp::engine {

class reactor {
public:
    reactor();
    ~reactor();

    reactor(const reactor&) = delete;
    reactor& operator=(const reactor&) = delete;

    /// Watch `fd` for readability. One callback per fd.
    void add_fd(int fd, std::function<void()> on_readable);
    void remove_fd(int fd);

    /// Block up to `timeout` (nanoseconds; 0 = poll, util::time_never =
    /// block indefinitely), then dispatch every readable fd's callback.
    /// Returns the number of callbacks dispatched.
    ///
    /// Precision: on Linux the sleep is handed to epoll_pwait2 as a
    /// timespec, so a shard sleeping to its timer wheel's next tick
    /// boundary (~262 µs) wakes there plus wake-up latency, not at the
    /// next whole millisecond. Where epoll_pwait2 is missing (glibc
    /// before 2.35, or a kernel before 5.11 answering ENOSYS — decided
    /// once, logged once) the sleep rounds up to whole milliseconds, as
    /// does the poll(2) path elsewhere. Sleeps are capped at 60 s.
    int poll_once(util::sim_time timeout);

private:
    std::unordered_map<int, std::function<void()>> handlers_;
#ifdef __linux__
    int epfd_ = -1;
#endif
};

} // namespace vtp::engine

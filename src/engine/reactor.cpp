#include "engine/reactor.hpp"

#include <algorithm>
#include <stdexcept>

#ifdef __linux__
#include <errno.h>
#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <atomic>

#include "util/logging.hpp"
#else
#include <poll.h>
#endif

// epoll_pwait2 (kernel >= 5.11) takes a nanosecond timespec; glibc wraps
// it from 2.35. Without the wrapper, or on a kernel that answers ENOSYS,
// sleeps fall back to epoll_wait's whole milliseconds.
#if defined(__linux__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
#define VTP_HAVE_EPOLL_PWAIT2 1
#else
#define VTP_HAVE_EPOLL_PWAIT2 0
#endif

namespace vtp::engine {

namespace {

int timeout_ms(util::sim_time timeout) {
    if (timeout == util::time_never) return -1;
    if (timeout <= 0) return 0;
    // Round up so we never spin-wake before a deadline.
    const util::sim_time ms = (timeout + 999'999) / 1'000'000;
    return static_cast<int>(std::min<util::sim_time>(ms, 60'000));
}

} // namespace

#ifdef __linux__

reactor::reactor() {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) throw std::runtime_error("reactor: epoll_create1() failed");
}

reactor::~reactor() {
    if (epfd_ >= 0) ::close(epfd_);
}

void reactor::add_fd(int fd, std::function<void()> on_readable) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
        throw std::runtime_error("reactor: epoll_ctl(ADD) failed");
    handlers_[fd] = std::move(on_readable);
}

void reactor::remove_fd(int fd) {
    if (handlers_.erase(fd) > 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

namespace {

#if VTP_HAVE_EPOLL_PWAIT2
std::atomic<bool> pwait2_missing{false};
#endif

int wait_ready(int epfd, epoll_event* events, int max, util::sim_time timeout) {
#if VTP_HAVE_EPOLL_PWAIT2
    if (!pwait2_missing.load(std::memory_order_relaxed)) {
        timespec ts{};
        if (timeout > 0) {
            const util::sim_time t = std::min(timeout, util::seconds(60));
            ts.tv_sec = static_cast<time_t>(t / 1'000'000'000);
            ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
        }
        const int n = ::epoll_pwait2(epfd, events, max,
                                     timeout == util::time_never ? nullptr : &ts, nullptr);
        if (n >= 0 || errno != ENOSYS) return n;
        if (!pwait2_missing.exchange(true, std::memory_order_relaxed))
            util::log(util::log_level::warn, "engine",
                      "kernel has no epoll_pwait2: reactor sleeps in whole milliseconds");
    }
#endif
    return ::epoll_wait(epfd, events, max, timeout_ms(timeout));
}

} // namespace

int reactor::poll_once(util::sim_time timeout) {
    epoll_event events[32];
    const int n = wait_ready(epfd_, events, 32, timeout);
    int dispatched = 0;
    for (int i = 0; i < n; ++i) {
        // Re-look-up per event: a callback may remove another fd.
        const auto it = handlers_.find(events[i].data.fd);
        if (it == handlers_.end()) continue;
        it->second();
        ++dispatched;
    }
    return dispatched;
}

#else // poll(2) fallback

reactor::reactor() = default;
reactor::~reactor() = default;

void reactor::add_fd(int fd, std::function<void()> on_readable) {
    handlers_[fd] = std::move(on_readable);
}

void reactor::remove_fd(int fd) { handlers_.erase(fd); }

int reactor::poll_once(util::sim_time timeout) {
    std::vector<pollfd> pfds;
    pfds.reserve(handlers_.size());
    for (const auto& [fd, cb] : handlers_) pfds.push_back(pollfd{fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                             timeout_ms(timeout));
    int dispatched = 0;
    if (ready > 0) {
        for (const auto& p : pfds) {
            if ((p.revents & POLLIN) == 0) continue;
            const auto it = handlers_.find(p.fd);
            if (it == handlers_.end()) continue;
            it->second();
            ++dispatched;
        }
    }
    return dispatched;
}

#endif

} // namespace vtp::engine

#include "engine/udp_io.hpp"

#include <errno.h>
#include <fcntl.h>
#include <netinet/udp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "util/logging.hpp"

// recvmmsg/sendmmsg and UDP GSO/GRO are Linux features (glibc >= 2.12,
// kernel >= 4.18 for UDP_SEGMENT, >= 5.0 for UDP_GRO); elsewhere the
// batch functions degrade to one recvfrom/sendto per datagram.
#if defined(__linux__)
#define VTP_HAVE_MMSG 1
#else
#define VTP_HAVE_MMSG 0
#endif

namespace vtp::engine {

int open_udp_socket(std::uint16_t port, bool reuse_port, int rcvbuf_bytes,
                    int sndbuf_bytes) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw std::runtime_error("engine: socket() failed");

    if (reuse_port) {
        const int one = 1;
        if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
            ::close(fd);
            throw std::runtime_error("engine: setsockopt(SO_REUSEPORT) failed");
        }
    }
    if (rcvbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof rcvbuf_bytes);
    if (sndbuf_bytes > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes, sizeof sndbuf_bytes);

    sockaddr_in addr = loopback_addr(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("engine: bind() failed");
    }

    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        ::close(fd);
        throw std::runtime_error("engine: fcntl(O_NONBLOCK) failed");
    }
    return fd;
}

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = htons(port);
    return a;
}

rx_batch::rx_batch(std::size_t capacity)
    : capacity_(capacity ? capacity : 1),
      arena_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity_ * max_message)),
      from_(capacity_) {
    views_.reserve(capacity_ * gso_max_segments);
}

namespace {

bool same_flow_and_dest(const tx_item& a, const tx_item& b) {
    return a.to.sin_port == b.to.sin_port &&
           a.to.sin_addr.s_addr == b.to.sin_addr.s_addr &&
           ::memcmp(a.data, b.data, 4) == 0;
}

} // namespace

std::size_t gso_run(const tx_item* items, std::size_t n) {
    const tx_item& first = items[0];
    if (first.len < 4) return 1;
    std::size_t k = 1;
    std::size_t bytes = first.len;
    while (k < n && k < gso_max_segments) {
        const tx_item& it = items[k];
        if (it.len < 4 || it.len > first.len || bytes + it.len > gso_max_bytes ||
            !same_flow_and_dest(first, it))
            break;
        bytes += it.len;
        ++k;
        if (it.len < first.len) break;
    }
    return k;
}

void rx_batch::split(std::size_t msg, std::size_t len, std::size_t segment, bool cut) {
    const std::uint8_t* base = arena_.get() + msg * max_message;
    std::size_t off = 0;
    do {
        const std::size_t n = std::min(segment, len - off);
        views_.push_back(view{base + off, static_cast<std::uint32_t>(n),
                              static_cast<std::uint32_t>(msg), cut || n > max_datagram});
        off += n;
    } while (off < len);
}

#if VTP_HAVE_MMSG

namespace {

// Syscall scaffolding lives on the stack, bounded by a fixed chunk; the
// per-call setup is a few stores per message, noise next to a syscall.
constexpr std::size_t mmsg_chunk = 64;
// Datagrams (one iovec each) per sendmmsg call: room for a full chunk of
// plain datagrams and for several full GSO runs.
constexpr std::size_t iov_chunk = 256;

std::atomic<bool> gso_refused{false};

void warn_once(std::atomic<bool>& flag, const char* what) {
    if (!flag.exchange(true, std::memory_order_relaxed))
        util::log(util::log_level::warn, "engine", what);
}

// Kernels before 4.18 skip an unknown SOL_UDP cmsg and would send a whole
// run as one datagram, so ask once whether UDP_SEGMENT exists at all.
bool kernel_has_gso() {
    static const bool has = [] {
        const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd < 0) return false;
        const int off = 0;
        const bool ok = ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &off, sizeof off) == 0;
        ::close(fd);
        if (!ok)
            util::log(util::log_level::warn, "engine",
                      "kernel has no UDP GSO: one datagram per message");
        return ok;
    }();
    return has;
}

} // namespace

bool enable_gro(int fd) {
    static std::atomic<bool> warned{false};
    const int one = 1;
    if (::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof one) == 0) return true;
    warn_once(warned, "kernel refused UDP_GRO: receiving plain datagrams");
    return false;
}

bool attach_steering(int fd, const flow_shard_map& map) {
    static std::atomic<bool> warned{false};
    auto code = map.steering_program();
    const sock_fprog prog{static_cast<unsigned short>(code.size()), code.data()};
    if (::setsockopt(fd, SOL_SOCKET, SO_ATTACH_REUSEPORT_CBPF, &prog, sizeof prog) == 0)
        return true;
    warn_once(warned, "kernel refused reuseport steering: misrouted datagrams "
                      "take the handoff rings");
    return false;
}

std::size_t recv_batch(int fd, rx_batch& b) {
    mmsghdr msgs[mmsg_chunk];
    iovec iovs[mmsg_chunk];
    alignas(cmsghdr) char ctrl[mmsg_chunk][CMSG_SPACE(sizeof(int))];
    b.views_.clear();
    std::size_t total = 0; // messages
    while (total < b.capacity_) {
        const std::size_t k = std::min(mmsg_chunk, b.capacity_ - total);
        for (std::size_t i = 0; i < k; ++i) {
            iovs[i].iov_base = b.arena_.get() + (total + i) * max_message;
            iovs[i].iov_len = max_message;
            ::memset(&msgs[i], 0, sizeof msgs[i]);
            msgs[i].msg_hdr.msg_iov = &iovs[i];
            msgs[i].msg_hdr.msg_iovlen = 1;
            msgs[i].msg_hdr.msg_name = &b.from_[total + i];
            msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
            msgs[i].msg_hdr.msg_control = ctrl[i];
            msgs[i].msg_hdr.msg_controllen = sizeof ctrl[i];
        }
        const int n =
            ::recvmmsg(fd, msgs, static_cast<unsigned>(k), MSG_DONTWAIT, nullptr);
        if (n <= 0) break;
        for (int i = 0; i < n; ++i) {
            msghdr& h = msgs[i].msg_hdr;
            const std::size_t len = msgs[i].msg_len;
            // A coalesced run carries its segment size; every datagram
            // but the last is exactly that long.
            std::size_t segment = len;
            for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
                if (c->cmsg_level != SOL_UDP || c->cmsg_type != UDP_GRO) continue;
                int gso = 0;
                ::memcpy(&gso, CMSG_DATA(c), sizeof gso);
                if (gso > 0) segment = static_cast<std::size_t>(gso);
            }
            // A message cut to the slot (MSG_TRUNC) has lost its tail;
            // surface it so the shard drops it instead of decoding it.
            b.split(total + static_cast<std::size_t>(i), len, segment,
                    (h.msg_flags & MSG_TRUNC) != 0);
        }
        total += static_cast<std::size_t>(n);
        if (static_cast<std::size_t>(n) < k) break; // drained
    }
    return b.views_.size();
}

std::size_t send_batch(int fd, const tx_item* items, std::size_t n) {
    mmsghdr msgs[mmsg_chunk];
    iovec iovs[iov_chunk];
    alignas(cmsghdr) char ctrl[mmsg_chunk][CMSG_SPACE(sizeof(std::uint16_t))];
    std::size_t segs[mmsg_chunk];
    bool gso = kernel_has_gso() && !gso_refused.load(std::memory_order_relaxed);
    bool probing = false; // retrying a rejected GSO message's datagrams plain
    std::size_t sent = 0;
    while (sent < n) {
        std::size_t k = 0;    // messages in this call
        std::size_t used = 0; // iovecs (datagrams) in this call
        while (k < mmsg_chunk && sent + used < n && used < iov_chunk) {
            const tx_item* run = items + sent + used;
            const std::size_t len =
                gso ? gso_run(run, std::min(n - sent - used, iov_chunk - used)) : 1;
            for (std::size_t j = 0; j < len; ++j) {
                iovs[used + j].iov_base = const_cast<std::uint8_t*>(run[j].data);
                iovs[used + j].iov_len = run[j].len;
            }
            msghdr& h = msgs[k].msg_hdr;
            ::memset(&msgs[k], 0, sizeof msgs[k]);
            h.msg_iov = &iovs[used];
            h.msg_iovlen = len;
            h.msg_name = const_cast<sockaddr_in*>(&run[0].to);
            h.msg_namelen = sizeof(sockaddr_in);
            if (len > 1) {
                // The kernel cuts the message every run[0].len bytes, which
                // restores the datagrams: all but the last are that long.
                h.msg_control = ctrl[k];
                h.msg_controllen = sizeof ctrl[k];
                cmsghdr* c = CMSG_FIRSTHDR(&h);
                c->cmsg_level = SOL_UDP;
                c->cmsg_type = UDP_SEGMENT;
                c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
                const auto size = static_cast<std::uint16_t>(run[0].len);
                ::memcpy(CMSG_DATA(c), &size, sizeof size);
            }
            segs[k++] = len;
            used += len;
        }
        const int r = ::sendmmsg(fd, msgs, static_cast<unsigned>(k), MSG_DONTWAIT);
        if (r > 0) {
            for (int i = 0; i < r; ++i) sent += segs[i];
            if (probing) {
                // Plain datagrams went where the GSO message could not.
                gso_refused.store(true, std::memory_order_relaxed);
                static std::atomic<bool> warned{false};
                warn_once(warned, "kernel refused UDP GSO: one datagram per message");
                probing = false;
            }
            continue; // a short count: the next call reports why it stopped
        }
        if (segs[0] > 1 && errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOBUFS) {
            // The kernel rejected a GSO message for another reason than a
            // full buffer: retry its datagrams one per message.
            gso = false;
            probing = true;
            continue;
        }
        break; // send buffer full, or a datagram the kernel rejects
    }
    return sent;
}

#else // portable one-datagram-per-syscall fallback

bool enable_gro(int) { return false; }
bool attach_steering(int, const flow_shard_map&) { return false; }

std::size_t recv_batch(int fd, rx_batch& b) {
    b.views_.clear();
    for (std::size_t m = 0; m < b.capacity_; ++m) {
        socklen_t addrlen = sizeof(sockaddr_in);
        const ssize_t r =
            ::recvfrom(fd, b.arena_.get() + m * max_message, max_message, MSG_DONTWAIT,
                       reinterpret_cast<sockaddr*>(&b.from_[m]), &addrlen);
        if (r < 0) break;
        b.split(m, static_cast<std::size_t>(r), static_cast<std::size_t>(r), false);
    }
    return b.views_.size();
}

std::size_t send_batch(int fd, const tx_item* items, std::size_t n) {
    std::size_t sent = 0;
    for (; sent < n; ++sent) {
        const tx_item& it = items[sent];
        const ssize_t r =
            ::sendto(fd, it.data, it.len, MSG_DONTWAIT,
                     reinterpret_cast<const sockaddr*>(&it.to), sizeof it.to);
        if (r < 0) break;
    }
    return sent;
}

#endif

} // namespace vtp::engine

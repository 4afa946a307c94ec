#include "net/udp_host.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "engine/udp_io.hpp"
#include "packet/wire.hpp"
#include "util/logging.hpp"

namespace vtp::net {

udp_host::udp_host(event_loop& loop, std::uint16_t port, std::uint64_t rng_seed)
    : loop_(loop), port_(port), rng_(rng_seed) {
    // Shares the engine's socket setup but deliberately keeps the
    // one-datagram-per-syscall receive/transmit path below: this host is
    // the legacy baseline the engine is measured against
    // (bench_e12_engine_throughput) and the simple client substrate.
    fd_ = engine::open_udp_socket(port);
    loop_.add_fd(fd_, [this] { on_readable(); });
}

void udp_host::rebind(std::uint16_t new_port) {
    loop_.remove_fd(fd_);
    ::close(fd_);
    fd_ = -1;
    fd_ = engine::open_udp_socket(new_port);
    port_ = new_port;
    loop_.add_fd(fd_, [this] { on_readable(); });
    util::log(util::log_level::info, "udp_host", "rebound to port ", new_port);
}

udp_host::~udp_host() {
    if (fd_ >= 0) {
        loop_.remove_fd(fd_);
        ::close(fd_);
    }
}

void udp_host::attach_erased(std::uint32_t flow_id, std::unique_ptr<qtp::agent> a) {
    qtp::agent* raw = a.get();
    agents_[flow_id] = std::move(a);
    raw->start(*this);
}

qtp::timer_id udp_host::schedule(util::sim_time delay, std::function<void()> fn) {
    return loop_.schedule_after(delay, std::move(fn));
}

void udp_host::cancel(qtp::timer_id id) { loop_.cancel(id); }

void udp_host::send(packet::packet pkt) {
    std::vector<std::uint8_t> dgram;
    dgram.reserve(8 + 64);
    for (int shift = 24; shift >= 0; shift -= 8)
        dgram.push_back(static_cast<std::uint8_t>(pkt.flow_id >> shift));
    const std::uint32_t src = port_;
    for (int shift = 24; shift >= 0; shift -= 8)
        dgram.push_back(static_cast<std::uint8_t>(src >> shift));
    const std::vector<std::uint8_t> body = packet::encode_segment(*pkt.body);
    dgram.insert(dgram.end(), body.begin(), body.end());

    // Payload frames can exceed the receive buffers (both sides use
    // engine::max_datagram) when packet_size is set near/above it; a
    // truncated datagram would fail decode on every arrival, so drop and
    // count here where the cause is visible.
    if (dgram.size() > engine::max_datagram) {
        ++oversized_dropped_;
        util::log(util::log_level::warn, "udp_host",
                  "oversized datagram dropped (packet_size vs max_datagram)");
        return;
    }

    sockaddr_in to = engine::loopback_addr(static_cast<std::uint16_t>(pkt.dst));
    if (::sendto(fd_, dgram.data(), dgram.size(), 0, reinterpret_cast<sockaddr*>(&to),
                 sizeof to) >= 0) {
        ++sent_;
    }
}

void udp_host::on_readable() {
    std::uint8_t buf[engine::max_datagram];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
        if (n < 0) break;
        if (n < 8) { // runt: no room for the prefix
            ++decode_errors_;
            continue;
        }
        ++received_;
        std::uint32_t flow_id = 0;
        std::uint32_t src = 0;
        for (int i = 0; i < 4; ++i) flow_id = (flow_id << 8) | buf[i];
        for (int i = 4; i < 8; ++i) src = (src << 8) | buf[i];
        try {
            packet::packet pkt;
            pkt.flow_id = flow_id;
            pkt.src = src;
            pkt.dst = port_;
            pkt.body = std::make_shared<const packet::segment>(
                packet::decode_segment(buf + 8, static_cast<std::size_t>(n - 8)));
            pkt.size_bytes = packet::wire_size(*pkt.body);
            auto it = agents_.find(flow_id);
            if (it != agents_.end())
                it->second->on_packet(pkt);
            else if (default_agent_ != nullptr)
                default_agent_->on_packet(pkt);
        } catch (const std::exception& e) {
            ++decode_errors_;
            util::log(util::log_level::warn, "udp_host", "decode error: ", e.what());
        }
    }
}

} // namespace vtp::net

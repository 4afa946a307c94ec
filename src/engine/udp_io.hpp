// Batched UDP datagram I/O for the server engine.
//
// recv_batch()/send_batch() move a whole batch per syscall through
// recvmmsg(2)/sendmmsg(2) on Linux, and let the kernel move batches too:
//  - send_batch packs each run of consecutive datagrams of one flow, to
//    one destination and of one length (the last may be shorter) into a
//    single UDP GSO message (UDP_SEGMENT), so the kernel builds and
//    routes one large packet per run instead of one per datagram;
//  - a socket with UDP_GRO on (enable_gro) receives such a run as one
//    coalesced message, and recv_batch splits it back into the original
//    datagrams, so callers see the same per-datagram views either way.
// A socket without UDP_GRO (net::udp_host, which reads with a 2 KiB
// recvfrom) still gets plain datagrams: the kernel segments GSO runs on
// delivery. Where the kernel refuses GSO, send_batch falls back to one
// datagram per message; off Linux both functions degrade to a loop of
// recvfrom/sendto. The receive arena and the mmsghdr/iovec scaffolding
// are reused across calls, so steady-state I/O does one syscall per
// batch and zero allocation. Compare net::udp_host, which deliberately
// stays on the one-datagram-per-syscall path as the legacy baseline
// (bench_e12_engine_throughput measures the gap).
#pragma once

#include <netinet/in.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/flow_map.hpp"

namespace vtp::engine {

/// Largest datagram the engine sends or accepts: 8-byte datapath header
/// ([flow_id:u32][src_addr:u32]) plus the largest wire segment, with
/// generous headroom. A bigger one is flagged truncated by recv_batch
/// and must be dropped, never decoded.
inline constexpr std::size_t max_datagram = 2048;

/// Receive slot size: one UDP message of any legal size, which on a
/// UDP_GRO socket may be a coalesced run of up to 64 datagrams.
inline constexpr std::size_t max_message = 65535;

/// send_batch caps on one GSO message: at most this many datagrams, and
/// at most the IPv4 UDP payload limit in total.
inline constexpr std::size_t gso_max_segments = 64;
inline constexpr std::size_t gso_max_bytes = 65507;

/// Open a non-blocking UDP socket bound to 127.0.0.1:`port`.
/// `reuse_port` joins an SO_REUSEPORT group (one member socket per
/// shard; member index = bind order). Buffer sizes of 0 keep the system
/// default. Never turns on UDP_GRO (see enable_gro). Throws
/// std::runtime_error.
int open_udp_socket(std::uint16_t port, bool reuse_port = false,
                    int rcvbuf_bytes = 0, int sndbuf_bytes = 0);

/// Turn on UDP_GRO so runs of datagrams arrive coalesced; only for
/// sockets read through recv_batch. False (logged once per process) when
/// the kernel refuses: the socket then keeps receiving plain datagrams.
bool enable_gro(int fd);

/// Attach `map`'s steering program (flow_shard_map::steering_program) to
/// the SO_REUSEPORT group `fd` belongs to, so the kernel delivers each
/// datagram to the member that owns its flow: the i-th socket to bind
/// the port must be shard i's. False (logged once per process) when the
/// kernel refuses: it keeps hashing the 4-tuple across members.
bool attach_steering(int fd, const flow_shard_map& map);

/// 127.0.0.1:`port` destination.
sockaddr_in loopback_addr(std::uint16_t port);

/// Reusable receive batch: an arena of `capacity` message slots of
/// max_message bytes each, plus per-datagram views into it. The arena is
/// left uninitialised — every byte a view covers was written by the
/// kernel first, and untouched slots never cost resident memory.
class rx_batch {
public:
    explicit rx_batch(std::size_t capacity);

    /// Messages per recv_batch call (a message holds one datagram, or a
    /// whole coalesced run on a UDP_GRO socket).
    std::size_t capacity() const { return capacity_; }
    const std::uint8_t* data(std::size_t i) const { return views_[i].data; }
    std::size_t len(std::size_t i) const { return views_[i].len; }
    const sockaddr_in& from(std::size_t i) const { return from_[views_[i].msg]; }
    /// Datagram `i` is longer than max_datagram, or the kernel cut it to
    /// fit its slot (MSG_TRUNC): what it holds would decode as garbage —
    /// the caller must drop it, not parse it.
    bool truncated(std::size_t i) const { return views_[i].truncated; }

private:
    friend std::size_t recv_batch(int fd, rx_batch& b);

    struct view {
        const std::uint8_t* data;
        std::uint32_t len;
        std::uint32_t msg; ///< slot index, for from()
        bool truncated;
    };
    void split(std::size_t msg, std::size_t len, std::size_t segment, bool cut);

    std::size_t capacity_;
    std::unique_ptr<std::uint8_t[]> arena_; ///< capacity * max_message bytes
    std::vector<sockaddr_in> from_;         ///< per message slot
    std::vector<view> views_;               ///< per datagram of the last call
};

/// Fill `b` with up to its capacity of messages in (at most) one
/// syscall, split into datagrams. Returns the number of datagrams; 0
/// means the socket would block.
std::size_t recv_batch(int fd, rx_batch& b);

/// One outbound datagram; `data` stays owned by the caller (typically an
/// engine::buffer_pool buffer) until send_batch returns. Its first four
/// bytes are the flow id (the engine datagram header): GSO runs never
/// span two flows, so each run reaches the flow's owner shard whole.
struct tx_item {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    sockaddr_in to{};
};

/// How many datagrams, from items[0] on, send_batch packs into one GSO
/// message: consecutive datagrams of one flow, to one destination and as
/// long as the first — a shorter one ends the run, a longer one starts
/// the next — up to gso_max_segments and gso_max_bytes.
std::size_t gso_run(const tx_item* items, std::size_t n);

/// Transmit `n` datagrams, packed into GSO runs (gso_run), through one
/// sendmmsg per 64 messages or 256 datagrams — plus one more call when
/// the kernel stops early, to learn why. Returns how many datagrams the
/// kernel accepted — counted in datagrams, not messages; the remainder
/// hit a full send buffer and are dropped by the caller (the transport's
/// loss recovery handles it, exactly as it would a NIC queue overflow).
std::size_t send_batch(int fd, const tx_item* items, std::size_t n);

} // namespace vtp::engine

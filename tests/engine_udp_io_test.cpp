// The kernel-batched engine datapath: send_batch packs each flow's runs
// of datagrams into UDP GSO messages, recv_batch splits UDP_GRO messages
// back into the original datagrams, and the reuseport steering program
// delivers every datagram to the shard flow_shard_map names as owner.
// Checked on real loopback sockets, from the packing rules up to two
// live engines talking to each other. Skipped gracefully when the
// sandbox forbids socket creation.
#include <gtest/gtest.h>

#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "engine/flow_map.hpp"
#include "engine/server.hpp"
#include "engine/udp_io.hpp"
#include "packet/wire.hpp"

namespace {

using namespace vtp;

constexpr std::uint16_t port_base = 47810;

/// Closes the socket when the test leaves.
struct fd_guard {
    int fd = -1;
    explicit fd_guard(int f) : fd(f) {}
    fd_guard(fd_guard&& o) noexcept : fd(o.fd) { o.fd = -1; }
    fd_guard(const fd_guard&) = delete;
    ~fd_guard() {
        if (fd >= 0) ::close(fd);
    }
};

std::optional<fd_guard> open_socket(std::uint16_t port, bool reuse_port = false) {
    try {
        return fd_guard(engine::open_udp_socket(port, reuse_port, 1 << 21, 1 << 21));
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// An engine-shaped datagram of `len` bytes: the flow id (big endian),
/// then bytes that encode (flow, tag, position) so any mix-up shows.
std::vector<std::uint8_t> datagram(std::uint32_t flow, std::uint32_t tag, std::size_t len) {
    std::vector<std::uint8_t> d(len);
    for (std::size_t i = 0; i < len; ++i)
        d[i] = i < 4 ? static_cast<std::uint8_t>(flow >> (24 - 8 * i))
                     : static_cast<std::uint8_t>(flow * 31 + tag * 7 + i);
    return d;
}

/// A batch of datagrams and the tx_items that point at them (each inner
/// vector keeps its buffer when the outer one grows).
struct batch {
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<engine::tx_item> items;

    void add(std::uint32_t flow, std::size_t len, std::uint16_t port) {
        bytes.push_back(datagram(flow, static_cast<std::uint32_t>(bytes.size()), len));
        items.push_back(engine::tx_item{bytes.back().data(), len, engine::loopback_addr(port)});
    }
    void add_many(std::size_t n, std::uint32_t flow, std::size_t len, std::uint16_t port) {
        for (std::size_t i = 0; i < n; ++i) add(flow, len, port);
    }
    /// The run lengths send_batch will use.
    std::vector<std::size_t> runs() const {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < items.size(); i += out.back())
            out.push_back(engine::gso_run(items.data() + i, items.size() - i));
        return out;
    }
};

/// Datagrams as recv_batch delivered them.
struct received {
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<std::uint16_t> from_port;
    std::size_t truncated = 0;
};

/// Reads datagrams from `fd` through recv_batch until `want` arrived or
/// 1 s passed.
received drain(int fd, std::size_t want) {
    received out;
    engine::rx_batch rb(8);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (out.bytes.size() < want && std::chrono::steady_clock::now() < deadline) {
        const std::size_t n = engine::recv_batch(fd, rb);
        if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (std::size_t i = 0; i < n; ++i) {
            out.bytes.emplace_back(rb.data(i), rb.data(i) + rb.len(i));
            out.from_port.push_back(ntohs(rb.from(i).sin_port));
            if (rb.truncated(i)) ++out.truncated;
        }
    }
    return out;
}

/// One raw message from a UDP_GRO socket: its length and the segment
/// size the kernel reports (0 for a plain datagram).
struct raw_message {
    std::size_t len = 0;
    int segment = 0;
};

/// Reads messages from `fd` with plain recvmsg until `want` arrived or
/// 1 s passed, so a test sees how the kernel packed them.
std::vector<raw_message> raw_messages(int fd, std::size_t want) {
    std::vector<raw_message> out;
    std::vector<std::uint8_t> buf(engine::max_message);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
        iovec iov{buf.data(), buf.size()};
        alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))];
        msghdr h{};
        h.msg_iov = &iov;
        h.msg_iovlen = 1;
        h.msg_control = ctrl;
        h.msg_controllen = sizeof ctrl;
        const ssize_t r = ::recvmsg(fd, &h, MSG_DONTWAIT);
        if (r < 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        raw_message m;
        m.len = static_cast<std::size_t>(r);
        for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c))
            if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO)
                std::memcpy(&m.segment, CMSG_DATA(c), sizeof m.segment);
        out.push_back(m);
    }
    return out;
}

/// Datagrams waiting on `fd` right now.
std::size_t pending(int fd) {
    engine::rx_batch rb(8);
    return engine::recv_batch(fd, rb);
}

std::uint32_t flow_of(const std::vector<std::uint8_t>& d) {
    std::uint32_t f = 0;
    for (int i = 0; i < 4; ++i) f = (f << 8) | d[static_cast<std::size_t>(i)];
    return f;
}

// ---------------------------------------------------------------------------
// GSO packing
// ---------------------------------------------------------------------------

TEST(engine_udp_io_test, gso_runs_split_at_flow_destination_and_longer_datagram) {
    const std::uint16_t a = port_base, b = port_base + 1;
    batch x;
    x.add_many(3, 1, 100, a); // one run
    x.add_many(2, 2, 100, a); // next flow: new run
    x.add_many(2, 2, 100, b); // same flow, other destination: new run
    x.add(2, 100, b);
    x.add(2, 120, b);         // longer than the run's first: new run
    x.add_many(2, 2, 120, b);
    x.add(2, 60, b);          // shorter: joins the run and closes it
    x.add(2, 120, b);
    EXPECT_EQ(x.runs(), (std::vector<std::size_t>{3, 2, 3, 4, 1}));
}

TEST(engine_udp_io_test, gso_runs_hold_segment_and_byte_caps) {
    batch segs;
    segs.add_many(100, 7, 100, port_base);
    EXPECT_EQ(segs.runs(), (std::vector<std::size_t>{64, 36}));

    // 32 x 2000 B = 64,000 B fits; a 33rd would exceed 65,507.
    batch bytes;
    bytes.add_many(40, 7, 2000, port_base);
    EXPECT_EQ(bytes.runs(), (std::vector<std::size_t>{32, 8}));
    // A short last datagram may fill the message up to the cap exactly.
    batch exact;
    exact.add_many(32, 7, 2000, port_base);
    exact.add(7, engine::gso_max_bytes - 64'000, port_base);
    EXPECT_EQ(exact.runs(), (std::vector<std::size_t>{33}));
}

TEST(engine_udp_io_test, each_run_leaves_as_one_gso_message) {
    auto rx = open_socket(port_base + 2);
    auto tx = open_socket(port_base + 3);
    if (!rx || !tx) GTEST_SKIP() << "sockets unavailable";
    if (!engine::enable_gro(rx->fd)) GTEST_SKIP() << "kernel refuses UDP_GRO";

    batch x;
    x.add_many(8, 1, 300, port_base + 2);
    x.add(1, 120, port_base + 2);
    x.add(2, 300, port_base + 2);
    x.add_many(70, 3, 500, port_base + 2);
    const std::vector<std::size_t> runs = x.runs();
    ASSERT_EQ(runs, (std::vector<std::size_t>{9, 1, 64, 6}));
    EXPECT_EQ(engine::send_batch(tx->fd, x.items.data(), x.items.size()), x.items.size());

    const std::vector<raw_message> got = raw_messages(rx->fd, runs.size());
    ASSERT_EQ(got.size(), runs.size());
    std::size_t first = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
        std::size_t len = 0;
        for (std::size_t i = first; i < first + runs[r]; ++i) len += x.items[i].len;
        EXPECT_EQ(got[r].len, len) << "run " << r;
        // A run of one leaves as a plain datagram, with no segment size.
        EXPECT_EQ(got[r].segment, runs[r] > 1 ? static_cast<int>(x.items[first].len) : 0)
            << "run " << r;
        first += runs[r];
    }
}

TEST(engine_udp_io_test, partial_send_counts_datagrams) {
    auto rx = open_socket(port_base + 4);
    auto tx = open_socket(port_base + 5);
    if (!rx || !tx) GTEST_SKIP() << "sockets unavailable";
    if (!engine::enable_gro(rx->fd)) GTEST_SKIP() << "kernel refuses UDP_GRO";

    // The kernel rejects port 0: the first message to it ends the send.
    // The GSO run before it counts as three datagrams, not one message.
    batch plain_stop;
    plain_stop.add_many(3, 1, 200, port_base + 4);
    plain_stop.add(2, 200, 0);
    plain_stop.add_many(3, 3, 200, port_base + 4);
    EXPECT_EQ(engine::send_batch(tx->fd, plain_stop.items.data(), plain_stop.items.size()),
              3u);

    // A whole GSO run to port 0: retried as plain datagrams, which fail
    // too, so GSO stays on for the next batch.
    batch gso_stop;
    gso_stop.add_many(2, 1, 200, port_base + 4);
    gso_stop.add_many(4, 2, 200, 0);
    EXPECT_EQ(engine::send_batch(tx->fd, gso_stop.items.data(), gso_stop.items.size()), 2u);

    batch after;
    after.add_many(5, 4, 200, port_base + 4);
    EXPECT_EQ(engine::send_batch(tx->fd, after.items.data(), after.items.size()), 5u);

    const std::vector<raw_message> got = raw_messages(rx->fd, 3);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].len, 600u);
    EXPECT_EQ(got[1].len, 400u);
    EXPECT_EQ(got[2].len, 1000u);
    EXPECT_EQ(got[2].segment, 200); // still a GSO message
}

// ---------------------------------------------------------------------------
// Receive: plain and GRO sockets see the same datagrams
// ---------------------------------------------------------------------------

batch mixed_batch(std::uint16_t port) {
    batch x;
    x.add_many(8, 11, 1008, port);
    x.add(11, 333, port);
    x.add_many(3, 12, 40, port);
    x.add(13, 8, port);
    x.add_many(64, 14, 208, port);
    x.add_many(5, 11, 1008, port);
    return x;
}

void expect_same(const received& got, const batch& sent, std::uint16_t from) {
    ASSERT_EQ(got.bytes.size(), sent.bytes.size());
    for (std::size_t i = 0; i < sent.bytes.size(); ++i) {
        EXPECT_EQ(got.bytes[i], sent.bytes[i]) << "datagram " << i;
        EXPECT_EQ(got.from_port[i], from) << "datagram " << i;
    }
    EXPECT_EQ(got.truncated, 0u);
}

TEST(engine_udp_io_test, plain_receiver_gets_every_datagram_intact) {
    auto rx = open_socket(port_base + 6);
    auto tx = open_socket(port_base + 7);
    if (!rx || !tx) GTEST_SKIP() << "sockets unavailable";
    const batch x = mixed_batch(port_base + 6);
    ASSERT_EQ(engine::send_batch(tx->fd, x.items.data(), x.items.size()), x.items.size());
    expect_same(drain(rx->fd, x.items.size()), x, port_base + 7);
}

TEST(engine_udp_io_test, gro_receiver_splits_runs_into_the_original_datagrams) {
    auto rx = open_socket(port_base + 8);
    auto tx = open_socket(port_base + 9);
    if (!rx || !tx) GTEST_SKIP() << "sockets unavailable";
    if (!engine::enable_gro(rx->fd)) GTEST_SKIP() << "kernel refuses UDP_GRO";
    const batch x = mixed_batch(port_base + 8);
    ASSERT_EQ(engine::send_batch(tx->fd, x.items.data(), x.items.size()), x.items.size());
    expect_same(drain(rx->fd, x.items.size()), x, port_base + 9);
}

TEST(engine_udp_io_test, oversized_datagrams_are_flagged_truncated) {
    auto rx = open_socket(port_base + 10);
    auto tx = open_socket(port_base + 11);
    if (!rx || !tx) GTEST_SKIP() << "sockets unavailable";
    const bool gro = engine::enable_gro(rx->fd);

    // A plain datagram one byte over the limit, then one exactly at it.
    const sockaddr_in to = engine::loopback_addr(port_base + 10);
    for (const std::size_t len : {engine::max_datagram + 1, engine::max_datagram}) {
        const auto d = datagram(5, 0, len);
        ASSERT_EQ(::sendto(tx->fd, d.data(), d.size(), 0,
                           reinterpret_cast<const sockaddr*>(&to), sizeof to),
                  static_cast<ssize_t>(len));
    }
    received got = drain(rx->fd, 2);
    ASSERT_EQ(got.bytes.size(), 2u);
    EXPECT_EQ(got.truncated, 1u);
    EXPECT_EQ(got.bytes[1].size(), engine::max_datagram);

    // A GSO run of oversized datagrams: every one of them is flagged.
    if (!gro) return;
    batch big;
    big.add_many(3, 6, 3000, port_base + 10);
    ASSERT_EQ(engine::send_batch(tx->fd, big.items.data(), big.items.size()), 3u);
    got = drain(rx->fd, 3);
    ASSERT_EQ(got.bytes.size(), 3u);
    EXPECT_EQ(got.truncated, 3u);
}

// ---------------------------------------------------------------------------
// Steering
// ---------------------------------------------------------------------------

TEST(engine_udp_io_test, steering_delivers_every_flow_to_its_owner) {
    const std::uint16_t port = port_base + 12;
    std::vector<fd_guard> members;
    for (int i = 0; i < 2; ++i) {
        auto m = open_socket(port, true);
        if (!m) GTEST_SKIP() << "sockets unavailable";
        engine::enable_gro(m->fd);
        members.push_back(std::move(*m));
    }
    auto tx = open_socket(port_base + 13);
    if (!tx) GTEST_SKIP() << "sockets unavailable";
    const engine::flow_shard_map map(members.size());
    if (!engine::attach_steering(members[0].fd, map))
        GTEST_SKIP() << "kernel refuses reuseport steering";

    batch x;
    std::vector<std::size_t> owned(members.size(), 0);
    for (std::uint32_t f = 1; f <= 1000; ++f) {
        x.add(f * 2654435761u, 16, port);
        ++owned[map.owner(flow_of(x.bytes.back()))];
    }
    for (std::size_t i = 0; i < x.items.size(); i += 64) {
        const std::size_t n = std::min<std::size_t>(64, x.items.size() - i);
        ASSERT_EQ(engine::send_batch(tx->fd, x.items.data() + i, n), n);
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
        const received got = drain(members[m].fd, owned[m]);
        EXPECT_EQ(got.bytes.size(), owned[m]) << "member " << m;
        for (const auto& d : got.bytes) EXPECT_EQ(map.owner(flow_of(d)), m);
        EXPECT_EQ(pending(members[m].fd), 0u);
    }

    // A one-flow GSO run arrives whole, at its owner only.
    for (const std::uint32_t flow : {0x50000000u, 0x50000001u}) {
        batch run;
        run.add_many(20, flow, 500, port);
        ASSERT_EQ(engine::send_batch(tx->fd, run.items.data(), run.items.size()), 20u);
        const std::size_t owner = map.owner(flow);
        const std::vector<raw_message> msgs = raw_messages(members[owner].fd, 1);
        ASSERT_EQ(msgs.size(), 1u) << "flow " << flow;
        EXPECT_EQ(msgs[0].len, 20u * 500u);
        EXPECT_EQ(msgs[0].segment, 500);
        EXPECT_EQ(pending(members[1 - owner].fd), 0u);
    }
}

// ---------------------------------------------------------------------------
// Engine: steering, and the handoff it leaves as a fallback
// ---------------------------------------------------------------------------

/// A SYN for `flow` in the engine datagram framing ([flow][src] + segment).
std::vector<std::uint8_t> syn_datagram(std::uint32_t flow, std::uint32_t src) {
    packet::handshake_segment syn;
    syn.type = packet::handshake_segment::kind::syn;
    syn.profile_bits = qtp::qtp_default_profile().encode();
    std::vector<std::uint8_t> d(8);
    for (int i = 0; i < 4; ++i) {
        d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(flow >> (24 - 8 * i));
        d[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(src >> (24 - 8 * i));
    }
    const std::vector<std::uint8_t> body = packet::encode_segment(packet::segment{syn});
    d.insert(d.end(), body.begin(), body.end());
    return d;
}

TEST(engine_udp_io_test, foreign_gso_run_spanning_flows_takes_the_handoff) {
    // Another sender may pack two flows into one GSO message. Steering
    // reads only the first datagram, so the whole run reaches the first
    // flow's owner, which must hand the second flow's SYN to its own.
    engine::engine_config cfg;
    cfg.port = port_base + 17;
    cfg.shards = 2;
    std::unique_ptr<engine::server> eng;
    try {
        eng = std::make_unique<engine::server>(cfg);
        eng->start();
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot start engine: " << e.what();
    }
    auto tx = open_socket(port_base + 18);
    if (!tx) GTEST_SKIP() << "sockets unavailable";

    const engine::flow_shard_map map(cfg.shards);
    const std::uint32_t a = 0x61000000u;
    std::uint32_t b = a + 1;
    while (map.owner(b) == map.owner(a)) ++b;
    std::vector<std::uint8_t> run = syn_datagram(a, port_base + 19);
    const std::vector<std::uint8_t> second = syn_datagram(b, port_base + 19);
    ASSERT_EQ(run.size(), second.size());
    run.insert(run.end(), second.begin(), second.end());

    sockaddr_in to = engine::loopback_addr(cfg.port);
    iovec iov{run.data(), run.size()};
    alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(std::uint16_t))] = {};
    msghdr h{};
    h.msg_name = &to;
    h.msg_namelen = sizeof to;
    h.msg_iov = &iov;
    h.msg_iovlen = 1;
    h.msg_control = ctrl;
    h.msg_controllen = sizeof ctrl;
    cmsghdr* c = CMSG_FIRSTHDR(&h);
    c->cmsg_level = SOL_UDP;
    c->cmsg_type = UDP_SEGMENT;
    c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
    const auto segment = static_cast<std::uint16_t>(second.size());
    std::memcpy(CMSG_DATA(c), &segment, sizeof segment);
    if (::sendmsg(tx->fd, &h, 0) != static_cast<ssize_t>(run.size()))
        GTEST_SKIP() << "kernel refuses UDP GSO";

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (eng->stats().accepted < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::vector<engine::shard_stats> per = eng->per_shard_stats();
    EXPECT_EQ(per[map.owner(a)].accepted, 1u);
    EXPECT_EQ(per[map.owner(b)].accepted, 1u);
    EXPECT_EQ(eng->stats().handoff_out, 1u);
    eng->stop();
}

// ---------------------------------------------------------------------------
// Engine to engine
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> pattern(std::uint32_t flow, std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>((i * 131 + flow * 17) >> 3);
    return out;
}

TEST(engine_udp_io_test, engine_to_engine_transfer_needs_no_handoff) {
    // Steering must be available for the zero-handoff claim to hold.
    {
        auto a = open_socket(port_base + 14, true);
        auto b = open_socket(port_base + 14, true);
        if (!a || !b) GTEST_SKIP() << "sockets unavailable";
        if (!engine::attach_steering(a->fd, engine::flow_shard_map(2)))
            GTEST_SKIP() << "kernel refuses reuseport steering";
    }
    engine::engine_config sc;
    sc.port = port_base + 15;
    sc.shards = 2;
    engine::engine_config cc = sc;
    cc.port = port_base + 16;
    cc.shards = 1;
    std::unique_ptr<engine::server> srv, cli;
    try {
        srv = std::make_unique<engine::server>(sc);
        srv->start();
        cli = std::make_unique<engine::server>(cc);
        cli->start();
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot start engines: " << e.what();
    }

    constexpr std::size_t sessions = 8;
    constexpr std::size_t bytes = 200'000;
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::uint32_t>> ready; // (shard, flow)
    for (std::size_t i = 0; i < sessions; ++i)
        cli->connect(sc.port, session_options::reliable(),
                     [&](std::size_t sh, vtp::session s) {
                         std::lock_guard<std::mutex> lock(mu);
                         ready.emplace_back(sh, s.flow_id());
                     });

    std::map<std::uint32_t, std::vector<std::uint8_t>> got;
    std::size_t fins = 0, sent = 0;
    bool in_order = true;
    std::vector<engine::engine_event> evs(64);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (fins < sessions && std::chrono::steady_clock::now() < deadline) {
        {
            std::lock_guard<std::mutex> lock(mu);
            for (; sent < ready.size(); ++sent) {
                const auto [sh, flow] = ready[sent];
                const auto data = pattern(flow, bytes);
                ASSERT_TRUE(cli->send(sh, flow, 0, data.data(), data.size()));
                ASSERT_TRUE(cli->close(sh, flow));
            }
        }
        cli->poll_events(evs.data(), evs.size());
        const std::size_t n = srv->poll_events(evs.data(), evs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const engine::engine_event& e = evs[i];
            if (e.ev.type == event_type::readable) {
                auto& buf = got[e.flow];
                if (e.ev.offset != buf.size()) in_order = false;
                buf.insert(buf.end(), e.payload.begin(), e.payload.end());
            } else if (e.ev.type == event_type::fin) {
                ++fins;
            }
        }
        if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_EQ(fins, sessions);
    EXPECT_TRUE(in_order);
    ASSERT_EQ(got.size(), sessions);
    const engine::flow_shard_map map(sc.shards);
    std::vector<bool> owns(sc.shards, false);
    for (const auto& [flow, data] : got) {
        EXPECT_EQ(data, pattern(flow, bytes)) << "flow " << flow;
        owns[map.owner(flow)] = true;
    }

    const engine::engine_stats st = srv->stats();
    EXPECT_EQ(st.handoff_out, 0u);
    EXPECT_EQ(st.handoff_dropped, 0u);
    EXPECT_EQ(st.truncated_dropped, 0u);
    EXPECT_EQ(st.decode_errors, 0u);
    // Each shard that owns a flow received that flow's datagrams itself.
    const std::vector<engine::shard_stats> per = srv->per_shard_stats();
    for (std::size_t s = 0; s < per.size(); ++s) {
        if (!owns[s]) continue;
        EXPECT_GT(per[s].datagrams_rx, 0u) << "shard " << s;
    }
    cli->stop();
    srv->stop();
}

/// Run `fn` on shard `i` of `eng` and wait for it to finish.
template <typename Fn>
void on_shard(engine::server& eng, std::size_t i, Fn fn) {
    std::promise<void> done;
    eng.with_server(i, [&](vtp::server& srv) {
        fn(srv);
        done.set_value();
    });
    done.get_future().wait();
}

TEST(engine_udp_io_test, short_transfers_close_in_round_trips_and_are_reclaimed) {
    // Short request-sized transfers between two live engines finish in a
    // few round trips, not in the receiver's 100 ms placeholder feedback
    // interval; the client engine reclaims each closed outgoing session
    // at its next reap tick, timers included.
    engine::engine_config sc;
    sc.port = port_base + 20;
    sc.shards = 2;
    engine::engine_config cc = sc;
    cc.port = port_base + 21;
    cc.shards = 1;
    cc.reap_interval = util::milliseconds(50);
    std::unique_ptr<engine::server> srv, cli;
    try {
        srv = std::make_unique<engine::server>(sc);
        srv->start();
        cli = std::make_unique<engine::server>(cc);
        cli->start();
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot start engines: " << e.what();
    }
    std::size_t timers_before = 0;
    on_shard(*cli, 0, [&](vtp::server&) { timers_before = cli->shard_at(0).timers_pending(); });

    using clock = std::chrono::steady_clock;
    constexpr std::size_t sessions = 50;
    constexpr std::size_t bytes = 16 * 1024;
    constexpr std::uint32_t flow_base = 0x51000000;
    std::vector<clock::time_point> opened(sessions), closed(sessions);
    std::vector<bool> is_closed(sessions, false);
    std::map<std::uint32_t, std::vector<std::uint8_t>> got;
    std::size_t launched = 0, n_closed = 0;
    std::vector<engine::engine_event> evs(64);
    const auto drain_server = [&] {
        const std::size_t m = srv->poll_events(evs.data(), evs.size());
        for (std::size_t i = 0; i < m; ++i)
            if (evs[i].ev.type == event_type::readable) {
                auto& buf = got[evs[i].flow];
                if (evs[i].ev.offset == buf.size())
                    buf.insert(buf.end(), evs[i].payload.begin(), evs[i].payload.end());
            }
        return m;
    };
    // One session at a time, so each completion is the transfer's own
    // latency, not a queue behind its predecessors.
    const auto deadline = clock::now() + std::chrono::seconds(20);
    while (n_closed < sessions && clock::now() < deadline) {
        if (launched < sessions && launched == n_closed) {
            const std::uint32_t flow = flow_base + static_cast<std::uint32_t>(launched);
            session_options o = session_options::reliable();
            o.flow_id = flow;
            opened[launched++] = clock::now();
            // The handle is used on the shard thread, inside on_ready.
            cli->connect(sc.port, o, [flow](std::size_t, vtp::session s) {
                const auto data = pattern(flow, bytes);
                s.send(0, std::span<const std::uint8_t>(data));
                s.close();
            });
        }
        const std::size_t n = cli->poll_events(evs.data(), evs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t k = evs[i].flow - flow_base;
            if (evs[i].ev.type != event_type::closed || k >= sessions || is_closed[k]) continue;
            is_closed[k] = true;
            closed[k] = clock::now();
            ++n_closed;
        }
        if (n + drain_server() == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(n_closed, sessions);
    while (drain_server() > 0) {
    }
    std::vector<double> ms;
    for (std::size_t k = 0; k < sessions; ++k)
        ms.push_back(std::chrono::duration<double, std::milli>(closed[k] - opened[k]).count());
    std::sort(ms.begin(), ms.end());
    EXPECT_LT(ms[sessions / 2], 20.0) << "median connect-to-closed " << ms[sessions / 2]
                                      << " ms (p0 " << ms.front() << ", max " << ms.back()
                                      << ")";
    ASSERT_EQ(got.size(), sessions);
    for (const auto& [flow, data] : got) EXPECT_EQ(data, pattern(flow, bytes)) << "flow " << flow;

    // Two reap intervals after the last close every outgoing session is
    // gone, and so is every timer it armed.
    std::this_thread::sleep_for(2 * std::chrono::nanoseconds(cc.reap_interval));
    std::size_t agents = 0, timers = 0;
    std::uint64_t strays = 0;
    on_shard(*cli, 0, [&](vtp::server& s) {
        agents = cli->shard_at(0).agent_count();
        timers = cli->shard_at(0).timers_pending();
        strays = s.stats().stray_packets;
    });
    EXPECT_EQ(agents, 0u);
    EXPECT_EQ(timers, timers_before);

    // A duplicate fin_ack for a reclaimed flow: a stray for the client's
    // listener, which counts and drops it without creating an agent.
    auto tx = open_socket(port_base + 22);
    ASSERT_TRUE(tx.has_value());
    packet::handshake_segment fin_ack;
    fin_ack.type = packet::handshake_segment::kind::fin_ack;
    std::vector<std::uint8_t> dgram(8);
    for (int i = 0; i < 4; ++i) {
        dgram[i] = static_cast<std::uint8_t>(flow_base >> (24 - 8 * i));
        dgram[4 + i] = static_cast<std::uint8_t>(std::uint32_t{sc.port} >> (24 - 8 * i));
    }
    const std::vector<std::uint8_t> body = packet::encode_segment(fin_ack);
    dgram.insert(dgram.end(), body.begin(), body.end());
    const sockaddr_in to = engine::loopback_addr(cc.port);
    ASSERT_EQ(::sendto(tx->fd, dgram.data(), dgram.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof to),
              static_cast<ssize_t>(dgram.size()));
    std::uint64_t strays_after = strays;
    const auto stray_deadline = clock::now() + std::chrono::seconds(2);
    while (strays_after == strays && clock::now() < stray_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        on_shard(*cli, 0, [&](vtp::server& s) {
            strays_after = s.stats().stray_packets;
            agents = cli->shard_at(0).agent_count();
        });
    }
    EXPECT_EQ(strays_after, strays + 1);
    EXPECT_EQ(agents, 0u);
    EXPECT_EQ(cli->stats().decode_errors, 0u);
    cli->stop();
    srv->stop();
}

TEST(engine_udp_io_test, runt_and_oversized_datagrams_are_counted) {
    // Drops are counted, never silent: a datagram too short for the
    // 8-byte prefix is a decode error, one longer than any datagram the
    // engine sends is flagged truncated.
    engine::engine_config cfg;
    cfg.port = port_base + 23;
    cfg.shards = 1;
    std::unique_ptr<engine::server> eng;
    try {
        eng = std::make_unique<engine::server>(cfg);
        eng->start();
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot start engine: " << e.what();
    }
    auto tx = open_socket(port_base + 24);
    ASSERT_TRUE(tx.has_value());
    const sockaddr_in to = engine::loopback_addr(cfg.port);
    const auto send_and_wait = [&](std::size_t len) {
        const std::vector<std::uint8_t> dgram(len, 0x5a);
        const std::uint64_t rx = eng->stats().datagrams_rx;
        ASSERT_EQ(::sendto(tx->fd, dgram.data(), dgram.size(), 0,
                           reinterpret_cast<const sockaddr*>(&to), sizeof to),
                  static_cast<ssize_t>(len));
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (eng->stats().datagrams_rx == rx && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    send_and_wait(5);
    EXPECT_EQ(eng->stats().decode_errors, 1u);
    send_and_wait(engine::max_datagram + 1);
    EXPECT_EQ(eng->stats().truncated_dropped, 1u);
    EXPECT_EQ(eng->stats().decode_errors, 1u);
    EXPECT_EQ(eng->stats().datagrams_rx, 2u);
    eng->stop();
}

} // namespace

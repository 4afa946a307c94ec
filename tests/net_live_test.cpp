// Live UDP datapath: the same QTP agents over real loopback sockets.
// Skipped gracefully when the sandbox forbids socket creation.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>

#include "api/server.hpp"
#include "api/session.hpp"
#include "engine/udp_io.hpp"
#include "net/udp_host.hpp"

namespace {

using namespace vtp;
using util::milliseconds;

bool sockets_available() {
    try {
        net::event_loop probe_loop;
        net::udp_host probe(probe_loop, 39999);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

TEST(event_loop_test, timers_fire_in_order) {
    net::event_loop loop;
    std::vector<int> order;
    loop.schedule_after(milliseconds(20), [&] { order.push_back(2); });
    loop.schedule_after(milliseconds(5), [&] { order.push_back(1); });
    loop.schedule_after(milliseconds(40), [&] {
        order.push_back(3);
        loop.stop();
    });
    loop.run(milliseconds(500));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(event_loop_test, cancel_prevents_firing) {
    net::event_loop loop;
    bool fired = false;
    const auto id = loop.schedule_after(milliseconds(5), [&] { fired = true; });
    loop.cancel(id);
    loop.run(milliseconds(50));
    EXPECT_FALSE(fired);
}

TEST(event_loop_test, now_is_monotonic) {
    net::event_loop loop;
    const auto t0 = loop.now();
    loop.run(milliseconds(10));
    EXPECT_GE(loop.now(), t0);
}

TEST(live_udp_test, qtp_transfer_over_loopback) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    net::event_loop loop;
    net::udp_host sender_host(loop, 40001, 1);
    net::udp_host receiver_host(loop, 40002, 2);

    vtp::server srv(receiver_host, {});
    vtp::session* accepted = nullptr;
    srv.set_on_session([&](vtp::session& s) { accepted = &s; });
    vtp::session_options opts = vtp::session_options::reliable();
    opts.flow_id = 7;
    vtp::session client = vtp::session::connect(sender_host, 40002, opts);
    client.send(200'000);
    client.close();
    const qtp::connection_sender* tx = client.sender();

    // Run up to 20 s wall clock; bail early once complete.
    for (int rounds = 0; rounds < 200 && !tx->transfer_complete(); ++rounds)
        loop.run(milliseconds(100));

    EXPECT_TRUE(tx->transfer_complete());
    ASSERT_NE(accepted, nullptr);
    EXPECT_TRUE(accepted->receiver()->stream().complete());
    EXPECT_EQ(accepted->receiver()->stream().received_bytes(), 200'000u);
    EXPECT_GT(sender_host.sent_datagrams(), 0u);
    EXPECT_EQ(receiver_host.decode_errors(), 0u);
}

TEST(live_udp_test, runt_datagram_counts_as_decode_error) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support";

    net::event_loop loop;
    net::udp_host host(loop, 40005, 1);
    const int tx = engine::open_udp_socket(40006);
    const std::uint8_t runt[5] = {1, 2, 3, 4, 5}; // shorter than the 8-byte prefix
    const sockaddr_in to = engine::loopback_addr(40005);
    ASSERT_EQ(::sendto(tx, runt, sizeof runt, 0, reinterpret_cast<const sockaddr*>(&to),
                       sizeof to),
              static_cast<ssize_t>(sizeof runt));
    for (int rounds = 0; rounds < 100 && host.decode_errors() == 0; ++rounds)
        loop.run(milliseconds(10));
    ::close(tx);
    EXPECT_EQ(host.decode_errors(), 1u);
}

TEST(live_udp_test, light_profile_over_loopback) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    net::event_loop loop;
    net::udp_host sender_host(loop, 40003, 3);
    net::udp_host receiver_host(loop, 40004, 4);

    vtp::server srv(receiver_host, {});
    vtp::session_options opts = vtp::session_options::light();
    opts.flow_id = 9;
    vtp::session client = vtp::session::connect(sender_host, 40004, opts);
    client.send(1'000'000'000);

    loop.run(milliseconds(1500));
    EXPECT_TRUE(client.established());
    EXPECT_EQ(client.active_profile().estimation, tfrc::estimation_mode::sender_side);
    EXPECT_GT(client.stats().packets_sent, 0u);
}

} // namespace

// vtp::session / vtp::server facade tests, including the headline
// capability: runtime profile renegotiation on both substrates.
//
// The acceptance scenario: a session established with the default
// profile (no reliability, receiver-side estimation) renegotiates to
// partial reliability + sender-side estimation mid-transfer. Stream
// bytes delivered before and after the switch must be contiguous, and
// the active profile on both endpoints must match the accepted proposal.
#include <gtest/gtest.h>

#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "net/udp_host.hpp"
#include "sim/topology.hpp"

namespace {

using namespace vtp;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config quiet_net() {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 20e6;
    cfg.bottleneck_delay = milliseconds(20);
    // Deep enough never to drop: the contiguity assertions isolate the
    // renegotiation switch from ordinary congestion loss.
    cfg.bottleneck_queue_packets = 4000;
    return cfg;
}

/// Tracks that stream-0 deliveries form one contiguous prefix.
struct contiguity_probe {
    std::uint64_t next_expected = 0;
    bool contiguous = true;

    /// Consume every chunk `rx` has delivered so far.
    void drain(session& rx) {
        std::uint32_t id = 0;
        stream::ready_chunk c;
        while (rx.recv_chunk(id, c)) {
            if (id != 0 || c.offset != next_expected) contiguous = false;
            next_expected = c.offset + c.bytes.size();
        }
    }
};

std::vector<std::uint8_t> bytes_of(std::uint64_t n) {
    return std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0x5a);
}

/// Drain `s`'s event queue, keeping the events of type `t`.
std::vector<event> events_of(session& s, event_type t) {
    std::vector<event> out;
    event ev;
    while (s.poll(&ev, 1) == 1)
        if (ev.type == t) out.push_back(ev);
    return out;
}

TEST(session_api_test, renegotiation_mid_transfer_on_sim) {
    sim::dumbbell net(quiet_net());

    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    contiguity_probe probe;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client = session::connect(net.left_host(0), net.right_addr(0));
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(client.can_send());
    client.send(0, bytes_of(8'000'000));

    net.sched().run_until(seconds(1));
    ASSERT_TRUE(client.established());
    ASSERT_NE(accepted, nullptr);
    ASSERT_TRUE(accepted->established());
    probe.drain(*accepted);
    EXPECT_EQ(client.active_profile(), qtp::qtp_default_profile());
    const std::uint64_t delivered_before = probe.next_expected;
    EXPECT_GT(delivered_before, 0u);
    EXPECT_LT(delivered_before, 8'000'000u); // the transfer is mid-flight

    // Mid-transfer, the *receiver* proposes dropping to QTPlight:
    // partial reliability + sender-side loss estimation.
    const qtp::profile wanted = qtp::qtp_light_profile(sack::reliability_mode::partial);
    accepted->renegotiate(wanted);

    net.sched().run_until(seconds(2));
    EXPECT_FALSE(accepted->renegotiation_pending());
    // Both endpoints agree on the accepted proposal (nothing was
    // downgraded: both sides have full capabilities).
    EXPECT_EQ(client.active_profile(), wanted);
    EXPECT_EQ(accepted->active_profile(), wanted);
    const std::vector<event> changes = events_of(client, event_type::profile_changed);
    ASSERT_EQ(changes.size(), 1u);
    EXPECT_EQ(changes[0].prof, wanted);
    EXPECT_EQ(client.stats().renegotiations, 1u);
    EXPECT_EQ(accepted->stats().renegotiations, 1u);
    // Proposal accounting: the receiver initiated, the client only
    // answered; the listener saw no strays.
    EXPECT_EQ(accepted->stats().reneg_proposals_sent, 1u);
    EXPECT_EQ(accepted->stats().reneg_proposals_accepted, 1u);
    EXPECT_EQ(client.stats().reneg_proposals_sent, 0u);
    EXPECT_EQ(srv.stats().sessions, 1u);
    EXPECT_EQ(srv.stats().stray_renegs, 0u);
    EXPECT_GT(client.sender()->last_reneg_boundary(), 0u);

    client.close();
    net.sched().run_until(seconds(30));

    EXPECT_TRUE(client.closed());
    EXPECT_EQ(events_of(client, event_type::closed).size(), 1u);
    EXPECT_TRUE(accepted->closed());
    probe.drain(*accepted);
    // Bytes delivered before and after the switch form one contiguous
    // stream.
    EXPECT_TRUE(probe.contiguous);
    EXPECT_EQ(probe.next_expected, 8'000'000u);
    EXPECT_GT(probe.next_expected, delivered_before);
}

TEST(session_api_test, renegotiation_mid_transfer_on_loopback_udp) {
    net::event_loop loop;
    constexpr std::uint16_t server_port = 48101;
    constexpr std::uint16_t client_port = 48102;
    constexpr std::uint64_t stream_bytes = 500'000;

    std::unique_ptr<net::udp_host> server_host;
    std::unique_ptr<net::udp_host> client_host;
    try {
        server_host = std::make_unique<net::udp_host>(loop, server_port, 1);
        client_host = std::make_unique<net::udp_host>(loop, client_port, 2);
    } catch (const std::exception& e) {
        GTEST_SKIP() << "sockets unavailable: " << e.what();
    }

    server srv(*server_host, server_options{});
    session* accepted = nullptr;
    contiguity_probe probe;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client = session::connect(*client_host, server_port);
    client.send(0, bytes_of(stream_bytes));

    const auto run_until = [&](auto&& done, util::sim_time budget) {
        const auto started = loop.now();
        while (!done() && loop.now() - started < budget) loop.run(milliseconds(50));
        return done();
    };

    ASSERT_TRUE(run_until(
        [&] {
            if (accepted != nullptr) probe.drain(*accepted);
            return client.established() && probe.next_expected > 0;
        },
        seconds(10)));

    // This time the *sender* proposes the downgrade mid-transfer.
    const qtp::profile wanted = qtp::qtp_light_profile(sack::reliability_mode::partial);
    client.renegotiate(wanted);
    ASSERT_TRUE(run_until([&] { return !client.renegotiation_pending(); }, seconds(10)));
    EXPECT_EQ(client.active_profile(), wanted);
    EXPECT_EQ(accepted->active_profile(), wanted);

    client.close();
    ASSERT_TRUE(run_until([&] { return client.closed(); }, seconds(30)));
    probe.drain(*accepted);
    EXPECT_TRUE(probe.contiguous);
    EXPECT_EQ(probe.next_expected, stream_bytes);
}

TEST(session_api_test, renegotiation_is_downgraded_by_peer_capabilities) {
    sim::dumbbell net(quiet_net());

    // The server grants at most 2 Mb/s of QoS reservation and refuses
    // full reliability.
    server_options opts;
    opts.capabilities.allow_full_reliability = false;
    opts.capabilities.max_target_rate_bps = 2e6;
    server srv(net.right_host(0), opts);

    session client = session::connect(net.left_host(0), net.right_addr(0));
    client.send(1'000'000);
    net.sched().run_until(seconds(1));
    ASSERT_TRUE(client.established());

    // The client asks for the full QTPAF treatment mid-connection.
    client.renegotiate(qtp::qtp_af_profile(8e6));
    net.sched().run_until(seconds(3));

    // Accepted profile: full reliability downgraded to partial, target
    // rate clamped to the server's cap.
    ASSERT_FALSE(client.renegotiation_pending());
    EXPECT_EQ(client.active_profile().reliability, sack::reliability_mode::partial);
    EXPECT_TRUE(client.active_profile().qos_aware);
    EXPECT_DOUBLE_EQ(client.active_profile().target_rate_bps, 2e6);
    session* accepted = srv.find(client.flow_id());
    ASSERT_NE(accepted, nullptr);
    EXPECT_EQ(accepted->active_profile(), client.active_profile());
}

TEST(session_api_test, per_accept_capability_policy_applies) {
    sim::dumbbell net(quiet_net());

    // Policy: grant flow 7 receiver-side estimation, everyone else is
    // forced to sender-side (a loaded server shedding loss-history state).
    server_options opts;
    opts.capability_policy = [](std::uint32_t flow, std::uint32_t) {
        qtp::capabilities caps;
        caps.support_receiver_estimation = (flow == 7);
        return caps;
    };
    server srv(net.right_host(0), opts);

    session_options privileged;
    privileged.flow_id = 7;
    session a = session::connect(net.left_host(0), net.right_addr(0), privileged);
    session_options plain;
    plain.flow_id = 8;
    session b = session::connect(net.left_host(0), net.right_addr(0), plain);
    a.send(10'000);
    b.send(10'000);
    net.sched().run_until(seconds(2));

    ASSERT_TRUE(a.established());
    ASSERT_TRUE(b.established());
    EXPECT_EQ(a.active_profile().estimation, tfrc::estimation_mode::receiver_side);
    EXPECT_EQ(b.active_profile().estimation, tfrc::estimation_mode::sender_side);
    EXPECT_EQ(srv.session_count(), 2u);
}

TEST(session_api_test, upgrade_to_full_reliability_mid_transfer_then_close) {
    // Bytes sent before a none -> full switch were never scoreboard-
    // tracked; completion (and so the FIN) must not wait for them.
    sim::dumbbell net(quiet_net());
    server srv(net.right_host(0), server_options{});

    session client = session::connect(net.left_host(0), net.right_addr(0));
    client.send(8'000'000);
    net.sched().run_until(seconds(1));
    ASSERT_TRUE(client.established());
    ASSERT_GT(client.stats().stream_bytes_sent, 0u);

    client.renegotiate(qtp::qtp_af_profile(0.0)); // full reliability
    net.sched().run_until(seconds(2));
    ASSERT_EQ(client.active_profile().reliability, sack::reliability_mode::full);

    client.send(1'000'000);
    client.close();
    net.sched().run_until(seconds(60));
    EXPECT_TRUE(client.closed());
}

TEST(session_api_test, simultaneous_proposals_converge_on_the_senders) {
    sim::dumbbell net(quiet_net());
    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client = session::connect(net.left_host(0), net.right_addr(0));
    client.send(8'000'000);
    net.sched().run_until(seconds(1));
    ASSERT_NE(accepted, nullptr);

    // Both endpoints propose in the same RTT; the sender's wins.
    const qtp::profile senders = qtp::qtp_light_profile(sack::reliability_mode::partial);
    client.renegotiate(senders);
    accepted->renegotiate(qtp::qtp_af_profile(5e6));
    net.sched().run_until(seconds(8));

    EXPECT_FALSE(client.renegotiation_pending());
    EXPECT_FALSE(accepted->renegotiation_pending());
    EXPECT_EQ(client.active_profile(), accepted->active_profile());
    EXPECT_EQ(client.active_profile(), senders);
}

TEST(session_api_test, partial_to_full_upgrade_with_abandoned_bytes_still_closes) {
    // Messages abandoned under the partial policy leave permanent holes
    // in the scoreboard; a later switch to full reliability must not
    // wait for them (or close() hangs forever).
    sim::dumbbell_config cfg = quiet_net();
    cfg.bottleneck_queue_packets = 50;
    sim::dumbbell net(cfg);
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.05, 11));
    server srv(net.right_host(0), server_options{});

    session_options opts;
    opts.profile = qtp::qtp_light_profile(sack::reliability_mode::partial);
    opts.message_size = 1000;
    opts.message_deadline = milliseconds(50); // tight: recovery never fits
    session client = session::connect(net.left_host(0), net.right_addr(0), opts);
    client.send(4'000'000);
    net.sched().run_until(seconds(5));
    ASSERT_TRUE(client.established());
    ASSERT_GT(client.sender()->retransmissions().abandoned_bytes(), 0u);

    client.renegotiate(qtp::qtp_af_profile(0.0)); // full reliability
    net.sched().run_until(seconds(8));
    ASSERT_EQ(client.active_profile().reliability, sack::reliability_mode::full);

    client.close();
    net.sched().run_until(seconds(120));
    EXPECT_TRUE(client.closed());
}

TEST(session_api_test, send_after_close_is_ignored) {
    sim::dumbbell net(quiet_net());
    server srv(net.right_host(0), server_options{});

    session client = session::connect(net.left_host(0), net.right_addr(0));
    client.send(100'000);
    client.close();
    client.send(50'000); // must not extend the announced stream
    net.sched().run_until(seconds(20));

    EXPECT_TRUE(client.closed());
    EXPECT_EQ(client.stats().stream_bytes_queued, 100'000u);
    EXPECT_EQ(client.stats().stream_bytes_sent, 100'000u);
}

TEST(session_api_test, reap_closed_releases_server_state) {
    sim::dumbbell net(quiet_net());
    server srv(net.right_host(0), server_options{});

    session client = session::connect(net.left_host(0), net.right_addr(0));
    client.send(100'000);
    client.close();
    net.sched().run_until(seconds(20));
    ASSERT_TRUE(client.closed());
    ASSERT_EQ(srv.session_count(), 1u);

    EXPECT_EQ(srv.reap_closed(), 1u);
    EXPECT_EQ(srv.session_count(), 0u);
    EXPECT_EQ(srv.find(client.flow_id()), nullptr);
    EXPECT_EQ(srv.reap_closed(), 0u); // idempotent
}

TEST(session_api_test, close_without_renegotiation_still_works) {
    sim::dumbbell net(quiet_net());
    server srv(net.right_host(0), server_options{});
    contiguity_probe probe;

    session client =
        session::connect(net.left_host(0), net.right_addr(0), session_options::reliable());
    client.send(0, bytes_of(300'000));
    client.send(0, bytes_of(200'000)); // a second application write extends the stream
    client.close();
    net.sched().run_until(seconds(30));

    EXPECT_TRUE(client.closed());
    ASSERT_NE(srv.find(client.flow_id()), nullptr);
    probe.drain(*srv.find(client.flow_id()));
    EXPECT_TRUE(probe.contiguous);
    EXPECT_EQ(probe.next_expected, 500'000u);
    EXPECT_EQ(client.stats().stream_bytes_queued, 500'000u);
    EXPECT_EQ(client.stats().stream_bytes_acked, 500'000u);
}

} // namespace

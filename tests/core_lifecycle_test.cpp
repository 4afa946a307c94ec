// Connection lifecycle: FIN/FIN-ACK teardown and the passive listener.
#include <gtest/gtest.h>

#include "core/listener.hpp"
#include "mock_env.hpp"
#include "sim_fixtures.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config base_config(std::size_t pairs = 1, double bottleneck = 20e6) {
    sim::dumbbell_config cfg;
    cfg.pairs = pairs;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = bottleneck;
    cfg.bottleneck_delay = milliseconds(20);
    return cfg;
}

// A 1 ms-RTT path: 0.1 ms access links either side of a 0.3 ms bottleneck.
sim::dumbbell_config short_rtt_config() {
    sim::dumbbell_config cfg = base_config(1, 100e6);
    cfg.access_delay = util::microseconds(100);
    cfg.bottleneck_delay = util::microseconds(300);
    return cfg;
}

// Run the simulation until `tx` closes; returns the sim time it closed
// at, or util::time_never if it did not within `limit`.
util::sim_time run_until_closed(sim::dumbbell& net, const qtp::connection_sender& tx,
                                util::sim_time limit) {
    while (!tx.closed() && net.sched().now() < limit && net.sched().step()) {
    }
    return tx.closed() ? net.sched().now() : util::time_never;
}

TEST(teardown_test, reliable_transfer_closes_cleanly) {
    sim::dumbbell net(base_config());
    auto flow = add_session_flow(net, 0, 1, session_options::reliable(), 500'000);
    net.sched().run_until(seconds(30));
    EXPECT_TRUE(flow->sender().transfer_complete());
    EXPECT_TRUE(flow->sender().closed());
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_TRUE(flow->receiver()->remote_closed());
}

TEST(teardown_test, close_only_after_every_byte_is_acked) {
    // Under loss, the FIN must wait for the retransmissions to finish.
    sim::dumbbell net(base_config());
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 7));
    auto flow = add_session_flow(net, 0, 1, session_options::reliable(), 500'000);
    net.sched().run_until(seconds(60));
    ASSERT_TRUE(flow->sender().closed());
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_TRUE(flow->receiver()->stream().complete());
    EXPECT_EQ(flow->receiver()->stream().received_bytes(), 500'000u);
}

TEST(teardown_test, fin_retransmitted_through_loss) {
    // Heavy loss on the ack path kills FIN-ACKs; the FIN retry must win.
    sim::dumbbell net(base_config());
    auto flow = add_session_flow(net, 0, 1, session_options::reliable(), 100'000);
    // Lose 70% of reverse-path packets from t=0 (feedback + FIN-ACK).
    net.reverse_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.7, 3));
    net.sched().run_until(seconds(60));
    EXPECT_TRUE(flow->sender().fin_sent());
    EXPECT_TRUE(flow->sender().closed());
}

TEST(teardown_test, unreliable_finite_stream_also_closes) {
    sim::dumbbell net(base_config());
    auto flow = add_session_flow(net, 0, 1, session_options::light(), 200'000);
    net.sched().run_until(seconds(30));
    EXPECT_TRUE(flow->sender().closed());
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_TRUE(flow->receiver()->remote_closed());
}

TEST(teardown_test, open_stream_never_closes) {
    // Everything offered gets delivered, but without close() the stream
    // stays open: no FIN.
    sim::dumbbell net(base_config());
    server srv(net.right_host(0), server_options{});
    session client = session::connect(net.left_host(0), net.right_addr(0));
    client.send(100'000);
    net.sched().run_until(seconds(10));
    EXPECT_TRUE(client.sender()->transfer_complete());
    EXPECT_FALSE(client.sender()->fin_sent());
    EXPECT_FALSE(client.sender()->closed());
}

TEST(teardown_test, short_transfer_closes_in_round_trips) {
    // 16 KiB leave before the sender has an RTT estimate to announce, so
    // the receiver's feedback timer still runs on its 100 ms placeholder
    // when the stream completes. The young-session rule acknowledges the
    // completed stream at once instead of after the placeholder.
    sim::dumbbell net(short_rtt_config());
    auto flow = add_session_flow(net, 0, 1, session_options::reliable(), 16 * 1024);
    const util::sim_time t = run_until_closed(net, flow->sender(), seconds(1));
    EXPECT_LT(t, milliseconds(20)) << "closed at " << util::to_seconds(t) * 1e3 << " ms";
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_TRUE(flow->receiver()->stream().complete());
    EXPECT_EQ(flow->receiver()->stream().received_bytes(), 16u * 1024);
}

TEST(teardown_test, young_multi_stream_transfer_closes_in_round_trips) {
    // The same 16 KiB split over three streams: each completion finds
    // the feedback timer on the placeholder until the first one is
    // acknowledged, which re-arms the timer on the sender's estimate.
    sim::dumbbell net(short_rtt_config());
    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });
    session client = session::connect(net.left_host(0), net.right_addr(0),
                                      session_options::reliable());
    const std::uint32_t ids[3] = {0, client.open_stream(stream::stream_options{}),
                                  client.open_stream(stream::stream_options{})};
    const std::uint64_t lens[3] = {6000, 6000, 16 * 1024 - 12000};
    for (int i = 0; i < 3; ++i) EXPECT_EQ(client.send(ids[i], lens[i]), lens[i]);
    client.close();

    const util::sim_time t = run_until_closed(net, *client.sender(), seconds(1));
    EXPECT_LT(t, milliseconds(20)) << "closed at " << util::to_seconds(t) * 1e3 << " ms";
    ASSERT_NE(accepted, nullptr);
    const stream::stream_demux* demux = accepted->receiver()->demux();
    ASSERT_NE(demux, nullptr);
    for (int i = 0; i < 3; ++i) {
        const sack::reassembly* ra = demux->find(ids[i]);
        ASSERT_NE(ra, nullptr) << "stream " << ids[i];
        EXPECT_TRUE(ra->complete()) << "stream " << ids[i];
        EXPECT_EQ(ra->received_bytes(), lens[i]) << "stream " << ids[i];
    }
}

TEST(teardown_test, destroyed_sender_leaves_no_timer_armed) {
    // An owner may destroy a sender at any point (the engine reclaims
    // closed outgoing sessions): every timer it armed goes with it.
    mock_env env;
    qtp::connection_config cfg;
    cfg.flow_id = 7;
    cfg.peer_addr = 9;
    auto owned = std::make_unique<qtp::connection_sender>(cfg);
    qtp::connection_sender* tx = owned.get();
    env.attach_dynamic(7, std::move(owned));
    ASSERT_EQ(env.sent.size(), 1u);
    const auto* syn = std::get_if<packet::handshake_segment>(env.sent[0].body.get());
    ASSERT_NE(syn, nullptr);
    EXPECT_EQ(env.pending_timers(), 1u); // SYN retransmission

    qtp::handshake_responder peer(qtp::capabilities{});
    const auto answer = peer.on_segment(*syn);
    ASSERT_TRUE(answer.has_value());
    tx->offer(10'000);
    tx->on_packet(packet::make_packet(7, 9, 0, answer->syn_ack));
    ASSERT_TRUE(tx->established());
    EXPECT_EQ(env.pending_timers(), 2u); // pacing and no-feedback

    env.detach_dynamic(7);
    EXPECT_EQ(env.pending_timers(), 0u);
}

TEST(listener_test, accepts_multiple_connections_on_one_host) {
    sim::dumbbell net(base_config(2, 50e6));

    qtp::listener_config lcfg;
    auto* accept_log = new std::vector<std::uint32_t>; // owned by lambda below
    qtp::listener listen(lcfg);
    listen.set_on_accept([accept_log](std::uint32_t flow, qtp::connection_receiver&) {
        accept_log->push_back(flow);
    });
    listen.start(net.right_host(0));
    net.right_host(0).set_default_agent(&listen);

    // Two independent senders target the same server host.
    auto mk_sender = [&](std::uint32_t flow) {
        qtp::connection_config cfg;
        cfg.flow_id = flow;
        cfg.peer_addr = net.right_addr(0);
        cfg.proposal = qtp::qtp_af_profile(0.0);
        auto tx = std::make_unique<qtp::connection_sender>(cfg);
        tx->offer(300'000);
        tx->finish_stream();
        return tx;
    };
    auto* tx1 = net.left_host(0).attach(101, mk_sender(101));
    auto* tx2 = net.left_host(1).attach(102, mk_sender(102));

    net.sched().run_until(seconds(40));
    EXPECT_EQ(listen.accepted(), 2u);
    ASSERT_EQ(accept_log->size(), 2u);
    EXPECT_TRUE(tx1->transfer_complete());
    EXPECT_TRUE(tx2->transfer_complete());
    EXPECT_TRUE(tx1->closed());
    EXPECT_TRUE(tx2->closed());
    delete accept_log;
}

TEST(listener_test, non_syn_strays_are_counted_not_accepted) {
    sim::dumbbell net(base_config());
    qtp::listener listen(qtp::listener_config{});
    listen.start(net.right_host(0));
    net.right_host(0).set_default_agent(&listen);

    // A lone data packet for an unknown flow: must not spawn an endpoint.
    class stray : public qtp::agent {
    public:
        explicit stray(std::uint32_t dst) : dst_(dst) {}
        void start(qtp::environment& env) override {
            packet::data_segment d;
            d.payload_len = 100;
            env.send(packet::make_packet(55, env.local_addr(), dst_, d));
        }
        void on_packet(const packet::packet&) override {}
        std::string name() const override { return "stray"; }

    private:
        std::uint32_t dst_;
    };
    net.left_host(0).attach(55, std::make_unique<stray>(net.right_addr(0)));
    net.sched().run_until(seconds(2));
    EXPECT_EQ(listen.accepted(), 0u);
    EXPECT_EQ(listen.stray_packets(), 1u);
}

TEST(listener_test, negotiation_applies_listener_capabilities) {
    sim::dumbbell net(base_config());
    qtp::listener_config lcfg;
    lcfg.caps.support_receiver_estimation = false; // light server
    qtp::listener listen(lcfg);
    listen.start(net.right_host(0));
    net.right_host(0).set_default_agent(&listen);

    qtp::connection_config cfg;
    cfg.flow_id = 9;
    cfg.peer_addr = net.right_addr(0);
    cfg.proposal = qtp::qtp_default_profile(); // asks for receiver-side
    auto* tx = net.left_host(0).attach(9, std::make_unique<qtp::connection_sender>(cfg));

    net.sched().run_until(seconds(5));
    ASSERT_TRUE(tx->established());
    EXPECT_EQ(tx->active_profile().estimation, tfrc::estimation_mode::sender_side);
}

} // namespace

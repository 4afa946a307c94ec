// Composed QTP connections end-to-end: handshake, reliability modes,
// QoS-aware rate floor, QTPlight placement, bounded receiver state.
#include <gtest/gtest.h>

#include "diffserv/conditioner.hpp"
#include "diffserv/rio.hpp"
#include "sim_fixtures.hpp"
#include "util/pattern.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config base_config(std::size_t pairs, double bottleneck_bps = 10e6) {
    sim::dumbbell_config cfg;
    cfg.pairs = pairs;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = bottleneck_bps;
    cfg.bottleneck_delay = milliseconds(20);
    cfg.bottleneck_queue_packets = 60;
    return cfg;
}

TEST(qtp_connection_test, handshake_establishes_and_data_flows) {
    sim::dumbbell net(base_config(1));
    auto flow = add_session_flow(net, 0, 1, session_options{});
    net.sched().run_until(seconds(20));
    EXPECT_TRUE(flow->sender().established());
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_TRUE(flow->receiver()->established());
    EXPECT_GT(flow->receiver()->received_bytes(), 1'000'000u);
}

TEST(qtp_connection_test, default_profile_fills_bottleneck) {
    sim::dumbbell net(base_config(1));
    auto flow = add_session_flow(net, 0, 1, session_options{});
    net.sched().run_until(seconds(40));
    ASSERT_NE(flow->receiver(), nullptr);
    const double goodput = goodput_bps(flow->receiver()->received_bytes(), seconds(40));
    EXPECT_GT(goodput, 7e6);
}

TEST(qtp_connection_test, full_reliability_transfer_completes_under_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.02, 31));

    // reliable(): pure full-reliability TFRC (qos target 0).
    auto flow = add_session_flow(net, 0, 1, session_options::reliable(), 2'000'000);

    net.sched().run_until(seconds(120));
    EXPECT_TRUE(flow->sender().transfer_complete());
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_TRUE(flow->receiver()->stream().complete());
    EXPECT_EQ(flow->receiver()->stream().received_bytes(), 2'000'000u);
    EXPECT_GT(flow->sender().rtx_bytes_sent(), 0u);
}

TEST(qtp_connection_test, ordered_delivery_under_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 77));

    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });
    session_options opts = session_options::reliable();
    opts.flow_id = 1;
    session client = session::connect(net.left_host(0), net.right_addr(0), opts);
    client.send(0, util::pattern_buffer(1, 0, 500'000));
    client.close();
    net.sched().run_until(seconds(120));
    ASSERT_NE(accepted, nullptr);

    // Chunks come out in delivery order: contiguous offsets, exact bytes.
    std::uint64_t expect_off = 0;
    bool ordered = true;
    std::uint64_t mismatched = 0;
    std::uint32_t sid = 0;
    stream::ready_chunk chunk;
    while (accepted->recv_chunk(sid, chunk)) {
        if (chunk.offset != expect_off) ordered = false;
        for (std::size_t k = 0; k < chunk.bytes.size(); ++k)
            if (chunk.bytes[k] != util::pattern_byte(1, sid, chunk.offset + k)) ++mismatched;
        expect_off = chunk.offset + chunk.bytes.size();
    }
    EXPECT_TRUE(ordered);
    EXPECT_EQ(mismatched, 0u);
    EXPECT_EQ(expect_off, 500'000u);
}

TEST(qtp_connection_test, light_profile_negotiates_sender_estimation) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.02, 13));
    auto flow = add_session_flow(net, 0, 1, session_options::light());
    net.sched().run_until(seconds(30));

    ASSERT_TRUE(flow->sender().established());
    EXPECT_EQ(flow->sender().active_profile().estimation,
              tfrc::estimation_mode::sender_side);
    // The sender, not the receiver, holds the loss history.
    EXPECT_GT(flow->sender().estimator().history().loss_events(), 0u);
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_EQ(flow->receiver()->history().loss_events(), 0u);
}

TEST(qtp_connection_test, light_receiver_state_is_smaller) {
    // Same lossy run with classic vs light profile: the light receiver
    // keeps materially less per-connection state (E4's memory claim).
    auto run_state_bytes = [](bool light) {
        sim::dumbbell net(base_config(1, 100e6));
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(0.02, 55));
        auto flow = add_session_flow(
            net, 0, 1, light ? session_options::light() : session_options{});
        net.sched().run_until(seconds(30));
        return flow->receiver() != nullptr ? flow->receiver()->state_bytes() : 0;
    };
    EXPECT_LT(run_state_bytes(true), run_state_bytes(false));
}

TEST(qtp_connection_test, qos_floor_holds_rate_in_af_network) {
    // Congested AF bottleneck: competing best-effort QTP flow. The QTPAF
    // flow's committed rate must survive.
    const double target = 4e6;
    sim::dumbbell_config cfg = base_config(2, 10e6);
    cfg.bottleneck_queue = [&] {
        return std::make_unique<diffserv::rio_queue>(
            diffserv::default_rio_params(60, 1050), 2025);
    };
    sim::dumbbell net(cfg);

    diffserv::conditioner cond(net.sched());
    cond.set_profile(1, target, 30'000);
    cond.install(net.left_router());

    auto af_flow = add_session_flow(net, 0, 1, session_options::af(target));
    auto be_flow = add_session_flow(net, 1, 2, session_options{});

    net.sched().run_until(seconds(60));
    ASSERT_NE(af_flow->receiver(), nullptr);
    ASSERT_NE(be_flow->receiver(), nullptr);
    const double af_goodput =
        goodput_bps(af_flow->receiver()->received_bytes(), seconds(60));
    EXPECT_GT(af_goodput, 0.9 * target);
    // And the best-effort flow still gets leftovers (no starvation).
    EXPECT_GT(goodput_bps(be_flow->receiver()->received_bytes(), seconds(60)), 1e6);
}

TEST(qtp_connection_test, partial_reliability_abandons_expired_messages) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.05, 41));

    session_options opts = session_options::light(sack::reliability_mode::partial);
    opts.message_size = 1000;
    opts.message_deadline = milliseconds(30); // tighter than the 44ms RTT
    auto flow = add_session_flow(net, 0, 1, opts);
    net.sched().run_until(seconds(30));

    // Losses happen, but retransmitting would always miss the deadline:
    // everything queued must be abandoned, (almost) nothing retransmitted.
    EXPECT_GT(flow->sender().retransmissions().abandoned_ranges(), 0u);
    EXPECT_EQ(flow->sender().rtx_bytes_sent(), 0u);
}

TEST(qtp_connection_test, partial_reliability_retransmits_when_deadline_allows) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.05, 43));

    session_options opts = session_options::light(sack::reliability_mode::partial);
    opts.message_size = 1000;
    opts.message_deadline = seconds(5); // plenty of slack
    auto flow = add_session_flow(net, 0, 1, opts);
    net.sched().run_until(seconds(30));
    EXPECT_GT(flow->sender().rtx_bytes_sent(), 0u);
}

TEST(qtp_connection_test, handshake_survives_syn_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    // Total blackout for the first 2 s: several SYNs die.
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(1.0, 3));
    auto flow = add_session_flow(net, 0, 1, session_options{});
    net.sched().at(seconds(2), [&net] {
        net.forward_bottleneck().set_loss_model(std::make_unique<sim::no_loss>());
    });
    net.sched().run_until(seconds(20));
    EXPECT_TRUE(flow->sender().established());
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_GT(flow->receiver()->received_bytes(), 0u);
}

TEST(qtp_connection_test, feedback_overhead_counted) {
    sim::dumbbell net(base_config(1));
    auto flow = add_session_flow(net, 0, 1, session_options{});
    net.sched().run_until(seconds(10));
    ASSERT_NE(flow->receiver(), nullptr);
    EXPECT_GT(flow->receiver()->feedback_sent(), 0u);
    EXPECT_GT(flow->receiver()->feedback_bytes(), 0u);
    // Roughly one feedback per RTT (44 ms) over ~10 s => tens, not thousands.
    EXPECT_LT(flow->receiver()->feedback_sent(), 2000u);
}

TEST(qtp_connection_test, unreliable_receiver_state_stops_growing) {
    // A 20 Mb/s path with 2% Bernoulli loss and reliability none: every
    // lost packet leaves a gap in the stream's receive map that is never
    // filled. Once more packets are lost than the reassembly keeps gaps
    // for, the receiver's state must stop growing, for either profile.
    // It is averaged over the 10 s before each checkpoint: the SACK range
    // list of the last 256 sequence numbers moves with the recent losses.
    for (const bool light : {false, true}) {
        sim::dumbbell net(base_config(1, 20e6));
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(0.02, 17));
        auto flow = add_session_flow(
            net, 0, 1, light ? session_options::light() : session_options{});
        auto mean_state_until = [&](util::sim_time checkpoint) {
            net.sched().run_until(checkpoint - seconds(10));
            double sum = 0.0;
            for (int i = 1; i <= 100; ++i) {
                net.sched().run_until(checkpoint - seconds(10) + i * milliseconds(100));
                sum += static_cast<double>(flow->receiver()->state_bytes());
            }
            return sum / 100.0;
        };
        const double at_240 = mean_state_until(seconds(240));
        const std::uint64_t lost =
            flow->sender().packets_sent() - flow->receiver()->received_packets();
        EXPECT_GT(lost, 2 * sack::reassembly::max_open_gaps) << "light=" << light;
        const double at_480 = mean_state_until(seconds(480));
        EXPECT_NEAR(at_480, at_240, 0.01 * at_240) << "light=" << light;
    }
}

} // namespace

// End-to-end TFRC behaviour on the simulator: link utilisation,
// fairness, loss response, sender-side estimation parity, back-off.
// Classic TFRC is a vtp::session with session_options{} (reliability
// none, receiver-side p); QTPlight is session_options::light().
#include <gtest/gtest.h>

#include "cc/tfrc_cc.hpp"
#include "sim_fixtures.hpp"

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

std::unique_ptr<session_flow> add_tfrc(sim::dumbbell& net, std::size_t i,
                                       std::uint32_t flow_id) {
    return add_session_flow(net, i, flow_id, session_options{});
}

/// The sender's RFC 3448 rate controller behind the cc interface.
const tfrc::rate_controller& rate_of(session_flow& flow) {
    return dynamic_cast<const cc::tfrc_sender&>(flow.sender().cc()).rate();
}

TEST(tfrc_e2e_test, single_flow_fills_most_of_bottleneck) {
    sim::dumbbell net(base_config(1));
    auto flow = add_tfrc(net, 0, 1);
    net.sched().run_until(seconds(40));
    const double goodput = goodput_bps(flow->received_bytes(), seconds(40));
    // A single TFRC flow should reach at least 70% of a 10 Mb/s link
    // (slow start takes a few seconds; the equation tracks near capacity).
    EXPECT_GT(goodput, 7e6);
    EXPECT_LT(goodput, 10.5e6);
}

TEST(tfrc_e2e_test, slow_start_doubles_before_first_loss) {
    // Sample inside the first half second: with a 44 ms RTT slow start
    // reaches a 50 Mb/s link's capacity in well under a second.
    sim::dumbbell net(base_config(1, 50e6)); // roomy: no loss for a while
    auto flow = add_tfrc(net, 0, 1);
    net.sched().run_until(milliseconds(250));
    const double early_rate = rate_of(*flow).allowed_rate();
    EXPECT_TRUE(rate_of(*flow).in_slow_start());
    net.sched().run_until(milliseconds(500));
    const double later_rate = rate_of(*flow).allowed_rate();
    EXPECT_GT(later_rate, 1.5 * early_rate);
}

TEST(tfrc_e2e_test, two_flows_share_fairly) {
    sim::dumbbell net(base_config(2));
    auto f1 = add_tfrc(net, 0, 1);
    auto f2 = add_tfrc(net, 1, 2);
    net.sched().run_until(seconds(60));
    const double g1 = goodput_bps(f1->received_bytes(), seconds(60));
    const double g2 = goodput_bps(f2->received_bytes(), seconds(60));
    EXPECT_GT(g1, 1e6);
    EXPECT_GT(g2, 1e6);
    const double ratio = g1 > g2 ? g1 / g2 : g2 / g1;
    EXPECT_LT(ratio, 1.6); // same RTT, same protocol: near-equal shares
}

TEST(tfrc_e2e_test, receiver_reports_loss_under_congestion) {
    sim::dumbbell net(base_config(2));
    auto f1 = add_tfrc(net, 0, 1);
    auto f2 = add_tfrc(net, 1, 2);
    net.sched().run_until(seconds(30));
    ASSERT_NE(f1->receiver(), nullptr);
    EXPECT_GT(f1->receiver()->history().loss_events(), 0u);
    EXPECT_GT(rate_of(*f1).current_loss_rate(), 0.0);
}

TEST(tfrc_e2e_test, throughput_tracks_equation_under_random_loss) {
    sim::dumbbell_config cfg = base_config(1, 100e6); // no congestion
    sim::dumbbell net(cfg);
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.02, 99));
    auto flow = add_tfrc(net, 0, 1);
    net.sched().run_until(seconds(60));

    const double goodput = goodput_bps(flow->received_bytes(), seconds(60));
    tfrc::equation_params eq;
    const double rtt_s = util::to_seconds(net.base_rtt(0)) + 0.001;
    const double predicted = 8.0 * tfrc::throughput_bytes_per_second(eq, rtt_s, 0.02);
    // Within a factor ~2 of the analytic equation value.
    EXPECT_GT(goodput, predicted / 2.0);
    EXPECT_LT(goodput, predicted * 2.0);
}

TEST(tfrc_e2e_test, higher_loss_lower_throughput) {
    double prev = 1e18;
    for (double p : {0.005, 0.02, 0.08}) {
        sim::dumbbell net(base_config(1, 100e6));
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(p, 7));
        auto flow = add_tfrc(net, 0, 1);
        net.sched().run_until(seconds(40));
        const double goodput = goodput_bps(flow->received_bytes(), seconds(40));
        EXPECT_LT(goodput, prev);
        prev = goodput;
    }
}

TEST(tfrc_e2e_test, light_flow_matches_classic_flow_throughput) {
    // Same network, same loss: sender-side estimation must achieve
    // essentially the same rate as receiver-side (E5 core claim).
    const double loss = 0.01;
    double goodput[2] = {0.0, 0.0};
    for (int light = 0; light < 2; ++light) {
        sim::dumbbell net(base_config(1, 100e6));
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(loss, 5));
        auto flow = add_session_flow(net, 0, 1,
                                     light ? session_options::light() : session_options{});
        net.sched().run_until(seconds(60));
        goodput[light] = goodput_bps(flow->received_bytes(), seconds(60));
    }
    EXPECT_GT(goodput[1], 0.7 * goodput[0]);
    EXPECT_LT(goodput[1], 1.4 * goodput[0]);
}

TEST(tfrc_e2e_test, light_sender_estimates_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 3));
    auto flow = add_session_flow(net, 0, 1, session_options::light());
    net.sched().run_until(seconds(30));
    EXPECT_GT(flow->sender().estimator().history().loss_events(), 0u);
    const double p = flow->sender().estimator().loss_event_rate();
    // Loss event rate is below raw packet loss (bursts merge) but the
    // order of magnitude must match.
    EXPECT_GT(p, 0.002);
    EXPECT_LT(p, 0.2);
}

TEST(tfrc_e2e_test, nofeedback_timer_halves_rate_on_blackout) {
    // 100% loss after 10 s: the sender must back off dramatically.
    sim::dumbbell net(base_config(1, 100e6));
    auto flow = add_tfrc(net, 0, 1);
    net.sched().run_until(seconds(10));
    const double rate_before = rate_of(*flow).allowed_rate();
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(1.0, 1));
    net.sched().run_until(seconds(30));
    const double rate_after = rate_of(*flow).allowed_rate();
    EXPECT_LT(rate_after, rate_before / 8.0);
    EXPECT_GT(rate_of(*flow).timeout_count(), 0u);
}

TEST(tfrc_e2e_test, finite_transfer_stops_sending) {
    sim::dumbbell net(base_config(1));
    auto flow = add_session_flow(net, 0, 1, session_options{}, 500'000);
    net.sched().run_until(seconds(60));
    EXPECT_TRUE(flow->sender().closed());
    EXPECT_EQ(flow->sender().new_bytes_sent(), 500'000u);
    const std::uint64_t sent = flow->sender().packets_sent();
    net.sched().run_until(seconds(70));
    EXPECT_EQ(flow->sender().packets_sent(), sent); // nothing after the close
}

TEST(tfrc_e2e_test, rtt_estimate_converges_to_path_rtt) {
    // Bottleneck below the access rate so the standing queue is bounded
    // by the (shallow) bottleneck buffer, not the deep access queues.
    sim::dumbbell_config cfg = base_config(1, 30e6);
    cfg.bottleneck_queue_packets = 30;
    sim::dumbbell net(cfg);
    auto flow = add_tfrc(net, 0, 1);
    net.sched().run_until(seconds(20));
    const double est = util::to_seconds(rate_of(*flow).rtt());
    const double base = util::to_seconds(net.base_rtt(0));
    EXPECT_GT(est, 0.8 * base);
    EXPECT_LT(est, 2.0 * base); // some queueing on top of propagation
}

} // namespace

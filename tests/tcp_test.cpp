// TCP baseline: NewReno arithmetic, RTO estimator, and end-to-end
// behaviour on the simulator.
#include <gtest/gtest.h>

#include "sim_fixtures.hpp"
#include "util/stats.hpp"
#include "tcp/newreno.hpp"
#include "tcp/rto.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;
using util::milliseconds;
using util::seconds;

// ---------------------------------------------------------------------------
// newreno unit tests
// ---------------------------------------------------------------------------

TEST(newreno_test, initial_window_rfc3390) {
    tcp::newreno cc(tcp::newreno_config{1000, 0, UINT64_MAX});
    // min(4*1000, max(2*1000, 4380)) = 4000
    EXPECT_EQ(cc.cwnd(), 4000u);
    tcp::newreno cc2(tcp::newreno_config{1460, 0, UINT64_MAX});
    EXPECT_EQ(cc2.cwnd(), 4380u);
}

TEST(newreno_test, slow_start_doubles_per_window) {
    tcp::newreno cc(tcp::newreno_config{1000, 2000, UINT64_MAX});
    // Ack a full window: cwnd should roughly double (1 MSS per MSS acked).
    cc.on_new_ack(1000);
    cc.on_new_ack(1000);
    EXPECT_EQ(cc.cwnd(), 4000u);
    EXPECT_TRUE(cc.in_slow_start());
}

TEST(newreno_test, congestion_avoidance_linear) {
    tcp::newreno cc(tcp::newreno_config{1000, 10000, 10000});
    EXPECT_FALSE(cc.in_slow_start());
    // One full window of acks -> +1 MSS.
    for (int i = 0; i < 10; ++i) cc.on_new_ack(1000);
    EXPECT_NEAR(static_cast<double>(cc.cwnd()), 11000.0, 1100.0);
}

TEST(newreno_test, recovery_halves_window) {
    tcp::newreno cc(tcp::newreno_config{1000, 20000, UINT64_MAX});
    cc.enter_recovery(20000);
    EXPECT_EQ(cc.ssthresh(), 10000u);
    EXPECT_EQ(cc.cwnd(), 10000u);
    cc.exit_recovery();
    EXPECT_EQ(cc.cwnd(), 10000u);
}

TEST(newreno_test, recovery_floor_two_mss) {
    tcp::newreno cc(tcp::newreno_config{1000, 1000, UINT64_MAX});
    cc.enter_recovery(1000);
    EXPECT_EQ(cc.ssthresh(), 2000u);
}

TEST(newreno_test, timeout_collapses_to_one_mss) {
    tcp::newreno cc(tcp::newreno_config{1000, 20000, UINT64_MAX});
    cc.on_timeout(20000);
    EXPECT_EQ(cc.cwnd(), 1000u);
    EXPECT_EQ(cc.ssthresh(), 10000u);
    EXPECT_TRUE(cc.in_slow_start());
}

// ---------------------------------------------------------------------------
// rto unit tests
// ---------------------------------------------------------------------------

TEST(rto_test, initial_rto_without_samples) {
    tcp::rto_estimator rto;
    EXPECT_EQ(rto.rto(), seconds(1));
}

TEST(rto_test, first_sample_sets_srtt) {
    tcp::rto_estimator rto;
    rto.on_sample(milliseconds(100));
    EXPECT_EQ(rto.srtt(), milliseconds(100));
    EXPECT_EQ(rto.rttvar(), milliseconds(50));
    // RTO = SRTT + 4*RTTVAR = 300ms.
    EXPECT_EQ(rto.rto(), milliseconds(300));
}

TEST(rto_test, smoothing_converges) {
    tcp::rto_estimator rto;
    for (int i = 0; i < 100; ++i) rto.on_sample(milliseconds(80));
    EXPECT_NEAR(util::to_milliseconds(rto.srtt()), 80.0, 1.0);
    // Variance collapses; RTO clamps at min_rto.
    EXPECT_EQ(rto.rto(), milliseconds(200));
}

TEST(rto_test, backoff_doubles_and_resets) {
    tcp::rto_estimator rto;
    rto.on_sample(milliseconds(100));
    const auto base = rto.rto();
    rto.on_timeout();
    EXPECT_EQ(rto.rto(), 2 * base);
    rto.on_timeout();
    EXPECT_EQ(rto.rto(), 4 * base);
    rto.reset_backoff();
    EXPECT_EQ(rto.rto(), base);
}

TEST(rto_test, max_rto_clamp) {
    tcp::rto_config cfg;
    cfg.max_rto = seconds(4);
    tcp::rto_estimator rto(cfg);
    rto.on_sample(seconds(1));
    for (int i = 0; i < 10; ++i) rto.on_timeout();
    EXPECT_LE(rto.rto(), seconds(4));
}

// ---------------------------------------------------------------------------
// end-to-end
// ---------------------------------------------------------------------------

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

TEST(tcp_e2e_test, single_flow_fills_most_of_bottleneck) {
    sim::dumbbell net(base_config(1));
    auto flow = add_tcp_flow(net, 0, 1);
    net.sched().run_until(seconds(30));
    const double goodput = goodput_bps(flow.receiver->delivered_bytes(), seconds(30));
    EXPECT_GT(goodput, 7e6);
    EXPECT_LT(goodput, 10.5e6);
}

TEST(tcp_e2e_test, finite_transfer_completes_under_congestion_loss) {
    sim::dumbbell_config cfg = base_config(1);
    cfg.bottleneck_queue_packets = 20; // shallow: forces drops
    sim::dumbbell net(cfg);
    auto flow = add_tcp_flow(net, 0, 1, 2'000'000);
    net.sched().run_until(seconds(60));
    EXPECT_TRUE(flow.sender->completed());
    EXPECT_TRUE(flow.receiver->complete());
    EXPECT_EQ(flow.receiver->delivered_bytes(), 2'000'000u);
    EXPECT_GT(flow.sender->retransmitted_segments(), 0u);
}

TEST(tcp_e2e_test, finite_transfer_completes_under_random_loss) {
    sim::dumbbell net(base_config(1, 100e6));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 17));
    auto flow = add_tcp_flow(net, 0, 1, 1'000'000);
    net.sched().run_until(seconds(120));
    EXPECT_TRUE(flow.sender->completed());
    EXPECT_EQ(flow.receiver->delivered_bytes(), 1'000'000u);
}

TEST(tcp_e2e_test, delivery_is_in_order_bytes) {
    sim::dumbbell_config cfg = base_config(1);
    cfg.bottleneck_queue_packets = 15;
    sim::dumbbell net(cfg);

    std::uint64_t expected_offset = 0;
    bool ordered = true;
    tcp::tcp_sender_config scfg;
    scfg.flow_id = 1;
    scfg.peer_addr = net.right_addr(0);
    scfg.max_bytes = 1'000'000;
    tcp::tcp_receiver_config rcfg;
    rcfg.flow_id = 1;
    rcfg.peer_addr = net.left_addr(0);
    auto* rx = net.right_host(0).attach(
        1, std::make_unique<tcp::tcp_receiver_agent>(rcfg));
    rx->set_delivery([&](std::uint64_t off, std::uint32_t len) {
        if (off != expected_offset) ordered = false;
        expected_offset = off + len;
    });
    net.left_host(0).attach(1, std::make_unique<tcp::tcp_sender_agent>(scfg));
    net.sched().run_until(seconds(60));
    EXPECT_TRUE(ordered);
    EXPECT_EQ(expected_offset, 1'000'000u);
}

TEST(tcp_e2e_test, two_flows_share_reasonably) {
    sim::dumbbell net(base_config(2));
    auto f1 = add_tcp_flow(net, 0, 1);
    auto f2 = add_tcp_flow(net, 1, 2);
    net.sched().run_until(seconds(60));
    const double g1 = goodput_bps(f1.receiver->delivered_bytes(), seconds(60));
    const double g2 = goodput_bps(f2.receiver->delivered_bytes(), seconds(60));
    EXPECT_GT(g1, 1e6);
    EXPECT_GT(g2, 1e6);
    const double ratio = g1 > g2 ? g1 / g2 : g2 / g1;
    EXPECT_LT(ratio, 2.0);
}

TEST(tcp_e2e_test, sawtooth_rate_is_bursty) {
    // Sample per-500ms goodput: TCP's CoV must be clearly nonzero under
    // congestion (the smoothness contrast TFRC is designed to fix).
    sim::dumbbell_config cfg = base_config(1);
    cfg.bottleneck_queue_packets = 20;
    sim::dumbbell net(cfg);
    auto flow = add_tcp_flow(net, 0, 1);

    util::sample_series window_rates;
    std::uint64_t last_bytes = 0;
    std::function<void()> sampler = [&] {
        const std::uint64_t bytes = flow.receiver->delivered_bytes();
        window_rates.add(static_cast<double>(bytes - last_bytes));
        last_bytes = bytes;
        net.sched().after(milliseconds(500), sampler);
    };
    net.sched().after(seconds(5) + milliseconds(500), sampler); // skip slow start
    net.sched().run_until(seconds(60));
    EXPECT_GT(window_rates.cov(), 0.02);
}

TEST(tcp_e2e_test, rto_recovers_from_total_blackout) {
    sim::dumbbell net(base_config(1, 100e6));
    auto flow = add_tcp_flow(net, 0, 1);
    net.sched().run_until(seconds(5));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(1.0, 1));
    net.sched().run_until(seconds(15));
    EXPECT_GT(flow.sender->timeouts(), 0u);
    const std::uint64_t delivered_at_blackout = flow.receiver->delivered_bytes();
    // Restore the path; transfer must resume.
    net.forward_bottleneck().set_loss_model(std::make_unique<sim::no_loss>());
    net.sched().run_until(seconds(25));
    EXPECT_GT(flow.receiver->delivered_bytes(), delivered_at_blackout);
}

TEST(tcp_e2e_test, loss_triggers_fast_recovery_not_only_timeouts) {
    sim::dumbbell_config cfg = base_config(1);
    cfg.bottleneck_queue_packets = 20;
    sim::dumbbell net(cfg);
    auto flow = add_tcp_flow(net, 0, 1);
    net.sched().run_until(seconds(30));
    EXPECT_GT(flow.sender->fast_recoveries(), 0u);
    // Fast recovery should dominate over RTO for mild congestion.
    EXPECT_GT(flow.sender->fast_recoveries(), flow.sender->timeouts());
}

} // namespace

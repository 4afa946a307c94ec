// Mid-flow congestion-control swaps through profile renegotiation.
//
// The acceptance path of the pluggable-cc subsystem: a transfer started
// under TFRC renegotiates to Westwood and then to NewReno without
// restarting from slow start — the outgoing algorithm's rate/RTT state
// seeds the incoming one (send_algorithm::export_state/import_state).
// Each swap must surface as a profile_changed event carrying the new cc
// id (and gTFRC floor when present), count in
// session_stats::cc_swaps_applied, and keep bytes flowing.
//
// A second suite pins the headline Westwood claim: on the burst-loss
// wireless scenario it completes the same transfer in well under TFRC's
// time, while the per-algorithm conformance matrix (vtpscenario --cc)
// keeps both honest on every other impairment.
#include <gtest/gtest.h>

#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "sim/topology.hpp"
#include "testing/scenario.hpp"
#include "testing/scenario_runner.hpp"

namespace {

using namespace vtp;
using util::milliseconds;
using util::seconds;

/// Drain `s`'s event queue, appending every profile_changed profile.
void collect_profile_changes(session& s, std::vector<qtp::profile>& out) {
    event ev;
    while (s.poll(&ev, 1) == 1)
        if (ev.type == event_type::profile_changed) out.push_back(ev.prof);
}

sim::dumbbell_config lossy_net() {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 8e6;
    cfg.bottleneck_delay = milliseconds(20);
    // Shallow queue: the flow sees real congestion loss, so every
    // algorithm's loss response (and the swap hand-off under a nonzero
    // loss rate) is exercised.
    cfg.bottleneck_queue_packets = 25;
    return cfg;
}

TEST(cc_swap_test, tfrc_to_westwood_to_newreno_mid_transfer) {
    sim::dumbbell net(lossy_net());

    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client =
        session::connect(net.left_host(0), net.right_addr(0), session_options::reliable());
    ASSERT_TRUE(client.valid());
    client.send(20'000'000);

    std::vector<qtp::profile> changes;

    net.sched().run_until(seconds(2));
    ASSERT_TRUE(client.established());
    ASSERT_NE(accepted, nullptr);
    {
        const session_stats st = client.stats();
        EXPECT_EQ(st.cc_algorithm, cc::algorithm_id::tfrc);
        EXPECT_EQ(st.cc_swaps_applied, 0u);
        EXPECT_GT(st.stream_bytes_acked, 0u);
    }
    const double rate_before = client.stats().allowed_rate_bps;
    ASSERT_GT(rate_before, 0.0);

    // --- swap 1: TFRC -> Westwood ---------------------------------------
    qtp::profile want = client.active_profile();
    want.congestion = cc::algorithm_id::westwood;
    client.renegotiate(want);
    net.sched().run_until(seconds(3));
    collect_profile_changes(client, changes);

    {
        const session_stats st = client.stats();
        EXPECT_EQ(st.cc_algorithm, cc::algorithm_id::westwood);
        EXPECT_EQ(st.cc_swaps_applied, 1u);
        // Seeded from TFRC's state: the windowed filters carry a real
        // bandwidth estimate immediately.
        EXPECT_GT(st.bandwidth_estimate_bps, 0.0);
    }
    ASSERT_EQ(changes.size(), 1u);
    EXPECT_EQ(changes[0].congestion, cc::algorithm_id::westwood);
    // No slow-start restart: import_state resumes the new algorithm in
    // congestion avoidance at the measured bandwidth-delay product.
    EXPECT_FALSE(client.sender()->cc().in_slow_start());
    EXPECT_TRUE(client.sender()->cc().has_rtt());

    const std::uint64_t acked_at_3s = client.stats().stream_bytes_acked;

    // --- swap 2: Westwood -> NewReno ------------------------------------
    want.congestion = cc::algorithm_id::newreno;
    client.renegotiate(want);
    net.sched().run_until(seconds(4));
    collect_profile_changes(client, changes);

    {
        const session_stats st = client.stats();
        EXPECT_EQ(st.cc_algorithm, cc::algorithm_id::newreno);
        EXPECT_EQ(st.cc_swaps_applied, 2u);
        EXPECT_EQ(st.renegotiations, 2u);
    }
    ASSERT_EQ(changes.size(), 2u);
    EXPECT_EQ(changes[1].congestion, cc::algorithm_id::newreno);
    EXPECT_FALSE(client.sender()->cc().in_slow_start());

    // The transfer kept moving across both swaps: roughly a bottleneck-
    // rate second of new bytes landed after the second swap (half of
    // 8 Mb/s for a full second would be 500 kB; ask for far less to stay
    // robust), not the trickle a cold restart would produce.
    net.sched().run_until(seconds(5));
    const std::uint64_t acked_at_5s = client.stats().stream_bytes_acked;
    EXPECT_GT(acked_at_5s, acked_at_3s + 400'000u);

    // Convergence: after a second under NewReno the pacing rate is in the
    // bottleneck's neighbourhood, not slow-start's packets-per-RTT floor.
    EXPECT_GT(client.stats().allowed_rate_bps, 0.2 * rate_before);
}

TEST(cc_swap_test, floor_renegotiation_carries_cc_id_and_floor) {
    sim::dumbbell net(lossy_net());

    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client = session::connect(net.left_host(0), net.right_addr(0),
                                      session_options::af(1e6).with_cc(
                                          cc::algorithm_id::westwood));
    client.send(20'000'000);

    std::vector<qtp::profile> changes;

    net.sched().run_until(seconds(2));
    ASSERT_TRUE(client.established());
    EXPECT_EQ(client.stats().cc_algorithm, cc::algorithm_id::westwood);

    // Raise the gTFRC floor without touching the algorithm: the
    // profile_changed event must carry both the (unchanged) cc id and
    // the new committed rate — and no cc swap is counted.
    qtp::profile want = client.active_profile();
    want.qos_aware = true;
    want.target_rate_bps = 3e6;
    client.renegotiate(want);
    net.sched().run_until(seconds(3));
    collect_profile_changes(client, changes);

    ASSERT_EQ(changes.size(), 1u);
    EXPECT_EQ(changes[0].congestion, cc::algorithm_id::westwood);
    EXPECT_TRUE(changes[0].qos_aware);
    EXPECT_DOUBLE_EQ(changes[0].target_rate_bps, 3e6);
    EXPECT_EQ(client.stats().cc_swaps_applied, 0u);
    // The floor binds any algorithm: Westwood's pacing rate respects it.
    EXPECT_GE(client.stats().allowed_rate_bps, 3e6 * 0.9);

    // Swapping back to TFRC keeps the floor (threaded into the rate
    // controller) and counts the swap.
    want.congestion = cc::algorithm_id::tfrc;
    client.renegotiate(want);
    net.sched().run_until(seconds(4));
    collect_profile_changes(client, changes);
    ASSERT_EQ(changes.size(), 2u);
    EXPECT_EQ(changes[1].congestion, cc::algorithm_id::tfrc);
    EXPECT_DOUBLE_EQ(changes[1].target_rate_bps, 3e6);
    EXPECT_EQ(client.stats().cc_swaps_applied, 1u);
    EXPECT_EQ(client.stats().cc_algorithm, cc::algorithm_id::tfrc);
    EXPECT_GE(client.stats().allowed_rate_bps, 3e6 * 0.9);
}

TEST(cc_swap_test, capability_gate_downgrades_unsupported_algorithms) {
    sim::dumbbell net(lossy_net());

    // A server that refuses window-based senders answers every Westwood/
    // NewReno proposal with TFRC.
    server_options sopts;
    sopts.capabilities.allow_cc_newreno = false;
    sopts.capabilities.allow_cc_westwood = false;
    server srv(net.right_host(0), sopts);
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client = session::connect(net.left_host(0), net.right_addr(0),
                                      session_options::reliable().with_cc(
                                          cc::algorithm_id::westwood));
    client.send(1'000'000);
    net.sched().run_until(seconds(2));
    ASSERT_TRUE(client.established());
    EXPECT_EQ(client.active_profile().congestion, cc::algorithm_id::tfrc);
    EXPECT_EQ(client.stats().cc_algorithm, cc::algorithm_id::tfrc);
    EXPECT_EQ(client.stats().cc_swaps_applied, 0u);
}

TEST(cc_swap_test, westwood_beats_tfrc_on_burst_loss_wireless) {
    const auto* spec = vtp::testing::find_scenario("wireless_burst_loss");
    ASSERT_NE(spec, nullptr);

    auto run_with = [&](cc::algorithm_id alg) {
        vtp::testing::scenario_run_options opts;
        opts.collect_trace = false;
        opts.cc_override = alg;
        return vtp::testing::run_scenario(*spec, opts);
    };

    const auto tfrc = run_with(cc::algorithm_id::tfrc);
    const auto westwood = run_with(cc::algorithm_id::westwood);
    ASSERT_TRUE(tfrc.passed);
    ASSERT_TRUE(westwood.passed);
    ASSERT_FALSE(tfrc.hit_deadline);
    ASSERT_FALSE(westwood.hit_deadline);

    // Same spec, same byte count: finishing earlier IS higher goodput.
    // Westwood's BDP-on-loss response shrugs off the random burst losses
    // that halve TFRC's equation rate; require a decisive margin, not a
    // coin flip (measured ~3.3x, gate at 1.5x).
    EXPECT_LT(util::to_seconds(westwood.finished_at),
              util::to_seconds(tfrc.finished_at) / 1.5)
        << "westwood " << util::to_seconds(westwood.finished_at) << "s vs tfrc "
        << util::to_seconds(tfrc.finished_at) << "s";
}

} // namespace

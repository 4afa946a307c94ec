// Direct unit tests for the TFRC rate controller (no network): RFC 3448
// §4 state machine, gTFRC floor, oscillation damping.
#include <gtest/gtest.h>

#include "tfrc/equation.hpp"
#include "tfrc/rate_controller.hpp"

namespace {

using namespace vtp::tfrc;
using vtp::util::milliseconds;
using vtp::util::seconds;
using vtp::util::sim_time;

rate_controller_config base_config() {
    rate_controller_config cfg;
    cfg.equation.packet_size_bytes = 1000;
    cfg.oscillation_damping = false; // most tests want the raw §4.3 rules
    return cfg;
}

TEST(rate_controller_test, initial_rate_is_one_packet_per_second) {
    rate_controller rc(base_config());
    EXPECT_DOUBLE_EQ(rc.allowed_rate(), 1000.0);
    EXPECT_FALSE(rc.has_rtt());
    EXPECT_TRUE(rc.in_slow_start());
}

TEST(rate_controller_test, first_feedback_sets_initial_window_rate) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(100), milliseconds(100));
    EXPECT_TRUE(rc.has_rtt());
    EXPECT_EQ(rc.rtt(), milliseconds(100));
    // W_init = min(4s, max(2s, 4380)) = 4000 bytes over 100 ms = 40 kB/s.
    EXPECT_NEAR(rc.allowed_rate(), 40000.0, 1.0);
}

TEST(rate_controller_test, slow_start_doubles_but_is_capped_by_receive_rate) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    const double x1 = rc.allowed_rate();
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    EXPECT_NEAR(rc.allowed_rate(), 2.0 * x1, 1e-6);
    // Now the receiver reports a much lower receive rate: cap at 2*x_recv.
    rc.on_feedback(0.0, 50'000.0, milliseconds(100), 0);
    EXPECT_NEAR(rc.allowed_rate(), 100'000.0, 1e-6);
}

TEST(rate_controller_test, loss_switches_to_equation_rate) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    rc.on_feedback(0.01, 1e9, milliseconds(100), 0);
    EXPECT_FALSE(rc.in_slow_start());
    const double x_eq =
        throughput_bytes_per_second(base_config().equation, 0.1, 0.01);
    EXPECT_NEAR(rc.x_tfrc(), x_eq, 0.05 * x_eq); // RTT EWMA still ~100ms
}

TEST(rate_controller_test, equation_rate_capped_by_twice_receive_rate) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    rc.on_feedback(1e-6, 30'000.0, milliseconds(100), 0); // tiny p, huge X_calc
    EXPECT_NEAR(rc.allowed_rate(), 60'000.0, 1e-6);
}

TEST(rate_controller_test, rtt_is_smoothed_with_q09) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    rc.on_feedback(0.0, 1e9, milliseconds(200), 0);
    // R = 0.9*100 + 0.1*200 = 110 ms.
    EXPECT_NEAR(vtp::util::to_milliseconds(rc.rtt()), 110.0, 0.01);
}

TEST(rate_controller_test, nofeedback_timeout_halves_rate) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    const double before = rc.allowed_rate();
    rc.on_nofeedback_timeout(0);
    EXPECT_NEAR(rc.allowed_rate(), before / 2.0, 1e-9);
    EXPECT_EQ(rc.timeout_count(), 1u);
}

TEST(rate_controller_test, backoff_floors_at_one_packet_per_t_mbi) {
    rate_controller_config cfg = base_config();
    cfg.max_backoff_interval = seconds(64);
    rate_controller rc(cfg);
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    for (int i = 0; i < 100; ++i) rc.on_nofeedback_timeout(0);
    EXPECT_NEAR(rc.allowed_rate(), 1000.0 / 64.0, 1e-9);
}

TEST(rate_controller_test, nofeedback_interval_is_4rtt_or_2s_initial) {
    rate_controller rc(base_config());
    EXPECT_EQ(rc.nofeedback_interval(), seconds(2));
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    EXPECT_EQ(rc.nofeedback_interval(), milliseconds(400));
}

TEST(rate_controller_test, nofeedback_interval_floors_at_two_packets) {
    rate_controller rc(base_config());
    rc.on_feedback(0.0, 1e9, milliseconds(1), 0); // 1 ms RTT
    for (int i = 0; i < 60; ++i) rc.on_nofeedback_timeout(0); // crush the rate
    // 2*s/X is now much larger than 4*RTT.
    const double two_packets_s = 2.0 * 1000.0 / rc.allowed_rate();
    EXPECT_EQ(rc.nofeedback_interval(), vtp::util::from_seconds(two_packets_s));
}

TEST(rate_controller_test, gtfrc_floor_holds_rate_at_target) {
    rate_controller_config cfg = base_config();
    cfg.guaranteed_rate_bps = 4e6; // 500 kB/s
    rate_controller rc(cfg);
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    rc.on_feedback(0.3, 1e9, milliseconds(100), 0); // catastrophic loss rate
    EXPECT_LT(rc.x_tfrc(), 500'000.0);        // the equation says go slow...
    EXPECT_DOUBLE_EQ(rc.allowed_rate(), 500'000.0); // ...the floor says g
}

TEST(rate_controller_test, gtfrc_floor_survives_nofeedback_backoff) {
    rate_controller_config cfg = base_config();
    cfg.guaranteed_rate_bps = 4e6;
    rate_controller rc(cfg);
    rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    for (int i = 0; i < 20; ++i) rc.on_nofeedback_timeout(0);
    EXPECT_DOUBLE_EQ(rc.allowed_rate(), 500'000.0);
}

TEST(rate_controller_test, rate_above_floor_unaffected_by_gtfrc) {
    rate_controller_config cfg = base_config();
    cfg.guaranteed_rate_bps = 8e4; // 10 kB/s floor, far below actual
    rate_controller with_floor(cfg);
    rate_controller without_floor(base_config());
    for (auto* rc : {&with_floor, &without_floor}) {
        rc->on_feedback(0.0, 1e9, milliseconds(100), 0);
        rc->on_feedback(0.001, 1e9, milliseconds(100), 0);
    }
    EXPECT_DOUBLE_EQ(with_floor.allowed_rate(), without_floor.allowed_rate());
}

TEST(rate_controller_test, damping_reduces_rate_when_rtt_spikes) {
    rate_controller_config cfg = base_config();
    cfg.oscillation_damping = true;
    rate_controller rc(cfg);
    for (int i = 0; i < 20; ++i) rc.on_feedback(0.01, 1e9, milliseconds(100), 0);
    const double steady = rc.allowed_rate();
    // RTT doubles (queue building): instantaneous rate must drop by more
    // than the equation's own RTT response alone would in one step.
    rc.on_feedback(0.01, 1e9, milliseconds(400), 0);
    EXPECT_LT(rc.allowed_rate(), 0.8 * steady);
}

TEST(rate_controller_test, damping_never_boosts_rate) {
    rate_controller_config cfg = base_config();
    cfg.oscillation_damping = true;
    rate_controller rc(cfg);
    for (int i = 0; i < 20; ++i) rc.on_feedback(0.01, 1e9, milliseconds(100), 0);
    // A sudden RTT *drop* must not multiply the rate beyond the equation value.
    rc.on_feedback(0.01, 1e9, milliseconds(10), 0);
    EXPECT_LE(rc.allowed_rate(), rc.x_tfrc() * 1.0 + 1e-9);
}

TEST(rate_controller_test, feedback_counter) {
    rate_controller rc(base_config());
    for (int i = 0; i < 5; ++i) rc.on_feedback(0.0, 1e9, milliseconds(100), 0);
    EXPECT_EQ(rc.feedback_count(), 5u);
}

} // namespace

// Runtime renegotiation in action: a receiver downgrades the connection
// profile live when the loss regime changes — no teardown, no handshake
// rerun, congestion state intact.
//
// Timeline (one simulated minute):
//   t = 0 s   clean 10 Mb/s path. The client connects with the default
//             profile: no reliability, receiver-side (RFC 3448) loss
//             estimation — the receiver maintains the loss history.
//   t = 20 s  the path turns wireless-bad (bursty Gilbert-Elliott loss).
//             The receiver — imagine battery pressure plus a loss storm —
//             renegotiates to the QTPlight composition: *sender-side*
//             estimation (it drops its loss history) and *partial*
//             reliability so fresh losses are repaired while stale data
//             is never retransmitted.
//   t = 60 s  report: the profile switch is visible on both endpoints,
//             the stream kept flowing across the switch, and the
//             receiver's resident state shrank.
//
// This is the scenario the paper motivates QTPlight with — except here
// the composition changes *mid-connection* through the reneg/reneg_ack
// exchange instead of being fixed at the SYN.
#include <cstdio>

#include "api/server.hpp"
#include "api/session.hpp"
#include "sim/topology.hpp"

using namespace vtp;
using util::milliseconds;
using util::seconds;

int main() {
    sim::dumbbell_config net_cfg;
    net_cfg.pairs = 1;
    net_cfg.bottleneck_rate_bps = 10e6;
    net_cfg.bottleneck_delay = milliseconds(30);
    net_cfg.access_delay = milliseconds(1);
    sim::dumbbell net(net_cfg);

    // The receiving endpoint accepts anything and watches its own stream.
    server srv(net.right_host(0), server_options{});
    session* rx = nullptr;
    srv.set_on_session([&](session& s) { rx = &s; });

    // Media sender: 1 kB messages, 400 ms playout deadline (only relevant
    // once the profile switches to partial reliability).
    session_options opts;
    opts.message_size = 1000;
    opts.message_deadline = milliseconds(400);
    session tx = session::connect(net.left_host(0), net.right_addr(0), opts);
    tx.send(UINT64_MAX / 2); // endless stream

    // Both applications poll their session every 100 ms: profile
    // switches are reported as they surface; the payload-free endless
    // stream leaves nothing to recv().
    auto report = [&](session& s, const char* who) {
        event ev;
        while (s.poll(&ev, 1) == 1) {
            if (ev.type != event_type::profile_changed) continue;
            std::printf("[%5.1f s] %-8s switched to { %s }", util::to_seconds(net.sched().now()),
                        who, ev.prof.describe().c_str());
            if (s.sender() != nullptr)
                std::printf(" from seq %llu", static_cast<unsigned long long>(
                                                  s.sender()->last_reneg_boundary()));
            std::printf("\n");
        }
    };
    auto run_until = [&](util::sim_time until) {
        while (net.sched().now() < until) {
            net.sched().run_until(net.sched().now() + milliseconds(100));
            report(tx, "sender");
            if (rx != nullptr) report(*rx, "receiver");
        }
    };

    run_until(seconds(20));
    const session_stats before = rx->stats();
    const std::size_t state_before = rx->receiver()->state_bytes();
    std::printf("[%5.1f s] clean phase: %s\n", 20.0, tx.active_profile().describe().c_str());
    std::printf("          delivered %.2f MB, receiver state %zu bytes "
                "(loss history resident)\n",
                before.bytes_delivered / 1e6, state_before);

    // The loss regime flips: bursty wireless loss from t = 20 s.
    sim::gilbert_elliott_loss::params storm;
    storm.p_good_to_bad = 0.01;
    storm.p_bad_to_good = 0.15;
    storm.loss_bad = 0.35;
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::gilbert_elliott_loss>(storm, 4242));

    // The receiver reacts: drop to QTPlight — sender-side estimation,
    // partial (deadline-aware) reliability.
    rx->renegotiate(qtp::qtp_light_profile(sack::reliability_mode::partial));

    run_until(seconds(60));

    const session_stats tx_st = tx.stats();
    const session_stats rx_st = rx->stats();
    std::printf("\n--- after the storm (t = 60 s) ---\n");
    std::printf("active profile (sender)   : %s\n", tx.active_profile().describe().c_str());
    std::printf("active profile (receiver) : %s\n", rx->active_profile().describe().c_str());
    std::printf("renegotiations            : %u (boundary seq %llu)\n",
                tx_st.renegotiations,
                static_cast<unsigned long long>(tx.sender()->last_reneg_boundary()));
    std::printf("delivered                 : %.2f MB total (%.2f MB after the switch)\n",
                rx_st.bytes_delivered / 1e6,
                (rx_st.bytes_delivered - before.bytes_delivered) / 1e6);
    std::printf("receiver state            : %zu -> %zu bytes "
                "(loss-interval history no longer maintained)\n",
                state_before, rx->receiver()->state_bytes());
    std::printf("sender loss estimate      : %.4f (rebuilt from SACK vectors)\n",
                tx_st.loss_event_rate);
    std::printf("retransmitted             : %llu bytes, abandoned as stale: %llu\n",
                static_cast<unsigned long long>(tx_st.rtx_bytes_sent),
                static_cast<unsigned long long>(
                    tx.sender()->retransmissions().abandoned_bytes()));

    const bool switched = tx.active_profile() == rx->active_profile() &&
                          tx.active_profile().estimation ==
                              tfrc::estimation_mode::sender_side &&
                          tx_st.renegotiations == 1;
    std::printf("\n%s\n", switched ? "profile switch verified on both endpoints"
                                   : "ERROR: endpoints disagree on the profile");
    return switched ? 0 : 1;
}

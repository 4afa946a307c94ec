// E10 — feedback overhead table.
//
// Paper claim (§3): in QTPlight "the standard feedback packet sent by the
// flow receiver is replaced by a light and simple SACK mechanism". The
// wire cost must stay comparable (it grows only with loss, as SACK blocks
// appear) while the receiver sheds all estimation state (cf. E4 for the
// CPU/memory side).
//
// Workload: single vtp::session flow, 20 Mb/s path, loss sweep; classic
// TFRC (session_options{}: the receiver computes p and reports it in its
// SACK feedback) against QTPlight (session_options::light(): the SACK
// vector alone). Reported per variant: feedback packets/s, feedback
// bytes/s, feedback bytes per data megabyte, bytes per report, and the
// accepted receiver's resident state (connection_receiver::state_bytes).
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace vtp;
using namespace vtp::bench;
using util::milliseconds;
using util::seconds;

struct overhead {
    double fb_packets_per_s = 0.0;
    double fb_bytes_per_s = 0.0;
    double fb_bytes_per_mb = 0.0; ///< feedback bytes per megabyte of goodput
    double bytes_per_report = 0.0;
    std::size_t receiver_state_bytes = 0;
    std::size_t receiver_loss_events = 0; ///< recorded in the receiver's history
};

sim::dumbbell make_net(std::uint64_t seed) {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 20e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue_packets = 100;
    cfg.seed = seed;
    return sim::dumbbell(cfg);
}

overhead run(bool light, double loss, std::uint64_t seed) {
    sim::dumbbell net = make_net(seed);
    if (loss > 0)
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(loss, seed + 3));
    auto flow = add_session_flow(net, 0, 1,
                                 light ? session_options::light() : session_options{});
    const util::sim_time duration = seconds(60);
    net.sched().run_until(duration);

    overhead o;
    const qtp::connection_receiver* rx = flow->receiver();
    if (rx == nullptr) return o;
    const double secs = util::to_seconds(duration);
    o.fb_packets_per_s = static_cast<double>(rx->feedback_sent()) / secs;
    o.fb_bytes_per_s = static_cast<double>(rx->feedback_bytes()) / secs;
    o.fb_bytes_per_mb = static_cast<double>(rx->feedback_bytes()) /
                        (static_cast<double>(rx->received_bytes()) / 1e6);
    o.bytes_per_report = static_cast<double>(rx->feedback_bytes()) /
                         static_cast<double>(std::max<std::uint64_t>(rx->feedback_sent(), 1));
    o.receiver_state_bytes = rx->state_bytes();
    o.receiver_loss_events = rx->history().loss_events();
    return o;
}

} // namespace

int main() {
    std::printf("E10: feedback-channel overhead — classic TFRC reports vs QTPlight\n");
    std::printf("SACK feedback (single 20 Mb/s vtp::session flow, 60 s runs).\n\n");

    table t({"loss [%]", "receiver", "fb pkts/s", "fb bytes/s", "fb bytes/MB",
             "bytes/report", "receiver state [B]"});
    bool same_frequency = true;
    bool comparable_bytes = true;
    bool no_history = true;
    bool lighter_state = true;
    for (double loss : {0.0, 0.01, 0.05}) {
        const overhead classic = run(false, loss, 29);
        const overhead light = run(true, loss, 29);
        for (const auto* o : {&classic, &light}) {
            t.add_row({fmt("%.0f", loss * 100), o == &classic ? "classic TFRC" : "QTPlight SACK",
                       fmt("%.1f", o->fb_packets_per_s), fmt("%.0f", o->fb_bytes_per_s),
                       fmt("%.0f", o->fb_bytes_per_mb), fmt("%.1f", o->bytes_per_report),
                       fmt_u64(o->receiver_state_bytes)});
        }
        same_frequency = same_frequency &&
                         light.fb_packets_per_s >= 0.9 * classic.fb_packets_per_s &&
                         light.fb_packets_per_s <= 1.1 * classic.fb_packets_per_s;
        comparable_bytes =
            comparable_bytes && light.bytes_per_report <= classic.bytes_per_report + 64.0;
        no_history = no_history && light.receiver_loss_events == 0 &&
                     (loss == 0.0 || classic.receiver_loss_events > 0);
        lighter_state =
            lighter_state && light.receiver_state_bytes < classic.receiver_state_bytes;
    }
    t.print();

    std::printf("\nExpected shape: identical feedback frequency (one per RTT); the\n");
    std::printf("SACK feedback costs a handful of extra bytes per report under loss\n");
    std::printf("(the blocks), while the receiver keeps no loss-interval state.\n");
    verdict(same_frequency, "QTPlight feedback packets/s within 10% of classic at every loss");
    verdict(comparable_bytes,
            "QTPlight report at most 64 B (4 SACK blocks) above classic at every loss");
    verdict(no_history,
            "QTPlight receiver records no loss event (classic does under loss)");
    verdict(lighter_state, "QTPlight receiver state below classic at every loss");
    return 0;
}

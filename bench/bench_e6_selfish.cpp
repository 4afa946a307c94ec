// E6 — selfish receiver figure.
//
// Paper claim (§3): shifting loss estimation to the sender "offers a
// robust protection against selfish receivers ... the sender is no
// longer dependent of the accuracy and the veracity of the information
// given by the receiver as it computes itself the packet loss rate"
// (attack model of Georg & Gorinsky, ICAS/ICNS 2005).
//
// Workload: two vtp::session flows share a 10 Mb/s bottleneck. Flow A's
// receiver is selfish: every SACK report that carries a loss-event rate
// (has_p) has p scaled by an attack factor (1.0 = honest, 0 = "I saw no
// loss") on its way to A's sender — a filter on A's sender node rewrites
// it, so the receiver code stays the shipped one. Flow B is honest
// classic TFRC (session_options{}). With classic TFRC the attacker steals
// bandwidth as the factor shrinks; with QTPlight (sender-side estimation)
// the reports carry no p to lie about and the share stays put by
// construction. --json <path> emits the shares (BENCH_e6.json in CI);
// exit status 1 unless the classic attacker's share at factor 0 is >= 0.9
// and QTPlight's share at factor 0 equals its share at factor 1 within
// 0.02.
#include <cmath>
#include <cstdio>

#include "bench_json.hpp"
#include "bench_util.hpp"

namespace {

using namespace vtp;
using namespace vtp::bench;
using util::milliseconds;
using util::seconds;

sim::dumbbell make_net(std::uint64_t seed) {
    sim::dumbbell_config cfg;
    cfg.pairs = 2;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 10e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue_packets = 60;
    cfg.seed = seed;
    return sim::dumbbell(cfg);
}

/// The selfish receiver: scale the p of every SACK report bound for the
/// sender on `n` by `factor`.
void install_misreport(sim::node& n, double factor) {
    n.set_filter([factor](packet::packet& pkt) {
        const auto* fb = std::get_if<packet::sack_feedback_segment>(pkt.body.get());
        if (fb == nullptr || !fb->has_p) return;
        packet::sack_feedback_segment forged = *fb;
        forged.p *= factor;
        pkt.body = std::make_shared<const packet::segment>(std::move(forged));
    });
}

struct share {
    double attacker_mbps;
    double honest_mbps;
    double attacker_share() const { return attacker_mbps / (attacker_mbps + honest_mbps); }
};

share run(bool light, double attack_factor) {
    sim::dumbbell net = make_net(31);
    install_misreport(net.left_node(0), attack_factor);
    auto attacker = add_session_flow(net, 0, 1,
                                     light ? session_options::light() : session_options{});
    auto honest = add_session_flow(net, 1, 2, session_options{});
    net.sched().run_until(seconds(60));
    return {goodput_mbps(attacker->received_bytes(), seconds(60)),
            goodput_mbps(honest->received_bytes(), seconds(60))};
}

/// CI gate bounds.
constexpr double classic_monopoly_share = 0.9;
constexpr double light_share_tolerance = 0.02;

} // namespace

int main(int argc, char** argv) {
    std::printf("E6: selfish receiver under-reporting loss — attacker vs honest\n");
    std::printf("flow on a 10 Mb/s bottleneck (60 s). Attack factor scales the\n");
    std::printf("receiver-reported loss event rate.\n\n");

    const std::string json = bench::json_path_arg(argc, argv);
    bench::json_report rep("bench_e6_selfish");
    table t({"attack factor", "protocol", "attacker [Mb/s]", "honest [Mb/s]",
             "attacker share"});
    double classic_share_at_0 = 0.0;
    double classic_share_prev = 0.0;
    bool classic_grows = true;
    for (double factor : {1.0, 0.5, 0.2, 0.0}) {
        const share classic = run(false, factor);
        t.add_row({fmt("%.1f", factor), "TFRC (recv-side p)",
                   fmt("%.3f", classic.attacker_mbps), fmt("%.3f", classic.honest_mbps),
                   fmt("%.2f", classic.attacker_share())});
        rep.add("classic_share_factor_" + fmt("%.1f", factor), classic.attacker_share());
        if (factor < 1.0 && classic.attacker_share() < classic_share_prev)
            classic_grows = false;
        classic_share_prev = classic.attacker_share();
        classic_share_at_0 = classic.attacker_share();
    }
    double light_share[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
        const double factor = i == 0 ? 1.0 : 0.0;
        const share light = run(true, factor);
        light_share[i] = light.attacker_share();
        t.add_row({fmt("%.1f", factor), "QTPlight (send-side p)",
                   fmt("%.3f", light.attacker_mbps), fmt("%.3f", light.honest_mbps),
                   fmt("%.2f", light.attacker_share())});
        rep.add("light_share_factor_" + fmt("%.1f", factor), light.attacker_share());
    }
    t.print();

    std::printf("\nExpected shape: with receiver-side TFRC the attacker's share grows\n");
    std::printf("towards monopoly as the factor drops to 0; with QTPlight the share\n");
    std::printf("stays ~0.5 regardless — the estimate is computed by the sender.\n");
    const bool monopoly = classic_share_at_0 >= classic_monopoly_share;
    const bool immune = std::fabs(light_share[1] - light_share[0]) <= light_share_tolerance;
    verdict(classic_grows && monopoly,
            "classic attacker share grows as the factor drops and reaches >= 0.9 at 0");
    verdict(immune, "QTPlight attacker share at factor 0 equals factor 1 within 0.02");
    verdict(std::fabs(light_share[0] - 0.5) <= 0.1,
            "QTPlight attacker share ~0.5 (within 0.1)");

    const bool gate_ok = monopoly && immune;
    if (!json.empty()) {
        rep.add("classic_monopoly_share", classic_monopoly_share);
        rep.add("light_share_tolerance", light_share_tolerance);
        rep.add("pass", gate_ok);
        if (!rep.write(json)) std::printf("could not write %s\n", json.c_str());
    }
    return gate_ok ? 0 : 1;
}

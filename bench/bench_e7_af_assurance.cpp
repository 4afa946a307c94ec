// E7 — DiffServ/AF bandwidth assurance figure (the QTPAF headline).
//
// Paper claim (§4): "Preliminary measurements show that QTPAF obtains the
// QoS negotiated by the application with the network service whereas TCP
// fails to delivers this QoS." Root cause per Seddigh/Nandy/Pieda
// (GLOBECOM'99): TCP halves its window on drops of *out-of-profile*
// packets and cannot hold its committed rate when the reservation is a
// large share of the bottleneck.
//
// Workload: 10 Mb/s RIO bottleneck. The measured flow holds a committed
// rate g (token-bucket marked AF11 at its edge) and competes with two
// best-effort TCP flows. g sweeps 10..90% of the bottleneck. Protocols:
// TCP (with the same reservation), plain TFRC (gTFRC floor off —
// ablation A1), and QTPAF (gTFRC + SACK). Reported: achieved goodput and
// the achieved/target ratio. Ablation A3 repeats the middle of the sweep
// with a colour-blind RED bottleneck instead of RIO.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace vtp;
using namespace vtp::bench;
using util::milliseconds;
using util::seconds;

enum class proto { tcp, tfrc, qtp_af };

const char* proto_name(proto p) {
    switch (p) {
    case proto::tcp: return "TCP";
    case proto::tfrc: return "TFRC (no floor)";
    case proto::qtp_af: return "QTPAF (gTFRC+SACK)";
    }
    return "?";
}

double run(proto p, double target_bps, bool rio, std::uint64_t seed) {
    sim::dumbbell_config cfg;
    cfg.pairs = 3;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 10e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.seed = seed;
    if (rio) {
        cfg.bottleneck_queue = [seed] {
            return std::make_unique<diffserv::rio_queue>(
                diffserv::default_rio_params(60, 1050), seed * 7 + 3);
        };
    } else {
        cfg.bottleneck_queue = [seed] {
            return std::make_unique<sim::red_queue>(sim::default_red_params(60, 1050),
                                                    60 * 1050, seed * 7 + 3);
        };
    }
    sim::dumbbell net(cfg);

    // Edge contract for the measured flow: CIR = g, 30 ms burst.
    diffserv::conditioner cond(net.sched());
    cond.set_profile(1, target_bps, static_cast<std::size_t>(target_bps / 8.0 * 0.03));
    cond.install_egress(net.left_node(0));

    // Two best-effort TCP competitors.
    add_tcp_flow(net, 1, 2);
    add_tcp_flow(net, 2, 3);

    const util::sim_time duration = seconds(60);
    double goodput = 0.0;
    switch (p) {
    case proto::tcp: {
        auto flow = add_tcp_flow(net, 0, 1);
        net.sched().run_until(duration);
        goodput = goodput_mbps(flow.receiver->delivered_bytes(), duration);
        break;
    }
    case proto::tfrc: {
        auto flow = add_tfrc_flow(net, 0, 1);
        net.sched().run_until(duration);
        goodput = goodput_mbps(flow.received_bytes(), duration);
        break;
    }
    case proto::qtp_af: {
        auto flow = add_session_flow(net, 0, 1, session_options::af(target_bps));
        net.sched().run_until(duration);
        goodput = goodput_mbps(
            flow->accepted != nullptr ? flow->accepted->stats().bytes_received : 0, duration);
        break;
    }
    }
    return goodput;
}

void sweep(bool rio) {
    table t({"target g [Mb/s]", "protocol", "achieved [Mb/s]", "achieved/target"});
    for (double g_mbps : {1.0, 3.0, 5.0, 7.0, 9.0}) {
        for (proto p : {proto::tcp, proto::tfrc, proto::qtp_af}) {
            const double achieved = run(p, g_mbps * 1e6, rio, 13);
            t.add_row({fmt("%.0f", g_mbps), proto_name(p), fmt("%.3f", achieved),
                       fmt("%.2f", achieved / g_mbps)});
        }
    }
    t.print();
}

} // namespace

int main() {
    std::printf("E7: AF bandwidth assurance — committed rate g vs 2 best-effort TCP\n");
    std::printf("flows on a 10 Mb/s RIO bottleneck (60 s runs, 60 ms RTT).\n\n");

    std::printf("RIO bottleneck (AF PHB):\n");
    sweep(true);

    std::printf("\nA3 ablation — colour-blind RED bottleneck (no in/out protection):\n");
    sweep(false);

    std::printf("\nExpected shape: with RIO, QTPAF holds achieved/target >= 1 across\n");
    std::printf("the sweep; TCP under-achieves as g grows (window halvings on\n");
    std::printf("out-profile drops); plain TFRC sits in between (A1: the gTFRC floor\n");
    std::printf("is what closes the gap). With RED the assurance degrades for all.\n");
    return 0;
}

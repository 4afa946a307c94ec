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
// ablation A1; a vtp::session with session_options{}), and QTPAF (gTFRC +
// SACK; session_options::af(g)). Reported: achieved goodput and
// the achieved/target ratio. Ablation A3 repeats the middle of the sweep
// with a colour-blind RED bottleneck instead of RIO.
#include <array>
#include <cstdio>
#include <iterator>

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
        auto flow = add_session_flow(net, 0, 1, session_options{});
        net.sched().run_until(duration);
        goodput = goodput_mbps(flow->received_bytes(), duration);
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

constexpr double targets_mbps[] = {1.0, 3.0, 5.0, 7.0, 9.0};
constexpr std::size_t n_targets = std::size(targets_mbps);

/// achieved/target per target g and protocol (tcp, tfrc, qtp_af).
using sweep_result = std::array<std::array<double, 3>, n_targets>;

sweep_result sweep(bool rio) {
    sweep_result out{};
    table t({"target g [Mb/s]", "protocol", "achieved [Mb/s]", "achieved/target"});
    for (std::size_t gi = 0; gi < n_targets; ++gi) {
        const double g_mbps = targets_mbps[gi];
        for (proto p : {proto::tcp, proto::tfrc, proto::qtp_af}) {
            const double achieved = run(p, g_mbps * 1e6, rio, 13);
            out[gi][static_cast<std::size_t>(p)] = achieved / g_mbps;
            t.add_row({fmt("%.0f", g_mbps), proto_name(p), fmt("%.3f", achieved),
                       fmt("%.2f", achieved / g_mbps)});
        }
    }
    t.print();
    return out;
}

} // namespace

int main() {
    std::printf("E7: AF bandwidth assurance — committed rate g vs 2 best-effort TCP\n");
    std::printf("flows on a 10 Mb/s RIO bottleneck (60 s runs, 60 ms RTT).\n\n");

    std::printf("RIO bottleneck (AF PHB):\n");
    const sweep_result rio = sweep(true);

    std::printf("\nA3 ablation — colour-blind RED bottleneck (no in/out protection):\n");
    const sweep_result red = sweep(false);

    std::printf("\nExpected shape: with RIO, QTPAF holds achieved/target >= 1 across\n");
    std::printf("the sweep; TCP under-achieves as g grows (window halvings on\n");
    std::printf("out-profile drops); plain TFRC sits in between (A1: the gTFRC floor\n");
    std::printf("is what closes the gap). With RED the assurance degrades for all.\n");

    constexpr std::size_t tcp = 0, tfrc = 1, af = 2;
    bool af_holds = true;
    bool tcp_falls = true;
    bool tfrc_between = true;
    double rio_sum[3] = {0, 0, 0};
    double red_sum[3] = {0, 0, 0};
    for (std::size_t gi = 0; gi < n_targets; ++gi) {
        af_holds = af_holds && rio[gi][af] >= 1.0;
        if (gi > 0) tcp_falls = tcp_falls && rio[gi][tcp] <= rio[gi - 1][tcp];
        tfrc_between = tfrc_between && rio[gi][tfrc] >= rio[gi][tcp] &&
                       rio[gi][tfrc] <= rio[gi][af];
        for (std::size_t p = 0; p < 3; ++p) {
            rio_sum[p] += rio[gi][p];
            red_sum[p] += red[gi][p];
        }
    }
    const bool red_degrades =
        red_sum[tcp] < rio_sum[tcp] && red_sum[tfrc] < rio_sum[tfrc] && red_sum[af] < rio_sum[af];
    verdict(af_holds, "RIO: QTPAF achieved/target >= 1 at every g");
    verdict(tcp_falls, "RIO: TCP achieved/target falls as g grows");
    verdict(tfrc_between, "RIO: plain TFRC between TCP and QTPAF at every g");
    verdict(red_degrades,
            "RED: every protocol's mean achieved/target below its RIO mean");
    return 0;
}

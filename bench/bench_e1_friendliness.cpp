// E1 — TCP-friendliness table.
//
// Paper claim (§3): "TFRC is considered as the current congestion control
// mechanism that offers the best trade-off between TCP fairness and the
// smooth throughput required by multimedia flows."
//
// Workload: dumbbell, 10 Mb/s bottleneck, 60 ms base RTT, n TFRC flows
// (vtp::session, session_options{}: reliability none, receiver-side p)
// vs n TCP flows sharing the link, n in {1, 2, 4, 8}. Reported: mean
// per-flow goodput per protocol class, the TFRC/TCP ratio (1.0 = perfect
// friendliness; TFRC is considered TCP-friendly within a factor ~2), and
// Jain's fairness index across all flows.
//
// Two queue regimes, as in the TFRC literature: RED (the canonical
// fairness setting — drops are desynchronised and the standing queue is
// small) and DropTail (adversarial for TFRC: the standing queue inflates
// its RTT estimate, which enters the equation, while TCP's ack clock
// self-adjusts — the known worst case for equation-based control).
//
// Per-algorithm section (pluggable cc): the same contest re-run through
// vtp::session flows with each negotiable send algorithm — TFRC via the
// send_algorithm interface, NewReno, Westwood. The TFRC row doubles as a
// regression gate: its goodput must stay within 5% of the frozen
// baseline measured when the interface refactor landed (the trace-hash
// oracle proves wire identity; this pins the bench harness itself).
// --json <path> emits the per-algorithm series (BENCH_e1_cc.json in CI);
// exit status 1 when the gate fails.
#include <cstdio>
#include <cstdlib>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "sim/red.hpp"
#include "util/stats.hpp"

namespace {

using namespace vtp;
using namespace vtp::bench;
using util::milliseconds;
using util::seconds;

struct result {
    double tfrc_mean_mbps;
    double tcp_mean_mbps;
    double jain;
};

result run(std::size_t n_per_class, bool red) {
    sim::dumbbell_config cfg;
    cfg.pairs = 2 * n_per_class;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 10e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue_packets = 60;
    if (red) {
        cfg.bottleneck_queue = [] {
            return std::make_unique<sim::red_queue>(
                sim::default_red_params(60, 1050), 60 * 1050, 991);
        };
    }
    cfg.seed = 11 + n_per_class;
    sim::dumbbell net(cfg);

    std::vector<std::unique_ptr<session_flow>> tfrc_flows;
    std::vector<tcp_flow> tcp_flows;
    for (std::size_t i = 0; i < n_per_class; ++i)
        tfrc_flows.push_back(
            add_session_flow(net, i, static_cast<std::uint32_t>(i + 1), session_options{}));
    for (std::size_t i = 0; i < n_per_class; ++i)
        tcp_flows.push_back(add_tcp_flow(net, n_per_class + i,
                                         static_cast<std::uint32_t>(100 + i)));

    const util::sim_time duration = seconds(60);
    net.sched().run_until(duration);

    result r{};
    std::vector<double> all;
    for (const auto& f : tfrc_flows) {
        const double g = goodput_mbps(f->received_bytes(), duration);
        r.tfrc_mean_mbps += g;
        all.push_back(g);
    }
    for (const auto& f : tcp_flows) {
        const double g = goodput_mbps(f.receiver->delivered_bytes(), duration);
        r.tcp_mean_mbps += g;
        all.push_back(g);
    }
    r.tfrc_mean_mbps /= static_cast<double>(n_per_class);
    r.tcp_mean_mbps /= static_cast<double>(n_per_class);
    r.jain = util::jain_fairness(all);
    return r;
}

/// Session-API contest: n vtp::session flows (algorithm `alg`) vs n TCP
/// on the RED bottleneck — the canonical fairness regime.
result run_cc(cc::algorithm_id alg, std::size_t n_per_class) {
    sim::dumbbell_config cfg;
    cfg.pairs = 2 * n_per_class;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 10e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue_packets = 60;
    cfg.bottleneck_queue = [] {
        return std::make_unique<sim::red_queue>(sim::default_red_params(60, 1050),
                                                60 * 1050, 991);
    };
    cfg.seed = 211 + n_per_class;
    sim::dumbbell net(cfg);

    std::vector<std::unique_ptr<session_flow>> vtp_flows;
    std::vector<tcp_flow> tcp_flows;
    for (std::size_t i = 0; i < n_per_class; ++i)
        vtp_flows.push_back(
            add_session_flow(net, i, static_cast<std::uint32_t>(i + 1),
                             session_options::reliable().with_cc(alg)));
    for (std::size_t i = 0; i < n_per_class; ++i)
        tcp_flows.push_back(
            add_tcp_flow(net, n_per_class + i, static_cast<std::uint32_t>(100 + i)));

    const util::sim_time duration = seconds(60);
    net.sched().run_until(duration);

    result r{};
    std::vector<double> all;
    for (const auto& f : vtp_flows) {
        const double g = goodput_mbps(f->delivered_bytes(), duration);
        r.tfrc_mean_mbps += g;
        all.push_back(g);
    }
    for (const auto& f : tcp_flows) {
        const double g = goodput_mbps(f.receiver->delivered_bytes(), duration);
        r.tcp_mean_mbps += g;
        all.push_back(g);
    }
    r.tfrc_mean_mbps /= static_cast<double>(n_per_class);
    r.tcp_mean_mbps /= static_cast<double>(n_per_class);
    r.jain = util::jain_fairness(all);
    return r;
}

/// Frozen TFRC-via-interface baseline (2+2 on RED, seed 213): measured
/// when the pluggable-cc subsystem landed. The simulator is
/// deterministic, so a healthy tree reproduces these exactly; the 5%
/// band only absorbs deliberate, documented re-freezes.
constexpr double frozen_tfrc_mean_mbps = 1.824;
constexpr double frozen_tcp_mean_mbps = 2.583;
constexpr double gate_tolerance = 0.05;

bool within(double measured, double frozen) {
    return measured >= frozen * (1.0 - gate_tolerance) &&
           measured <= frozen * (1.0 + gate_tolerance);
}

} // namespace

int main(int argc, char** argv) {
    std::printf("E1: TCP-friendliness — n TFRC vs n TCP on a 10 Mb/s bottleneck (60 s)\n");
    std::printf("Expected shape: ratio within ~[0.5, 2.0]; fairness index near 1.\n\n");

    bool friendly[2] = {true, true}; // RED, DropTail: ratio in [0.5, 2.0]
    bool fair_red = true;            // RED: Jain index >= 0.9
    for (const bool red : {true, false}) {
        std::printf("%s bottleneck:\n", red ? "RED" : "DropTail");
        table t({"n TFRC + n TCP", "TFRC mean [Mb/s]", "TCP mean [Mb/s]",
                 "TFRC/TCP ratio", "Jain index"});
        for (std::size_t n : {1u, 2u, 4u, 8u}) {
            const result r = run(n, red);
            const double ratio = r.tfrc_mean_mbps / r.tcp_mean_mbps;
            friendly[red ? 0 : 1] = friendly[red ? 0 : 1] && ratio >= 0.5 && ratio <= 2.0;
            if (red) fair_red = fair_red && r.jain >= 0.9;
            t.add_row({fmt_u64(n) + "+" + fmt_u64(n), fmt("%.3f", r.tfrc_mean_mbps),
                       fmt("%.3f", r.tcp_mean_mbps), fmt("%.2f", ratio),
                       fmt("%.3f", r.jain)});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("Expected shape: near-equal shares under RED; under DropTail the\n");
    std::printf("standing queue penalises TFRC (RTT-inflated equation) toward the\n");
    std::printf("low edge of the friendly band — the literature's known worst case.\n");
    verdict(friendly[0] && fair_red,
            "RED: TFRC/TCP ratio in [0.5, 2.0] and Jain index >= 0.9 at every n");
    verdict(friendly[1], "DropTail: TFRC/TCP ratio in [0.5, 2.0] at every n");

    // --- per-algorithm session-API contest (2+2 on RED) ------------------
    std::printf("\nPer-algorithm (vtp::session, negotiated cc): 2 flows vs 2 TCP, RED\n");
    table t({"algorithm", "VTP mean [Mb/s]", "TCP mean [Mb/s]", "VTP/TCP ratio",
             "Jain index"});
    const cc::algorithm_id algs[] = {cc::algorithm_id::tfrc, cc::algorithm_id::newreno,
                                     cc::algorithm_id::westwood};
    result by_alg[3];
    for (std::size_t a = 0; a < 3; ++a) {
        by_alg[a] = run_cc(algs[a], 2);
        t.add_row({cc::to_string(algs[a]), fmt("%.3f", by_alg[a].tfrc_mean_mbps),
                   fmt("%.3f", by_alg[a].tcp_mean_mbps),
                   fmt("%.2f", by_alg[a].tfrc_mean_mbps / by_alg[a].tcp_mean_mbps),
                   fmt("%.3f", by_alg[a].jain)});
    }
    t.print();

    const bool gate_ok = within(by_alg[0].tfrc_mean_mbps, frozen_tfrc_mean_mbps) &&
                         within(by_alg[0].tcp_mean_mbps, frozen_tcp_mean_mbps);
    std::printf("\nTFRC-via-interface gate: measured %.3f/%.3f Mb/s vs frozen %.3f/%.3f "
                "(+/-5%%) — %s\n",
                by_alg[0].tfrc_mean_mbps, by_alg[0].tcp_mean_mbps, frozen_tfrc_mean_mbps,
                frozen_tcp_mean_mbps, gate_ok ? "PASS" : "FAIL");

    const std::string json = bench::json_path_arg(argc, argv);
    if (!json.empty()) {
        bench::json_report rep("bench_e1_friendliness");
        for (std::size_t a = 0; a < 3; ++a) {
            const std::string key = cc::to_string(algs[a]);
            rep.add(key + "_mean_mbps", by_alg[a].tfrc_mean_mbps);
            rep.add(key + "_tcp_mean_mbps", by_alg[a].tcp_mean_mbps);
            rep.add(key + "_jain", by_alg[a].jain);
        }
        rep.add("frozen_tfrc_mean_mbps", frozen_tfrc_mean_mbps);
        rep.add("gate_tolerance", gate_tolerance);
        rep.add("pass", gate_ok);
        if (!rep.write(json)) std::printf("could not write %s\n", json.c_str());
    }
    return gate_ok ? 0 : 1;
}

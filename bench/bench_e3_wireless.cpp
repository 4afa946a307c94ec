// E3 — wireless / lossy-path figure.
//
// Paper motivation (§2, point 1): "there are proofs of the poor TCP
// performances over wireless and multi-hop networks and it exists
// evidence of the good behaviour of rate controlled congestion control
// over these networks."
//
// Workload: single flow over an uncongested path whose link exhibits
// non-congestion loss — independent (Bernoulli) p in {0.1..5}% and a
// bursty Gilbert–Elliott channel with the same average loss. Reported:
// goodput of TFRC (a vtp::session with session_options{}: reliability
// none, receiver-side p) vs TCP vs the loss rate. Expected shape: both degrade
// with p; TFRC holds throughput at least comparable to TCP (and avoids
// TCP's timeout collapse at high p) while staying smooth.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "sim/chain.hpp"
#include "tcp/tcp_receiver.hpp"

namespace {

using namespace vtp;
using namespace vtp::bench;
using util::milliseconds;
using util::seconds;

enum class channel { bernoulli, gilbert_elliott };

sim::dumbbell make_net(std::uint64_t seed) {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 20e6; // uncongested: loss is the bottleneck
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue_packets = 100;
    cfg.seed = seed;
    return sim::dumbbell(cfg);
}

void set_loss(sim::dumbbell& net, channel ch, double p, std::uint64_t seed) {
    if (ch == channel::bernoulli) {
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(p, seed));
        return;
    }
    // Bursty channel with the same average loss: bad state loses 50% of
    // packets, mean bad burst 5 packets.
    sim::gilbert_elliott_loss::params ge;
    ge.loss_bad = 0.5;
    ge.loss_good = 0.0;
    ge.p_bad_to_good = 0.2;
    // steady-state loss = pi_bad * 0.5 = p  =>  pi_bad = 2p
    // pi_bad = g2b / (g2b + 0.2)  =>  g2b = 0.2 * 2p / (1 - 2p)
    ge.p_good_to_bad = 0.2 * 2.0 * p / (1.0 - std::min(2.0 * p, 0.9));
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::gilbert_elliott_loss>(ge, seed));
}

double run_tfrc(channel ch, double p, std::uint64_t seed) {
    sim::dumbbell net = make_net(seed);
    set_loss(net, ch, p, seed * 3 + 1);
    auto flow = add_session_flow(net, 0, 1, session_options{});
    net.sched().run_until(seconds(60));
    return goodput_mbps(flow->received_bytes(), seconds(60));
}

double run_tcp(channel ch, double p, std::uint64_t seed) {
    sim::dumbbell net = make_net(seed);
    set_loss(net, ch, p, seed * 3 + 1);
    auto flow = add_tcp_flow(net, 0, 1);
    net.sched().run_until(seconds(60));
    return goodput_mbps(flow.receiver->delivered_bytes(), seconds(60));
}

double run_chain_tfrc(std::size_t hops, double per_hop_loss, std::uint64_t seed) {
    sim::chain_config cfg;
    cfg.hops = hops;
    cfg.seed = seed;
    sim::chain net(cfg);
    net.set_per_hop_loss(per_hop_loss, seed * 13 + 1);

    auto flow =
        add_session_flow(net.src_host(), net.dst_host(), net.dst_addr(), 1, session_options{});
    net.sched().run_until(seconds(60));
    return goodput_mbps(flow->received_bytes(), seconds(60));
}

double run_chain_tcp(std::size_t hops, double per_hop_loss, std::uint64_t seed) {
    sim::chain_config cfg;
    cfg.hops = hops;
    cfg.seed = seed;
    sim::chain net(cfg);
    net.set_per_hop_loss(per_hop_loss, seed * 13 + 1);

    tcp::tcp_sender_config scfg;
    scfg.flow_id = 1;
    scfg.peer_addr = net.dst_addr();
    tcp::tcp_receiver_config rcfg;
    rcfg.flow_id = 1;
    rcfg.peer_addr = net.src_addr();
    auto* recv =
        net.dst_host().attach(1, std::make_unique<tcp::tcp_receiver_agent>(rcfg));
    net.src_host().attach(1, std::make_unique<tcp::tcp_sender_agent>(scfg));
    net.sched().run_until(seconds(60));
    return recv->delivered_bytes() * 8.0 / 60.0 / 1e6;
}

} // namespace

int main() {
    std::printf("E3: throughput over lossy (wireless-like) paths — 60 s transfers,\n");
    std::printf("20 Mb/s path, 60 ms RTT, non-congestion loss on the forward link.\n\n");

    // Verdict bookkeeping: goodput must fall along each sweep, and TFRC
    // must match TCP at moderate-to-high loss: p >= 1%, or 2+ chain hops
    // (path loss 1.0% and up).
    bool decreasing = true;
    bool tfrc_holds = true;
    double prev_tf = 0.0;
    double prev_tc = 0.0;
    auto judge = [&](bool first, bool moderate_loss, double tf, double tc) {
        if (!first && (tf > prev_tf || tc > prev_tc)) decreasing = false;
        if (moderate_loss && tf < tc) tfrc_holds = false;
        prev_tf = tf;
        prev_tc = tc;
    };

    std::printf("Independent (Bernoulli) loss:\n");
    table t({"loss p [%]", "TFRC [Mb/s]", "TCP [Mb/s]", "TFRC/TCP"});
    for (double p : {0.001, 0.005, 0.01, 0.02, 0.05}) {
        const double tf = run_tfrc(channel::bernoulli, p, 5);
        const double tc = run_tcp(channel::bernoulli, p, 5);
        judge(p == 0.001, p >= 0.01, tf, tc);
        t.add_row({fmt("%.1f", p * 100), fmt("%.3f", tf), fmt("%.3f", tc),
                   fmt("%.2f", tf / tc)});
    }
    t.print();

    std::printf("\nBursty (Gilbert-Elliott) loss with the same average rate:\n");
    table g({"avg loss [%]", "TFRC [Mb/s]", "TCP [Mb/s]", "TFRC/TCP"});
    for (double p : {0.005, 0.01, 0.02, 0.05}) {
        const double tf = run_tfrc(channel::gilbert_elliott, p, 9);
        const double tc = run_tcp(channel::gilbert_elliott, p, 9);
        judge(p == 0.005, p >= 0.01, tf, tc);
        g.add_row({fmt("%.1f", p * 100), fmt("%.3f", tf), fmt("%.3f", tc),
                   fmt("%.2f", tf / tc)});
    }
    g.print();

    std::printf("\nMulti-hop ad hoc chain (11 Mb/s hops, 0.5%% loss per hop):\n");
    table m({"hops", "path loss [%]", "TFRC [Mb/s]", "TCP [Mb/s]", "TFRC/TCP"});
    for (std::size_t hops : {1u, 2u, 4u, 6u}) {
        const double path_loss = 1.0 - std::pow(1.0 - 0.005, static_cast<double>(hops));
        const double tf = run_chain_tfrc(hops, 0.005, 3);
        const double tc = run_chain_tcp(hops, 0.005, 3);
        judge(hops == 1, hops >= 2, tf, tc);
        m.add_row({fmt_u64(hops), fmt("%.2f", path_loss * 100), fmt("%.3f", tf),
                   fmt("%.3f", tc), fmt("%.2f", tf / tc)});
    }
    m.print();

    std::printf("\nExpected shape: throughput decreasing in p (and in hop count: loss\n");
    std::printf("compounds while RTT grows); TFRC >= TCP at moderate-to-high loss\n");
    std::printf("(rate control avoids timeout collapse).\n");
    verdict(decreasing, "TFRC and TCP goodput fall with p and with hop count in every sweep");
    verdict(tfrc_holds, "TFRC >= TCP at p >= 1% and on 2+ chain hops");
    return 0;
}

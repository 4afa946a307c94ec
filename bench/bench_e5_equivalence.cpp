// E5 — sender-side estimation equivalence figure.
//
// Paper claim (§3): moving the loss-rate estimation to the sender needs
// only "few changes" and keeps TFRC behaviour intact; QTPlight's rate
// must match classic TFRC's.
//
// Workload: identical lossy paths; one vtp::session with the classic
// receiver-side estimator (session_options{}: reliability none,
// receiver-side p), one with QTPlight's sender-side estimator
// (session_options::light()). Reported, per loss rate: the loss-event
// rate each estimator converged to, goodput of both variants, and their
// ratio. Expected shape: near-identical p and goodput across the sweep.
// --json <path> emits the series (BENCH_e5.json in CI); exit status 1
// unless every rate ratio lies in [0.9, 1.1].
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
    cfg.pairs = 1;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 20e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue_packets = 100;
    cfg.seed = seed;
    return sim::dumbbell(cfg);
}

struct run_outcome {
    double goodput_mbps_value;
    double p_estimate;
};

run_outcome run(bool light, double loss, std::uint64_t seed) {
    sim::dumbbell net = make_net(seed);
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(loss, 1000 + seed));
    auto flow = add_session_flow(net, 0, 1,
                                 light ? session_options::light() : session_options{});
    net.sched().run_until(seconds(60));
    // Classic: the receiver's loss history; QTPlight: the sender's.
    const double p = light ? flow->sender().estimator().loss_event_rate()
                     : flow->receiver() != nullptr
                         ? flow->receiver()->history().loss_event_rate()
                         : 0.0;
    return {goodput_mbps(flow->received_bytes(), seconds(60)), p};
}

/// CI gate: QTPlight's rate stays within 10% of classic TFRC's.
constexpr double ratio_low = 0.9;
constexpr double ratio_high = 1.1;
/// "p estimates coincide": each pair within 20% of the classic value.
constexpr double p_tolerance = 0.2;

} // namespace

int main(int argc, char** argv) {
    std::printf("E5: receiver-side vs sender-side (QTPlight) loss estimation —\n");
    std::printf("identical 20 Mb/s lossy paths, 60 s runs, vtp::session flows.\n\n");

    const std::string json = bench::json_path_arg(argc, argv);
    bench::json_report rep("bench_e5_equivalence");
    table t({"loss p [%]", "p_recv-side", "p_send-side", "classic [Mb/s]",
             "QTPlight [Mb/s]", "rate ratio"});
    bool ratios_ok = true;
    bool p_ok = true;
    for (double loss : {0.002, 0.005, 0.01, 0.02, 0.05}) {
        const run_outcome classic = run(false, loss, 21);
        const run_outcome light = run(true, loss, 21);
        const double ratio = light.goodput_mbps_value / classic.goodput_mbps_value;
        ratios_ok = ratios_ok && ratio >= ratio_low && ratio <= ratio_high;
        p_ok = p_ok && std::fabs(light.p_estimate - classic.p_estimate) <=
                           p_tolerance * classic.p_estimate;
        t.add_row({fmt("%.1f", loss * 100), fmt("%.4f", classic.p_estimate),
                   fmt("%.4f", light.p_estimate), fmt("%.3f", classic.goodput_mbps_value),
                   fmt("%.3f", light.goodput_mbps_value), fmt("%.2f", ratio)});
        const std::string key = "loss_" + fmt("%.1f", loss * 100) + "pct_";
        rep.add(key + "p_recv_side", classic.p_estimate);
        rep.add(key + "p_send_side", light.p_estimate);
        rep.add(key + "classic_mbps", classic.goodput_mbps_value);
        rep.add(key + "light_mbps", light.goodput_mbps_value);
        rep.add(key + "rate_ratio", ratio);
    }
    t.print();

    std::printf("\nExpected shape: p estimates and goodput curves coincide\n");
    std::printf("(ratio ~1.0 across the sweep) — the estimator placement is\n");
    std::printf("transparent to the congestion control.\n");
    verdict(ratios_ok, "every QTPlight/classic rate ratio in [0.9, 1.1]");
    verdict(p_ok, "sender-side p within 20% of receiver-side p at every loss rate");

    if (!json.empty()) {
        rep.add("ratio_low", ratio_low);
        rep.add("ratio_high", ratio_high);
        rep.add("pass", ratios_ok);
        if (!rep.write(json)) std::printf("could not write %s\n", json.c_str());
    }
    return ratios_ok ? 0 : 1;
}

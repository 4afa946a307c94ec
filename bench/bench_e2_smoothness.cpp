// E2 — rate-smoothness figure.
//
// Paper claim (§2/§3): TFRC provides "a mechanism for enhancing flows'
// rate smoothness" — the smooth throughput multimedia needs, in contrast
// to TCP's sawtooth.
//
// Workload (canonical TFRC setup, Floyd et al.): one measured flow (TFRC —
// a vtp::session with session_options{}: reliability none, receiver-side
// p — or TCP) against four long-lived TCP background flows on a 15 Mb/s RED
// bottleneck — RED desynchronises drops, so the loss-event rate is a
// steady signal while TCP still halves on every drop. The sending rate of
// the measured flow is sampled every 200 ms. Reported: the time series
// (2 s buckets) and the coefficient of variation of the per-interval rate
// after slow start. Expected shape: CoV(TFRC) well below CoV(TCP).
//
// Per-algorithm section (pluggable cc): the measured flow re-run through
// vtp::session with each negotiable send algorithm. Expected shape:
// TFRC-via-interface stays smooth (CoV near the TFRC figure above),
// NewReno/Westwood saw like the window-based senders they are. The TFRC
// row gates at 5% of its frozen baseline; --json emits the series
// (BENCH_e2_cc.json in CI).
#include <cstdio>
#include <functional>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "util/stats.hpp"

namespace {

using namespace vtp;
using namespace vtp::bench;
using util::milliseconds;
using util::seconds;

struct rate_trace {
    util::sample_series steady_samples; ///< per-500ms bytes after warmup
    std::vector<double> series_mbps;    ///< 2 s buckets for the figure
};

rate_trace run(bool measured_is_tfrc) {
    sim::dumbbell_config cfg;
    cfg.pairs = 5;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 15e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue = [] {
        return std::make_unique<sim::red_queue>(sim::default_red_params(60, 1050),
                                                60 * 1050, 770);
    };
    cfg.seed = 77;
    sim::dumbbell net(cfg);

    // The figure plots the *sending* rate: that is what a media codec
    // adapting to the transport sees, and where TCP's burst/stall pattern
    // (recovery freezes, slow-start bursts) shows at sub-second scale.
    std::function<std::uint64_t()> measured_bytes;
    std::unique_ptr<session_flow> session;
    if (measured_is_tfrc) {
        session = add_session_flow(net, 0, 1, session_options{});
        measured_bytes = [flow = session.get()] { return flow->sent_bytes(); };
    } else {
        auto flow = add_tcp_flow(net, 0, 1);
        measured_bytes = [flow] { return flow.sender->bytes_sent(); };
    }
    for (std::size_t i = 1; i < 5; ++i) // background load
        add_tcp_flow(net, i, static_cast<std::uint32_t>(10 + i));

    rate_trace tr;
    const util::sim_time warmup = seconds(10);
    const util::sim_time duration = seconds(70);
    std::uint64_t last = 0;
    double bucket_acc = 0.0;
    int bucket_count = 0;
    std::function<void()> sampler = [&] {
        const std::uint64_t bytes = measured_bytes();
        const double delta = static_cast<double>(bytes - last);
        last = bytes;
        if (net.sched().now() > warmup) {
            tr.steady_samples.add(delta);
            bucket_acc += delta;
            if (++bucket_count == 10) { // 10 x 200ms = 2s bucket
                tr.series_mbps.push_back(bucket_acc * 8.0 / 2.0 / 1e6);
                bucket_acc = 0.0;
                bucket_count = 0;
            }
        }
        net.sched().after(milliseconds(200), sampler);
    };
    net.sched().after(milliseconds(200), sampler);
    net.sched().run_until(duration);
    return tr;
}

/// Same contest, measured flow driven through vtp::session with `alg`
/// negotiated at the handshake.
rate_trace run_cc(cc::algorithm_id alg) {
    sim::dumbbell_config cfg;
    cfg.pairs = 5;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 15e6;
    cfg.bottleneck_delay = milliseconds(28);
    cfg.bottleneck_queue = [] {
        return std::make_unique<sim::red_queue>(sim::default_red_params(60, 1050),
                                                60 * 1050, 770);
    };
    cfg.seed = 77;
    sim::dumbbell net(cfg);

    auto flow = add_session_flow(net, 0, 1, session_options::reliable().with_cc(alg));
    for (std::size_t i = 1; i < 5; ++i) // background load
        add_tcp_flow(net, i, static_cast<std::uint32_t>(10 + i));

    rate_trace tr;
    const util::sim_time warmup = seconds(10);
    const util::sim_time duration = seconds(70);
    std::uint64_t last = 0;
    double bucket_acc = 0.0;
    int bucket_count = 0;
    std::function<void()> sampler = [&] {
        const std::uint64_t bytes = flow->sent_bytes();
        const double delta = static_cast<double>(bytes - last);
        last = bytes;
        if (net.sched().now() > warmup) {
            tr.steady_samples.add(delta);
            bucket_acc += delta;
            if (++bucket_count == 10) {
                tr.series_mbps.push_back(bucket_acc * 8.0 / 2.0 / 1e6);
                bucket_acc = 0.0;
                bucket_count = 0;
            }
        }
        net.sched().after(milliseconds(200), sampler);
    };
    net.sched().after(milliseconds(200), sampler);
    net.sched().run_until(duration);
    return tr;
}

/// Frozen TFRC-via-interface baseline (measured when the pluggable-cc
/// subsystem landed; the simulator is deterministic, so a healthy tree
/// reproduces these exactly).
constexpr double frozen_tfrc_cc_mean_mbps = 2.78;
constexpr double frozen_tfrc_cc_cov = 0.140;
constexpr double gate_tolerance = 0.05;

bool within(double measured, double frozen) {
    return measured >= frozen * (1.0 - gate_tolerance) &&
           measured <= frozen * (1.0 + gate_tolerance);
}

} // namespace

int main(int argc, char** argv) {
    std::printf("E2: rate smoothness — measured flow vs 4 TCP background flows\n");
    std::printf("(15 Mb/s RED bottleneck; sending rate sampled per 200 ms after 10 s warmup)\n\n");

    const rate_trace tfrc = run(true);
    const rate_trace tcp = run(false);

    table series({"t [s]", "TFRC [Mb/s]", "TCP [Mb/s]"});
    const std::size_t buckets = std::min(tfrc.series_mbps.size(), tcp.series_mbps.size());
    for (std::size_t b = 0; b < buckets; ++b) {
        series.add_row({fmt("%.0f", 10.0 + 2.0 * static_cast<double>(b + 1)),
                        fmt("%.2f", tfrc.series_mbps[b]), fmt("%.2f", tcp.series_mbps[b])});
    }
    series.print();

    std::printf("\nSmoothness summary (coefficient of variation of 200 ms send rate):\n");
    table summary({"protocol", "mean rate [Mb/s]", "rate CoV", "min/max [Mb/s]"});
    summary.add_row({"TFRC", fmt("%.2f", tfrc.steady_samples.mean() * 8 / 0.2 / 1e6),
                     fmt("%.3f", tfrc.steady_samples.cov()),
                     fmt("%.2f", tfrc.steady_samples.min() * 8 / 0.2 / 1e6) + " / " +
                         fmt("%.2f", tfrc.steady_samples.max() * 8 / 0.2 / 1e6)});
    summary.add_row({"TCP", fmt("%.2f", tcp.steady_samples.mean() * 8 / 0.2 / 1e6),
                     fmt("%.3f", tcp.steady_samples.cov()),
                     fmt("%.2f", tcp.steady_samples.min() * 8 / 0.2 / 1e6) + " / " +
                         fmt("%.2f", tcp.steady_samples.max() * 8 / 0.2 / 1e6)});
    summary.print();
    std::printf("\nExpected shape: CoV(TFRC) << CoV(TCP).\n");
    verdict(tfrc.steady_samples.cov() <= 0.5 * tcp.steady_samples.cov(),
            "CoV(TFRC) at most half of CoV(TCP)");

    // --- per-algorithm session-API measurement ---------------------------
    std::printf("\nPer-algorithm (vtp::session, negotiated cc) vs 4 TCP background:\n");
    const cc::algorithm_id algs[] = {cc::algorithm_id::tfrc, cc::algorithm_id::newreno,
                                     cc::algorithm_id::westwood};
    rate_trace by_alg[3];
    table cc_summary({"algorithm", "mean rate [Mb/s]", "rate CoV", "min/max [Mb/s]"});
    for (std::size_t a = 0; a < 3; ++a) {
        by_alg[a] = run_cc(algs[a]);
        const auto& s = by_alg[a].steady_samples;
        cc_summary.add_row({cc::to_string(algs[a]), fmt("%.2f", s.mean() * 8 / 0.2 / 1e6),
                            fmt("%.3f", s.cov()),
                            fmt("%.2f", s.min() * 8 / 0.2 / 1e6) + " / " +
                                fmt("%.2f", s.max() * 8 / 0.2 / 1e6)});
    }
    cc_summary.print();

    const double tfrc_cc_mean = by_alg[0].steady_samples.mean() * 8 / 0.2 / 1e6;
    const double tfrc_cc_cov = by_alg[0].steady_samples.cov();
    const bool gate_ok = within(tfrc_cc_mean, frozen_tfrc_cc_mean_mbps) &&
                         within(tfrc_cc_cov, frozen_tfrc_cc_cov);
    std::printf("\nTFRC-via-interface gate: mean %.2f Mb/s CoV %.3f vs frozen %.2f/%.3f "
                "(+/-5%%) — %s\n",
                tfrc_cc_mean, tfrc_cc_cov, frozen_tfrc_cc_mean_mbps, frozen_tfrc_cc_cov,
                gate_ok ? "PASS" : "FAIL");

    const std::string json = bench::json_path_arg(argc, argv);
    if (!json.empty()) {
        bench::json_report rep("bench_e2_smoothness");
        for (std::size_t a = 0; a < 3; ++a) {
            const std::string key = cc::to_string(algs[a]);
            rep.add(key + "_mean_mbps", by_alg[a].steady_samples.mean() * 8 / 0.2 / 1e6);
            rep.add(key + "_cov", by_alg[a].steady_samples.cov());
        }
        rep.add("frozen_tfrc_mean_mbps", frozen_tfrc_cc_mean_mbps);
        rep.add("frozen_tfrc_cov", frozen_tfrc_cc_cov);
        rep.add("gate_tolerance", gate_tolerance);
        rep.add("pass", gate_ok);
        if (!rep.write(json)) std::printf("could not write %s\n", json.c_str());
    }
    return gate_ok ? 0 : 1;
}

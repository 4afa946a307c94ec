// E14 — flight-recorder overhead: what tracing costs the datapath.
//
// Three configurations of the identical 8 MB reliable transfer over a
// clean simulated dumbbell (both endpoints traced when tracing is on):
//   disabled : trace_ring_records = 0 — the hooks compile to one
//              never-taken null test per event site.
//   ring     : 4096-record flight recorder, no sink (overwrite mode).
//   spill    : same ring spilling frames to an in-memory sink (the
//              engine's async_writer path minus the disk).
//
// Gates:
//  --max-enabled-ratio R  : fail when wall(ring)/wall(disabled) > R
//                           (CI uses 1.15 — tracing on costs <= 15%).
//  --max-disabled-pct P   : the compiled-but-disabled budget. A transfer
//                           cannot resolve a sub-1% effect above sim
//                           noise, so the bound is computed analytically:
//                           hook-guard ns/site (microbenched) x observed
//                           record sites per packet, as a percentage of
//                           the disabled run's per-packet processing
//                           time. CI uses 2.0.
//
// --json emits BENCH_e14_trace_overhead.json for the perf trajectory.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "bench_json.hpp"
#include "sim/topology.hpp"
#include "trace/tracer.hpp"
#include "util/pattern.hpp"

using namespace vtp;
using util::milliseconds;
using util::seconds;

namespace {

constexpr std::uint64_t transfer_bytes = 8'000'000;

enum class mode { disabled, ring, spill };

struct transfer_result {
    double wall_s = 0.0;
    std::uint64_t delivered = 0;
    std::uint64_t packets = 0;
    std::uint64_t records = 0;
};

transfer_result run_transfer(mode m, const std::vector<std::uint8_t>& payload) {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.bottleneck_rate_bps = 200e6;
    cfg.bottleneck_delay = milliseconds(5);
    cfg.access_delay = milliseconds(1);
    sim::dumbbell net(cfg);

    trace::memory_sink sink;
    const std::size_t ring = m == mode::disabled ? 0 : 4096;
    trace::sink* out = m == mode::spill ? &sink : nullptr;

    server_options sopts{};
    sopts.trace_ring_records = ring;
    sopts.trace_sink = out;
    vtp::server srv(net.right_host(0), sopts);
    session* rx = nullptr;
    srv.set_on_session([&rx](session& s) { rx = &s; });

    session_options copts = session_options::reliable();
    copts.trace_ring_records = ring;
    copts.trace_sink = out;
    session tx = session::connect(net.left_host(0), net.right_addr(0), copts);
    tx.send(0, std::span<const std::uint8_t>(payload));
    tx.close();

    // The application drains its recv() buffer every 20 ms step.
    transfer_result res;
    std::vector<std::uint8_t> buf(64 * 1024);
    auto drain = [&] {
        if (rx == nullptr) return;
        while (const std::size_t got = rx->recv(0, buf)) res.delivered += got;
    };
    const auto t0 = std::chrono::steady_clock::now();
    while (!tx.closed() && net.sched().now() < seconds(120)) {
        net.sched().run_until(net.sched().now() + milliseconds(20));
        drain();
    }
    drain();
    const auto t1 = std::chrono::steady_clock::now();
    res.wall_s = std::chrono::duration<double>(t1 - t0).count();
    const auto st = tx.stats();
    res.packets = st.packets_sent;
    res.records = st.trace_events_recorded;
    return res;
}

/// Best (minimum) wall time of `reps` runs — the noise-robust estimator.
transfer_result best_of(mode m, int reps, const std::vector<std::uint8_t>& payload) {
    transfer_result best = run_transfer(m, payload);
    for (int i = 1; i < reps; ++i) {
        const transfer_result r = run_transfer(m, payload);
        if (r.wall_s < best.wall_s) best = r;
    }
    return best;
}

/// Cost of one disabled hook: the `if (tracer_)` null test every event
/// site pays when tracing is off. Measured on a pointer the optimizer
/// cannot prove null.
double hook_guard_ns() {
    trace::tracer* t = nullptr;
    volatile std::uintptr_t hide = reinterpret_cast<std::uintptr_t>(t);
    constexpr int iters = 50'000'000;
    std::uint64_t hits = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        auto* p = reinterpret_cast<trace::tracer*>(hide);
        if (p != nullptr) ++hits;
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (hits != 0) std::printf("?");
    return std::chrono::duration<double>(t1 - t0).count() / iters * 1e9;
}

} // namespace

int main(int argc, char** argv) {
    double max_enabled_ratio = 0.0;
    double max_disabled_pct = 0.0;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--max-enabled-ratio")
            max_enabled_ratio = std::atof(argv[i + 1]);
        if (std::string(argv[i]) == "--max-disabled-pct")
            max_disabled_pct = std::atof(argv[i + 1]);
    }
    const std::string json = bench::json_path_arg(argc, argv);

    const std::vector<std::uint8_t> payload =
        util::pattern_buffer(1, 0, static_cast<std::size_t>(transfer_bytes));

    // Warm each configuration once, then race best-of-3.
    (void)run_transfer(mode::disabled, payload);
    (void)run_transfer(mode::ring, payload);
    (void)run_transfer(mode::spill, payload);
    const transfer_result off = best_of(mode::disabled, 3, payload);
    const transfer_result ring = best_of(mode::ring, 3, payload);
    const transfer_result spill = best_of(mode::spill, 3, payload);

    const double enabled_ratio = off.wall_s > 0 ? ring.wall_s / off.wall_s : 0.0;
    const double spill_ratio = off.wall_s > 0 ? spill.wall_s / off.wall_s : 0.0;

    const double guard_ns = hook_guard_ns();
    const double records_per_packet =
        ring.packets > 0
            ? static_cast<double>(ring.records) / static_cast<double>(ring.packets)
            : 0.0;
    const double packet_ns =
        off.packets > 0 ? off.wall_s * 1e9 / static_cast<double>(off.packets) : 0.0;
    const double disabled_pct =
        packet_ns > 0 ? guard_ns * records_per_packet / packet_ns * 100.0 : 0.0;

    std::printf("# E14 — flight-recorder overhead (8 MB clean-path transfer)\n");
    std::printf("disabled             %.3f s wall (%llu packets)\n", off.wall_s,
                static_cast<unsigned long long>(off.packets));
    std::printf("ring (no sink)       %.3f s wall (%llu records)  ratio %.3fx\n",
                ring.wall_s, static_cast<unsigned long long>(ring.records),
                enabled_ratio);
    std::printf("ring + spill sink    %.3f s wall (%llu records)  ratio %.3fx\n",
                spill.wall_s, static_cast<unsigned long long>(spill.records),
                spill_ratio);
    std::printf("hook guard           %.2f ns/site, %.1f record sites/packet\n",
                guard_ns, records_per_packet);
    std::printf("disabled overhead    %.4f%% of per-packet processing (%.0f ns)\n",
                disabled_pct, packet_ns);

    bool ok = off.delivered == transfer_bytes && ring.delivered == transfer_bytes &&
              spill.delivered == transfer_bytes && ring.records > 0;
    if (!ok) std::printf("FAIL: incomplete transfer or no trace records\n");
    if (max_enabled_ratio > 0 && enabled_ratio > max_enabled_ratio) {
        std::printf("FAIL: enabled ratio %.3f exceeds --max-enabled-ratio %.2f\n",
                    enabled_ratio, max_enabled_ratio);
        ok = false;
    }
    if (max_disabled_pct > 0 && disabled_pct > max_disabled_pct) {
        std::printf("FAIL: disabled overhead %.3f%% exceeds --max-disabled-pct %.2f\n",
                    disabled_pct, max_disabled_pct);
        ok = false;
    }

    if (!json.empty()) {
        bench::json_report rep("bench_e14_trace_overhead");
        rep.add("transfer_bytes", transfer_bytes);
        rep.add("disabled_wall_s", off.wall_s);
        rep.add("ring_wall_s", ring.wall_s);
        rep.add("spill_wall_s", spill.wall_s);
        rep.add("enabled_ratio", enabled_ratio);
        rep.add("spill_ratio", spill_ratio);
        rep.add("hook_guard_ns", guard_ns);
        rep.add("records_per_packet", records_per_packet);
        rep.add("disabled_overhead_pct", disabled_pct);
        rep.add("trace_records", ring.records);
        rep.add("pass", ok);
        if (!rep.write(json))
            std::fprintf(stderr, "bench_e14: could not write %s\n", json.c_str());
    }
    return ok ? 0 : 1;
}

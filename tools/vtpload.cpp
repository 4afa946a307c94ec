// vtpload — load generator for engine::server.
//
// Spins up an in-process N-shard engine server, then drives K client
// vtp::sessions (spread over legacy udp_hosts on one event loop) at it,
// each carrying M streams of --bytes bytes. The server side runs the v2
// event API: delivery accounting comes from engine::server::poll_events()
// (fin events carry each completed stream's length; readable events
// carry payload chunks). With --payload every stream sends real pattern
// bytes, verified chunk-by-chunk on the application thread — a checksum
// of the full engine datapath (encode_segment_into + buffer_pool +
// sendmmsg on one side, recvmmsg + decode + demux + event export on the
// other). Reports aggregate throughput, engine datapath counters
// (packets/sec, batching, handoff, event drops) and the
// p50/p90/p99/p99.9/max of per-session completion latency (connect to
// FIN-acked; a log-linear trace::histogram, <=6.25%% quantile error).
// --metrics-out dumps the engine's full metrics registry as Prometheus
// text; --json embeds a digest of the same snapshot. Exit status gates
// CI smoke runs: non-zero when --min-pps is not met, any engine decode
// error is counted, any session fails to complete, or any --payload
// byte mismatches.
//
//   vtpload --clients 200 --streams 2 --bytes 40000 --shards 4
//   vtpload --clients 100 --min-pps 2000 --json vtpload.json   # CI smoke
//   vtpload --clients 40 --payload --json vtpload_payload.json # checksum
//   vtpload --clients 50 --metrics-out metrics.prom            # Prometheus
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench_json.hpp"
#include "cc/algorithm_id.hpp"
#include "core/profile.hpp"
#include "engine/server.hpp"
#include "engine/udp_io.hpp"
#include "ops/admin.hpp"
#include "net/udp_host.hpp"
#include "packet/wire.hpp"
#include "trace/metrics.hpp"
#include "util/pattern.hpp"

using namespace vtp;
using util::milliseconds;

namespace {

struct options {
    std::uint16_t port = 49100;
    std::size_t shards = 4;
    int clients = 200;
    int streams = 1;           ///< streams per session (>=1; stream 0 + extras)
    std::uint64_t bytes = 20'000; ///< per stream
    std::uint32_t packet_size = 600;
    int timeout_s = 60;
    double min_pps = 0.0; ///< 0 = report only, no gate
    bool payload = false; ///< real pattern bytes, verified at the server
    vtp::cc::algorithm_id cc = vtp::cc::algorithm_id::tfrc; ///< client cc algorithm
    std::string json;
    std::string metrics_out; ///< Prometheus text dump ("-" = stdout)
    std::string trace_dir;   ///< engine flight-recorder spool directory
    std::string attack;      ///< "" | "syn-flood" | "reneg-storm"
    double attack_pps = 2000.0; ///< attack datagrams per second
    int attack_sources = 256;   ///< spoofed source addresses to cycle
    int metrics_interval_ms = 0; ///< 0 = no periodic sampling
    std::string metrics_series;  ///< time-series JSON path (default derived)
    std::uint16_t admin_port = 0; ///< 0 = admin plane off
    int migrate_after_ms = 0; ///< >0: rebind every client host + migrate mid-load
};

/// One periodic engine snapshot taken every --metrics-interval ms while
/// the load is in flight (satellite of the live-ops plane: the same
/// registry the admin endpoint scrapes, sampled in-process).
struct metrics_sample {
    double t_s = 0.0;
    std::uint64_t datagrams_rx = 0;
    std::uint64_t datagrams_tx = 0;
    std::uint64_t events_dropped = 0;
    std::uint64_t handoff_dropped = 0;
    std::uint64_t half_open = 0;
    std::uint64_t sessions = 0;
    double shard_turn_p99_us = 0.0;
    double rtt_p50_us = 0.0;
    std::uint64_t event_ring_occupancy_max = 0;
};

using util::pattern_byte;

bool parse(int argc, char** argv, options& o) {
    bool missing_value = false;
    for (int i = 1; i < argc && !missing_value; ++i) {
        const std::string a = argv[i];
        // A flag as the last token has no value: empty string keeps the
        // ato* calls defined and trips the usage error below.
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                missing_value = true;
                return "";
            }
            return argv[++i];
        };
        if (a == "--port") {
            o.port = static_cast<std::uint16_t>(std::atoi(next()));
        } else if (a == "--shards") {
            o.shards = static_cast<std::size_t>(std::atoi(next()));
        } else if (a == "--clients") {
            o.clients = std::atoi(next());
        } else if (a == "--streams") {
            o.streams = std::max(1, std::atoi(next()));
        } else if (a == "--bytes") {
            o.bytes = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (a == "--packet-size") {
            o.packet_size = static_cast<std::uint32_t>(std::atoi(next()));
        } else if (a == "--timeout") {
            o.timeout_s = std::atoi(next());
        } else if (a == "--min-pps") {
            o.min_pps = std::atof(next());
        } else if (a == "--payload") {
            o.payload = true;
        } else if (a == "--cc") {
            const auto alg = vtp::cc::algorithm_from_string(next());
            if (!alg) {
                std::fprintf(stderr, "vtpload: unknown --cc (tfrc|newreno|westwood)\n");
                missing_value = true;
            } else {
                o.cc = *alg;
            }
        } else if (a == "--json") {
            o.json = next();
        } else if (a == "--metrics-out") {
            o.metrics_out = next();
        } else if (a == "--trace-dir") {
            o.trace_dir = next();
        } else if (a == "--attack") {
            o.attack = next();
            if (o.attack != "syn-flood" && o.attack != "reneg-storm") {
                std::fprintf(stderr,
                             "vtpload: unknown --attack (syn-flood|reneg-storm)\n");
                missing_value = true;
            }
        } else if (a == "--attack-pps") {
            o.attack_pps = std::atof(next());
        } else if (a == "--attack-sources") {
            o.attack_sources = std::max(1, std::atoi(next()));
        } else if (a == "--metrics-interval") {
            o.metrics_interval_ms = std::max(1, std::atoi(next()));
        } else if (a == "--metrics-series") {
            o.metrics_series = next();
        } else if (a == "--admin-port") {
            o.admin_port = static_cast<std::uint16_t>(std::atoi(next()));
        } else if (a == "--migrate-after") {
            o.migrate_after_ms = std::atoi(next());
            if (o.migrate_after_ms <= 0) {
                std::fprintf(stderr, "vtpload: --migrate-after wants a positive ms\n");
                missing_value = true;
            }
        } else {
            missing_value = true;
        }
    }
    if (missing_value) {
        std::fprintf(stderr,
                     "usage: vtpload [--port P] [--shards N] [--clients K] "
                     "[--streams M] [--bytes B] [--packet-size S] "
                     "[--timeout SEC] [--min-pps FLOOR] [--payload] "
                     "[--cc tfrc|newreno|westwood] [--json PATH] "
                     "[--metrics-out PATH|-] [--trace-dir DIR] "
                     "[--attack syn-flood|reneg-storm] [--attack-pps N] "
                     "[--attack-sources N] [--metrics-interval MS] "
                     "[--metrics-series PATH] [--admin-port P] "
                     "[--migrate-after MS]\n");
        return false;
    }
    return true;
}

/// Raw-socket attacker: writes engine datagrams (8-byte flow/src header +
/// wire segment) straight at the engine port with forged source fields.
/// The forged addresses decode to high loopback ports nothing listens on,
/// so replies vanish exactly as they would toward a spoofed Internet host.
struct attacker {
    int fd = -1;
    sockaddr_in target{};
    std::uint64_t sent = 0;

    bool open(std::uint16_t port) {
        fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd < 0) return false;
        target = engine::loopback_addr(port);
        return true;
    }

    void send(std::uint32_t flow, std::uint32_t src, const packet::segment& seg) {
        std::uint8_t header[8];
        for (int i = 0; i < 4; ++i)
            header[i] = static_cast<std::uint8_t>(flow >> (8 * (3 - i)));
        for (int i = 0; i < 4; ++i)
            header[4 + i] = static_cast<std::uint8_t>(src >> (8 * (3 - i)));
        std::vector<std::uint8_t> d(header, header + 8);
        const std::vector<std::uint8_t> body = packet::encode_segment(seg);
        d.insert(d.end(), body.begin(), body.end());
        ::sendto(fd, d.data(), d.size(), 0,
                 reinterpret_cast<const sockaddr*>(&target), sizeof target);
        ++sent;
    }

    /// One spoofed datagram: a fresh-flow SYN (syn-flood) or a stray
    /// reneg proposal (reneg-storm), source cycled over the forged pool.
    void fire(const options& o) {
        const std::uint32_t k = static_cast<std::uint32_t>(sent);
        const std::uint32_t src =
            0xB000u + k % static_cast<std::uint32_t>(o.attack_sources);
        packet::handshake_segment hs;
        hs.profile_bits = qtp::qtp_default_profile().encode();
        if (o.attack == "syn-flood") {
            hs.type = packet::handshake_segment::kind::syn;
            send(0x60000000u + k, src, packet::segment{hs});
        } else { // reneg-storm: hammer the live client flows with proposals
            hs.type = packet::handshake_segment::kind::reneg;
            hs.token = 0x70000000u + k;
            send(1 + k % static_cast<std::uint32_t>(std::max(1, o.clients)), src,
                 packet::segment{hs});
        }
    }

    ~attacker() {
        if (fd >= 0) ::close(fd);
    }
};

} // namespace

int main(int argc, char** argv) {
    options opt;
    if (!parse(argc, argv, opt)) return 2;

    engine::engine_config cfg;
    cfg.port = opt.port;
    cfg.shards = opt.shards;
    cfg.reap_interval = milliseconds(250);
    // The application thread polls every few milliseconds; size the
    // export ring for a full polling gap at peak delivery rate.
    cfg.event_queue_capacity = 1 << 15;
    // Flight-recorder spool: every accepted session records into
    // <trace_dir>/trace-shard<i>.vtpt through the per-shard writer thread.
    cfg.trace_dir = opt.trace_dir;
    // Live operations plane: loopback HTTP scrape target while the load
    // runs (GET /metrics, /sessions, /healthz — see src/ops/admin.hpp).
    cfg.admin_port = opt.admin_port;
    // Live migration smoke: both endpoints must speak path validation —
    // the server validates the rebound clients, bumping
    // vtp_path_migrations_total once per proven switch.
    if (opt.migrate_after_ms > 0) cfg.accept.path.enabled = true;
    if (!opt.attack.empty()) {
        // Attack runs exercise the accept-path guard: stateless retry
        // cookies, half-open caps + deadline sweeper, and (for the reneg
        // storm) the per-connection renegotiation bucket.
        cfg.accept.guard.retry_cookies = true;
        cfg.accept.max_half_open = 1024;
        cfg.accept.handshake_deadline = util::seconds(2);
        if (opt.attack == "reneg-storm") {
            cfg.accept.reneg_rate_bps = 8.0 * 26 * 20; // ~20 proposals/s
            cfg.accept.reneg_burst_bytes = 260;        // ~10 proposal burst
        }
    }
    engine::server srv(cfg);
    // v2 API: no per-session callbacks — every accepted session exports
    // its events (fin with the stream length; readable with the payload
    // chunk) into the rings poll_events() drains below.

    try {
        srv.start();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vtpload: cannot start engine (%s)\n", e.what());
        return 2;
    }
    if (opt.admin_port != 0) {
        if (srv.admin() != nullptr) {
            std::printf("admin plane          http://127.0.0.1:%u/\n",
                        srv.admin()->port());
            std::fflush(stdout); // CI polls this line before scraping
        } else {
            std::fprintf(stderr, "vtpload: admin plane failed to start\n");
        }
    }

    // Client side: 50 sessions per udp_host keeps each host's flow table
    // and the shared event loop comfortable.
    constexpr int sessions_per_host = 50;
    net::event_loop loop;
    std::vector<std::unique_ptr<net::udp_host>> hosts;
    const int n_hosts = (opt.clients + sessions_per_host - 1) / sessions_per_host;
    for (int h = 0; h < n_hosts; ++h) {
        try {
            hosts.push_back(std::make_unique<net::udp_host>(
                loop, static_cast<std::uint16_t>(opt.port + 1 + h),
                static_cast<std::uint64_t>(100 + h)));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "vtpload: cannot bind client host (%s)\n", e.what());
            return 2;
        }
    }

    std::vector<vtp::session> sessions;
    sessions.reserve(static_cast<std::size_t>(opt.clients));
    std::vector<std::uint8_t> pattern;
    const util::sim_time t0 = loop.now();
    for (int i = 1; i <= opt.clients; ++i) {
        net::udp_host& host = *hosts[static_cast<std::size_t>(i - 1) / sessions_per_host];
        session_options so = session_options::reliable();
        so.flow_id = static_cast<std::uint32_t>(i);
        so.packet_size = opt.packet_size;
        so.profile.congestion = opt.cc;
        if (opt.migrate_after_ms > 0) so.path.enabled = true;
        vtp::session s = vtp::session::connect(host, opt.port, so);
        auto queue_stream = [&](std::uint32_t sid) {
            if (!opt.payload) {
                s.send(sid, opt.bytes);
                return;
            }
            pattern.resize(static_cast<std::size_t>(opt.bytes));
            for (std::uint64_t off = 0; off < opt.bytes; ++off)
                pattern[static_cast<std::size_t>(off)] =
                    pattern_byte(so.flow_id, sid, off);
            s.send(sid, std::span<const std::uint8_t>(pattern));
        };
        queue_stream(0);
        for (int k = 1; k < opt.streams; ++k) {
            stream::stream_options stro;
            stro.reliability = sack::reliability_mode::full;
            const std::uint32_t sid = s.open_stream(stro);
            queue_stream(sid);
            s.finish(sid);
        }
        s.close();
        sessions.push_back(std::move(s));
    }

    // Drive until every FIN is acknowledged, draining the engine's event
    // queue (delivery accounting + payload verification) as we go and
    // recording each session's completion time as it happens.
    std::uint64_t delivered = 0;         ///< summed fin stream lengths
    std::uint64_t payload_bytes = 0;     ///< readable chunk bytes seen
    std::uint64_t payload_mismatch = 0;  ///< bytes failing the pattern
    std::vector<engine::engine_event> evs(256);
    auto drain_events = [&] {
        for (;;) {
            const std::size_t n = srv.poll_events(evs.data(), evs.size());
            if (n == 0) return;
            for (std::size_t i = 0; i < n; ++i) {
                const engine::engine_event& e = evs[i];
                if (e.ev.type == vtp::event_type::fin) {
                    delivered += e.ev.bytes;
                } else if (e.ev.type == vtp::event_type::readable) {
                    payload_bytes += e.payload.size();
                    for (std::size_t k = 0; k < e.payload.size(); ++k)
                        if (e.payload[k] !=
                            pattern_byte(e.flow, e.ev.stream_id, e.ev.offset + k))
                            ++payload_mismatch;
                }
            }
        }
    };

    attacker atk;
    if (!opt.attack.empty() && !atk.open(opt.port)) {
        std::fprintf(stderr, "vtpload: cannot open attack socket\n");
        return 2;
    }

    std::vector<bool> done(sessions.size(), false);
    trace::histogram latency_ns; ///< completion latency distribution
    std::size_t remaining = sessions.size();
    const util::sim_time deadline = t0 + util::seconds(opt.timeout_s);
    std::vector<metrics_sample> series;
    util::sim_time next_sample =
        opt.metrics_interval_ms > 0
            ? t0 + milliseconds(opt.metrics_interval_ms)
            : deadline + util::seconds(1); // never fires
    const auto take_sample = [&] {
        metrics_sample ms;
        ms.t_s = util::to_seconds(loop.now() - t0);
        const engine::engine_stats es = srv.stats();
        ms.datagrams_rx = es.datagrams_rx;
        ms.datagrams_tx = es.datagrams_tx;
        ms.events_dropped = es.events_dropped;
        ms.handoff_dropped = es.handoff_dropped;
        ms.half_open = es.half_open;
        ms.sessions = es.sessions;
        const std::unique_ptr<trace::registry> reg = srv.metrics();
        ms.shard_turn_p99_us =
            static_cast<double>(
                reg->get_histogram("vtp_shard_turn_ns").percentile(0.99)) /
            1e3;
        ms.rtt_p50_us =
            static_cast<double>(reg->get_histogram("vtp_rtt_ns").percentile(0.50)) /
            1e3;
        ms.event_ring_occupancy_max =
            reg->get_histogram("vtp_event_ring_occupancy").max();
        series.push_back(ms);
    };
    // Mid-load live migration: every client host drops its socket and
    // rebinds to a fresh port (the NAT-rebind moment), then each session
    // re-validates its path from the new address. Transfers must finish
    // byte-exactly across the switch.
    const util::sim_time migrate_at =
        opt.migrate_after_ms > 0 ? t0 + milliseconds(opt.migrate_after_ms)
                                 : deadline + util::seconds(1); // never fires
    bool migrated = false;
    while (remaining > 0 && loop.now() < deadline) {
        loop.run(milliseconds(5));
        if (!migrated && loop.now() >= migrate_at) {
            migrated = true;
            for (std::size_t h = 0; h < hosts.size(); ++h)
                hosts[h]->rebind(static_cast<std::uint16_t>(
                    opt.port + 1 + n_hosts + static_cast<int>(h)));
            for (auto& s : sessions)
                if (s.established() && !s.closed()) s.migrate();
        }
        if (loop.now() >= next_sample) {
            take_sample();
            next_sample = loop.now() + milliseconds(opt.metrics_interval_ms);
        }
        if (!opt.attack.empty()) {
            // Pace the flood against wall-clock: catch sent up to
            // attack_pps * elapsed, bounded per turn to keep the loop live.
            const double elapsed = util::to_seconds(loop.now() - t0);
            const auto want = static_cast<std::uint64_t>(opt.attack_pps * elapsed);
            for (int burst = 0; atk.sent < want && burst < 512; ++burst)
                atk.fire(opt);
        }
        drain_events();
        const util::sim_time now = loop.now();
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            if (done[i] || !sessions[i].closed()) continue;
            done[i] = true;
            latency_ns.observe(static_cast<std::uint64_t>(now - t0));
            --remaining;
        }
    }
    drain_events();
    const double elapsed_s = util::to_seconds(loop.now() - t0);

    // Client-side congestion-control accounting (the loop is stopped, so
    // session stats are safe to read from this thread).
    std::uint64_t cc_swaps = 0;
    double bw_est_sum = 0.0;
    std::size_t bw_est_n = 0;
    for (const auto& s : sessions) {
        const session_stats ss = s.stats();
        cc_swaps += ss.cc_swaps_applied;
        if (ss.bandwidth_estimate_bps > 0.0) {
            bw_est_sum += ss.bandwidth_estimate_bps;
            ++bw_est_n;
        }
    }
    const double bw_est_mean_bps = bw_est_n > 0 ? bw_est_sum / static_cast<double>(bw_est_n) : 0.0;

    // Client-side path accounting (non-zero only with --migrate-after).
    std::uint64_t client_migrations = 0;
    std::uint64_t client_validations = 0;
    for (const auto& s : sessions) {
        const session_stats ss = s.stats();
        client_migrations += ss.path.migrations;
        client_validations += ss.path.validations;
    }

    // Guard and path counters are mirrored from each shard's vtp::server
    // at reap ticks; give the reaper an interval or two before
    // snapshotting (elapsed_s is already fixed, so goodput is not
    // diluted).
    if (!opt.attack.empty() || migrated) loop.run(milliseconds(600));

    const engine::engine_stats st = srv.stats();
    const std::uint64_t total_bytes = delivered;
    const double goodput_mbps = static_cast<double>(total_bytes) * 8.0 / elapsed_s / 1e6;
    const double pps =
        static_cast<double>(st.datagrams_rx + st.datagrams_tx) / elapsed_s;

    const std::size_t completed =
        static_cast<std::size_t>(latency_ns.count());
    const double p50 = static_cast<double>(latency_ns.percentile(0.50)) / 1e6;
    const double p90 = static_cast<double>(latency_ns.percentile(0.90)) / 1e6;
    const double p99 = static_cast<double>(latency_ns.percentile(0.99)) / 1e6;
    const double p999 = static_cast<double>(latency_ns.percentile(0.999)) / 1e6;
    const double lat_max = static_cast<double>(latency_ns.max()) / 1e6;

    std::printf("# vtpload — %d clients x %d streams x %llu bytes -> "
                "engine (%zu shards) on :%u\n",
                opt.clients, opt.streams,
                static_cast<unsigned long long>(opt.bytes), opt.shards, opt.port);
    std::printf("completed sessions   %zu / %zu\n", completed, sessions.size());
    std::printf("elapsed              %.2f s\n", elapsed_s);
    std::printf("delivered            %.2f MB (%.2f Mb/s)\n",
                static_cast<double>(total_bytes) / 1e6, goodput_mbps);
    std::printf("engine datagrams     rx %llu  tx %llu  (%.0f pkts/s)\n",
                static_cast<unsigned long long>(st.datagrams_rx),
                static_cast<unsigned long long>(st.datagrams_tx), pps);
    std::printf("rx batching          %.1f dgrams/recvmmsg\n",
                st.rx_batches > 0
                    ? static_cast<double>(st.datagrams_rx) /
                          static_cast<double>(st.rx_batches)
                    : 0.0);
    std::printf("session latency      p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  "
                "max %.1f ms\n",
                p50, p90, p99, p999, lat_max);
    std::printf("congestion control   %s  swaps=%llu (engine saw %llu)  "
                "bw_est mean %.2f Mb/s\n",
                vtp::cc::to_string(opt.cc), static_cast<unsigned long long>(cc_swaps),
                static_cast<unsigned long long>(st.cc_swaps_applied),
                bw_est_mean_bps / 1e6);
    if (!opt.attack.empty())
        std::printf("attack               %s  %llu dgrams @ %.0f/s from %d sources — "
                    "retries %llu  validated %llu  rejected %llu  rate-limited %llu  "
                    "shed %llu  amp-limited %llu  reneg-limited %llu  "
                    "half-open %llu\n",
                    opt.attack.c_str(), static_cast<unsigned long long>(atk.sent),
                    opt.attack_pps, opt.attack_sources,
                    static_cast<unsigned long long>(st.syn_retries_sent),
                    static_cast<unsigned long long>(st.syn_cookies_validated),
                    static_cast<unsigned long long>(st.syn_cookies_rejected),
                    static_cast<unsigned long long>(st.syn_rate_limited),
                    static_cast<unsigned long long>(st.syn_sheds),
                    static_cast<unsigned long long>(st.amp_limited),
                    static_cast<unsigned long long>(st.reneg_rate_limited),
                    static_cast<unsigned long long>(st.half_open));
    std::printf("accepted %llu  handoff %llu (dropped %llu)  decode errors %llu  "
                "pool exhausted %llu  events dropped %llu\n",
                static_cast<unsigned long long>(st.accepted),
                static_cast<unsigned long long>(st.handoff_out),
                static_cast<unsigned long long>(st.handoff_dropped),
                static_cast<unsigned long long>(st.decode_errors),
                static_cast<unsigned long long>(st.pool_exhausted),
                static_cast<unsigned long long>(st.events_dropped));
    if (opt.payload)
        std::printf("payload checksum     %llu bytes verified, %llu mismatched\n",
                    static_cast<unsigned long long>(payload_bytes - payload_mismatch),
                    static_cast<unsigned long long>(payload_mismatch));
    if (opt.migrate_after_ms > 0)
        std::printf("migration            rebind at %d ms — engine migrations %llu "
                    "validations %llu (failures %llu, rejected %llu)  "
                    "client migrations %llu validations %llu\n",
                    opt.migrate_after_ms,
                    static_cast<unsigned long long>(st.path_migrations),
                    static_cast<unsigned long long>(st.path_validations),
                    static_cast<unsigned long long>(st.path_validation_failures),
                    static_cast<unsigned long long>(st.path_responses_rejected),
                    static_cast<unsigned long long>(client_migrations),
                    static_cast<unsigned long long>(client_validations));

    const bool all_done = completed == sessions.size();
    const bool pps_ok = opt.min_pps <= 0.0 || pps >= opt.min_pps;
    const bool clean = st.decode_errors == 0;
    // The checksum gate requires *coverage*, not just zero mismatches:
    // every byte of every stream must have arrived as a verified chunk
    // (readable events dropped by a full export ring shrink coverage and
    // must fail the gate, not silently pass it).
    const std::uint64_t expected_payload =
        static_cast<std::uint64_t>(opt.clients) * opt.streams * opt.bytes;
    const bool payload_ok =
        !opt.payload || (payload_mismatch == 0 && payload_bytes == expected_payload);
    // Under attack the guard must contain the flood: no spoofed source may
    // reach full session state, so accepted == the legitimate client count.
    const bool contained =
        opt.attack.empty() || st.accepted == static_cast<std::uint64_t>(opt.clients);
    // A migration run that never migrated proves nothing: the engine must
    // have validated and switched at least one rebound client.
    const bool migrated_ok = opt.migrate_after_ms <= 0 || st.path_migrations > 0;
    const bool ok =
        all_done && pps_ok && clean && payload_ok && contained && migrated_ok;
    if (!ok)
        std::printf("FAIL:%s%s%s%s%s%s\n", all_done ? "" : " sessions-incomplete",
                    pps_ok ? "" : " pps-below-floor", clean ? "" : " decode-errors",
                    payload_ok ? "" : " payload-mismatch-or-incomplete",
                    contained ? "" : " attack-not-contained",
                    migrated_ok ? "" : " migration-not-observed");

    // Engine metrics snapshot: the Prometheus dump and the digest the
    // JSON report embeds come from the same registry merge.
    const std::unique_ptr<trace::registry> metrics = srv.metrics();
    if (!opt.metrics_out.empty()) {
        const std::string text = metrics->prometheus_text();
        if (opt.metrics_out == "-") {
            std::fputs(text.c_str(), stdout);
        } else if (std::FILE* f = std::fopen(opt.metrics_out.c_str(), "w")) {
            std::fputs(text.c_str(), f);
            std::fclose(f);
            std::printf("metrics              %zu series -> %s\n",
                        metrics->series_count(), opt.metrics_out.c_str());
        } else {
            std::fprintf(stderr, "vtpload: could not write %s\n",
                         opt.metrics_out.c_str());
        }
    }

    // Periodic sampling time series: one JSON document alongside the
    // final report, one object per --metrics-interval tick.
    if (opt.metrics_interval_ms > 0) {
        take_sample(); // closing sample at the final elapsed time
        const std::string path = !opt.metrics_series.empty()
                                     ? opt.metrics_series
                                     : std::string("vtpload-series.json");
        if (std::FILE* f = std::fopen(path.c_str(), "w")) {
            std::fprintf(f, "{\n  \"name\": \"vtpload_metrics_series\",\n");
            std::fprintf(f, "  \"interval_ms\": %d,\n  \"samples\": [\n",
                         opt.metrics_interval_ms);
            for (std::size_t i = 0; i < series.size(); ++i) {
                const metrics_sample& m = series[i];
                std::fprintf(
                    f,
                    "    {\"t_s\": %.3f, \"datagrams_rx\": %llu, "
                    "\"datagrams_tx\": %llu, \"events_dropped\": %llu, "
                    "\"handoff_dropped\": %llu, \"half_open\": %llu, "
                    "\"sessions\": %llu, \"shard_turn_p99_us\": %.3f, "
                    "\"rtt_p50_us\": %.3f, \"event_ring_occupancy_max\": %llu}%s\n",
                    m.t_s, static_cast<unsigned long long>(m.datagrams_rx),
                    static_cast<unsigned long long>(m.datagrams_tx),
                    static_cast<unsigned long long>(m.events_dropped),
                    static_cast<unsigned long long>(m.handoff_dropped),
                    static_cast<unsigned long long>(m.half_open),
                    static_cast<unsigned long long>(m.sessions),
                    m.shard_turn_p99_us, m.rtt_p50_us,
                    static_cast<unsigned long long>(m.event_ring_occupancy_max),
                    i + 1 < series.size() ? "," : "");
            }
            std::fprintf(f, "  ]\n}\n");
            std::fclose(f);
            std::printf("metrics series       %zu samples -> %s\n",
                        series.size(), path.c_str());
        } else {
            std::fprintf(stderr, "vtpload: could not write %s\n", path.c_str());
        }
    }

    if (!opt.json.empty()) {
        bench::json_report rep("vtpload");
        rep.add("clients", static_cast<std::uint64_t>(opt.clients));
        rep.add("streams", static_cast<std::uint64_t>(opt.streams));
        rep.add("bytes_per_stream", opt.bytes);
        rep.add("shards", static_cast<std::uint64_t>(opt.shards));
        rep.add("completed", static_cast<std::uint64_t>(completed));
        rep.add("elapsed_s", elapsed_s);
        rep.add("goodput_mbps", goodput_mbps);
        rep.add("packets_per_sec", pps);
        rep.add("latency_p50_ms", p50);
        rep.add("latency_p90_ms", p90);
        rep.add("latency_p99_ms", p99);
        rep.add("latency_p999_ms", p999);
        rep.add("latency_max_ms", lat_max);
        rep.add("datagrams_rx", st.datagrams_rx);
        rep.add("datagrams_tx", st.datagrams_tx);
        rep.add("decode_errors", st.decode_errors);
        rep.add("handoff_out", st.handoff_out);
        rep.add("handoff_dropped", st.handoff_dropped);
        rep.add("events_dropped", st.events_dropped);
        rep.add_string("cc_algorithm", vtp::cc::to_string(opt.cc));
        rep.add("cc_swaps_applied", cc_swaps);
        rep.add("engine_cc_swaps_applied", st.cc_swaps_applied);
        rep.add("bandwidth_estimate_mean_bps", bw_est_mean_bps);
        rep.add_string("attack", opt.attack.empty() ? "none" : opt.attack);
        rep.add("attack_datagrams", atk.sent);
        rep.add("synflood_retries_sent", st.syn_retries_sent);
        rep.add("synflood_cookies_validated", st.syn_cookies_validated);
        rep.add("synflood_rate_limited", st.syn_rate_limited);
        rep.add("synflood_sheds", st.syn_sheds);
        rep.add("reneg_rate_limited", st.reneg_rate_limited);
        rep.add("half_open_sessions", st.half_open);
        rep.add("migrate_after_ms", static_cast<std::uint64_t>(
                                        std::max(0, opt.migrate_after_ms)));
        rep.add("path_migrations", st.path_migrations);
        rep.add("path_validations", st.path_validations);
        rep.add("path_validation_failures", st.path_validation_failures);
        rep.add("client_path_migrations", client_migrations);
        rep.add("payload_mode", opt.payload);
        rep.add("payload_bytes_verified", payload_bytes - payload_mismatch);
        rep.add("payload_mismatch_bytes", payload_mismatch);
        rep.add("metrics_series", static_cast<std::uint64_t>(metrics->series_count()));
        rep.add("shard_turn_p99_us",
                static_cast<double>(
                    metrics->get_histogram("vtp_shard_turn_ns").percentile(0.99)) /
                    1e3);
        rep.add("timer_fire_latency_p99_us",
                static_cast<double>(
                    metrics->get_histogram("vtp_timer_fire_latency_ns")
                        .percentile(0.99)) /
                    1e3);
        rep.add("rtt_p50_us",
                static_cast<double>(
                    metrics->get_histogram("vtp_rtt_ns").percentile(0.50)) /
                    1e3);
        rep.add("event_ring_occupancy_max",
                metrics->get_histogram("vtp_event_ring_occupancy").max());
        rep.add("pass", ok);
        if (!rep.write(opt.json))
            std::fprintf(stderr, "vtpload: could not write %s\n", opt.json.c_str());
    }

    srv.stop();
    return ok ? 0 : 1;
}

// E12 — server engine datapath throughput vs. the legacy udp_host path.
//
// Three datapaths move the same traffic — datapath-framed data segments
// ([flow:u32][src:u32] + wire header) one way across UDP loopback, the
// receiver decoding every segment and dispatching it through a flow-id
// map — under the same server-scale timer load (armed_timers pacing/
// feedback timers, the standing load of ~500 connections). Each path
// pays its own host-runtime costs per packet:
//
//   seed     a frozen copy of the seed's event loop, the baseline the
//            engine was built against: one datagram per sendto/recv
//            syscall, heap-allocating encode, a fresh pollfd rebuild
//            per turn, and std::map timers scanned TWICE per loop turn
//            (earliest-deadline scan + due-collection scan). Per-packet
//            pacing means one loop turn per packet, so every packet
//            pays O(n) in the armed-timer count. Kept verbatim in this
//            bench so the baseline cannot drift as src/net improves.
//   legacy   today's net::udp_host on net::event_loop (satellite fix
//            applied: deadline-heap timers, epoll reactor) — still one
//            datagram per syscall, one loop turn per packet.
//   engine   the shard runtime hot path driven inline: timer wheel
//            advance + epoll turn, pool buffer + encode_segment_into
//            (zero allocation), sendmmsg/recvmmsg in tx_batch flushes
//            carried as UDP GSO runs into a UDP_GRO socket, exactly as
//            between shards — a fully backlogged shard turn.
//
// Reports packets/sec for each; the acceptance gate is engine vs. the
// seed's one-datagram-per-syscall path (--min-ratio, default 5).
// --json <path> emits every series for the perf trajectory.
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "engine/buffer_pool.hpp"
#include "engine/reactor.hpp"
#include "engine/timer_wheel.hpp"
#include "engine/udp_io.hpp"
#include "net/udp_host.hpp"
#include "packet/wire.hpp"

using namespace vtp;
using util::milliseconds;

namespace {

constexpr std::uint16_t port_base = 48411; ///< six consecutive ports
constexpr std::uint32_t flow = 7;
constexpr util::sim_time run_for = milliseconds(1000);
/// Standing timer load: ~500 connections x (pacing + nofeedback).
constexpr std::size_t armed_timers = 1000;

util::sim_time now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<util::sim_time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

packet::segment make_payload_segment() {
    packet::data_segment d;
    d.seq = 1;
    d.byte_offset = 0;
    d.payload_len = 1000;
    d.ts = 0;
    return d;
}

/// Counts packets delivered through the normal agent dispatch path.
struct sink_agent final : qtp::agent {
    std::uint64_t packets = 0;
    void start(qtp::environment&) override {}
    void on_packet(const packet::packet&) override { ++packets; }
    std::string name() const override { return "bench-sink"; }
};

std::vector<std::uint8_t> encode_dgram_heap(const packet::segment& seg,
                                            std::uint32_t src) {
    // The seed/legacy transmit path: header + heap-encoded body.
    std::vector<std::uint8_t> dgram;
    dgram.reserve(8 + 64);
    for (int shift = 24; shift >= 0; shift -= 8)
        dgram.push_back(static_cast<std::uint8_t>(flow >> shift));
    for (int shift = 24; shift >= 0; shift -= 8)
        dgram.push_back(static_cast<std::uint8_t>(src >> shift));
    const std::vector<std::uint8_t> body = packet::encode_segment(seg);
    dgram.insert(dgram.end(), body.begin(), body.end());
    return dgram;
}

void dispatch_dgram(const std::uint8_t* d, std::size_t len, sink_agent& sink) {
    if (len < 8) return;
    std::uint32_t f = 0;
    for (int b = 0; b < 4; ++b) f = (f << 8) | d[b];
    packet::packet pkt;
    pkt.flow_id = f;
    pkt.body = std::make_shared<const packet::segment>(
        packet::decode_segment(d + 8, len - 8));
    pkt.size_bytes = packet::wire_size(*pkt.body);
    if (f == flow) sink.on_packet(pkt);
}

// ---------------------------------------------------------------------------
// Seed baseline: verbatim reproduction of the pre-engine event loop
// (poll(2), per-turn pollfd rebuild, std::map timer store scanned twice
// per turn) driving one-datagram-per-syscall sockets.
// ---------------------------------------------------------------------------

double seed_pps(util::sim_time duration) {
    const int rx_fd = engine::open_udp_socket(port_base, false);
    const int tx_fd = engine::open_udp_socket(port_base + 1, false);
    const sockaddr_in to = engine::loopback_addr(port_base);

    struct timer_entry {
        util::sim_time deadline;
        std::function<void()> fn;
    };
    std::map<std::uint64_t, timer_entry> timers; // the seed's timer store
    std::uint64_t next_id = 1;
    const util::sim_time t0 = now_ns();

    // The standing per-connection timers (far deadlines, never due).
    for (std::size_t i = 0; i < armed_timers; ++i)
        timers[next_id++] =
            timer_entry{t0 + util::seconds(3600), [] {}};

    sink_agent sink;
    const packet::segment seg = make_payload_segment();
    bool done = false;

    // One packet per timer fire — the pacing model of the seed datapath.
    std::function<void()> pump = [&] {
        if (now_ns() - t0 >= duration) {
            done = true;
            return;
        }
        const std::vector<std::uint8_t> dgram =
            encode_dgram_heap(seg, port_base + 1);
        ::sendto(tx_fd, dgram.data(), dgram.size(), 0,
                 reinterpret_cast<const sockaddr*>(&to), sizeof to);
        timers[next_id++] = timer_entry{now_ns() - t0, pump};
    };
    timers[next_id++] = timer_entry{0, pump};

    std::uint8_t rbuf[2048];
    while (!done) {
        // next_timer_delay(): full scan for the earliest deadline.
        util::sim_time earliest = util::time_never;
        for (const auto& [id, t] : timers) earliest = std::min(earliest, t.deadline);
        const util::sim_time wait = std::max<util::sim_time>(
            earliest - (now_ns() - t0), 0);
        const int timeout_ms =
            static_cast<int>(std::min<util::sim_time>(wait / 1'000'000, 1000));

        pollfd pfds[2] = {{rx_fd, POLLIN, 0}, {tx_fd, POLLIN, 0}};
        const int ready = ::poll(pfds, 2, timeout_ms);
        if (ready > 0 && (pfds[0].revents & POLLIN) != 0) {
            // udp_host receive: one recv syscall per datagram.
            for (;;) {
                const ssize_t n = ::recv(rx_fd, rbuf, sizeof rbuf, MSG_DONTWAIT);
                if (n < 0) break;
                dispatch_dgram(rbuf, static_cast<std::size_t>(n), sink);
            }
        }

        // fire_due_timers(): full scan collecting due ids, then run.
        const util::sim_time t = now_ns() - t0;
        std::vector<std::uint64_t> due;
        for (const auto& [id, entry] : timers)
            if (entry.deadline <= t) due.push_back(id);
        for (const std::uint64_t id : due) {
            auto it = timers.find(id);
            if (it == timers.end()) continue;
            auto fn = std::move(it->second.fn);
            timers.erase(it);
            fn();
        }
    }

    const double elapsed = util::to_seconds(now_ns() - t0);
    ::close(rx_fd);
    ::close(tx_fd);
    return static_cast<double>(sink.packets) / elapsed;
}

// ---------------------------------------------------------------------------
// Legacy path as it is in the tree today: udp_host on event_loop (heap
// timers + epoll after the satellite fix), still 1 datagram/syscall.
// ---------------------------------------------------------------------------

double legacy_pps(util::sim_time duration) {
    net::event_loop loop;
    net::udp_host rx(loop, port_base + 2, 1);
    net::udp_host tx(loop, port_base + 3, 2);
    sink_agent* sink = rx.attach(flow, std::make_unique<sink_agent>());

    for (std::size_t i = 0; i < armed_timers; ++i)
        loop.schedule_after(util::seconds(3600), [] {});

    const packet::segment seg = make_payload_segment();
    const auto body = std::make_shared<const packet::segment>(seg);
    const util::sim_time t0 = loop.now();

    // One packet per timer fire, matching the seed pump's pacing model.
    std::function<void()> pump = [&] {
        if (loop.now() - t0 >= duration) {
            loop.stop();
            return;
        }
        packet::packet pkt;
        pkt.flow_id = flow;
        pkt.src = port_base + 3;
        pkt.dst = port_base + 2;
        pkt.body = body;
        pkt.size_bytes = packet::wire_size(seg);
        tx.send(pkt);
        loop.schedule_after(0, pump);
    };
    loop.schedule_after(0, pump);
    loop.run(duration + milliseconds(200));

    const double elapsed = util::to_seconds(loop.now() - t0);
    return static_cast<double>(sink->packets) / elapsed;
}

// ---------------------------------------------------------------------------
// Engine path: a fully backlogged shard turn driven inline — timer
// wheel + epoll reactor + buffer pool + encode_segment_into + mmsg
// batches (the exact shard::turn()/shard::send() hot path).
// ---------------------------------------------------------------------------

double engine_pps(util::sim_time duration) {
    const int rx_fd =
        engine::open_udp_socket(port_base + 4, false, 1 << 21, 1 << 21);
    const int tx_fd =
        engine::open_udp_socket(port_base + 5, false, 1 << 21, 1 << 21);
    engine::enable_gro(rx_fd); // as every shard socket

    constexpr std::size_t batch = 64;
    engine::buffer_pool pool(batch, engine::max_datagram);
    engine::rx_batch rxb(batch);
    std::vector<engine::tx_item> pending;
    pending.reserve(batch);
    const sockaddr_in to = engine::loopback_addr(port_base + 4);

    engine::timer_wheel wheel(now_ns());
    for (std::size_t i = 0; i < armed_timers; ++i)
        wheel.schedule_at(now_ns() + util::seconds(3600), [] {});
    engine::reactor reactor;
    bool rx_ready = false;
    reactor.add_fd(rx_fd, [&rx_ready] { rx_ready = true; });

    sink_agent sink;
    const packet::segment seg = make_payload_segment();

    const auto flush = [&] {
        if (pending.empty()) return;
        engine::send_batch(tx_fd, pending.data(), pending.size());
        for (const engine::tx_item& it : pending)
            pool.release(const_cast<std::uint8_t*>(it.data));
        pending.clear();
    };
    const auto drain = [&] {
        for (;;) {
            const std::size_t n = engine::recv_batch(rx_fd, rxb);
            if (n == 0) break;
            for (std::size_t i = 0; i < n; ++i)
                dispatch_dgram(rxb.data(i), rxb.len(i), sink);
        }
    };

    const util::sim_time t0 = now_ns();
    while (now_ns() - t0 < duration) {
        // One shard turn: timers, a non-blocking reactor poll, then a
        // backlogged burst of transmissions flushed through sendmmsg.
        wheel.advance(now_ns());
        rx_ready = false;
        reactor.poll_once(0);
        for (std::size_t i = 0; i < 256; ++i) {
            std::uint8_t* buf = pool.acquire();
            if (buf == nullptr) {
                flush();
                buf = pool.acquire();
            }
            for (int b = 0; b < 4; ++b)
                buf[b] = static_cast<std::uint8_t>(flow >> (24 - 8 * b));
            const std::uint32_t src = port_base + 5;
            for (int b = 0; b < 4; ++b)
                buf[4 + b] = static_cast<std::uint8_t>(src >> (24 - 8 * b));
            const std::size_t n =
                packet::encode_segment_into(seg, buf + 8, engine::max_datagram - 8);
            pending.push_back(engine::tx_item{buf, 8 + n, to});
            if (pending.size() >= batch) flush();
        }
        flush();
        drain();
    }
    drain();
    const double elapsed = util::to_seconds(now_ns() - t0);

    reactor.remove_fd(rx_fd);
    const double pps = static_cast<double>(sink.packets) / elapsed;
    ::close(rx_fd);
    ::close(tx_fd);
    return pps;
}

} // namespace

int main(int argc, char** argv) {
    double min_ratio = 5.0;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--min-ratio") min_ratio = std::atof(argv[i + 1]);

    // Skip (exit 0) only when the environment has no UDP sockets at all
    // (sandboxed build hosts). Anything else — a taken port, a bind
    // failure mid-run — must FAIL the gate, not silently green it.
    try {
        const int probe = engine::open_udp_socket(0, false);
        ::close(probe);
    } catch (const std::exception& e) {
        std::printf("# E12 — skipped, no socket support (%s)\n", e.what());
        return 0;
    }

    double seed = 0.0;
    double legacy = 0.0;
    double batched = 0.0;
    try {
        // Warm-up settles cpufreq and page-cache noise.
        engine_pps(milliseconds(100));
        seed = seed_pps(run_for);
        legacy = legacy_pps(run_for);
        batched = engine_pps(run_for);
    } catch (const std::exception& e) {
        std::printf("# E12 — FAILED to run (%s)\n", e.what());
        return 1;
    }

    const double vs_seed = seed > 0.0 ? batched / seed : 0.0;
    const double vs_legacy = legacy > 0.0 ? batched / legacy : 0.0;

    std::printf("\n# E12 — engine datapath throughput, UDP loopback "
                "(1 s pumps, %zu armed timers, decode+dispatch per packet)\n",
                armed_timers);
    bench::table tbl({"path", "packets/sec", "vs seed"});
    tbl.add_row({"seed loop (1 dgram/syscall, O(n) timer scans)",
                 bench::fmt("%.0f", seed), "1.00x"});
    tbl.add_row({"legacy udp_host (heap timers, 1 dgram/syscall)",
                 bench::fmt("%.0f", legacy),
                 bench::fmt("%.2fx", seed > 0.0 ? legacy / seed : 0.0)});
    tbl.add_row({"engine shard turn (wheel + pool + mmsg 64, GSO/GRO)",
                 bench::fmt("%.0f", batched), bench::fmt("%.2fx", vs_seed)});
    tbl.print();
    std::printf("engine vs seed one-dgram-per-syscall path: %.2fx (floor %.1fx)\n",
                vs_seed, min_ratio);
    std::printf("engine vs current legacy event loop:       %.2fx\n", vs_legacy);

    const std::string json = bench::json_path_arg(argc, argv);
    if (!json.empty()) {
        bench::json_report rep("bench_e12_engine_throughput");
        rep.add("seed_pps", seed);
        rep.add("legacy_pps", legacy);
        rep.add("engine_pps", batched);
        rep.add("speedup_vs_seed", vs_seed);
        rep.add("speedup_vs_legacy", vs_legacy);
        rep.add("armed_timers", static_cast<std::uint64_t>(armed_timers));
        rep.add("min_ratio", min_ratio);
        rep.add("pass", vs_seed >= min_ratio);
        if (!rep.write(json)) std::printf("could not write %s\n", json.c_str());
    }
    return vs_seed >= min_ratio ? 0 : 1;
}

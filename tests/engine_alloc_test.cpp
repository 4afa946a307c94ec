// Heap work on the live engine's steady-state datapath, counted.
//
// This binary replaces the global operator new / operator delete: every
// allocation bumps a counter of the thread that made it, and the bytes
// held by the whole process are tracked (malloc_usable_size). A shard's
// counter is read on the shard's own thread through with_server().
//
// A 1-shard server engine and a 1-shard client engine talk over
// loopback: 8 QTPlight sessions with 200-byte packets and 4 fully
// reliable ones with 1000-byte packets, each kept in a closed loop of
// real payload. After a warm-up, a window of at least 20,000 data
// packets must cost the sender shard at most 0.25 allocations per data
// packet sent, and the receiver shard at most 1.25 per data packet
// received: the one allocation a received packet may cost is the
// delivered chunk the application takes ownership of. A second case
// bounds the heap an established, idle engine session pair holds.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "engine/server.hpp"
#include "util/pattern.hpp"

namespace {

thread_local std::uint64_t thread_allocations = 0;
std::atomic<std::int64_t> heap_bytes_held{0};

void* counted_alloc(std::size_t n) {
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    ++thread_allocations;
    heap_bytes_held.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
    return p;
}

void counted_free(void* p) noexcept {
    if (p == nullptr) return;
    heap_bytes_held.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace vtp;
using clock_type = std::chrono::steady_clock;

// The sanitizer runtimes slow the engines down several times over, so a
// window sees a different mix of timer wake-ups, reordering and loss
// recovery than the datapath's steady state; the traffic still runs
// (it is what the sanitizer checks), the per-packet bounds do not apply.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool sanitized = true;
#else
constexpr bool sanitized = false;
#endif

constexpr std::uint16_t port_base = 43410;

/// The allocation counter of `eng`'s shard 0, read on that shard's thread.
std::uint64_t shard_allocations(engine::server& eng) {
    std::promise<std::uint64_t> value;
    eng.with_server(0, [&](vtp::server&) { value.set_value(thread_allocations); });
    return value.get_future().get();
}

struct engine_pair {
    std::unique_ptr<engine::server> srv, cli;
};

/// Starts a 1-shard server and a 1-shard client engine; empty when
/// sockets cannot be opened.
engine_pair start_engines(std::uint16_t srv_port, std::uint16_t cli_port) {
    engine::engine_config sc;
    sc.port = srv_port;
    sc.shards = 1;
    sc.event_queue_capacity = 1 << 15; // absorbs a descheduled test thread
    engine::engine_config cc = sc;
    cc.port = cli_port;
    engine_pair p;
    try {
        p.srv = std::make_unique<engine::server>(sc);
        p.srv->start();
        p.cli = std::make_unique<engine::server>(cc);
        p.cli->start();
    } catch (const std::exception&) {
        return {};
    }
    return p;
}

struct flow_load {
    std::size_t shard = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
};

TEST(engine_alloc_test, steady_state_datapath_allocations_per_packet) {
    engine_pair e = start_engines(port_base, port_base + 1);
    if (!e.srv) GTEST_SKIP() << "cannot start engines";

    // Connect callbacks run on the client shard; they only hand the new
    // flow over, the test thread owns `flows`.
    std::mutex mu;
    std::vector<std::pair<std::uint32_t, std::size_t>> ready; // (flow, shard)
    std::map<std::uint32_t, flow_load> flows;
    for (int i = 0; i < 12; ++i) {
        session_options o = i < 8 ? session_options::light(sack::reliability_mode::full)
                                  : session_options::reliable();
        o.packet_size = i < 8 ? 200 : 1000;
        e.cli->connect(port_base, o, [&](std::size_t sh, vtp::session s) {
            const std::lock_guard<std::mutex> lock(mu);
            ready.emplace_back(s.flow_id(), sh);
        });
    }

    // Closed loop: every session keeps 256 KiB undelivered, topped up in
    // sends of 64 KiB of pattern payload; every delivered byte is checked.
    constexpr std::uint64_t window = 256 * 1024;
    constexpr std::size_t chunk = 64 * 1024;
    std::vector<std::uint8_t> data(chunk);
    std::vector<engine::engine_event> evs(256);
    std::uint64_t mismatched = 0;
    const auto pump = [&] {
        std::size_t n = e.srv->poll_events(evs.data(), evs.size());
        for (std::size_t i = 0; i < n; ++i) {
            const engine::engine_event& ev = evs[i];
            if (ev.ev.type != qtp::event_type::readable) continue;
            for (std::size_t k = 0; k < ev.payload.size(); ++k)
                mismatched += ev.payload[k] != util::pattern_byte(ev.flow, 0, ev.ev.offset + k);
            flows[ev.flow].delivered += ev.payload.size();
        }
        n += e.cli->poll_events(evs.data(), evs.size());
        {
            const std::lock_guard<std::mutex> lock(mu);
            for (const auto& [flow, sh] : ready) flows[flow].shard = sh;
            ready.clear();
        }
        for (auto& [flow, f] : flows) {
            while (f.sent - f.delivered < window) {
                for (std::size_t k = 0; k < chunk; ++k)
                    data[k] = util::pattern_byte(flow, 0, f.sent + k);
                if (!e.cli->send(f.shard, flow, 0, data.data(), chunk)) break;
                f.sent += chunk;
            }
        }
        if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    };
    const auto run_for = [&](std::chrono::milliseconds d) {
        for (const auto end = clock_type::now() + d; clock_type::now() < end;) pump();
    };

    run_for(std::chrono::milliseconds(1000)); // warm-up
    ASSERT_EQ(flows.size(), 12u);
    const std::uint64_t tx0 = e.cli->stats().datagrams_tx;
    const std::uint64_t rx0 = e.srv->stats().datagrams_rx;
    const std::uint64_t cli0 = shard_allocations(*e.cli);
    const std::uint64_t srv0 = shard_allocations(*e.srv);
    const auto t0 = clock_type::now();
    do {
        run_for(std::chrono::milliseconds(250));
    } while ((e.cli->stats().datagrams_tx - tx0 < 20'000 ||
              clock_type::now() - t0 < std::chrono::seconds(1)) &&
             clock_type::now() - t0 < std::chrono::seconds(20));
    const std::uint64_t cli_allocs = shard_allocations(*e.cli) - cli0;
    const std::uint64_t srv_allocs = shard_allocations(*e.srv) - srv0;
    const std::uint64_t tx = e.cli->stats().datagrams_tx - tx0;
    const std::uint64_t rx = e.srv->stats().datagrams_rx - rx0;

    const double per_tx = static_cast<double>(cli_allocs) / static_cast<double>(tx);
    const double per_rx = static_cast<double>(srv_allocs) / static_cast<double>(rx);
    std::printf("sender shard: %llu allocations / %llu data packets sent = %.3f\n"
                "receiver shard: %llu allocations / %llu data packets received = %.3f\n",
                static_cast<unsigned long long>(cli_allocs), static_cast<unsigned long long>(tx),
                per_tx, static_cast<unsigned long long>(srv_allocs),
                static_cast<unsigned long long>(rx), per_rx);
    EXPECT_EQ(mismatched, 0u);
    EXPECT_EQ(e.srv->stats().decode_errors, 0u);
    if (sanitized) return;
    ASSERT_GE(tx, 20'000u);
    EXPECT_LE(per_tx, 0.25);
    EXPECT_LE(per_rx, 1.25);
}

TEST(engine_alloc_test, established_idle_session_pair_holds_little_heap) {
    engine_pair e = start_engines(port_base + 2, port_base + 3);
    if (!e.srv) GTEST_SKIP() << "cannot start engines";

    constexpr int sessions = 64;
    std::vector<engine::engine_event> evs(256);
    const auto count_established = [&](engine::server& eng) {
        int n = 0;
        while (const std::size_t got = eng.poll_events(evs.data(), evs.size()))
            for (std::size_t i = 0; i < got; ++i)
                n += evs[i].ev.type == qtp::event_type::established;
        return n;
    };
    std::this_thread::sleep_for(std::chrono::milliseconds(200)); // engines settle
    const std::int64_t before = heap_bytes_held.load();

    for (int i = 0; i < sessions; ++i)
        e.cli->connect(port_base + 2, session_options::reliable(),
                       [](std::size_t, vtp::session) {});
    int cli_up = 0, srv_up = 0;
    const auto deadline = clock_type::now() + std::chrono::seconds(10);
    while ((cli_up < sessions || srv_up < sessions) && clock_type::now() < deadline) {
        cli_up += count_established(*e.cli);
        srv_up += count_established(*e.srv);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(cli_up, sessions);
    ASSERT_EQ(srv_up, sessions);
    std::this_thread::sleep_for(std::chrono::milliseconds(200)); // handshakes settle
    count_established(*e.cli);
    count_established(*e.srv);
    const double per_pair =
        static_cast<double>(heap_bytes_held.load() - before) / sessions;
    std::printf("heap held per established idle session pair: %.0f B\n", per_pair);
    if (sanitized) return;
    // A pair used to hold two eagerly allocated 256-slot event rings
    // (32 KiB) that a sink-bound engine session never needs.
    EXPECT_LT(per_pair, 24 * 1024.0);
}

} // namespace

// Engine loopback soak: 500 concurrent vtp::sessions from legacy
// udp_host clients into a 4-shard engine::server, mixed full/partial
// streams of pattern payload drained through poll_events() and checked
// byte by byte, clean close and reap. Runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "api/session.hpp"
#include "engine/server.hpp"
#include "net/udp_host.hpp"
#include "util/pattern.hpp"

namespace {

using namespace vtp;
using util::milliseconds;

constexpr std::uint16_t engine_port = 42050;
constexpr std::uint16_t client_port_base = 42100;
constexpr int n_sessions = 500;
constexpr int sessions_per_host = 50;
constexpr std::uint64_t full_bytes = 12'000;  // stream 0 of even flows
constexpr std::uint64_t split_bytes = 6'000;  // each stream of odd flows

bool sockets_available() {
    try {
        net::event_loop probe_loop;
        net::udp_host probe(probe_loop, 39998);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

TEST(engine_soak_test, five_hundred_sessions_across_shards) {
    if (!sockets_available()) GTEST_SKIP() << "no socket support in sandbox";

    engine::engine_config cfg;
    cfg.port = engine_port;
    cfg.shards = 4;
    cfg.reap_interval = milliseconds(200);
    cfg.rng_seed = 7;
    engine::server srv(cfg);
    srv.start();

    // Server-side readable bytes per (flow, stream), drained on this
    // thread and checked against the send pattern.
    std::array<std::uint64_t, n_sessions + 1> s0_delivered{};
    std::array<std::uint64_t, n_sessions + 1> s1_delivered{};
    std::uint64_t mismatched = 0;
    std::uint64_t foreign = 0; // events of flows the clients never opened
    std::vector<engine::engine_event> evs(256);
    auto drain = [&] {
        while (const std::size_t n = srv.poll_events(evs.data(), evs.size())) {
            for (std::size_t e = 0; e < n; ++e) {
                const engine::engine_event& ev = evs[e];
                if (ev.ev.type != qtp::event_type::readable) continue;
                if (ev.flow < 1 || ev.flow > static_cast<std::uint32_t>(n_sessions) ||
                    ev.ev.stream_id > 1) {
                    ++foreign;
                    continue;
                }
                auto& counters = ev.ev.stream_id == 0 ? s0_delivered : s1_delivered;
                counters[ev.flow] += ev.payload.size();
                for (std::size_t k = 0; k < ev.payload.size(); ++k)
                    if (ev.payload[k] !=
                        util::pattern_byte(ev.flow, ev.ev.stream_id, ev.ev.offset + k))
                        ++mismatched;
            }
        }
    };

    // Clients: 10 legacy udp_hosts on one event loop, 50 sessions each.
    net::event_loop loop;
    std::vector<std::unique_ptr<net::udp_host>> hosts;
    for (int h = 0; h < n_sessions / sessions_per_host; ++h)
        hosts.push_back(std::make_unique<net::udp_host>(
            loop, static_cast<std::uint16_t>(client_port_base + h), 100 + h));

    std::vector<vtp::session> sessions;
    sessions.reserve(n_sessions);
    for (int i = 1; i <= n_sessions; ++i) {
        net::udp_host& host = *hosts[static_cast<std::size_t>(i - 1) / sessions_per_host];
        session_options opts = session_options::reliable();
        opts.flow_id = static_cast<std::uint32_t>(i);
        opts.packet_size = 600;
        vtp::session s = vtp::session::connect(host, engine_port, opts);
        if (i % 2 == 0) {
            s.send(0, util::pattern_buffer(opts.flow_id, 0, full_bytes));
        } else {
            // stream 0, full reliability
            s.send(0, util::pattern_buffer(opts.flow_id, 0, split_bytes));
            stream::stream_options partial;
            partial.reliability = sack::reliability_mode::partial;
            partial.message_size = 500;
            partial.message_deadline = milliseconds(250);
            const std::uint32_t sid = s.open_stream(partial);
            ASSERT_EQ(sid, 1u);
            s.send(sid, util::pattern_buffer(opts.flow_id, sid, split_bytes));
            s.finish(sid);
        }
        s.close();
        sessions.push_back(std::move(s));
    }

    // Drive the client side until every session's FIN is acknowledged.
    bool all_closed = false;
    for (int rounds = 0; rounds < 1800 && !all_closed; ++rounds) {
        loop.run(milliseconds(50));
        drain();
        all_closed = true;
        for (const auto& s : sessions)
            if (!s.closed()) {
                all_closed = false;
                break;
            }
    }
    ASSERT_TRUE(all_closed) << "sessions left open after 90s";

    // Reap: with all peers closed, the per-shard reapers drain the
    // session tables to zero; the application keeps draining events.
    for (int rounds = 0; rounds < 200 && srv.stats().sessions != 0; ++rounds) {
        loop.run(milliseconds(50));
        drain();
    }
    EXPECT_EQ(srv.stats().sessions, 0u);
    drain();

    // Every full-reliability byte arrived, exactly once and intact, at
    // the application; the partial stream never exceeds what was sent.
    EXPECT_EQ(mismatched, 0u);
    EXPECT_EQ(foreign, 0u);
    for (int i = 1; i <= n_sessions; ++i) {
        const std::uint64_t expect_s0 = i % 2 == 0 ? full_bytes : split_bytes;
        EXPECT_EQ(s0_delivered[static_cast<std::size_t>(i)], expect_s0) << "flow " << i;
        if (i % 2 == 1) {
            EXPECT_LE(s1_delivered[static_cast<std::size_t>(i)], split_bytes)
                << "flow " << i;
        }
    }

    // The engine accepted each flow exactly once, spread across shards,
    // with a clean datapath.
    engine::engine_stats stats = srv.stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(n_sessions));
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.pool_exhausted, 0u);
    for (const engine::shard_stats& ss : srv.per_shard_stats())
        EXPECT_GT(ss.accepted, 0u) << "idle shard: flow hash not spreading";

    srv.stop();
}

} // namespace

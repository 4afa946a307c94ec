// Reproducibility: identical seeds give bit-identical simulations —
// the property every experiment in the README's "Paper claims on the
// shipped stack" table relies on.
#include <gtest/gtest.h>

#include "diffserv/conditioner.hpp"
#include "diffserv/rio.hpp"
#include "sim_fixtures.hpp"
#include "testing/scenario.hpp"
#include "testing/scenario_runner.hpp"

namespace {

using namespace vtp;
namespace packet = vtp::packet;
using namespace vtp::testing;
using util::milliseconds;
using util::seconds;

struct run_result {
    std::uint64_t tfrc_bytes = 0;
    std::uint64_t tcp_bytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t events = 0;
};

run_result run_mixed(std::uint64_t seed) {
    sim::dumbbell_config cfg;
    cfg.pairs = 2;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 10e6;
    cfg.bottleneck_delay = milliseconds(20);
    cfg.bottleneck_queue = [seed] {
        return std::make_unique<sim::red_queue>(sim::default_red_params(60, 1050),
                                                60 * 1050, seed * 17 + 1);
    };
    cfg.seed = seed;
    sim::dumbbell net(cfg);

    auto tfrc = add_session_flow(net, 0, 1, session_options{});
    auto tcp = add_tcp_flow(net, 1, 2);
    net.sched().run_until(seconds(30));

    run_result r;
    r.tfrc_bytes = tfrc->received_bytes();
    r.tcp_bytes = tcp.receiver->delivered_bytes();
    r.drops = net.forward_bottleneck().queue().stats().dropped_packets;
    r.events = net.sched().executed();
    return r;
}

TEST(determinism_test, identical_seed_identical_trace) {
    const run_result a = run_mixed(42);
    const run_result b = run_mixed(42);
    EXPECT_EQ(a.tfrc_bytes, b.tfrc_bytes);
    EXPECT_EQ(a.tcp_bytes, b.tcp_bytes);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.events, b.events);
}

TEST(determinism_test, different_seed_different_trace) {
    const run_result a = run_mixed(42);
    const run_result b = run_mixed(43);
    // RED randomness differs, so some observable must change.
    EXPECT_TRUE(a.tfrc_bytes != b.tfrc_bytes || a.tcp_bytes != b.tcp_bytes ||
                a.drops != b.drops || a.events != b.events);
}

TEST(determinism_test, lossy_qtp_connection_is_reproducible) {
    auto run = [](std::uint64_t seed) {
        sim::dumbbell_config cfg;
        cfg.pairs = 1;
        cfg.bottleneck_rate_bps = 20e6;
        cfg.seed = seed;
        sim::dumbbell net(cfg);
        net.forward_bottleneck().set_loss_model(
            std::make_unique<sim::bernoulli_loss>(0.02, seed));
        auto flow = add_session_flow(net, 0, 1, session_options::reliable(), 1'000'000);
        net.sched().run_until(seconds(120));
        const session_stats tx = flow->client.stats();
        const session_stats rx =
            flow->accepted != nullptr ? flow->accepted->stats() : session_stats{};
        return std::make_tuple(tx.packets_sent, tx.rtx_bytes_sent, rx.bytes_received,
                               net.sched().executed());
    };
    EXPECT_EQ(run(7), run(7));
}

TEST(determinism_test, scenario_runs_are_reproducible_per_seed) {
    // The full conformance stack — multi-stream mux session, handover
    // schedule, deadline-framed partial stream — must reproduce its
    // delivery trace and stats bit-for-bit under the same seed. The
    // trace hash folds every delivered chunk (flow, stream, offset,
    // len, time) and the endgame counters.
    const auto* spec = vtp::testing::find_scenario("mux_bulk_deadline_oscillation");
    ASSERT_NE(spec, nullptr);
    ASSERT_FALSE(spec->flows[0].extra_streams.empty()); // really multi-stream

    const auto a = vtp::testing::run_scenario(*spec, 4242);
    const auto b = vtp::testing::run_scenario(*spec, 4242);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.finished_at, b.finished_at);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        ASSERT_EQ(a.trace[i].flow, b.trace[i].flow);
        ASSERT_EQ(a.trace[i].stream, b.trace[i].stream);
        ASSERT_EQ(a.trace[i].offset, b.trace[i].offset);
        ASSERT_EQ(a.trace[i].len, b.trace[i].len);
        ASSERT_EQ(a.trace[i].at, b.trace[i].at);
    }
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t i = 0; i < a.flows.size(); ++i) {
        EXPECT_EQ(a.flows[i].client_stats.packets_sent, b.flows[i].client_stats.packets_sent);
        EXPECT_EQ(a.flows[i].client_stats.rtx_bytes_sent,
                  b.flows[i].client_stats.rtx_bytes_sent);
        EXPECT_EQ(a.flows[i].server_stats.bytes_delivered,
                  b.flows[i].server_stats.bytes_delivered);
        EXPECT_EQ(a.flows[i].server_stats.packets_received,
                  b.flows[i].server_stats.packets_received);
    }

    // (This scenario is impairment-free, so a different seed legitimately
    // reproduces the same trace; seed sensitivity is asserted on the
    // stochastic scenario below.)
}

TEST(determinism_test, adversarial_impairment_scenario_is_reproducible) {
    // Reorder + duplication + corruption all draw from node-local forked
    // RNGs; two same-seed runs must agree even with every stage active.
    const auto* spec = vtp::testing::find_scenario("kitchen_sink_adversarial");
    ASSERT_NE(spec, nullptr);
    const auto a = vtp::testing::run_scenario(*spec, 9);
    const auto b = vtp::testing::run_scenario(*spec, 9);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.events, b.events);

    const auto c = vtp::testing::run_scenario(*spec, 10);
    EXPECT_NE(a.trace_hash, c.trace_hash); // the seed is actually load-bearing
}

} // namespace

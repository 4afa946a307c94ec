// Multi-hop chain topology and jittered-link behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/chain.hpp"
#include "sim_fixtures.hpp"
#include "tfrc/loss_history.hpp"

namespace {

using namespace vtp;
using util::milliseconds;
using util::seconds;

// Paced datagram source: one 1000-byte data segment per spacing at
// `rate_bps`, sequence numbers in send order, no congestion control.
class paced_sender : public qtp::agent {
public:
    paced_sender(std::uint32_t flow, std::uint32_t peer, double rate_bps)
        : flow_(flow), peer_(peer), spacing_(util::from_seconds(8000.0 / rate_bps)) {}

    void start(qtp::environment& env) override {
        env_ = &env;
        env_->schedule(0, [this] { tick(); });
    }
    void on_packet(const packet::packet&) override {}
    std::string name() const override { return "paced"; }

    std::uint64_t packets_sent() const { return next_seq_; }

private:
    void tick() {
        packet::data_segment d;
        d.seq = next_seq_;
        d.byte_offset = next_seq_ * 1000;
        d.payload_len = 1000;
        d.ts = env_->now();
        ++next_seq_;
        env_->send(packet::make_packet(flow_, env_->local_addr(), peer_, d));
        env_->schedule(spacing_, [this] { tick(); });
    }

    std::uint32_t flow_;
    std::uint32_t peer_;
    util::sim_time spacing_;
    qtp::environment* env_ = nullptr;
    std::uint64_t next_seq_ = 0;
};

// Counting sink: records each data segment's sequence number and arrival
// time, and its one-way delay (the simulator's clocks are synchronised).
class counting_sink : public qtp::agent {
public:
    struct arrival {
        std::uint64_t seq;
        util::sim_time at;
    };

    void start(qtp::environment& env) override { env_ = &env; }
    void on_packet(const packet::packet& pkt) override {
        const auto* d = std::get_if<packet::data_segment>(pkt.body.get());
        if (d == nullptr) return;
        arrivals.push_back({d->seq, env_->now()});
        delay_sum_s_ += util::to_seconds(env_->now() - d->ts);
    }
    std::string name() const override { return "sink"; }

    std::uint64_t packets() const { return arrivals.size(); }
    double mean_delay_s() const {
        return arrivals.empty() ? 0.0 : delay_sum_s_ / static_cast<double>(arrivals.size());
    }

    std::vector<arrival> arrivals;

private:
    qtp::environment* env_ = nullptr;
    double delay_sum_s_ = 0.0;
};

TEST(chain_test, end_to_end_delivery_and_rtt) {
    sim::chain_config cfg;
    cfg.hops = 4;
    cfg.link_delay = milliseconds(5);
    sim::chain net(cfg);
    EXPECT_EQ(net.base_rtt(), milliseconds(40));

    auto* sink = net.dst_host().attach(1, std::make_unique<counting_sink>());
    net.src_host().attach(1, std::make_unique<paced_sender>(1, net.dst_addr(), 1e6));

    net.sched().run_until(seconds(2));
    EXPECT_GT(sink->packets(), 200u);
    // One-way delay = 4 hops * (5 ms + serialisation).
    EXPECT_GT(sink->mean_delay_s(), 0.020);
    EXPECT_LT(sink->mean_delay_s(), 0.025);
}

TEST(chain_test, reverse_path_works) {
    sim::chain net(sim::chain_config{});
    // dst -> src direction
    auto* sink = net.src_host().attach(2, std::make_unique<counting_sink>());
    net.dst_host().attach(2, std::make_unique<paced_sender>(2, net.src_addr(), 1e6));
    net.sched().run_until(seconds(1));
    EXPECT_GT(sink->packets(), 50u);
}

TEST(chain_test, per_hop_loss_compounds) {
    // With p per hop over h hops, delivery ratio ~ (1-p)^h.
    const double p = 0.05;
    for (std::size_t hops : {1u, 4u}) {
        sim::chain_config cfg;
        cfg.hops = hops;
        sim::chain net(cfg);
        net.set_per_hop_loss(p, 777);

        auto* sink = net.dst_host().attach(1, std::make_unique<counting_sink>());
        auto* src = net.src_host().attach(
            1, std::make_unique<paced_sender>(1, net.dst_addr(), 4e6));

        net.sched().run_until(seconds(20));
        const double ratio = static_cast<double>(sink->packets()) /
                             static_cast<double>(src->packets_sent());
        const double expected = std::pow(1.0 - p, static_cast<double>(hops));
        EXPECT_NEAR(ratio, expected, 0.015) << hops << " hops";
    }
}

TEST(chain_test, tfrc_runs_over_multihop_lossy_path) {
    sim::chain_config cfg;
    cfg.hops = 4;
    sim::chain net(cfg);
    net.set_per_hop_loss(0.005, 31);

    auto flow = vtp::testing::add_session_flow(net.src_host(), net.dst_host(),
                                               net.dst_addr(), 1, session_options{});

    net.sched().run_until(seconds(30));
    ASSERT_NE(flow->receiver(), nullptr);
    const double goodput = flow->received_bytes() * 8.0 / 30.0;
    EXPECT_GT(goodput, 5e5); // flows, with compounded ~2% loss
    EXPECT_GT(flow->receiver()->history().loss_events(), 0u);
}

TEST(jitter_test, jittered_link_reorders_packets) {
    sim::scheduler sched;
    sim::node dst(7);
    std::vector<std::uint64_t> arrival_order;
    dst.set_delivery([&](packet::packet pkt) {
        const auto* d = std::get_if<packet::data_segment>(pkt.body.get());
        arrival_order.push_back(d->seq);
    });
    vtp::sim::link::config cfg{100e6, milliseconds(5)};
    cfg.jitter = milliseconds(4);
    cfg.jitter_seed = 3;
    vtp::sim::link l(sched, cfg, std::make_unique<sim::drop_tail_queue>(1 << 24));
    l.set_destination(&dst);

    for (std::uint64_t s = 0; s < 200; ++s) {
        packet::data_segment d;
        d.seq = s;
        d.payload_len = 1000;
        l.transmit(packet::make_packet(1, 0, 7, d));
    }
    sched.run();
    ASSERT_EQ(arrival_order.size(), 200u);
    bool reordered = false;
    for (std::size_t i = 1; i < arrival_order.size(); ++i)
        if (arrival_order[i] < arrival_order[i - 1]) reordered = true;
    EXPECT_TRUE(reordered);
}

// Run a paced stream at half capacity (no congestion, no wire loss) over
// a jittered chain, then feed its arrival order to a TFRC loss history
// with the given reorder tolerance: count the loss events it believes it
// saw. (The RTT hint is the receivers' 100 ms placeholder: the stream
// carries no sender estimate.)
std::uint64_t false_loss_events(int reorder_tolerance) {
    sim::chain_config cfg;
    cfg.hops = 2;
    // Up to 2 ms extra per hop vs 2 ms packet spacing: displaces packets
    // by at most 2 positions — real reordering, within the 3-packet rule.
    cfg.link_jitter = milliseconds(2);
    sim::chain net(cfg);

    auto* sink = net.dst_host().attach(1, std::make_unique<counting_sink>());
    net.src_host().attach(1, std::make_unique<paced_sender>(1, net.dst_addr(), 4e6));
    net.sched().run_until(seconds(20)); // 2 ms spacing at 1 kB

    EXPECT_GT(sink->packets(), 9000u); // nothing actually lost
    tfrc::loss_history_config hcfg;
    hcfg.reorder_tolerance = reorder_tolerance;
    tfrc::loss_history history(hcfg);
    for (const counting_sink::arrival& a : sink->arrivals)
        history.on_packet(a.seq, a.at, milliseconds(100));
    return history.loss_events();
}

TEST(jitter_test, reorder_tolerance_absorbs_jitter_reordering) {
    // RFC 3448's "3 subsequent packets" rule: jitter-induced reordering
    // of 1-2 positions must not register as loss...
    EXPECT_EQ(false_loss_events(3), 0u);
}

TEST(jitter_test, zero_tolerance_misreads_reordering_as_loss) {
    // ...whereas a naive hole-is-loss receiver hallucinates loss events
    // on the same trace.
    EXPECT_GT(false_loss_events(0), 10u);
}

} // namespace

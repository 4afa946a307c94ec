// Dumbbell topology wiring: end-to-end connectivity, RTT arithmetic,
// and host dispatch.
#include <gtest/gtest.h>

#include "sim/topology.hpp"

namespace {

using namespace vtp::sim;
namespace packet = vtp::packet;
using vtp::util::milliseconds;
using vtp::util::sim_time;

// Trivial agent: counts received packets, optionally echoes back.
class probe_agent : public vtp::qtp::agent {
public:
    explicit probe_agent(bool echo = false, std::uint32_t peer = 0, std::uint32_t flow = 1)
        : echo_(echo), peer_(peer), flow_(flow) {}

    void start(vtp::qtp::environment& env) override { env_ = &env; }
    void on_packet(const packet::packet& pkt) override {
        ++received_;
        last_arrival_ = env_->now();
        if (echo_) {
            env_->send(packet::make_packet(flow_, env_->local_addr(), pkt.src,
                                           packet::data_segment{}));
        }
    }
    std::string name() const override { return "probe"; }

    int received_ = 0;
    sim_time last_arrival_ = -1;

private:
    bool echo_;
    std::uint32_t peer_;
    std::uint32_t flow_;
    vtp::qtp::environment* env_ = nullptr;
};

dumbbell_config base_config(std::size_t pairs = 2) {
    dumbbell_config cfg;
    cfg.pairs = pairs;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 10e6;
    cfg.bottleneck_delay = milliseconds(20);
    return cfg;
}

TEST(dumbbell_test, left_to_right_delivery) {
    dumbbell net(base_config());
    auto* rx = net.right_host(0).attach(1, std::make_unique<probe_agent>());

    // Inject one data packet from left host 0 to right host 0.
    class one_shot : public vtp::qtp::agent {
    public:
        explicit one_shot(std::uint32_t dst) : dst_(dst) {}
        void start(vtp::qtp::environment& env) override {
            env.send(packet::make_packet(1, env.local_addr(), dst_,
                                         packet::data_segment{}));
        }
        void on_packet(const packet::packet&) override {}
        std::string name() const override { return "oneshot"; }

    private:
        std::uint32_t dst_;
    };
    net.left_host(0).attach(1, std::make_unique<one_shot>(net.right_addr(0)));
    net.sched().run();
    EXPECT_EQ(rx->received_, 1);
    // One-way: 1ms access + serialisation + 20ms bottleneck + 1ms access.
    EXPECT_GT(rx->last_arrival_, milliseconds(22));
    EXPECT_LT(rx->last_arrival_, milliseconds(23));
}

TEST(dumbbell_test, round_trip_echo) {
    dumbbell net(base_config());
    auto* echo = net.right_host(1).attach(2, std::make_unique<probe_agent>(true, 0, 2));

    class pinger : public vtp::qtp::agent {
    public:
        explicit pinger(std::uint32_t dst) : dst_(dst) {}
        void start(vtp::qtp::environment& env) override {
            env_ = &env;
            env.send(packet::make_packet(2, env.local_addr(), dst_,
                                         packet::data_segment{}));
        }
        void on_packet(const packet::packet&) override { rtt_ = env_->now(); }
        std::string name() const override { return "pinger"; }
        sim_time rtt_ = -1;

    private:
        std::uint32_t dst_;
        vtp::qtp::environment* env_ = nullptr;
    };
    auto* ping = net.left_host(1).attach(2, std::make_unique<pinger>(net.right_addr(1)));
    net.sched().run();
    EXPECT_EQ(echo->received_, 1);
    // RTT ~ 2 * 22ms plus serialisation.
    EXPECT_GT(ping->rtt_, milliseconds(44));
    EXPECT_LT(ping->rtt_, milliseconds(45));
}

TEST(dumbbell_test, base_rtt_arithmetic) {
    dumbbell_config cfg = base_config();
    dumbbell net(cfg);
    EXPECT_EQ(net.base_rtt(0), 2 * (milliseconds(1) + milliseconds(20) + milliseconds(1)));
}

TEST(dumbbell_test, per_pair_access_delay_heterogeneous_rtt) {
    dumbbell_config cfg = base_config(3);
    cfg.per_pair_access_delay = {milliseconds(1), milliseconds(10), milliseconds(50)};
    dumbbell net(cfg);
    EXPECT_LT(net.base_rtt(0), net.base_rtt(1));
    EXPECT_LT(net.base_rtt(1), net.base_rtt(2));
}

TEST(dumbbell_test, undeliverable_flow_counted_not_crashing) {
    dumbbell net(base_config());
    class one_shot : public vtp::qtp::agent {
    public:
        explicit one_shot(std::uint32_t dst) : dst_(dst) {}
        void start(vtp::qtp::environment& env) override {
            env.send(packet::make_packet(42, env.local_addr(), dst_,
                                         packet::data_segment{}));
        }
        void on_packet(const packet::packet&) override {}
        std::string name() const override { return "oneshot"; }

    private:
        std::uint32_t dst_;
    };
    net.left_host(0).attach(1, std::make_unique<one_shot>(net.right_addr(0)));
    net.sched().run();
    EXPECT_EQ(net.right_host(0).undeliverable_packets(), 1u);
}

TEST(dumbbell_test, observer_sees_all_deliveries) {
    dumbbell net(base_config());
    int observed = 0;
    net.right_host(0).add_observer([&](const packet::packet&) { ++observed; });
    net.right_host(0).attach(1, std::make_unique<probe_agent>());

    class burst : public vtp::qtp::agent {
    public:
        explicit burst(std::uint32_t dst) : dst_(dst) {}
        void start(vtp::qtp::environment& env) override {
            for (int i = 0; i < 7; ++i)
                env.send(packet::make_packet(1, env.local_addr(), dst_,
                                             packet::data_segment{}));
        }
        void on_packet(const packet::packet&) override {}
        std::string name() const override { return "burst"; }

    private:
        std::uint32_t dst_;
    };
    net.left_host(0).attach(1, std::make_unique<burst>(net.right_addr(0)));
    net.sched().run();
    EXPECT_EQ(observed, 7);
}

} // namespace

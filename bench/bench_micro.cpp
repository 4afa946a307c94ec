// Micro-benchmarks (google-benchmark).
//
// E4 — the QTPlight receiver-load claim (§3): per-packet processing cost
// and feedback-generation cost of an accepted qtp::connection_receiver
// under the classic profile (session_options{}: reliability none, the
// receiver keeps the RFC 3448 loss-interval history) vs the QTPlight
// profile (sender-side estimation: range merge only), plus the
// resident-state comparison printed before the timing runs.
//
// A2 — loss-interval history depth ablation (4 / 8 / 16 intervals).
//
// Plus component benchmarks: throughput equation, equation inversion,
// interval_set, scoreboard, RED enqueue, scheduler churn, wire codec.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "core/connection.hpp"
#include "core/environment.hpp"
#include "core/negotiation.hpp"
#include "packet/wire.hpp"
#include "sack/reassembly.hpp"
#include "sack/scoreboard.hpp"
#include "sim/red.hpp"
#include "sim/scheduler.hpp"
#include "tfrc/equation.hpp"
#include "tfrc/loss_history.hpp"
#include "tfrc/sender_estimator.hpp"
#include "util/rng.hpp"

namespace {

using namespace vtp;
using util::milliseconds;

// Inert environment: time advances manually, sends are counted, timers
// never fire (receivers then only do their per-packet data-path work).
class null_env : public qtp::environment {
public:
    util::sim_time now() const override { return now_; }
    qtp::timer_id schedule(util::sim_time, std::function<void()>) override {
        return ++next_timer_;
    }
    void cancel(qtp::timer_id) override {}
    void send(packet::packet pkt) override {
        sent_bytes_ += pkt.size_bytes;
        ++sent_;
    }
    std::uint32_t local_addr() const override { return 0; }
    util::rng& random() override { return rng_; }
    void attach_dynamic(std::uint32_t, std::unique_ptr<qtp::agent>) override {}

    void advance(util::sim_time dt) { now_ += dt; }
    std::uint64_t sent_ = 0;
    std::uint64_t sent_bytes_ = 0;

private:
    util::sim_time now_ = 0;
    qtp::timer_id next_timer_ = 0;
    util::rng rng_{1};
};

packet::packet make_data(std::uint64_t seq) {
    packet::data_segment d;
    d.seq = seq;
    d.byte_offset = seq * 1000;
    d.payload_len = 1000;
    d.ts = static_cast<util::sim_time>(seq) * milliseconds(1);
    d.rtt_estimate = milliseconds(80);
    return packet::make_packet(1, 9, 0, d);
}

/// A connection_receiver that has accepted a SYN proposing `p` (default
/// capabilities: every profile is accepted as proposed).
std::unique_ptr<qtp::connection_receiver> accepted_receiver(const qtp::profile& p,
                                                            null_env& env) {
    qtp::connection_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = 9;
    auto recv = std::make_unique<qtp::connection_receiver>(cfg);
    recv->start(env);
    qtp::handshake_initiator hi(p);
    recv->on_packet(packet::make_packet(1, 9, 0, hi.make_syn()));
    return recv;
}

const qtp::profile classic_profile = qtp::qtp_default_profile();
const qtp::profile light_profile = qtp::qtp_light_profile();

// --------------------------------------------------------------------------
// E4: receiver per-packet processing cost
// --------------------------------------------------------------------------
//
// Packet construction is hoisted out of the timed region (manual timing
// over pre-built batches), so the numbers are the receiver data path
// alone: loss-interval bookkeeping plus range merging for the classic
// profile vs range merging only for the QTPlight profile.

void run_receiver_batches(benchmark::State& state, qtp::connection_receiver& recv,
                          null_env& env, double loss) {
    util::rng rng(42);
    std::uint64_t seq = 0;
    constexpr int batch_size = 1024;
    std::vector<packet::packet> batch;
    batch.reserve(batch_size);
    for (auto _ : state) {
        batch.clear();
        for (int i = 0; i < batch_size; ++i) {
            if (loss > 0 && rng.bernoulli(loss)) ++seq; // wire drop
            batch.push_back(make_data(seq++));
        }
        const auto t0 = std::chrono::steady_clock::now();
        for (const auto& pkt : batch) {
            recv.on_packet(pkt);
            env.advance(milliseconds(1));
        }
        const auto t1 = std::chrono::steady_clock::now();
        state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    }
    state.SetItemsProcessed(state.iterations() * batch_size);
}

void bm_e4_classic_receiver_per_packet(benchmark::State& state) {
    const double loss = static_cast<double>(state.range(0)) / 1000.0;
    null_env env;
    auto recv = accepted_receiver(classic_profile, env);
    run_receiver_batches(state, *recv, env, loss);
    state.counters["state_bytes"] = static_cast<double>(recv->state_bytes());
}
BENCHMARK(bm_e4_classic_receiver_per_packet)->Arg(0)->Arg(20)->UseManualTime();

void bm_e4_light_receiver_per_packet(benchmark::State& state) {
    const double loss = static_cast<double>(state.range(0)) / 1000.0;
    null_env env;
    auto recv = accepted_receiver(light_profile, env);
    run_receiver_batches(state, *recv, env, loss);
    state.counters["state_bytes"] = static_cast<double>(recv->state_bytes());
}
BENCHMARK(bm_e4_light_receiver_per_packet)->Arg(0)->Arg(20)->UseManualTime();

// E4: feedback generation — the periodic cost besides the per-packet
// path. Both profiles assemble the same SACK report from the receiver's
// recent ranges; the classic one also computes p from its history.
packet::sack_feedback_segment assemble_sack(const std::deque<packet::sack_block>& ranges) {
    packet::sack_feedback_segment fb;
    fb.cum_ack = ranges.front().begin;
    fb.ts_echo = 1;
    fb.t_delay = milliseconds(1);
    fb.x_recv = 1e6;
    const std::size_t first = ranges.size() > packet::max_wire_sack_blocks
                                  ? ranges.size() - packet::max_wire_sack_blocks
                                  : 0;
    for (std::size_t i = first; i < ranges.size(); ++i) fb.blocks.push_back(ranges[i]);
    return fb;
}

// Typical receiver range state: a handful of recent ranges.
std::deque<packet::sack_block> typical_ranges() {
    std::deque<packet::sack_block> ranges;
    for (std::uint64_t i = 0; i < 3; ++i) ranges.push_back({i * 100, i * 100 + 60});
    return ranges;
}

void bm_e4_classic_feedback_computation(benchmark::State& state) {
    // Populated history: the weighted-average loss rate is recomputed for
    // every report.
    tfrc::loss_history history;
    util::rng rng(7);
    std::uint64_t seq = 0;
    util::sim_time t = 0;
    for (int i = 0; i < 5000; ++i) {
        if (rng.bernoulli(0.01)) ++seq;
        history.on_packet(seq++, t += milliseconds(1), milliseconds(80));
    }
    const std::deque<packet::sack_block> ranges = typical_ranges();
    for (auto _ : state) {
        packet::sack_feedback_segment fb = assemble_sack(ranges);
        fb.has_p = true;
        fb.p = history.loss_event_rate();
        benchmark::DoNotOptimize(fb);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_e4_classic_feedback_computation);

void bm_e4_light_feedback_assembly(benchmark::State& state) {
    const std::deque<packet::sack_block> ranges = typical_ranges();
    for (auto _ : state) {
        packet::sack_feedback_segment fb = assemble_sack(ranges);
        benchmark::DoNotOptimize(fb);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_e4_light_feedback_assembly);

// --------------------------------------------------------------------------
// A2: loss-interval history depth ablation
// --------------------------------------------------------------------------

void bm_a2_history_depth(benchmark::State& state) {
    tfrc::loss_history_config cfg;
    cfg.num_intervals = static_cast<std::size_t>(state.range(0));
    tfrc::loss_history history(cfg);
    util::rng rng(11);
    std::uint64_t seq = 0;
    util::sim_time t = 0;
    for (auto _ : state) {
        if (rng.bernoulli(0.02)) ++seq;
        history.on_packet(seq++, t += milliseconds(1), milliseconds(80));
        benchmark::DoNotOptimize(history.loss_event_rate());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_a2_history_depth)->Arg(4)->Arg(8)->Arg(16);

// --------------------------------------------------------------------------
// Component micro-benchmarks
// --------------------------------------------------------------------------

void bm_equation(benchmark::State& state) {
    tfrc::equation_params eq;
    double p = 1e-4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tfrc::throughput_bytes_per_second(eq, 0.08, p));
        p = p < 0.5 ? p * 1.01 : 1e-4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_equation);

void bm_equation_inversion(benchmark::State& state) {
    tfrc::equation_params eq;
    double x = 1e4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tfrc::loss_rate_for_throughput(eq, 0.08, x));
        x = x < 1e8 ? x * 1.1 : 1e4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_equation_inversion);

void bm_sender_estimator_feedback(benchmark::State& state) {
    tfrc::sender_estimator est;
    std::uint64_t seq = 0;
    util::sim_time t = 0;
    packet::sack_feedback_segment fb;
    for (auto _ : state) {
        for (int i = 0; i < 7; ++i) est.on_send(seq++, t += milliseconds(1));
        fb.blocks.clear();
        fb.blocks.push_back({seq > 200 ? seq - 200 : 0, seq - 2});
        est.on_feedback(fb, t, milliseconds(80));
    }
    state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(bm_sender_estimator_feedback);

void bm_interval_set_add(benchmark::State& state) {
    sack::interval_set set;
    util::rng rng(5);
    for (auto _ : state) {
        const auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
        set.add(b, b + 1000);
        if (set.range_count() > 10000) set = sack::interval_set{};
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_interval_set_add);

void bm_scoreboard_sack(benchmark::State& state) {
    sack::scoreboard sb;
    std::uint64_t seq = 0;
    std::vector<sack::transmission_record> lost;
    for (auto _ : state) {
        for (int i = 0; i < 7; ++i) {
            sack::transmission_record rec;
            rec.seq = seq;
            rec.byte_offset = seq * 1000;
            rec.length = 1000;
            sb.record(rec);
            ++seq;
        }
        packet::sack_feedback_segment fb;
        fb.blocks.push_back({seq > 100 ? seq - 100 : 0, seq});
        lost.clear();
        sb.on_sack(fb, lost);
    }
    state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(bm_scoreboard_sack);

void bm_red_enqueue_dequeue(benchmark::State& state) {
    sim::red_queue q(sim::default_red_params(100, 1000), 100 * 1000, 3);
    util::sim_time t = 0;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        q.enqueue(make_data(seq++), t += util::microseconds(100));
        if (q.packet_length() > 50) (void)q.dequeue(t);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_red_enqueue_dequeue);

void bm_scheduler_churn(benchmark::State& state) {
    sim::scheduler sched;
    for (auto _ : state) {
        sched.after(milliseconds(1), [] {});
        sched.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_scheduler_churn);

void bm_wire_encode_data(benchmark::State& state) {
    const packet::segment seg = [] {
        packet::data_segment d;
        d.seq = 123456;
        d.byte_offset = 123456000;
        d.payload_len = 1000;
        d.ts = milliseconds(5000);
        d.rtt_estimate = milliseconds(80);
        return packet::segment{d};
    }();
    for (auto _ : state) benchmark::DoNotOptimize(packet::encode_segment(seg));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_wire_encode_data);

void bm_wire_decode_sack(benchmark::State& state) {
    packet::sack_feedback_segment fb;
    for (std::uint64_t i = 0; i < 8; ++i) fb.blocks.push_back({i * 100, i * 100 + 50});
    const auto bytes = packet::encode_segment(packet::segment{fb});
    for (auto _ : state) benchmark::DoNotOptimize(packet::decode_segment(bytes));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_wire_decode_sack);

// Resident-state comparison for the E4 table, printed once up front.
void print_e4_state_comparison() {
    null_env env_a;
    auto classic = accepted_receiver(classic_profile, env_a);
    null_env env_b;
    auto light = accepted_receiver(light_profile, env_b);

    util::rng rng(4);
    std::uint64_t seq = 0;
    for (int i = 0; i < 200000; ++i) {
        if (rng.bernoulli(0.01)) ++seq;
        const auto pkt = make_data(seq++);
        classic->on_packet(pkt);
        light->on_packet(pkt);
        env_a.advance(milliseconds(1));
        env_b.advance(milliseconds(1));
    }
    const bool lighter = light->state_bytes() < classic->state_bytes();
    std::printf("E4 resident receiver state after 200k packets @1%% loss:\n");
    std::printf("  classic profile : %zu bytes (of which loss-interval history %zu)\n",
                classic->state_bytes(), classic->history().state_bytes());
    std::printf("  QTPlight profile: %zu bytes (no loss-interval history)\n",
                light->state_bytes());
    std::printf("verdict: %s — QTPlight receiver state below classic\n\n",
                lighter ? "PASS" : "FAIL");
}

} // namespace

int main(int argc, char** argv) {
    print_e4_state_comparison();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

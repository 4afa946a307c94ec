// Unit tests for the TFRC receiver role of qtp::connection_receiver,
// driven through a mock environment under the classic profile (receiver
// computes p) and the QTPlight profile (sender computes p): feedback
// timing and contents, active-window pruning, bounded state.
#include <gtest/gtest.h>

#include "core/connection.hpp"
#include "core/negotiation.hpp"
#include "core/profile.hpp"
#include "mock_env.hpp"
#include "packet/wire.hpp"

namespace {

using namespace vtp;
using vtp::testing::mock_env;
using util::milliseconds;

packet::packet data_pkt(std::uint64_t seq, util::sim_time ts,
                        util::sim_time rtt = milliseconds(100)) {
    packet::data_segment d;
    d.seq = seq;
    d.byte_offset = seq * 1000;
    d.payload_len = 1000;
    d.ts = ts;
    d.rtt_estimate = rtt;
    return packet::make_packet(1, 9, 0, d);
}

/// A connection_receiver that accepted a SYN proposing `p`; the SYN-ACK
/// is cleared from `env.sent`, so it holds feedback only.
struct mock_receiver {
    explicit mock_receiver(const qtp::profile& p) : rx(config()) {
        rx.start(env);
        rx.on_packet(packet::make_packet(1, 9, 0, qtp::handshake_initiator(p).make_syn()));
        env.sent.clear();
    }
    static qtp::connection_config config() {
        qtp::connection_config cfg;
        cfg.flow_id = 1;
        cfg.peer_addr = 9;
        return cfg;
    }
    std::size_t feedback_count() const {
        std::size_t n = 0;
        for (const auto& pkt : env.sent)
            if (std::holds_alternative<packet::sack_feedback_segment>(*pkt.body)) ++n;
        return n;
    }
    const packet::sack_feedback_segment& last_feedback() const {
        const auto* fb = std::get_if<packet::sack_feedback_segment>(env.sent.back().body.get());
        EXPECT_NE(fb, nullptr);
        return *fb;
    }

    mock_env env; // outlives rx
    qtp::connection_receiver rx;
};

const qtp::profile classic_profile = qtp::qtp_default_profile();
const qtp::profile light_profile = qtp::qtp_light_profile();

TEST(connection_receiver_unit_test, first_packet_triggers_immediate_feedback) {
    mock_receiver m(classic_profile);
    m.rx.on_packet(data_pkt(0, 0));
    ASSERT_EQ(m.env.sent.size(), 1u);
    EXPECT_TRUE(m.last_feedback().has_p);
    EXPECT_EQ(m.last_feedback().p, 0.0);
    ASSERT_EQ(m.last_feedback().blocks.size(), 1u);
    EXPECT_EQ(m.last_feedback().blocks.back().end, 1u);
}

TEST(connection_receiver_unit_test, feedback_once_per_rtt_when_data_flows) {
    mock_receiver m(classic_profile);
    std::uint64_t seq = 0;
    m.rx.on_packet(data_pkt(seq++, m.env.now()));
    // 10 RTTs of steady data, 10 packets per RTT.
    for (int rtt_round = 0; rtt_round < 10; ++rtt_round) {
        for (int i = 0; i < 10; ++i) {
            m.env.advance(milliseconds(10));
            m.rx.on_packet(data_pkt(seq++, m.env.now()));
        }
    }
    // 1 initial + ~1 per 100 ms RTT.
    EXPECT_GE(m.feedback_count(), 9u);
    EXPECT_LE(m.feedback_count(), 12u);
}

TEST(connection_receiver_unit_test, new_loss_event_expedites_feedback_with_p) {
    mock_receiver m(classic_profile);
    std::uint64_t seq = 0;
    m.rx.on_packet(data_pkt(seq++, m.env.now()));
    for (int i = 0; i < 20; ++i) {
        m.env.advance(milliseconds(5));
        m.rx.on_packet(data_pkt(seq++, m.env.now()));
    }
    const std::size_t before = m.env.sent.size();
    // Drop 3 packets; with reorder tolerance 3 the loss is confirmed by
    // the 3rd later arrival and must trigger an immediate report.
    seq += 3;
    for (int i = 0; i < 4; ++i) {
        m.env.advance(milliseconds(5));
        m.rx.on_packet(data_pkt(seq++, m.env.now()));
    }
    ASSERT_GT(m.env.sent.size(), before);
    EXPECT_TRUE(m.last_feedback().has_p);
    EXPECT_GT(m.last_feedback().p, 0.0);
}

TEST(connection_receiver_unit_test, x_recv_reflects_bytes_per_second) {
    mock_receiver m(classic_profile);
    std::uint64_t seq = 0;
    m.rx.on_packet(data_pkt(seq++, m.env.now()));
    m.env.sent.clear();
    // 100 packets * 1000 B over one RTT (100 ms) = 1 MB/s.
    for (int i = 0; i < 100; ++i) {
        m.env.advance(milliseconds(1));
        m.rx.on_packet(data_pkt(seq++, m.env.now()));
    }
    m.env.advance(milliseconds(1)); // let the feedback timer fire
    ASSERT_FALSE(m.env.sent.empty());
    EXPECT_NEAR(m.last_feedback().x_recv, 1e6, 0.15e6);
}

TEST(connection_receiver_unit_test, unreliable_stream_delivers_every_new_byte) {
    mock_receiver m(classic_profile);
    for (std::uint64_t s = 0; s < 5; ++s) m.rx.on_packet(data_pkt(s, m.env.now()));
    m.rx.on_packet(data_pkt(2, m.env.now())); // a duplicate is not delivered again
    ASSERT_NE(m.rx.demux(), nullptr);
    EXPECT_EQ(m.rx.demux()->delivered_bytes_total(), 5000u);
}

TEST(connection_receiver_unit_test, in_order_stream_yields_single_block) {
    for (const auto& p : {classic_profile, light_profile}) {
        mock_receiver m(p);
        for (std::uint64_t s = 0; s < 200; ++s) {
            m.env.advance(milliseconds(1));
            m.rx.on_packet(data_pkt(s, m.env.now()));
        }
        m.env.advance(milliseconds(200));
        const auto& fb = m.last_feedback();
        ASSERT_EQ(fb.blocks.size(), 1u);
        EXPECT_EQ(fb.cum_ack, 0u);
        EXPECT_EQ(fb.blocks.front().begin, 0u);
        EXPECT_EQ(fb.blocks.front().end, 200u);
    }
}

TEST(connection_receiver_unit_test, holes_create_blocks) {
    for (const auto& p : {classic_profile, light_profile}) {
        mock_receiver m(p);
        for (std::uint64_t s = 0; s < 30; ++s) {
            if (s == 10 || s == 20) continue; // lost
            m.env.advance(milliseconds(1));
            m.rx.on_packet(data_pkt(s, m.env.now()));
        }
        m.env.advance(milliseconds(200));
        EXPECT_EQ(m.last_feedback().blocks.size(), 3u);
    }
}

TEST(connection_receiver_unit_test, active_window_prunes_stale_ranges) {
    // A hole at seq 5, then a long in-order run: the pre-hole range falls
    // behind the active window and is pruned, leaving one contiguous
    // range; the stream keeps one gap, not a growing list.
    for (const auto& p : {classic_profile, light_profile}) {
        mock_receiver m(p);
        for (std::uint64_t s = 0; s < 600; ++s) {
            if (s == 5) continue;
            m.env.advance(milliseconds(1));
            m.rx.on_packet(data_pkt(s, m.env.now()));
        }
        m.env.advance(milliseconds(200));
        const auto& fb = m.last_feedback();
        ASSERT_EQ(fb.blocks.size(), 1u);
        EXPECT_EQ(fb.cum_ack, 6u);
        EXPECT_EQ(fb.blocks.front().begin, 6u);
        EXPECT_EQ(fb.blocks.front().end, 600u);
        EXPECT_EQ(m.rx.stream().received().range_count(), 2u);
    }
}

TEST(connection_receiver_unit_test, state_stays_bounded_under_heavy_fragmentation) {
    // Drop every 3rd packet: the stream fragments constantly. Past the
    // gap cap the receiver's state is flat: the same after 20k packets
    // as after 10k, under either profile.
    for (const auto& p : {classic_profile, light_profile}) {
        mock_receiver m(p);
        std::size_t at_10k = 0;
        for (std::uint64_t s = 0; s < 20000; ++s) {
            if (s == 10000) at_10k = m.rx.state_bytes();
            if (s % 3 == 2) continue;
            m.env.advance(milliseconds(1));
            m.rx.on_packet(data_pkt(s, m.env.now()));
        }
        EXPECT_EQ(m.rx.state_bytes(), at_10k);
        EXPECT_LT(m.rx.state_bytes(), 16384u);
        m.env.advance(milliseconds(200));
        EXPECT_LE(m.last_feedback().blocks.size(), packet::max_wire_sack_blocks);
    }
}

TEST(connection_receiver_unit_test, light_feedback_carries_recent_blocks_no_p) {
    mock_receiver m(light_profile);
    std::uint64_t seq = 0;
    m.rx.on_packet(data_pkt(seq++, m.env.now()));
    for (int i = 0; i < 50; ++i) {
        if (i == 25) ++seq; // hole
        m.env.advance(milliseconds(5));
        m.rx.on_packet(data_pkt(seq++, m.env.now()));
    }
    m.env.advance(milliseconds(200));
    const auto& fb = m.last_feedback();
    EXPECT_FALSE(fb.has_p);
    ASSERT_EQ(fb.blocks.size(), 2u);
    EXPECT_EQ(fb.blocks.back().end, seq);
}

TEST(connection_receiver_unit_test, duplicate_sequences_ignored) {
    for (const auto& p : {classic_profile, light_profile}) {
        mock_receiver m(p);
        for (int rep = 0; rep < 3; ++rep)
            for (std::uint64_t s = 0; s < 10; ++s) m.rx.on_packet(data_pkt(s, m.env.now()));
        m.env.advance(milliseconds(200));
        const auto& fb = m.last_feedback();
        ASSERT_EQ(fb.blocks.size(), 1u);
        EXPECT_EQ(fb.blocks.front().end, 10u);
        EXPECT_EQ(m.rx.demux()->delivered_bytes_total(), 10000u);
    }
}

} // namespace

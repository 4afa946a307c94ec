// Multi-stream multiplexing tests: the acceptance scenario (one
// connection carrying a full-reliability bulk stream plus a
// deadline-bounded partial-reliability media stream over a lossy link),
// the weighted scheduler, the offer() backlog bound, and demux
// robustness against overlapping / malformed stream frames.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "mock_env.hpp"
#include "net/udp_host.hpp"
#include "sim/topology.hpp"
#include "stream/stream_scheduler.hpp"

namespace {

using namespace vtp;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config base_net() {
    sim::dumbbell_config cfg;
    cfg.pairs = 1;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = 20e6;
    cfg.bottleneck_delay = milliseconds(20);
    cfg.bottleneck_queue_packets = 4000;
    return cfg;
}

/// Tracks per-stream deliveries and contiguity.
struct stream_probe {
    struct per_stream {
        std::uint64_t next_expected = 0;
        std::uint64_t bytes = 0;
        bool contiguous = true;
    };
    std::map<std::uint32_t, per_stream> streams;

    /// Consume every chunk `rx` has delivered so far.
    void drain(session& rx) {
        std::uint32_t id = 0;
        stream::ready_chunk c;
        while (rx.recv_chunk(id, c)) {
            auto& s = streams[id];
            if (c.offset != s.next_expected) s.contiguous = false;
            s.next_expected = std::max(s.next_expected, c.offset + c.bytes.size());
            s.bytes += c.bytes.size();
        }
    }
};

std::vector<std::uint8_t> bytes_of(std::uint64_t n) {
    return std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0x5a);
}

// The ISSUE acceptance scenario on the simulator: under configured loss
// the bulk stream delivers byte-exact while the deadline stream drops
// only expired messages — on one connection, sharing one TFRC state.
TEST(stream_mux_test, mixed_profiles_on_lossy_sim) {
    sim::dumbbell net(base_net());
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 42));

    server srv(net.right_host(0), server_options{});
    session* accepted = nullptr;
    stream_probe probe;
    srv.set_on_session([&](session& s) { accepted = &s; });

    // Stream 0: bulk, full reliability (the connection profile).
    session client = session::connect(net.left_host(0), net.right_addr(0),
                                      session_options::reliable());

    // Stream 1: media, partial reliability, 1 kB messages with a tight
    // delivery deadline, 2x the bulk stream's scheduler weight.
    stream::stream_options media;
    media.reliability = sack::reliability_mode::partial;
    media.weight = 2;
    media.message_size = 1000;
    media.message_deadline = milliseconds(60);
    const std::uint32_t sid = client.open_stream(media);
    ASSERT_NE(sid, stream::invalid_stream);
    ASSERT_EQ(sid, 1u);

    constexpr std::uint64_t bulk_bytes = 2'000'000;
    constexpr std::uint64_t media_bytes = 400'000;
    EXPECT_EQ(client.send(0, bytes_of(bulk_bytes)), bulk_bytes);
    EXPECT_EQ(client.send(sid, bytes_of(media_bytes)), media_bytes);
    client.close();

    net.sched().run_until(seconds(120));
    ASSERT_TRUE(client.closed());
    ASSERT_NE(accepted, nullptr);
    EXPECT_EQ(accepted->stats().streams, 2u);
    probe.drain(*accepted);

    // Bulk: byte-exact, in order, despite 3% loss.
    ASSERT_TRUE(probe.streams.count(0));
    EXPECT_TRUE(probe.streams[0].contiguous);
    EXPECT_EQ(probe.streams[0].next_expected, bulk_bytes);
    EXPECT_EQ(probe.streams[0].bytes, bulk_bytes);

    // Media: streamed immediately; expired messages were dropped by the
    // partial policy (and only those — every byte is either delivered or
    // was abandoned after its deadline passed).
    ASSERT_TRUE(probe.streams.count(1));
    const auto infos = client.stream_infos();
    ASSERT_EQ(infos.size(), 2u);
    EXPECT_EQ(infos[1].reliability, sack::reliability_mode::partial);
    EXPECT_GT(probe.streams[1].bytes, media_bytes / 2);
    EXPECT_LT(probe.streams[1].bytes, media_bytes); // some messages expired
    EXPECT_GT(infos[1].abandoned_bytes, 0u);
    EXPECT_GE(probe.streams[1].bytes + infos[1].abandoned_bytes +
                  infos[1].rtx_bytes_sent,
              media_bytes);

    // Bulk must not have abandoned anything.
    EXPECT_EQ(infos[0].abandoned_bytes, 0u);
}

// The same mixed-profile connection over live UDP loopback (no loss to
// inject there: both streams must arrive complete, proving the mux frames
// survive a real datapath).
TEST(stream_mux_test, mixed_profiles_on_loopback_udp) {
    net::event_loop loop;
    constexpr std::uint16_t server_port = 48201;
    constexpr std::uint16_t client_port = 48202;

    std::unique_ptr<net::udp_host> server_host;
    std::unique_ptr<net::udp_host> client_host;
    try {
        server_host = std::make_unique<net::udp_host>(loop, server_port, 1);
        client_host = std::make_unique<net::udp_host>(loop, client_port, 2);
    } catch (const std::exception& e) {
        GTEST_SKIP() << "sockets unavailable: " << e.what();
    }

    server srv(*server_host, server_options{});
    stream_probe probe;
    session* accepted = nullptr;
    srv.set_on_session([&](session& s) { accepted = &s; });

    session client = session::connect(*client_host, server_port,
                                      session_options::reliable());
    stream::stream_options media;
    media.reliability = sack::reliability_mode::partial;
    media.weight = 3;
    media.message_size = 500;
    media.message_deadline = milliseconds(500);
    const std::uint32_t sid = client.open_stream(media);
    ASSERT_NE(sid, stream::invalid_stream);

    constexpr std::uint64_t bulk_bytes = 200'000;
    constexpr std::uint64_t media_bytes = 50'000;
    client.send(0, bytes_of(bulk_bytes));
    client.send(sid, bytes_of(media_bytes));
    client.close();

    const auto run_until = [&](auto&& done, util::sim_time budget) {
        const auto started = loop.now();
        while (!done() && loop.now() - started < budget) loop.run(milliseconds(50));
        return done();
    };
    ASSERT_TRUE(run_until([&] { return client.closed(); }, seconds(30)));

    ASSERT_NE(accepted, nullptr);
    EXPECT_EQ(accepted->stats().streams, 2u);
    probe.drain(*accepted);
    EXPECT_TRUE(probe.streams[0].contiguous);
    EXPECT_EQ(probe.streams[0].bytes, bulk_bytes);
    // Loopback does not lose datagrams: the deadline stream arrives whole.
    EXPECT_EQ(probe.streams[sid].bytes, media_bytes);
    EXPECT_EQ(probe.streams[sid].next_expected, media_bytes);
}

// Two backlogged bulk streams share the TFRC-paced slots in proportion
// to their weights (within the ±10% the acceptance criteria ask for).
TEST(stream_mux_test, weighted_share_holds_between_backlogged_streams) {
    sim::dumbbell_config cfg = base_net();
    cfg.bottleneck_rate_bps = 10e6;
    sim::dumbbell net(cfg);
    server srv(net.right_host(0), server_options{});

    session client = session::connect(net.left_host(0), net.right_addr(0),
                                      session_options::reliable());
    stream::stream_options heavy;
    heavy.reliability = sack::reliability_mode::full;
    heavy.weight = 3;
    const std::uint32_t sid = client.open_stream(heavy);
    ASSERT_NE(sid, stream::invalid_stream);

    // Deep backlogs on both streams; measure mid-transfer.
    client.send(10'000'000);
    client.send(sid, 10'000'000);
    net.sched().run_until(seconds(6));
    ASSERT_TRUE(client.established());

    const auto infos = client.stream_infos();
    ASSERT_EQ(infos.size(), 2u);
    const double s0 = static_cast<double>(infos[0].bytes_sent);
    const double s1 = static_cast<double>(infos[1].bytes_sent);
    ASSERT_GT(s0, 0.0);
    ASSERT_GT(s1, 0.0);
    // Both must still be backlogged, else the ratio is meaningless.
    ASSERT_LT(infos[0].bytes_sent, 10'000'000u);
    ASSERT_LT(infos[1].bytes_sent, 10'000'000u);
    const double ratio = s1 / s0;
    EXPECT_NEAR(ratio, 3.0, 0.3) << "weighted share off by more than 10%";
}

// Deficit round-robin honours weights and deadline promotion jumps the
// queue (unit-level, no network).
TEST(stream_mux_test, scheduler_weights_and_deadline_promotion) {
    stream::stream_scheduler_config cfg;
    cfg.quantum_bytes = 1000;
    cfg.deadline_promotion_window = milliseconds(25);
    stream::stream_scheduler sched(cfg);

    std::vector<stream::stream_scheduler::candidate> cands = {
        {0, 1, util::time_never},
        {1, 3, util::time_never},
    };
    std::map<std::uint32_t, int> picks;
    for (int i = 0; i < 4000; ++i) {
        const std::uint32_t id = sched.pick(cands, milliseconds(1));
        ++picks[id];
        sched.charge(id, 1000);
    }
    const double share1 = picks[1] / 4000.0;
    EXPECT_NEAR(share1, 0.75, 0.05);

    // A deadline within the window preempts the round-robin order.
    cands.push_back({2, 1, milliseconds(1) + milliseconds(10)});
    EXPECT_EQ(sched.pick(cands, milliseconds(1)), 2u);
    EXPECT_GT(sched.promotions(), 0u);
    // Outside the window it queues like everyone else.
    cands[2].deadline = milliseconds(1) + seconds(10);
    EXPECT_NE(sched.pick(cands, milliseconds(1)), 2u);
}

// Renegotiating to reliability none with retransmissions still queued
// must not block completion: under mode none nothing ever drains the
// rtx queue, so it cannot gate done() (regression: the FIN was never
// sent and close() hung forever).
TEST(stream_mux_test, reneg_to_none_with_queued_rtx_still_completes) {
    stream::stream_options opts0;
    sack::scoreboard_config sb;
    sb.finalize_horizon = 2;
    stream::stream_mux mux(opts0, /*total_bytes=*/5000, /*open=*/false, sb);
    mux.set_profile_mode(sack::reliability_mode::full);

    stream::send_policy pol;
    pol.packet_size = 1000;
    for (std::uint64_t seq = 0; seq < 5; ++seq)
        ASSERT_TRUE(mux.next_payload(milliseconds(1), pol, seq).has_value());

    // SACK acking seqs 2-4 finalises seqs 0-1 as lost: rtx queued.
    packet::sack_feedback_segment fb;
    fb.blocks = {{2, 5}};
    mux.on_sack(fb, pol);
    ASSERT_FALSE(mux.stream0().retransmissions().empty());
    ASSERT_FALSE(mux.all_done()); // full reliability still owes bytes 0-2000

    // Downgrade to none: the dead rtx queue must not gate completion.
    mux.set_profile_mode(sack::reliability_mode::none);
    EXPECT_TRUE(mux.all_done());
    EXPECT_FALSE(mux.has_payload_work());
}

// offer() is bounded by max_buffered_bytes and reports what it accepted.
TEST(stream_mux_test, offer_is_bounded_and_reports_accepted_count) {
    qtp::connection_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = 9;
    cfg.max_buffered_bytes = 50'000;
    qtp::connection_sender tx(cfg);

    EXPECT_EQ(tx.offer(30'000), 30'000u);
    EXPECT_EQ(tx.offer(30'000), 20'000u); // clipped at the cap
    EXPECT_EQ(tx.offer(1), 0u);           // backlog full

    // The cap spans all streams of the connection.
    stream::stream_options extra;
    const std::uint32_t sid = tx.open_stream(extra);
    ASSERT_NE(sid, stream::invalid_stream);
    EXPECT_EQ(tx.offer(sid, 10'000), 0u);

    // A finished stream accepts nothing (its backlog still counts until
    // sent, so the other stream stays capped too).
    tx.finish_stream(0);
    EXPECT_EQ(tx.offer(0, 1'000), 0u);
    EXPECT_EQ(tx.offer(sid, 1'000), 0u);
}

// ---------------------------------------------------------------------------
// Outbound payload buffer (16 KiB blocks)
// ---------------------------------------------------------------------------

/// Stream offset `i`'s byte in the payload tests below.
std::uint8_t pattern_at(std::uint64_t i) { return static_cast<std::uint8_t>(i * 7 % 251); }

/// Offer and stash `n` pattern bytes on `s` (they start at its end).
void append_pattern(stream::outbound_stream& s, std::uint64_t n) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) data[i] = pattern_at(s.total_bytes() + i);
    s.offer(n);
    s.append_payload(data.data(), n);
}

/// First-transmit `n` bytes under reliability none (one pick), then
/// release everything behind them.
void send_and_trim(stream::outbound_stream& s, std::uint32_t n) {
    const auto none = sack::reliability_mode::none;
    ASSERT_TRUE(s.next_payload(0, sack::reliability_policy{}, none, 0, n).has_value());
    s.trim_tx_buffer(none);
}

std::vector<std::uint8_t> fetch(stream::outbound_stream& s, std::uint64_t off,
                                std::uint32_t len) {
    std::vector<std::uint8_t> out(len, 0);
    EXPECT_EQ(s.fetch_payload(off, len, out.data()), len);
    return out;
}

stream::outbound_stream payload_stream() {
    return stream::outbound_stream(0, stream::stream_options{}, 0, true,
                                   sack::scoreboard_config{});
}

TEST(stream_mux_payload_test, fetch_crosses_block_edges) {
    stream::outbound_stream s = payload_stream();
    append_pattern(s, 10'000);
    append_pattern(s, 30'000); // both appends straddle the 16 KiB edge
    const auto all = fetch(s, 0, 40'000);
    for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], pattern_at(i)) << i;
    // A fetch that starts just before an edge and ends just after it.
    const auto edge = fetch(s, 16'380, 10);
    for (std::uint64_t i = 0; i < edge.size(); ++i) EXPECT_EQ(edge[i], pattern_at(16'380 + i));

    // Release the first 20,000 bytes (the whole first block): the rest
    // stays readable across the next edge, with its offsets intact.
    send_and_trim(s, 20'000);
    EXPECT_EQ(s.tx_payload_bytes(), 20'000u);
    const auto tail = fetch(s, 32'000, 2'000);
    for (std::uint64_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i], pattern_at(32'000 + i));
    EXPECT_EQ(s.payload_miss_bytes(), 0u);

    // Released bytes read back as a counted miss.
    std::vector<std::uint8_t> gone(100, 0);
    EXPECT_EQ(s.fetch_payload(19'900, 100, gone.data()), 0u);
    EXPECT_EQ(s.payload_miss_bytes(), 100u);
}

TEST(stream_mux_payload_test, gap_padding_reads_zeroes_across_a_block_edge) {
    stream::outbound_stream s = payload_stream();
    append_pattern(s, 16'000);
    s.offer(1'000); // synthetic bytes: a hole over the 16 KiB edge
    append_pattern(s, 500);
    EXPECT_EQ(s.payload_miss_bytes(), 1'000u); // the padded hole
    const auto all = fetch(s, 0, 17'500);
    for (std::uint64_t i = 0; i < 16'000; ++i) ASSERT_EQ(all[i], pattern_at(i)) << i;
    for (std::uint64_t i = 16'000; i < 17'000; ++i) ASSERT_EQ(all[i], 0) << i;
    for (std::uint64_t i = 17'000; i < 17'500; ++i) ASSERT_EQ(all[i], pattern_at(i)) << i;
    EXPECT_EQ(s.payload_miss_bytes(), 1'000u);
}

TEST(stream_mux_payload_test, empty_buffer_re_anchors_without_a_miss) {
    stream::outbound_stream s = payload_stream();
    append_pattern(s, 20'000);
    send_and_trim(s, 20'000);
    EXPECT_EQ(s.tx_payload_bytes(), 0u); // everything released
    // Synthetic bytes while empty, then real ones: the buffer restarts at
    // the new range instead of padding the hole.
    s.offer(100'000);
    append_pattern(s, 3'000);
    EXPECT_EQ(s.tx_payload_bytes(), 3'000u);
    const auto got = fetch(s, 120'000, 3'000);
    for (std::uint64_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], pattern_at(120'000 + i)) << i;
    EXPECT_EQ(s.payload_miss_bytes(), 0u);
}

// The stream id space is bounded at 256 per connection.
TEST(stream_mux_test, stream_id_space_is_bounded) {
    qtp::connection_sender tx(qtp::connection_config{});

    stream::stream_options opts;
    for (std::uint32_t expect = 1; expect < stream::max_streams; ++expect)
        ASSERT_EQ(tx.open_stream(opts), expect);
    EXPECT_EQ(tx.open_stream(opts), stream::invalid_stream);
    EXPECT_EQ(tx.mux().stream_count(), stream::max_streams);
}

// Demux robustness: overlapping per-stream offsets are merged without
// double-delivery of fully duplicate data, and malformed stream frames
// arriving through the typed (simulator) path are ignored.
TEST(stream_mux_test, overlapping_and_malformed_stream_frames_are_tolerated) {
    qtp::connection_config cfg;
    cfg.flow_id = 1;
    cfg.peer_addr = 9;
    qtp::connection_receiver rx(cfg);
    vtp::testing::mock_env env;
    rx.start(env);

    // Establish with full reliability (ordered stream 0).
    qtp::handshake_initiator hi(qtp::qtp_af_profile(0.0));
    rx.on_packet(packet::make_packet(1, 9, 0, hi.make_syn()));
    ASSERT_TRUE(rx.established());

    auto frame = [&](std::uint64_t seq, std::uint32_t id, std::uint64_t off,
                     std::uint32_t len, std::uint8_t reliability) {
        packet::data_stream_segment s;
        s.seq = seq;
        s.stream_id = id;
        s.stream_offset = off;
        s.payload_len = len;
        s.reliability = reliability;
        rx.on_packet(packet::make_packet(1, 9, 0, s));
    };

    frame(0, 3, 0, 1000, 2);   // partial stream appears
    frame(1, 3, 500, 1000, 2); // overlaps the first range
    frame(2, 3, 200, 100, 2);  // fully duplicate
    frame(3, 3, 200, 100, 2);  // exact repeat

    ASSERT_NE(rx.demux(), nullptr);
    const sack::reassembly* media = rx.demux()->find(3);
    ASSERT_NE(media, nullptr);
    EXPECT_EQ(media->received_bytes(), 1500u); // union of the ranges
    EXPECT_GT(media->duplicate_bytes(), 0u);

    // Malformed frames on the typed path: ignored, no new streams.
    const std::uint64_t packets_before = rx.received_packets();
    frame(4, 999, 0, 100, 2); // stream id out of range
    frame(5, 4, 0, 100, 3);   // unassigned reliability mode
    EXPECT_EQ(rx.received_packets(), packets_before);
    EXPECT_EQ(rx.demux()->stream_count(), 2u); // stream 0 + stream 3
    EXPECT_EQ(rx.demux()->find(4), nullptr);
}

} // namespace

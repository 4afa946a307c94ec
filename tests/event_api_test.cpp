// Event-queue API v2: payload I/O through poll()-based events.
//
// Covers the wire payload encoding, the poll/recv data plane on the
// simulator, writable backpressure, the move-session regression (event
// and payload state live on the substrate-owned agent, never the
// handle), bounded event-queue/recv-buffer drop accounting, and the
// engine's cross-thread command mailbox + poll_events() export.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "engine/server.hpp"
#include "net/event_loop.hpp"
#include "net/udp_host.hpp"
#include "packet/wire.hpp"
#include "sim/topology.hpp"
#include "stream/stream_mux.hpp"
#include "util/bytes.hpp"

using namespace vtp;
using util::milliseconds;
using util::seconds;

namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed = 1) {
    std::vector<std::uint8_t> out(n);
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out[i] = static_cast<std::uint8_t>(x);
    }
    return out;
}

struct sim_pair {
    sim::dumbbell net;
    vtp::server srv;
    session* rx = nullptr;

    explicit sim_pair(double loss = 0.0, server_options sopts = {})
        : net(make_cfg()), srv(net.right_host(0), sopts) {
        if (loss > 0)
            net.forward_bottleneck().set_loss_model(
                std::make_unique<sim::bernoulli_loss>(loss, 11));
        srv.set_on_session([this](session& s) { rx = &s; });
    }

    static sim::dumbbell_config make_cfg() {
        sim::dumbbell_config cfg;
        cfg.pairs = 1;
        cfg.bottleneck_rate_bps = 20e6;
        cfg.bottleneck_delay = milliseconds(10);
        cfg.access_delay = milliseconds(1);
        return cfg;
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Wire: payload bytes ride the data kinds and survive the codec.
// ---------------------------------------------------------------------------

TEST(PayloadWire, DataRoundTripCarriesBytes) {
    packet::data_segment seg;
    seg.seq = 42;
    seg.byte_offset = 1000;
    seg.payload = make_payload(600);
    seg.payload_len = 600;
    seg.ts = 123456;

    const std::vector<std::uint8_t> wire = packet::encode_segment(seg);
    EXPECT_EQ(wire.size(), packet::wire_size(seg));
    const packet::segment back = packet::decode_segment(wire);
    ASSERT_TRUE(std::holds_alternative<packet::data_segment>(back));
    EXPECT_EQ(std::get<packet::data_segment>(back), seg);
}

TEST(PayloadWire, DataStreamRoundTripCarriesBytes) {
    packet::data_stream_segment seg;
    seg.seq = 7;
    seg.stream_id = 3;
    seg.stream_offset = 5000;
    seg.payload = make_payload(512, 9);
    seg.payload_len = 512;
    seg.reliability = 1;

    const std::vector<std::uint8_t> wire = packet::encode_segment(seg);
    EXPECT_EQ(wire.size(), packet::wire_size(seg));
    const packet::segment back = packet::decode_segment(wire);
    ASSERT_TRUE(std::holds_alternative<packet::data_stream_segment>(back));
    EXPECT_EQ(std::get<packet::data_stream_segment>(back), seg);
}

TEST(PayloadWire, LengthOnlyFramesKeepLegacyEncoding) {
    packet::data_segment seg;
    seg.seq = 1;
    seg.payload_len = 1000; // synthetic: no payload bytes attached
    const std::vector<std::uint8_t> wire = packet::encode_segment(seg);
    EXPECT_EQ(wire.size(), packet::header_size(seg));
    const packet::segment back = packet::decode_segment(wire);
    EXPECT_EQ(std::get<packet::data_segment>(back), seg);
}

TEST(PayloadWire, TruncatedPayloadRejected) {
    packet::data_segment seg;
    seg.payload = make_payload(200);
    seg.payload_len = 200;
    std::vector<std::uint8_t> wire = packet::encode_segment(seg);
    wire.resize(wire.size() - 50); // cut mid-payload
    EXPECT_THROW(packet::decode_segment(wire), util::decode_error);
}

TEST(PayloadWire, EncodeIntoMatchesHeapEncoder) {
    packet::data_stream_segment seg;
    seg.stream_id = 2;
    seg.payload = make_payload(700, 3);
    seg.payload_len = 700;
    const std::vector<std::uint8_t> heap = packet::encode_segment(seg);
    std::uint8_t buf[2048];
    const std::size_t n = packet::encode_segment_into(seg, buf, sizeof buf);
    ASSERT_EQ(n, heap.size());
    EXPECT_EQ(std::memcmp(buf, heap.data(), n), 0);
}

// A length-only frame that completes a contiguous prefix must still
// park earlier *payload* frames of that prefix for recv() (mixed
// synthetic/payload offers with reordering).
TEST(PayloadWire, DemuxParksStagedPayloadReleasedByLengthOnlyFrame) {
    stream::stream_demux demux(sack::delivery_order::ordered);
    const std::vector<std::uint8_t> chunk = make_payload(1000, 21);
    // Payload frame [1000, 2000) arrives first: staged, not deliverable.
    auto r1 = demux.on_frame(0, sack::reliability_mode::full, 1000, 1000, false,
                             chunk.data(), 5);
    EXPECT_FALSE(r1.delivered.any());
    // Length-only frame [0, 1000) releases the whole prefix.
    auto r2 = demux.on_frame(0, sack::reliability_mode::full, 0, 1000, false,
                             nullptr, 6);
    ASSERT_TRUE(r2.delivered.any());
    EXPECT_EQ(r2.delivered.length, 2000u);
    EXPECT_TRUE(r2.became_readable);
    std::vector<std::uint8_t> out(2000);
    ASSERT_EQ(demux.read(0, out.data(), out.size()), 2000u);
    // Synthetic part reads as zeroes; the staged payload bytes survive.
    EXPECT_TRUE(std::all_of(out.begin(), out.begin() + 1000,
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_TRUE(std::equal(out.begin() + 1000, out.end(), chunk.begin()));
}

// ---------------------------------------------------------------------------
// Simulator: poll-based payload transfer, end to end.
// ---------------------------------------------------------------------------

TEST(EventApi, SimPayloadTransferChecksumAndEvents) {
    sim_pair p(/*loss=*/0.01);
    session_options opts = session_options::reliable();
    opts.max_buffered_bytes = 64 * 1024; // force writable backpressure
    session tx = session::connect(p.net.left_host(0), p.net.right_addr(0), opts);

    const std::vector<std::uint8_t> payload = make_payload(500'000);
    std::size_t sent = 0;
    bool closed_issued = false;
    std::vector<std::uint8_t> received;
    received.reserve(payload.size());
    bool established_seen = false, fin_seen = false, closed_seen = false;
    bool writable_seen = false;
    bool send_clamped = false;
    event evs[16];
    std::uint8_t buf[8192];

    while (!tx.closed() && p.net.sched().now() < seconds(60)) {
        p.net.sched().run_until(p.net.sched().now() + milliseconds(20));
        while (sent < payload.size()) {
            const std::uint64_t n =
                tx.send(0, std::span<const std::uint8_t>(payload).subspan(sent));
            if (n == 0) {
                send_clamped = true;
                break;
            }
            sent += static_cast<std::size_t>(n);
        }
        if (sent == payload.size() && !closed_issued) {
            tx.close();
            closed_issued = true;
        }
        for (std::size_t i = 0, n = tx.poll(evs, 16); i < n; ++i) {
            if (evs[i].type == event_type::writable) writable_seen = true;
            if (evs[i].type == event_type::closed) closed_seen = true;
        }
        if (p.rx == nullptr) continue;
        for (std::size_t i = 0, n = p.rx->poll(evs, 16); i < n; ++i) {
            switch (evs[i].type) {
            case event_type::established: established_seen = true; break;
            case event_type::fin: fin_seen = true; break;
            case event_type::readable:
                while (const std::size_t got =
                           p.rx->recv(evs[i].stream_id, std::span<std::uint8_t>(buf)))
                    received.insert(received.end(), buf, buf + got);
                break;
            default: break;
            }
        }
    }

    ASSERT_TRUE(tx.closed());
    EXPECT_TRUE(established_seen);
    EXPECT_TRUE(send_clamped) << "64 KB cap never clamped a 500 KB transfer";
    EXPECT_TRUE(writable_seen);
    EXPECT_TRUE(fin_seen);
    EXPECT_TRUE(closed_seen);
    ASSERT_EQ(received.size(), payload.size());
    EXPECT_EQ(received, payload); // full in-order checksum equivalent
    EXPECT_EQ(p.rx->stats().recv_dropped_bytes, 0u);
    EXPECT_EQ(p.rx->stats().events_dropped, 0u);
    EXPECT_EQ(tx.stats().events_dropped, 0u);
    // Nothing lingers in either direction's payload buffers.
    EXPECT_EQ(tx.stats().tx_payload_buffered, 0u);
    EXPECT_EQ(p.rx->stats().recv_buffered_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Moving a session handle mid-transfer must not detach its event/shim
// state: everything lives on the substrate-owned agent.
// ---------------------------------------------------------------------------

TEST(EventApi, MoveSessionMidTransferPollMode) {
    sim_pair p;
    session tx = session::connect(p.net.left_host(0), p.net.right_addr(0),
                                  session_options::reliable());
    const std::vector<std::uint8_t> payload = make_payload(2'000'000);
    tx.send(0, std::span<const std::uint8_t>(payload));
    tx.close();

    p.net.sched().run_until(milliseconds(150)); // transfer under way
    ASSERT_NE(p.rx, nullptr);
    ASSERT_FALSE(tx.closed()) << "transfer finished before the move";

    // Move both handles mid-transfer (vector reallocation, ownership
    // transfer between application components, ...).
    session tx2 = std::move(tx);
    session rx2 = std::move(*p.rx);

    std::vector<std::uint8_t> received;
    std::uint8_t buf[8192];
    event evs[16];
    bool fin_seen = false;
    auto drain = [&] {
        tx2.poll(evs, 16);
        for (std::size_t i = 0, n = rx2.poll(evs, 16); i < n; ++i) {
            if (evs[i].type == event_type::fin) fin_seen = true;
            if (evs[i].type == event_type::readable)
                while (const std::size_t got =
                           rx2.recv(evs[i].stream_id, std::span<std::uint8_t>(buf)))
                    received.insert(received.end(), buf, buf + got);
        }
    };
    while (!tx2.closed() && p.net.sched().now() < seconds(60)) {
        p.net.sched().run_until(p.net.sched().now() + milliseconds(20));
        drain();
    }
    drain(); // events emitted on the closing step
    // Chunks delivered before the move are still readable after it.
    ASSERT_TRUE(tx2.closed());
    EXPECT_TRUE(fin_seen);
    EXPECT_EQ(received, payload);
}

// ---------------------------------------------------------------------------
// Bounded queues: overflow is counted, never silent.
// ---------------------------------------------------------------------------

TEST(EventApi, FullEventRingDropsAreCounted) {
    server_options sopts;
    sopts.event_queue_capacity = 4; // absurdly small on purpose
    sim_pair p(0.0, sopts);
    session tx = session::connect(p.net.left_host(0), p.net.right_addr(0),
                                  session_options::reliable());
    // Every extra stream produces stream_opened + readable + fin on the
    // receiver: far more than 4 events when nobody polls.
    const std::vector<std::uint8_t> chunk = make_payload(2'000);
    for (int i = 0; i < 12; ++i) {
        stream::stream_options so;
        so.reliability = sack::reliability_mode::full;
        const std::uint32_t sid = tx.open_stream(so);
        ASSERT_NE(sid, stream::invalid_stream);
        tx.send(sid, std::span<const std::uint8_t>(chunk));
        tx.finish(sid);
    }
    tx.close();
    while (!tx.closed() && p.net.sched().now() < seconds(30))
        p.net.sched().run_until(p.net.sched().now() + milliseconds(100));

    ASSERT_TRUE(tx.closed());
    ASSERT_NE(p.rx, nullptr);
    const session_stats st = p.rx->stats();
    EXPECT_GT(st.events_dropped, 0u) << "overflow must be observable";
    // The data plane is unaffected: every byte still delivered/buffered.
    EXPECT_EQ(st.bytes_delivered, 12u * 2'000u);
}

TEST(EventApi, RecvBufferCapDropsAreCounted) {
    server_options sopts;
    sopts.recv_buffer_bytes = 4'000; // cap far below the transfer size
    sim_pair p(0.0, sopts);
    session tx = session::connect(p.net.left_host(0), p.net.right_addr(0),
                                  session_options::reliable());
    const std::vector<std::uint8_t> payload = make_payload(100'000);
    tx.send(0, std::span<const std::uint8_t>(payload));
    tx.close();
    while (!tx.closed() && p.net.sched().now() < seconds(30))
        p.net.sched().run_until(p.net.sched().now() + milliseconds(100));

    ASSERT_TRUE(tx.closed());
    ASSERT_NE(p.rx, nullptr);
    const session_stats st = p.rx->stats();
    EXPECT_LE(st.recv_buffered_bytes, 4'000u);
    EXPECT_GT(st.recv_dropped_bytes, 0u);
    EXPECT_EQ(st.recv_buffered_bytes + st.recv_dropped_bytes, 100'000u);
}

// ---------------------------------------------------------------------------
// Engine: command mailbox in, merged event queue out — all payload I/O
// from the application thread.
// ---------------------------------------------------------------------------

TEST(EngineEventApi, CommandMailboxAndPolledEvents) {
    engine::engine_config ecfg;
    ecfg.port = 48731;
    ecfg.shards = 2;
    engine::server eng(ecfg);
    try {
        eng.start();
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot start engine: " << e.what();
    }

    net::event_loop loop;
    std::unique_ptr<net::udp_host> host;
    try {
        host = std::make_unique<net::udp_host>(loop, 48732, 5);
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot bind client host: " << e.what();
    }
    vtp::server peer(*host, server_options{});
    session* peer_rx = nullptr;
    peer.set_on_session([&](session& s) { peer_rx = &s; });

    // Outgoing session built on its owner shard; the handle stays there —
    // the application keeps only (shard, flow) and drives it through the
    // mailbox.
    std::atomic<bool> ready{false};
    std::atomic<std::size_t> shard_idx{0};
    std::atomic<std::uint32_t> flow_id{0};
    eng.connect(48732, session_options::reliable(),
                [&](std::size_t sh, vtp::session s) {
                    shard_idx = sh;
                    flow_id = s.flow_id();
                    ready = true;
                });

    const util::sim_time deadline = loop.now() + seconds(20);
    while (!ready && loop.now() < deadline) loop.run(milliseconds(2));
    ASSERT_TRUE(ready.load());

    const std::vector<std::uint8_t> payload = make_payload(120'000, 77);
    ASSERT_TRUE(eng.send(shard_idx, flow_id, 0, payload.data(), payload.size()));
    ASSERT_TRUE(eng.close(shard_idx, flow_id));

    std::vector<std::uint8_t> received;
    bool closed_seen = false, established_seen = false;
    engine::engine_event evs[32];
    std::uint8_t buf[8192];
    event sevs[16];
    while (!(closed_seen && received.size() == payload.size()) &&
           loop.now() < deadline) {
        loop.run(milliseconds(2));
        for (std::size_t i = 0, n = eng.poll_events(evs, 32); i < n; ++i) {
            EXPECT_EQ(evs[i].flow, flow_id.load());
            EXPECT_EQ(evs[i].shard, shard_idx.load());
            if (evs[i].ev.type == event_type::established) established_seen = true;
            if (evs[i].ev.type == event_type::closed) closed_seen = true;
        }
        if (peer_rx == nullptr) continue;
        for (std::size_t i = 0, n = peer_rx->poll(sevs, 16); i < n; ++i)
            if (sevs[i].type == event_type::readable)
                while (const std::size_t got = peer_rx->recv(
                           sevs[i].stream_id, std::span<std::uint8_t>(buf)))
                    received.insert(received.end(), buf, buf + got);
    }

    EXPECT_TRUE(established_seen);
    EXPECT_TRUE(closed_seen);
    EXPECT_EQ(received, payload);
    const engine::engine_stats st = eng.stats();
    EXPECT_EQ(st.commands_dropped, 0u);
    EXPECT_EQ(st.decode_errors, 0u);
    eng.stop();
}

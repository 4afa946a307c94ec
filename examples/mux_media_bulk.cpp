// Multi-stream multiplexing: a media stream and a bulk transfer share
// one connection — and one gTFRC congestion state — instead of fighting
// each other from two.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/mux_media_bulk
//
// What it shows:
//  1. one vtp::session carrying two streams with different service
//     profiles: stream 0 = bulk, full reliability; stream 1 = media,
//     partial reliability with 1 kB messages expiring after 120 ms,
//     scheduled at twice the bulk stream's weight,
//  2. per-stream readable events and recv() on the receiving side,
//  3. under 2% loss the bulk stream arrives byte-exact while the media
//     stream sheds only messages whose deadline passed.
#include <cstdio>
#include <map>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "sim/topology.hpp"

using namespace vtp;
using util::milliseconds;
using util::seconds;

int main() {
    // Network: 10 Mb/s bottleneck, ~60 ms RTT, 2% loss.
    sim::dumbbell_config net_cfg;
    net_cfg.pairs = 1;
    net_cfg.bottleneck_rate_bps = 10e6;
    net_cfg.bottleneck_delay = milliseconds(28);
    net_cfg.access_delay = milliseconds(1);
    net_cfg.bottleneck_queue_packets = 2000;
    sim::dumbbell net(net_cfg);
    net.forward_bottleneck().set_loss_model(std::make_unique<sim::bernoulli_loss>(0.02, 7));

    // Server: count the bytes recv() hands out per stream. readable is
    // edge-triggered and names its stream; drain that stream until 0.
    server srv(net.right_host(0), server_options{});
    session* rx = nullptr;
    srv.set_on_session([&](session& s) { rx = &s; });
    std::map<std::uint32_t, std::uint64_t> delivered;
    std::vector<std::uint8_t> buf(64 * 1024);
    auto drain = [&] {
        if (rx == nullptr) return;
        event evs[16];
        while (const std::size_t n = rx->poll(evs, 16))
            for (std::size_t i = 0; i < n; ++i)
                if (evs[i].type == event_type::readable)
                    while (const std::size_t got = rx->recv(evs[i].stream_id, buf))
                        delivered[evs[i].stream_id] += got;
    };

    // Client: bulk on stream 0 (full reliability via the connection
    // profile), media on a second stream with its own service profile.
    session tx = session::connect(net.left_host(0), net.right_addr(0),
                                  session_options::reliable());

    stream::stream_options media;
    media.reliability = sack::reliability_mode::partial;
    media.weight = 2; // media gets 2/3 of the send slots while backlogged
    media.message_size = 1000;
    media.message_deadline = milliseconds(120);
    const std::uint32_t media_id = tx.open_stream(media);

    constexpr std::uint64_t bulk_bytes = 3'000'000;
    constexpr std::uint64_t media_bytes = 1'000'000;
    tx.send(0, std::vector<std::uint8_t>(bulk_bytes, 0xb0));         // stream 0
    tx.send(media_id, std::vector<std::uint8_t>(media_bytes, 0x3d)); // stream 1
    tx.close();

    while (!tx.closed() && net.sched().now() < seconds(120)) {
        net.sched().run_until(net.sched().now() + milliseconds(500));
        drain();
    }
    drain();

    const double elapsed = util::to_seconds(net.sched().now());
    std::printf("connection closed : %s after %.1f s (one connection, %zu streams)\n",
                tx.closed() ? "yes" : "no", elapsed, tx.stats().streams);
    for (const auto& info : tx.stream_infos()) {
        const char* kind = info.reliability == sack::reliability_mode::full
                               ? "full   "
                               : info.reliability == sack::reliability_mode::partial
                                     ? "partial"
                                     : "none   ";
        std::printf(
            "stream %u (%s, w=%u): offered %llu, delivered %llu, rtx %llu, "
            "expired %llu bytes\n",
            info.id, kind, info.weight,
            static_cast<unsigned long long>(info.bytes_offered),
            static_cast<unsigned long long>(delivered[info.id]),
            static_cast<unsigned long long>(info.rtx_bytes_sent),
            static_cast<unsigned long long>(info.abandoned_bytes));
    }

    const bool bulk_exact = delivered[0] == bulk_bytes;
    const bool media_shed = delivered[media_id] <= media_bytes;
    std::printf("bulk byte-exact   : %s\n", bulk_exact ? "yes" : "NO");
    std::printf("media shed only expired messages: %s (%.1f%% delivered)\n",
                media_shed ? "yes" : "NO",
                100.0 * delivered[media_id] / media_bytes);
    return tx.closed() && bulk_exact ? 0 : 1;
}

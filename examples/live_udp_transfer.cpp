// The same protocol stack on real sockets: a vtp::session transfer over
// UDP loopback — no simulator involved.
//
// Both endpoints live in one process for convenience (two udp_hosts on
// one event loop); the session/server code is byte-identical to what the
// simulator examples run, demonstrating the transport/substrate
// separation that makes the protocol "versatile".
#include <cstdio>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "net/udp_host.hpp"

using namespace vtp;
using util::milliseconds;

int main() {
    constexpr std::uint16_t server_port = 47001;
    constexpr std::uint16_t client_port = 47002;
    constexpr std::uint64_t stream_bytes = 2'000'000;

    net::event_loop loop;
    try {
        net::udp_host receiver_host(loop, server_port, 1);
        net::udp_host sender_host(loop, client_port, 2);

        // The receiving end is a vtp::server: it accepts the connection
        // and counts what the application reads back through recv().
        server srv(receiver_host, server_options{});
        session* rx = nullptr;
        srv.set_on_session([&](session& s) { rx = &s; });
        std::uint64_t delivered = 0;
        std::vector<std::uint8_t> buf(64 * 1024);
        auto drain = [&] {
            if (rx == nullptr) return;
            while (const std::size_t got = rx->recv(0, buf)) delivered += got;
        };

        // The sending end connects with full reliability and streams.
        session tx = session::connect(sender_host, server_port,
                                      session_options::reliable());
        tx.send(0, std::vector<std::uint8_t>(stream_bytes, 0x5a));
        tx.close();

        std::printf("transferring %.1f MB over UDP loopback %u -> %u ...\n",
                    stream_bytes / 1e6, client_port, server_port);

        const auto started = loop.now();
        while (!tx.closed() && loop.now() - started < util::seconds(30)) {
            loop.run(milliseconds(100));
            drain();
        }
        drain();
        const double elapsed = util::to_seconds(loop.now() - started);

        std::printf("complete   : %s in %.2f s\n", tx.closed() ? "yes" : "no", elapsed);
        std::printf("delivered  : %llu bytes\n",
                    static_cast<unsigned long long>(delivered));
        std::printf("goodput    : %.2f Mb/s\n", delivered * 8.0 / elapsed / 1e6);
        std::printf("datagrams  : %llu sent by sender, %llu by receiver (feedback)\n",
                    static_cast<unsigned long long>(sender_host.sent_datagrams()),
                    static_cast<unsigned long long>(receiver_host.sent_datagrams()));
        return tx.closed() ? 0 : 1;
    } catch (const std::exception& e) {
        std::printf("skipped: %s (sockets unavailable in this environment)\n", e.what());
        return 0;
    }
}

// Shared helpers for the experiment harnesses (bench_e*): flow setup on
// dumbbells, aligned table printing and verdict lines. Each bench binary
// regenerates one table/figure of the README's experiment sections (its
// "Paper claims on the shipped stack" table summarises them) and prints
// the series to stdout.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/server.hpp"
#include "api/session.hpp"
#include "diffserv/conditioner.hpp"
#include "diffserv/rio.hpp"
#include "sim/topology.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace vtp::bench {

struct tcp_flow {
    tcp::tcp_sender_agent* sender = nullptr;
    tcp::tcp_receiver_agent* receiver = nullptr;
};

inline tcp_flow add_tcp_flow(sim::dumbbell& net, std::size_t i, std::uint32_t flow_id,
                             std::uint64_t max_bytes = UINT64_MAX) {
    tcp::tcp_sender_config scfg;
    scfg.flow_id = flow_id;
    scfg.peer_addr = net.right_addr(i);
    scfg.max_bytes = max_bytes;

    tcp::tcp_receiver_config rcfg;
    rcfg.flow_id = flow_id;
    rcfg.peer_addr = net.left_addr(i);

    tcp_flow flow;
    flow.receiver =
        net.right_host(i).attach(flow_id, std::make_unique<tcp::tcp_receiver_agent>(rcfg));
    flow.sender =
        net.left_host(i).attach(flow_id, std::make_unique<tcp::tcp_sender_agent>(scfg));
    return flow;
}

/// A vtp::session flow — the full public-API QTP stack, congestion
/// control and service profile selected through `opts` — on dumbbell
/// pair `i`. Owns the accept-side vtp::server; the transfer is
/// open-ended (a large stream-0 backlog), so the flow is long-lived like
/// the TCP flows above. Classic TFRC is `session_options{}` (reliability
/// none, receiver-side p); QTPlight is `session_options::light()`.
struct session_flow {
    std::unique_ptr<vtp::server> server;
    vtp::session client;
    vtp::session* accepted = nullptr;

    const qtp::connection_sender& sender() const { return *client.sender(); }
    /// The accepted endpoint; null until the SYN has arrived.
    const qtp::connection_receiver* receiver() const {
        return accepted != nullptr ? accepted->receiver() : nullptr;
    }

    std::uint64_t delivered_bytes() const {
        return accepted != nullptr ? accepted->stats().bytes_delivered : 0;
    }
    /// Payload bytes that reached the accepted endpoint.
    std::uint64_t received_bytes() const {
        return receiver() != nullptr ? receiver()->received_bytes() : 0;
    }
    /// All bytes the sender pushed to the wire (first transmissions +
    /// retransmissions) — the send-rate signal a codec would see.
    std::uint64_t sent_bytes() const {
        const session_stats st = client.stats();
        return st.stream_bytes_sent + st.rtx_bytes_sent;
    }
};

/// Connect from `client_host` to a vtp::server on `server_host` (address
/// `server_addr`) — any topology.
inline std::unique_ptr<session_flow> add_session_flow(
    qtp::environment& client_host, qtp::environment& server_host, std::uint32_t server_addr,
    std::uint32_t flow_id, vtp::session_options opts, std::uint64_t backlog = 1'000'000'000) {
    auto flow = std::make_unique<session_flow>();
    session_flow* raw = flow.get();
    flow->server = std::make_unique<vtp::server>(server_host, vtp::server_options{});
    flow->server->set_on_session([raw](vtp::session& s) { raw->accepted = &s; });
    opts.flow_id = flow_id;
    flow->client = vtp::session::connect(client_host, server_addr, opts);
    flow->client.send(backlog);
    return flow;
}

inline std::unique_ptr<session_flow> add_session_flow(
    sim::dumbbell& net, std::size_t i, std::uint32_t flow_id, vtp::session_options opts,
    std::uint64_t backlog = 1'000'000'000) {
    return add_session_flow(net.left_host(i), net.right_host(i), net.right_addr(i), flow_id,
                            std::move(opts), backlog);
}

inline double goodput_mbps(std::uint64_t bytes, util::sim_time duration) {
    return static_cast<double>(bytes) * 8.0 / util::to_seconds(duration) / 1e6;
}

/// Print one verdict line for an expected-shape note. A failing note is
/// a finding about the paper's claim on the shipped stack, reported as
/// such — not a reason to exit non-zero.
inline void verdict(bool ok, const std::string& note) {
    std::printf("verdict: %s — %s\n", ok ? "PASS" : "FAIL", note.c_str());
}

/// Column-aligned table printer.
class table {
public:
    explicit table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

    void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    void print() const {
        std::vector<std::size_t> widths(headers_.size(), 0);
        for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
        for (const auto& row : rows_)
            for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
                widths[c] = std::max(widths[c], row[c].size());

        auto print_row = [&](const std::vector<std::string>& cells) {
            std::printf("|");
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                const std::string& cell = c < cells.size() ? cells[c] : std::string{};
                std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::printf("|");
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
        }
        std::printf("\n");
        for (const auto& row : rows_) print_row(row);
    }

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

inline std::string fmt_u64(std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
    return buf;
}

} // namespace vtp::bench

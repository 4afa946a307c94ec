// Shared helpers for end-to-end simulation tests: set up flows on a
// dumbbell and measure application goodput.
#pragma once

#include <cstdint>
#include <memory>

#include "api/server.hpp"
#include "api/session.hpp"
#include "sim/topology.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace vtp::testing {

struct tcp_flow {
    tcp::tcp_sender_agent* sender = nullptr;
    tcp::tcp_receiver_agent* receiver = nullptr;
};

/// Long-lived TCP flow on dumbbell pair `i`.
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
    flow.receiver = net.right_host(i).attach(
        flow_id, std::make_unique<tcp::tcp_receiver_agent>(rcfg));
    flow.sender = net.left_host(i).attach(
        flow_id, std::make_unique<tcp::tcp_sender_agent>(scfg));
    return flow;
}

/// A QTP connection through the public API on dumbbell pair `i`: a
/// vtp::server on the right host accepts the session connected from the
/// left. Endpoint internals stay reachable through sender()/receiver().
struct session_flow {
    std::unique_ptr<vtp::server> server;
    vtp::session client;
    vtp::session* accepted = nullptr;

    qtp::connection_sender& sender() { return *client.sender(); }
    /// The accepted endpoint; null until the SYN has arrived.
    qtp::connection_receiver* receiver() {
        return accepted != nullptr ? accepted->receiver() : nullptr;
    }
    /// Payload bytes that reached the accepted endpoint (0 before it exists).
    std::uint64_t received_bytes() {
        return receiver() != nullptr ? receiver()->received_bytes() : 0;
    }
};

/// Open `opts` as flow `flow_id` from `client_host` to a vtp::server on
/// `server_host` (address `server_addr`). With `bytes` > 0 the session
/// queues that many length-only bytes and closes after them; 0 keeps a
/// backlog far beyond any test horizon, a long-lived flow.
inline std::unique_ptr<session_flow> add_session_flow(
    qtp::environment& client_host, qtp::environment& server_host, std::uint32_t server_addr,
    std::uint32_t flow_id, vtp::session_options opts, std::uint64_t bytes = 0) {
    auto flow = std::make_unique<session_flow>();
    session_flow* raw = flow.get();
    flow->server = std::make_unique<vtp::server>(server_host, vtp::server_options{});
    flow->server->set_on_session([raw](vtp::session& s) { raw->accepted = &s; });
    opts.flow_id = flow_id;
    flow->client = vtp::session::connect(client_host, server_addr, opts);
    flow->client.send(bytes > 0 ? bytes : 1'000'000'000);
    if (bytes > 0) flow->client.close();
    return flow;
}

/// The same on dumbbell pair `i`.
inline std::unique_ptr<session_flow> add_session_flow(
    sim::dumbbell& net, std::size_t i, std::uint32_t flow_id,
    vtp::session_options opts, std::uint64_t bytes = 0) {
    return add_session_flow(net.left_host(i), net.right_host(i), net.right_addr(i), flow_id,
                            std::move(opts), bytes);
}

/// Application goodput in bit/s given bytes delivered over a duration.
inline double goodput_bps(std::uint64_t bytes, util::sim_time duration) {
    return static_cast<double>(bytes) * 8.0 / util::to_seconds(duration);
}

} // namespace vtp::testing

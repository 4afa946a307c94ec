// vtp::server — passive endpoint of the socket-style API.
//
// Wraps qtp::listener: installed as a substrate's default agent, it
// accepts one QTP connection per incoming SYN, applies a per-accept
// capability policy (what reliability / estimation locus / rate tier to
// grant *this* client), and hands the application a receiver-role
// vtp::session:
//
//   vtp::server srv(host, opts);
//   std::vector<vtp::session*> accepted;
//   srv.set_on_session([&](vtp::session& s) { accepted.push_back(&s); });
//   // each application turn: poll() / recv() every accepted session
//   // (api/session.hpp), exactly as on the connecting side.
//
// Works identically on sim::host and net::udp_host. Stray packets for
// unknown flows (including renegotiation segments of dead connections)
// are counted, never answered — a reneg must never spawn an endpoint.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "api/session.hpp"
#include "core/listener.hpp"

namespace vtp {

struct server_options {
    /// Capabilities granted to every client (the negotiation downgrade
    /// bound for the SYN and for later renegotiations).
    qtp::capabilities capabilities{};

    /// Per-accept policy: (flow id, peer address) -> capabilities for
    /// that client. Overrides `capabilities` when set — e.g. cap
    /// target_rate by customer tier, or refuse receiver-side estimation
    /// under memory pressure.
    std::function<qtp::capabilities(std::uint32_t, std::uint32_t)> capability_policy;

    std::uint32_t packet_size = 1000;
    /// Handshake / renegotiation retransmission interval for accepted
    /// endpoints.
    util::sim_time handshake_rtx = util::milliseconds(500);

    /// Event ring capacity / recv payload buffer cap of accepted
    /// sessions (see session_options for semantics).
    std::size_t event_queue_capacity = 256;
    std::uint64_t recv_buffer_bytes = 16u << 20;

    /// Flight-recorder tracing for accepted sessions (see
    /// session_options::trace_ring_records / trace_sink). When set, the
    /// listener's accept-path guard decisions are traced too (flow 0,
    /// record_type::guard).
    std::size_t trace_ring_records = 0;
    trace::sink* trace_sink = nullptr;

    // --- DoS hardening ---------------------------------------------------
    /// Accept-path guard: stateless retry cookies, per-source token
    /// buckets, anti-amplification (qtp::listener_guard_config; all off
    /// by default).
    qtp::listener_guard_config guard{};
    /// Hard cap on live sessions; a SYN past it is shed (0 = unlimited).
    std::size_t max_sessions = 0;
    /// Cap on accepted-but-unproven (half-open) sessions (0 = unlimited).
    std::size_t max_half_open = 0;
    /// Liveness deadline for accepted endpoints: no data / reneg / FIN
    /// within the window closes the endpoint so reap_closed() collects
    /// it (connection_config::handshake_deadline; 0 disables).
    util::sim_time handshake_deadline = util::seconds(30);
    /// Per-session budget for incoming reneg-proposal processing
    /// (0 = unbounded; see session_stats::reneg_rate_limited).
    double reneg_rate_bps = 0.0;
    std::size_t reneg_burst_bytes = 0;

    /// Connection migration for accepted sessions (path/path.hpp): with
    /// `path.enabled` the server validates a client that reappears from
    /// a new source address (NAT rebind / handover) and re-points its
    /// feedback there, under the anti-amplification budget. Off by
    /// default.
    path::manager_config path{};
};

/// One-call snapshot of the listener's accept/stray accounting (the
/// renegotiation-hygiene counters live here because stray renegs are a
/// listener-level observation: segments for flows with no endpoint).
struct server_stats {
    std::uint64_t accepted = 0;
    std::uint64_t stray_packets = 0;
    /// reneg/reneg_ack segments for unknown flows, counted and dropped —
    /// a reneg must never spawn an endpoint.
    std::uint64_t stray_renegs = 0;
    std::size_t sessions = 0;
    /// Accepted sessions whose peer has not yet proven liveness.
    std::size_t half_open = 0;
    // Accept-path guard counters (qtp::listener_guard_stats).
    std::uint64_t retries_sent = 0;
    std::uint64_t cookies_validated = 0;
    std::uint64_t cookies_rejected = 0;
    std::uint64_t syn_rate_limited = 0;
    std::uint64_t stray_rate_limited = 0;
    std::uint64_t amplification_limited = 0;
    std::uint64_t shed = 0;
    /// Inbound reneg proposals dropped by the per-connection token bucket,
    /// summed over live and reaped sessions (monotonic).
    std::uint64_t reneg_rate_limited = 0;
    /// Path migration accounting, summed over live and reaped sessions
    /// (monotonic; all zero while server_options::path.enabled is off).
    std::uint64_t path_migrations = 0;
    std::uint64_t path_validations = 0;
    std::uint64_t path_validation_failures = 0;
    std::uint64_t path_responses_rejected = 0; ///< forged/stale tokens
};

class server {
public:
    /// Register on `env` as the passive endpoint. The server must
    /// outlive the substrate's use of it.
    server(qtp::environment& env, server_options opts = {});

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Called with each freshly accepted session, so the application can
    /// keep the handle (or bind an event sink) before its first event.
    /// The reference stays valid until reap_closed() collects the session.
    void set_on_session(std::function<void(session&)> cb) { on_session_ = std::move(cb); }

    std::size_t session_count() const { return sessions_.size(); }
    session* find(std::uint32_t flow_id);

    /// Visit every live session (flow id, session). Same threading rule
    /// as everything else here: call from the substrate's own thread —
    /// on an engine shard, through engine::server::with_server(). Do not
    /// reap from inside the visitor.
    void for_each_session(const std::function<void(std::uint32_t, session&)>& fn);

    /// Reclaim sessions whose peer has closed (FIN seen): destroys their
    /// endpoints and handles, returns how many were reaped. Call from
    /// application context (an event-loop turn or a scheduler callback),
    /// never from inside the accept hook. Session references obtained
    /// earlier for reaped flows become invalid. Note: reaping immediately
    /// after close forfeits FIN-ACK retransmission for that flow (a peer
    /// whose FIN-ACK was lost retries against the listener as a stray),
    /// so a production loop reaps periodically, not per-packet.
    std::size_t reap_closed();

    std::uint64_t accepted() const { return listener_.accepted(); }
    std::uint64_t stray_packets() const { return listener_.stray_packets(); }
    std::uint64_t stray_renegs() const { return listener_.stray_renegs(); }
    /// Accepted sessions whose peer has not yet proven liveness with
    /// data (what max_half_open caps). O(sessions).
    std::size_t half_open() const;
    server_stats stats() const;

    /// Escape hatch to the underlying acceptor.
    const qtp::listener& acceptor() const { return listener_; }

private:
    qtp::environment& env_;
    server_options opts_;
    std::unique_ptr<trace::tracer> guard_tracer_; ///< listener guard trace (flow 0)
    qtp::listener listener_;
    std::function<void(session&)> on_session_;
    std::unordered_map<std::uint32_t, std::unique_ptr<session>> sessions_;
    /// Reneg-bucket denials carried over from reaped sessions, so the
    /// aggregate in stats() stays monotonic across reaps.
    std::uint64_t reneg_rate_limited_reaped_ = 0;
    /// Same carry-over for the path counters of reaped sessions.
    path::manager_stats path_reaped_{};
};

} // namespace vtp

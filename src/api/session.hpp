// vtp::session — the socket-style public API of the versatile transport.
//
// A session is one endpoint of one QTP connection, hosted on any
// substrate implementing qtp::environment (the discrete-event simulator's
// sim::host, the live UDP datapath's net::udp_host, or a server-engine
// shard — the code is identical on all of them). The API is
// non-blocking with a polled event queue and a real data plane:
//
//   vtp::session s = vtp::session::connect(host, peer_addr,
//                                          vtp::session_options::af(4e6));
//   std::uint64_t n = s.send(0, bytes);   // real payload; short return =
//                                         // backpressure, wait for writable
//   s.close();                            // FIN once everything is delivered
//
//   vtp::event evs[16];                   // receiver (or sender) side
//   for (std::size_t i = 0, k = s.poll(evs, 16); i < k; ++i)
//       if (evs[i].type == vtp::event_type::readable)
//           while (std::size_t got = s.recv(evs[i].stream_id, buf))
//               consume(buf, got);        // delivered bytes, stream order
//
// Events (core/events.hpp): established, stream_opened, readable,
// writable, profile_changed, fin, closed, path_changed. readable/writable
// are edge-triggered; every queue is bounded with counted overflow.
//
// One session multiplexes up to 256 application streams, each with its
// own reliability mode, scheduler weight and optional delivery deadline
// (stream/stream.hpp). Stream 0 is the session's legacy byte stream —
// send(bytes) is send(0, bytes) — so single-stream code never changes:
//
//   vtp::stream::stream_options media;
//   media.reliability = sack::reliability_mode::partial;
//   media.weight = 3;
//   media.message_size = 1000;
//   media.message_deadline = util::milliseconds(150);
//   const std::uint32_t sid = s.open_stream(media);
//   s.send(sid, frame_bytes);    // deadline-scheduled alongside stream 0
//   s.finish(sid);               // per-stream half-close
//
// The headline capability is *runtime renegotiation*: at any point either
// endpoint may call renegotiate() with a new profile; the peer answers
// through its capability policy and both sides atomically swap
// micro-mechanisms (estimator locus, reliability policy, gTFRC floor) at
// the acknowledged sequence boundary — no teardown, no handshake rerun,
// congestion state intact:
//
//   s.renegotiate(qtp::qtp_light_profile(sack::reliability_mode::partial));
//
// Receiver-role sessions are produced by vtp::server (api/server.hpp);
// they hand stream bytes out through poll()/recv() and may equally
// initiate renegotiation (the paper's mobile-receiver scenario).
//
// Lifetime: the underlying agent is owned by the substrate and lives as
// long as it does; a session is a cheap movable handle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "api/session_options.hpp"
#include "core/connection.hpp"
#include "core/environment.hpp"
#include "core/events.hpp"
#include "stream/stream.hpp"

namespace vtp {

/// Poll-based session events (see core/events.hpp for semantics).
using event = qtp::event;
using event_type = qtp::event_type;
using event_sink = qtp::event_sink;

/// One-call snapshot of everything an application usually polls.
struct session_stats {
    bool established = false;
    bool closed = false;
    qtp::profile profile{};
    std::uint32_t renegotiations = 0;
    /// Renegotiation proposals this endpoint initiated / got answered.
    std::uint64_t reneg_proposals_sent = 0;
    std::uint64_t reneg_proposals_accepted = 0;
    /// Incoming reneg proposals dropped by the per-connection processing
    /// budget (server_options::reneg_rate_bps / session reneg knobs).
    std::uint64_t reneg_rate_limited = 0;
    /// Streams multiplexed on the connection (sender: opened, including
    /// stream 0; receiver: seen so far).
    std::size_t streams = 0;

    // Sending side (zero on receiver-role sessions).
    std::uint64_t stream_bytes_queued = 0; ///< offered by the application
    std::uint64_t stream_bytes_sent = 0;   ///< first transmissions
    std::uint64_t stream_bytes_acked = 0;  ///< confirmed delivered
    std::uint64_t rtx_bytes_sent = 0;
    std::uint64_t packets_sent = 0;
    double allowed_rate_bps = 0.0;
    double loss_event_rate = 0.0;
    util::sim_time rtt = 0;
    /// Congestion control (sender role): the algorithm currently pacing
    /// the flow, how many mid-flow swaps renegotiation has applied, and
    /// the algorithm's own path-bandwidth estimate.
    cc::algorithm_id cc_algorithm = cc::algorithm_id::tfrc;
    std::uint32_t cc_swaps_applied = 0;
    double bandwidth_estimate_bps = 0.0;

    // Receiving side (zero on sender-role sessions).
    std::uint64_t bytes_received = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t feedback_sent = 0;

    // Event/backpressure observability (both roles).
    /// Events lost to a full event queue (poll ring or engine export).
    std::uint64_t events_dropped = 0;
    /// Receiver: payload bytes buffered for recv() / dropped because the
    /// recv buffer cap was hit.
    std::uint64_t recv_buffered_bytes = 0;
    std::uint64_t recv_dropped_bytes = 0;
    /// Sender: payload bytes retained for retransmission, and bytes a
    /// (re)transmission needed but the retention buffer no longer held
    /// (sent as zeroes — nonzero only when length-only and payload
    /// sends were mixed on one stream; see session::send).
    std::uint64_t tx_payload_buffered = 0;
    std::uint64_t tx_payload_miss_bytes = 0;

    /// Flight recorder (zero when tracing is disabled): events recorded,
    /// and events lost to ring overwrite (flight-recorder mode without a
    /// sink — a spill sink makes the ring lossless).
    std::uint64_t trace_events_recorded = 0;
    std::uint64_t trace_events_dropped = 0;

    /// Path migration / multipath (zero while path.enabled is off).
    /// `active_path_remote` is where this endpoint currently sends.
    std::uint32_t active_path_remote = 0;
    std::size_t path_count = 0; ///< tracked paths (any state)
    path::manager_stats path{};
};

/// Cross-thread snapshot of one hosted session, as served by the admin
/// plane's /sessions endpoint. Collected on the owning shard thread
/// (engine::server::snapshot_sessions), so every field is a consistent
/// point-in-time read.
struct session_snapshot {
    std::uint32_t flow = 0;
    std::size_t shard = 0;
    bool sender_role = false;
    bool half_open = false;
    session_stats stats{};
    /// Per-path detail (empty while path.enabled is off).
    std::vector<path::path_info> paths{};
};

class session {
public:
    session() = default;
    session(session&&) = default;
    session& operator=(session&&) = default;
    session(const session&) = delete;
    session& operator=(const session&) = delete;

    /// Open a connection from `env` to the peer at `peer_addr` (a node id
    /// on the simulator, a UDP port on the live datapath). The returned
    /// session is the sending endpoint; the handshake proposing
    /// `opts.profile` starts immediately.
    static session connect(qtp::environment& env, std::uint32_t peer_addr,
                           session_options opts = {});

    bool valid() const { return sender_ != nullptr || receiver_ != nullptr; }
    bool can_send() const { return sender_ != nullptr; }
    std::uint32_t flow_id() const { return flow_id_; }

    /// Queue `bytes` application bytes on stream 0. The transport paces
    /// them out at the TFRC-controlled rate. Returns how many bytes were
    /// accepted (bounded by session_options::max_buffered_bytes).
    std::uint64_t send(std::uint64_t bytes);

    /// Open an additional stream with its own service profile
    /// (reliability, weight, message framing / deadline). Returns the
    /// stream id, or stream::invalid_stream when out of ids (256).
    std::uint32_t open_stream(const stream::stream_options& opts);
    /// Queue `bytes` on stream `stream_id`; returns the accepted count.
    std::uint64_t send(std::uint32_t stream_id, std::uint64_t bytes);

    /// Queue real application bytes on stream `stream_id`: the accepted
    /// prefix is carried end-to-end and handed to the peer through
    /// recv(). Returns the accepted byte count — when it is short, wait
    /// for the `writable` event (or poll writable()) before retrying the
    /// rest. Avoid mixing with the length-only send(id, n) on the same
    /// stream: the synthetic bytes read back as zeroes at the receiver
    /// (session_stats::tx_payload_miss_bytes counts any fallout).
    std::uint64_t send(std::uint32_t stream_id, std::span<const std::uint8_t> data);
    /// Gather-list variant: queues the spans back-to-back, stopping at
    /// the first clamped one. Returns total bytes accepted.
    std::uint64_t sendv(std::uint32_t stream_id,
                        std::span<const std::span<const std::uint8_t>> bufs);
    /// send() would accept at least one byte right now.
    bool writable() const;

    /// Half-close one stream; the connection stays open for the rest.
    void finish(std::uint32_t stream_id);
    /// Sender-side per-stream accounting (one entry per opened stream).
    std::vector<stream::stream_info> stream_infos() const;

    // --- poll-based events & payload receive -----------------------------
    /// Drain up to `max` queued events. Returns how many were written to
    /// `out`.
    std::size_t poll(event* out, std::size_t max);
    /// Receiver role: read up to `out.size()` delivered payload bytes of
    /// `stream_id` in delivery order. `readable` is edge-triggered —
    /// drain until 0.
    std::size_t recv(std::uint32_t stream_id, std::span<std::uint8_t> out);
    /// Receiver role: pop one delivered chunk of any stream with its
    /// delivery metadata (offset, substrate timestamp). The
    /// trace-faithful consumption the conformance harness uses.
    bool recv_chunk(std::uint32_t& stream_id_out, stream::ready_chunk& out);
    /// Export events (readable ones carrying their payload) to `sink`
    /// instead of the poll queue — the engine's cross-thread binding.
    void set_event_sink(event_sink* sink);

    /// Half-close: no more send() calls will follow on any stream; the
    /// connection runs the FIN handshake once every queued byte has been
    /// delivered (under each stream's reliability policy).
    void close();

    /// Propose a new service profile mid-connection. The peer downgrades
    /// it through its capabilities; on acceptance both endpoints swap
    /// micro-mechanisms and a profile_changed event carries the profile
    /// actually agreed.
    void renegotiate(const qtp::profile& p);
    bool renegotiation_pending() const;

    /// Validated live migration (sender role; requires
    /// session_options::path.enabled on both endpoints): re-validate the
    /// current 4-tuple (`new_peer == 0`, the after-rebind case — call it
    /// after the substrate's local address changed) or prove and switch
    /// to a different peer address. Congestion state, stream scoreboards
    /// and sequence space all survive; a `path_changed` event fires once
    /// the new path is proven.
    void migrate(std::uint32_t new_peer = 0);
    /// Probe `remote` as an additional validated path; with
    /// session_options::path.multipath the dual-path scheduler starts
    /// steering data across it.
    void add_path(std::uint32_t remote);

    bool established() const;
    /// Sender role: FIN acknowledged. Receiver role: peer's FIN seen.
    bool closed() const;
    /// Receiver role: accepted, but the peer has not yet proven liveness
    /// with data — the state a SYN flood inflates. A half-open session
    /// either graduates (first data) or self-closes at the handshake
    /// deadline for reaping.
    bool half_open() const;
    const qtp::profile& active_profile() const;
    session_stats stats() const;
    /// stats() plus role/half-open identity, for admin-plane snapshots
    /// (the caller fills in `shard`).
    session_snapshot snapshot() const;

    /// Attach a flight-recorder tap at runtime: subsequent transport
    /// events spill to `sink` through a fresh `ring_records`-record ring
    /// (0 = default 4096). Replaces any tracer configured at session
    /// creation; `sink` must outlive the tap. Call on the owning thread.
    void trace_start(std::size_t ring_records, trace::sink* sink);
    /// Flush and drop the active tracer (the creation-time tracer is not
    /// restored — the tap is a one-way override).
    void trace_stop();

    /// Escape hatches to the composed endpoint (stats beyond
    /// session_stats; nullptr for the role the session does not have).
    qtp::connection_sender* sender() { return sender_; }
    const qtp::connection_sender* sender() const { return sender_; }
    qtp::connection_receiver* receiver() { return receiver_; }
    const qtp::connection_receiver* receiver() const { return receiver_; }

private:
    friend class server;
    session(qtp::connection_sender* s, std::uint32_t flow) : sender_(s), flow_id_(flow) {}
    session(qtp::connection_receiver* r, std::uint32_t flow)
        : receiver_(r), flow_id_(flow) {}

    qtp::connection_sender* sender_ = nullptr;     ///< owned by the substrate
    qtp::connection_receiver* receiver_ = nullptr; ///< owned by the substrate
    std::uint32_t flow_id_ = 0;
};

} // namespace vtp

#include "api/session.hpp"

#include <atomic>

namespace vtp {

namespace {

// Auto-assigned flow ids live in their own range so they never collide
// with hand-numbered flows (session_options::flow_id).
std::uint32_t next_auto_flow_id() {
    static std::atomic<std::uint32_t> counter{0x40000000};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

const qtp::profile& empty_profile() {
    static const qtp::profile p{};
    return p;
}

} // namespace

session session::connect(qtp::environment& env, std::uint32_t peer_addr,
                         session_options opts) {
    qtp::connection_config cfg = opts.to_connection_config();
    cfg.flow_id = opts.flow_id != 0 ? opts.flow_id : next_auto_flow_id();
    cfg.peer_addr = peer_addr;

    auto agent = std::make_unique<qtp::connection_sender>(cfg);
    qtp::connection_sender* raw = agent.get();
    env.attach_dynamic(cfg.flow_id, std::move(agent));
    return session(raw, cfg.flow_id);
}

std::uint64_t session::send(std::uint64_t bytes) { return send(0, bytes); }

std::uint64_t session::send(std::uint32_t stream_id, std::uint64_t bytes) {
    return sender_ != nullptr ? sender_->offer(stream_id, bytes) : 0;
}

std::uint64_t session::send(std::uint32_t stream_id,
                            std::span<const std::uint8_t> data) {
    return sender_ != nullptr
               ? sender_->offer_bytes(stream_id, data.data(), data.size())
               : 0;
}

std::uint64_t session::sendv(std::uint32_t stream_id,
                             std::span<const std::span<const std::uint8_t>> bufs) {
    if (sender_ == nullptr) return 0;
    std::uint64_t total = 0;
    for (const auto& buf : bufs) {
        const std::uint64_t accepted =
            sender_->offer_bytes(stream_id, buf.data(), buf.size());
        total += accepted;
        if (accepted < buf.size()) break; // clamped: wait for writable
    }
    return total;
}

bool session::writable() const {
    return sender_ != nullptr && sender_->writable();
}

std::size_t session::poll(event* out, std::size_t max) {
    if (sender_ != nullptr) return sender_->poll(out, max);
    if (receiver_ != nullptr) return receiver_->poll(out, max);
    return 0;
}

std::size_t session::recv(std::uint32_t stream_id, std::span<std::uint8_t> out) {
    return receiver_ != nullptr ? receiver_->recv(stream_id, out.data(), out.size())
                                : 0;
}

bool session::recv_chunk(std::uint32_t& stream_id_out, stream::ready_chunk& out) {
    return receiver_ != nullptr && receiver_->recv_chunk(stream_id_out, out);
}

void session::set_event_sink(event_sink* sink) {
    if (sender_ != nullptr) sender_->set_event_sink(sink);
    if (receiver_ != nullptr) receiver_->set_event_sink(sink);
}

std::uint32_t session::open_stream(const stream::stream_options& opts) {
    return sender_ != nullptr ? sender_->open_stream(opts) : stream::invalid_stream;
}

void session::finish(std::uint32_t stream_id) {
    if (sender_ != nullptr) sender_->finish_stream(stream_id);
}

std::vector<stream::stream_info> session::stream_infos() const {
    return sender_ != nullptr ? sender_->stream_infos()
                              : std::vector<stream::stream_info>{};
}

void session::close() {
    if (sender_ != nullptr) sender_->finish_stream();
}

void session::renegotiate(const qtp::profile& p) {
    if (sender_ != nullptr) sender_->request_renegotiate(p);
    if (receiver_ != nullptr) receiver_->request_renegotiate(p);
}

void session::migrate(std::uint32_t new_peer) {
    if (sender_ != nullptr) sender_->migrate(new_peer);
}

void session::add_path(std::uint32_t remote) {
    if (sender_ != nullptr) sender_->add_path(remote);
}

bool session::renegotiation_pending() const {
    if (sender_ != nullptr) return sender_->renegotiation_pending();
    if (receiver_ != nullptr) return receiver_->renegotiation_pending();
    return false;
}

bool session::established() const {
    if (sender_ != nullptr) return sender_->established();
    if (receiver_ != nullptr) return receiver_->established();
    return false;
}

bool session::closed() const {
    if (sender_ != nullptr) return sender_->closed();
    if (receiver_ != nullptr) return receiver_->remote_closed();
    return false;
}

const qtp::profile& session::active_profile() const {
    if (sender_ != nullptr) return sender_->active_profile();
    if (receiver_ != nullptr) return receiver_->active_profile();
    return empty_profile();
}

bool session::half_open() const {
    return receiver_ != nullptr && !closed() && receiver_->received_packets() == 0;
}

session_stats session::stats() const {
    session_stats s;
    s.established = established();
    s.closed = closed();
    s.profile = active_profile();
    // Receiver-role sessions report the negotiated id (the controller
    // itself runs at the sender); the sender branch refines this below.
    s.cc_algorithm = s.profile.congestion;
    if (sender_ != nullptr) {
        s.renegotiations = sender_->renegotiations();
        s.reneg_proposals_sent = sender_->reneg_proposals_sent();
        s.reneg_proposals_accepted = sender_->reneg_proposals_accepted();
        s.reneg_rate_limited = sender_->reneg_rate_limited();
        s.streams = sender_->mux().stream_count();
        s.stream_bytes_queued = sender_->stream_length();
        s.stream_bytes_sent = sender_->new_bytes_sent();
        s.stream_bytes_acked = sender_->reliability().delivered_bytes();
        s.rtx_bytes_sent = sender_->rtx_bytes_sent();
        s.packets_sent = sender_->packets_sent();
        const cc::send_algorithm& cc = sender_->cc();
        s.allowed_rate_bps = cc.pacing_rate() * 8.0;
        s.loss_event_rate =
            s.profile.estimation == tfrc::estimation_mode::sender_side
                ? sender_->estimator().loss_event_rate()
                : cc.loss_rate();
        s.rtt = cc.has_rtt() ? cc.smoothed_rtt() : 0;
        s.cc_algorithm = cc.id();
        s.cc_swaps_applied = sender_->cc_swaps();
        s.bandwidth_estimate_bps = cc.bandwidth_estimate_bps();
    }
    if (sender_ != nullptr) {
        s.events_dropped = sender_->events_dropped();
        std::uint64_t tx_buffered = 0;
        for (std::size_t i = 0; i < sender_->mux().stream_count(); ++i)
            if (const auto* st = sender_->mux().find(static_cast<std::uint32_t>(i)))
                tx_buffered += st->tx_payload_bytes();
        s.tx_payload_buffered = tx_buffered;
        s.tx_payload_miss_bytes = sender_->mux().payload_miss_bytes_total();
        s.trace_events_recorded = sender_->trace_recorded();
        s.trace_events_dropped = sender_->trace_dropped();
    }
    if (receiver_ != nullptr) {
        s.renegotiations = receiver_->renegotiations();
        s.reneg_proposals_sent = receiver_->reneg_proposals_sent();
        s.reneg_proposals_accepted = receiver_->reneg_proposals_accepted();
        s.reneg_rate_limited = receiver_->reneg_rate_limited();
        s.bytes_received = receiver_->received_bytes();
        s.packets_received = receiver_->received_packets();
        if (const auto* demux = receiver_->demux()) {
            s.streams = demux->stream_count();
            s.bytes_delivered = demux->delivered_bytes_total();
        }
        s.feedback_sent = receiver_->feedback_sent();
        s.events_dropped = receiver_->events_dropped();
        s.recv_buffered_bytes = receiver_->recv_buffered_bytes();
        s.recv_dropped_bytes = receiver_->recv_dropped_bytes();
        s.trace_events_recorded = receiver_->trace_recorded();
        s.trace_events_dropped = receiver_->trace_dropped();
    }
    if (const path::manager* pm = sender_ != nullptr    ? &sender_->paths()
                                  : receiver_ != nullptr ? &receiver_->paths()
                                                         : nullptr;
        pm != nullptr && pm->enabled()) {
        s.active_path_remote = pm->active_remote();
        s.path_count = pm->table().size();
        s.path = pm->stats();
    }
    return s;
}

session_snapshot session::snapshot() const {
    session_snapshot sn;
    sn.flow = flow_id_;
    sn.sender_role = sender_ != nullptr;
    sn.half_open = half_open();
    sn.stats = stats();
    if (const path::manager* pm = sender_ != nullptr    ? &sender_->paths()
                                  : receiver_ != nullptr ? &receiver_->paths()
                                                         : nullptr;
        pm != nullptr && pm->enabled())
        sn.paths = pm->paths();
    return sn;
}

void session::trace_start(std::size_t ring_records, trace::sink* sink) {
    if (sender_ != nullptr) sender_->attach_tracer(ring_records, sink);
    else if (receiver_ != nullptr) receiver_->attach_tracer(ring_records, sink);
}

void session::trace_stop() {
    if (sender_ != nullptr) sender_->detach_tracer();
    else if (receiver_ != nullptr) receiver_->detach_tracer();
}

} // namespace vtp

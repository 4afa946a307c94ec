// Pluggable congestion control: the send-algorithm interface.
//
// The paper's thesis is that a versatile transport negotiates its per-flow
// service composition at runtime — and the congestion controller is a
// composition axis like any other. `send_algorithm` abstracts the sender's
// rate decision behind a QUIC-style interface (`on_packet_sent`,
// `on_congestion_event`, `can_send`, `pacing_rate`, ...) so the profile
// layer can select TFRC, NewReno or Westwood at handshake and swap them
// mid-flow through the reneg exchange. `export_state`/`import_state`
// carry the incumbent's bandwidth/RTT estimate across a swap so the new
// algorithm starts from the measured operating point instead of
// slow-start.
//
// The gTFRC guaranteed-rate floor (QTPAF) lives here, in the base class:
// `pacing_rate()` never returns less than the negotiated floor, whatever
// algorithm runs underneath. TFRC additionally threads the floor into its
// RFC 3448 arithmetic (see tfrc_cc.hpp) so its wire behaviour is
// byte-identical to the pre-subsystem implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cc/algorithm_id.hpp"
#include "tfrc/rate_controller.hpp"
#include "util/time.hpp"

namespace vtp::cc {

/// One transmitted packet, as the ack tracker reports it back in
/// congestion events.
struct packet_sample {
    std::uint64_t seq = 0;
    std::uint32_t bytes = 0;
    util::sim_time sent_at = 0;
};

/// Everything one feedback report tells the congestion controller. The
/// connection computes the TFRC loss event rate upstream (sender- or
/// receiver-side, per the estimation profile feature) and the ack tracker
/// derives the newly acked / newly lost vectors; each algorithm consumes
/// the subset it understands.
struct congestion_event {
    util::sim_time now = 0;
    /// Fresh RTT sample from this feedback (0 = none).
    util::sim_time rtt_sample = 0;
    /// Receiver-reported receive rate, bytes/s.
    double x_recv_bytes = 0.0;
    /// TFRC loss event rate p for this report.
    double loss_event_rate = 0.0;
    /// Bytes outstanding immediately before this event was processed.
    std::uint64_t prior_bytes_in_flight = 0;
    std::vector<packet_sample> acked;
    std::vector<packet_sample> lost;
};

/// Portable congestion state, the swap currency: whatever the outgoing
/// algorithm measured, expressed in units every algorithm understands.
struct cc_state {
    double bandwidth_bytes_per_s = 0.0;
    double loss_event_rate = 0.0;
    util::sim_time smoothed_rtt = 0;
    util::sim_time min_rtt = 0;
    bool has_rtt = false;
};

struct algorithm_config {
    std::uint32_t packet_size = 1000;
    /// gTFRC floor in bits/s (0 disables; applied by the base class).
    double guaranteed_rate_bps = 0.0;
    /// TFRC tuning, threaded through for the tfrc implementation (other
    /// algorithms only read equation.packet_size_bytes via packet_size).
    tfrc::rate_controller_config tfrc_rate{};
};

class send_algorithm {
public:
    explicit send_algorithm(const algorithm_config& cfg)
        : packet_size_(cfg.packet_size), floor_bps_(cfg.guaranteed_rate_bps) {}
    virtual ~send_algorithm() = default;

    virtual algorithm_id id() const = 0;

    /// A data packet (or zero-byte tail probe) left the sender.
    virtual void on_packet_sent(std::uint64_t seq, std::uint32_t bytes,
                                std::uint64_t bytes_in_flight, util::sim_time now) = 0;

    /// One feedback report, pre-digested (see congestion_event).
    virtual void on_congestion_event(const congestion_event& ev) = 0;

    /// The nofeedback/RTO timer expired with `bytes_in_flight` outstanding.
    virtual void on_rto(std::uint64_t bytes_in_flight, util::sim_time now) = 0;

    /// Window gate: may another packet go out with this much in flight?
    /// Rate-based algorithms always say yes (the pacing timer is their
    /// only regulator); window-based ones compare against cwnd.
    virtual bool can_send(std::uint64_t bytes_in_flight) const = 0;

    /// Estimated path bandwidth in bits/s (session_stats surface).
    virtual double bandwidth_estimate_bps() const = 0;

    /// How long to wait for feedback before on_rto fires.
    virtual util::sim_time nofeedback_interval() const = 0;

    virtual bool has_rtt() const = 0;
    virtual util::sim_time smoothed_rtt() const = 0;
    virtual double loss_rate() const = 0;
    virtual bool in_slow_start() const = 0;

    /// Congestion window in bytes for window-based algorithms; 0 for
    /// purely rate-paced ones (TFRC). Observability surface: the flight
    /// recorder samples it into cc_window trace records.
    virtual std::uint64_t cwnd_bytes() const { return 0; }

    /// Swap support: snapshot the measured operating point / adopt the
    /// predecessor's so a mid-flow algorithm change does not restart from
    /// slow-start.
    virtual cc_state export_state() const = 0;
    virtual void import_state(const cc_state& st) = 0;

    /// Paced sending rate in bytes/s, never below the gTFRC floor. The
    /// floor clamp lives here so every algorithm honours a negotiated AF
    /// reservation without reimplementing it.
    double pacing_rate() const {
        return std::max(raw_pacing_rate(), floor_bps_ / 8.0);
    }

    /// Renegotiated gTFRC floor (bits/s, 0 disables). TFRC overrides to
    /// also thread the floor through its RFC 3448 back-off arithmetic.
    virtual void set_guaranteed_rate(double bps) { floor_bps_ = bps; }
    double guaranteed_rate() const { return floor_bps_; }

protected:
    /// The algorithm's own rate decision, before the floor clamp.
    virtual double raw_pacing_rate() const = 0;

    std::uint32_t packet_size_;
    double floor_bps_;
};

/// Instantiate the implementation for a negotiated algorithm id.
std::unique_ptr<send_algorithm> make_algorithm(algorithm_id id,
                                               const algorithm_config& cfg);

} // namespace vtp::cc

// TFRC rate controller.
//
// `rate_controller` implements RFC 3448 §4: slow-start doubling capped by
// twice the reported receive rate, equation-based rate once loss appears,
// and the nofeedback timer back-off. It also implements the paper's
// gTFRC specialisation (QTPAF): when a guaranteed rate g has been
// negotiated with a DiffServ/AF network, the sending rate never drops
// below g — the AF class protects in-profile packets, so observed loss
// on out-of-profile packets must not starve the reservation
// (draft-lochin-ietf-tsvwg-gtfrc).
//
// `estimation_mode` names where the loss event rate p is computed: by
// the receiver (classic TFRC, reported in SACK feedback with has_p) or
// by the sender from SACK vectors (QTPlight, tfrc::sender_estimator).
#pragma once

#include <cstdint>

#include "tfrc/equation.hpp"
#include "util/time.hpp"

namespace vtp::tfrc {

struct rate_controller_config {
    equation_params equation{};
    /// gTFRC guaranteed rate in bits/s (0 disables the floor).
    double guaranteed_rate_bps = 0.0;
    /// t_mbi: ceiling on the back-off inter-packet interval (RFC: 64 s).
    util::sim_time max_backoff_interval = util::seconds(64);
    /// Initial window in bytes (RFC 3390-style: min(4s, max(2s, 4380))).
    double initial_window_bytes = 4380.0;
    /// RTT EWMA weight on the old estimate (RFC 3448 q = 0.9).
    double rtt_filter_q = 0.9;
    /// RFC 3448 §4.5 oscillation damping: scale the instantaneous rate by
    /// sqrt(R_sample)/R_sqmean so a building queue (rising RTT) throttles
    /// the flow before loss does.
    bool oscillation_damping = true;
    double rtt_sqmean_filter_q = 0.9;
};

class rate_controller {
public:
    explicit rate_controller(rate_controller_config cfg);

    /// Process one feedback report: loss event rate `p`, receiver rate
    /// `x_recv` (bytes/s) and a fresh RTT sample.
    void on_feedback(double p, double x_recv_bytes, util::sim_time rtt_sample,
                     util::sim_time now);

    /// Nofeedback timer expired: halve the rate (floored at one packet
    /// per t_mbi, and at the gTFRC guarantee if configured).
    void on_nofeedback_timeout(util::sim_time now);

    /// Allowed sending rate in bytes/s, including the gTFRC floor.
    double allowed_rate() const;

    /// Adjust the gTFRC floor in place (profile renegotiation: an AF
    /// re-contract or a QoS downgrade must not reset congestion state).
    void set_guaranteed_rate(double bps) { cfg_.guaranteed_rate_bps = bps; }
    double guaranteed_rate() const { return cfg_.guaranteed_rate_bps; }

    /// Adopt another congestion controller's operating point (mid-flow cc
    /// swap): start at its measured rate/RTT/loss instead of one packet
    /// per second. Feedback-driven evolution proceeds normally from here.
    void seed(double x_bytes_per_s, util::sim_time rtt, double p) {
        if (x_bytes_per_s > 0.0) x_ = x_bytes_per_s;
        if (rtt > 0) {
            rtt_ = rtt;
            has_rtt_ = true;
        }
        if (p > 0.0) p_ = p;
    }

    /// Last receiver-reported receive rate (bytes/s).
    double x_recv() const { return last_x_recv_; }

    /// Equation-tracking rate without the gTFRC floor (ablation A1).
    double x_tfrc() const { return x_; }

    util::sim_time rtt() const { return rtt_; }
    bool has_rtt() const { return has_rtt_; }
    double current_loss_rate() const { return p_; }
    bool in_slow_start() const { return p_ <= 0.0; }

    /// Interval for the nofeedback timer: max(4R, 2s/X); 2 s before any
    /// feedback has arrived (RFC 3448 §4.2/4.4).
    util::sim_time nofeedback_interval() const;

    std::uint64_t feedback_count() const { return feedback_count_; }
    std::uint64_t timeout_count() const { return timeout_count_; }

private:
    rate_controller_config cfg_;
    double x_;            ///< current TFRC rate, bytes/s
    double p_ = 0.0;      ///< latest loss event rate
    double last_x_recv_ = 0.0;
    util::sim_time rtt_ = 0;
    bool has_rtt_ = false;
    double rtt_sqmean_ = 0.0;  ///< EWMA of sqrt(RTT sample), seconds^0.5
    double damping_ = 1.0;     ///< §4.5 instantaneous-rate factor
    std::uint64_t feedback_count_ = 0;
    std::uint64_t timeout_count_ = 0;
};

enum class estimation_mode {
    receiver_side, ///< classic TFRC: p computed by the receiver
    sender_side,   ///< QTPlight: p computed by the sender from SACK feedback
};

} // namespace vtp::tfrc

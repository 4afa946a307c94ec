#include "tfrc/rate_controller.hpp"

#include <algorithm>
#include <cmath>

namespace vtp::tfrc {

rate_controller::rate_controller(rate_controller_config cfg)
    : cfg_(cfg),
      // Before any feedback: one packet per second (RFC 3448 §4.2).
      x_(cfg.equation.packet_size_bytes) {}

void rate_controller::on_feedback(double p, double x_recv_bytes, util::sim_time rtt_sample,
                                  util::sim_time now) {
    (void)now;
    ++feedback_count_;
    const double s = cfg_.equation.packet_size_bytes;

    const bool first_feedback = !has_rtt_;
    if (first_feedback) {
        has_rtt_ = true;
        rtt_ = rtt_sample;
        // First feedback: initial window over one RTT (RFC 3390 sizing).
        const double w_init =
            std::min(4.0 * s, std::max(2.0 * s, cfg_.initial_window_bytes));
        x_ = std::max(w_init / util::to_seconds(std::max<util::sim_time>(rtt_, 1)), s);
    } else {
        const double q = cfg_.rtt_filter_q;
        rtt_ = static_cast<util::sim_time>(q * static_cast<double>(rtt_) +
                                           (1.0 - q) * static_cast<double>(rtt_sample));
    }

    // Oscillation damping (RFC 3448 §4.5): compare this RTT sample with
    // the long-run sqrt-mean; a sample above the mean means the queue is
    // building, so the instantaneous rate is scaled down.
    if (cfg_.oscillation_damping) {
        const double sqrt_sample =
            std::sqrt(util::to_seconds(std::max<util::sim_time>(rtt_sample, 1)));
        if (rtt_sqmean_ <= 0.0) {
            rtt_sqmean_ = sqrt_sample;
        } else {
            const double q2 = cfg_.rtt_sqmean_filter_q;
            rtt_sqmean_ = q2 * rtt_sqmean_ + (1.0 - q2) * sqrt_sample;
        }
        damping_ = std::clamp(rtt_sqmean_ / sqrt_sample, 0.5, 1.0);
    }

    p_ = p;
    last_x_recv_ = x_recv_bytes;
    const double rtt_s = util::to_seconds(std::max<util::sim_time>(rtt_, 1));
    const double t_mbi_s = util::to_seconds(cfg_.max_backoff_interval);

    if (p > 0.0) {
        const double x_calc = throughput_bytes_per_second(cfg_.equation, rtt_s, p);
        x_ = std::max(std::min(x_calc, 2.0 * x_recv_bytes), s / t_mbi_s);
    } else if (!first_feedback) {
        // Slow start: double per feedback, capped by twice the receive
        // rate. (The very first feedback only establishes the initial
        // window; doubling starts with the next one.)
        x_ = std::max(std::min(2.0 * x_, 2.0 * x_recv_bytes), s / rtt_s);
    }
}

void rate_controller::on_nofeedback_timeout(util::sim_time) {
    ++timeout_count_;
    const double s = cfg_.equation.packet_size_bytes;
    const double t_mbi_s = util::to_seconds(cfg_.max_backoff_interval);
    x_ = std::max(x_ / 2.0, s / t_mbi_s);
}

double rate_controller::allowed_rate() const {
    const double floor_bytes = cfg_.guaranteed_rate_bps / 8.0;
    return std::max(x_ * damping_, floor_bytes);
}

util::sim_time rate_controller::nofeedback_interval() const {
    if (!has_rtt_) return util::seconds(2);
    const double s = cfg_.equation.packet_size_bytes;
    const double two_packets_s = 2.0 * s / std::max(allowed_rate(), 1.0);
    return std::max<util::sim_time>(4 * rtt_, util::from_seconds(two_packets_s));
}

} // namespace vtp::tfrc

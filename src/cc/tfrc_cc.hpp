// TFRC re-homed behind the send-algorithm interface.
//
// A thin adapter over tfrc::rate_controller whose wire behaviour is
// byte-identical to the pre-subsystem connection_sender: every number the
// pacing loop reads (allowed rate, RTT, nofeedback interval) comes from
// the exact same RFC 3448 arithmetic it always did. Two details make the
// identity trivial to audit:
//
//  - The gTFRC floor is threaded INTO the rate controller's config (as
//    before), so raw_pacing_rate() == rate_.allowed_rate() already
//    includes it; the base class's floor clamp then maxes a value with
//    itself.
//  - can_send() is unconditionally true and on_packet_sent() is a no-op:
//    TFRC is purely rate-paced, so the window plumbing the interface adds
//    for NewReno/Westwood must not perturb it.
#pragma once

#include "cc/send_algorithm.hpp"
#include "tfrc/rate_controller.hpp"

namespace vtp::cc {

class tfrc_sender final : public send_algorithm {
public:
    explicit tfrc_sender(const algorithm_config& cfg)
        : send_algorithm(cfg), rate_(make_rate_config(cfg)) {}

    algorithm_id id() const override { return algorithm_id::tfrc; }

    void on_packet_sent(std::uint64_t, std::uint32_t, std::uint64_t,
                        util::sim_time) override {}

    void on_congestion_event(const congestion_event& ev) override {
        if (ev.rtt_sample <= 0) return;
        rate_.on_feedback(ev.loss_event_rate, ev.x_recv_bytes, ev.rtt_sample, ev.now);
    }

    void on_rto(std::uint64_t, util::sim_time now) override {
        rate_.on_nofeedback_timeout(now);
    }

    bool can_send(std::uint64_t) const override { return true; }
    double bandwidth_estimate_bps() const override { return rate_.allowed_rate() * 8.0; }
    util::sim_time nofeedback_interval() const override {
        return rate_.nofeedback_interval();
    }
    bool has_rtt() const override { return rate_.has_rtt(); }
    util::sim_time smoothed_rtt() const override { return rate_.rtt(); }
    double loss_rate() const override { return rate_.current_loss_rate(); }
    bool in_slow_start() const override { return rate_.in_slow_start(); }

    cc_state export_state() const override {
        cc_state st;
        st.bandwidth_bytes_per_s = rate_.allowed_rate();
        st.loss_event_rate = rate_.current_loss_rate();
        st.smoothed_rtt = rate_.rtt();
        st.min_rtt = rate_.rtt(); // TFRC keeps no separate min-RTT
        st.has_rtt = rate_.has_rtt();
        return st;
    }

    void import_state(const cc_state& st) override {
        if (!st.has_rtt) return; // predecessor learned nothing; start cold
        rate_.seed(st.bandwidth_bytes_per_s, st.smoothed_rtt, st.loss_event_rate);
    }

    void set_guaranteed_rate(double bps) override {
        send_algorithm::set_guaranteed_rate(bps);
        rate_.set_guaranteed_rate(bps);
    }

    /// Diagnostics / tests: the underlying RFC 3448 controller.
    const tfrc::rate_controller& rate() const { return rate_; }

protected:
    double raw_pacing_rate() const override { return rate_.allowed_rate(); }

private:
    static tfrc::rate_controller_config make_rate_config(const algorithm_config& cfg) {
        tfrc::rate_controller_config rc = cfg.tfrc_rate;
        rc.equation.packet_size_bytes = cfg.packet_size;
        rc.guaranteed_rate_bps = cfg.guaranteed_rate_bps;
        return rc;
    }

    tfrc::rate_controller rate_;
};

} // namespace vtp::cc

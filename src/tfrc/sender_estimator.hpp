// QTPlight sender-side loss estimation.
//
// The estimator rebuilds the receiver's packet-arrival view from SACK
// feedback and feeds it into the *same* loss_history class the classic
// receiver uses, so the loss event rate it produces matches what an
// RFC 3448 receiver would have reported (experiment E5 verifies this).
//
// Operation: the sender records each transmission's (seq, send time).
// Every SACK feedback marks ranges as received. Once the highest
// reported sequence is `finalize_horizon` packets past a sequence, its
// fate is final: received sequences are replayed into the loss history
// in order (estimated arrival = send time + RTT/2), missing ones appear
// as holes and become loss events.
//
// Because every feedback re-reports the recent ranges, lost feedback
// packets only delay finalisation — they cannot corrupt the estimate.
// And because the sender trusts only its own bookkeeping, a receiver
// cannot lie its way to a higher rate (experiment E6).
#pragma once

#include <cstdint>
#include <deque>

#include "packet/segment.hpp"
#include "tfrc/loss_history.hpp"

namespace vtp::tfrc {

struct sender_estimator_config {
    loss_history_config history{};
    /// A sequence is finalised once highest_reported - seq >= this.
    std::uint64_t finalize_horizon = 16;
    /// Cap on remembered (seq, send-time) entries.
    std::size_t max_send_records = 1 << 16;
};

class sender_estimator {
public:
    explicit sender_estimator(sender_estimator_config cfg = {});

    /// Record a data transmission (sequence numbers must be consecutive).
    void on_send(std::uint64_t seq, sim_time at);

    /// Ingest one SACK feedback. `rtt` is the current RTT estimate.
    /// Returns true if this feedback confirmed a new loss event.
    bool on_feedback(const packet::sack_feedback_segment& fb, sim_time now, sim_time rtt);

    double loss_event_rate() const { return history_.loss_event_rate(); }
    const loss_history& history() const { return history_; }
    loss_history& history() { return history_; }

    std::uint64_t finalized_up_to() const { return base_; }
    std::size_t state_bytes() const;

private:
    sim_time send_time(std::uint64_t seq) const;
    bool finalize_up_to(std::uint64_t limit, sim_time rtt);

    sender_estimator_config cfg_;
    loss_history history_;

    // Reception flags for sequences in [base_, base_ + received_.size()).
    std::deque<bool> received_;
    std::uint64_t base_ = 0;
    std::uint64_t highest_reported_ = 0;
    bool any_feedback_ = false;

    // Send times for sequences in [send_base_, send_base_ + send_times_.size()).
    // Trimmed to start at base_ once feedback flows; before that (and
    // while estimation sits idle on the receiver) only the cap bounds it.
    std::deque<sim_time> send_times_;
    std::uint64_t send_base_ = 0;
};

} // namespace vtp::tfrc

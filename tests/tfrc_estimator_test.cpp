// QTPlight sender-side estimator: equivalence with the receiver-side
// loss history (the paper's "few changes to TFRC" claim) and robustness
// to feedback loss.
#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "tfrc/loss_history.hpp"
#include "tfrc/sender_estimator.hpp"
#include "util/rng.hpp"

namespace {

using namespace vtp::tfrc;
using vtp::packet::sack_block;
using vtp::packet::sack_feedback_segment;
using vtp::util::milliseconds;

constexpr sim_time rtt = milliseconds(100);
constexpr sim_time spacing = milliseconds(5); // inter-packet send gap

// Minimal replica of the light receiver's range tracking (in-order feed).
struct light_tracker {
    std::deque<sack_block> ranges;

    void record(std::uint64_t seq) {
        if (!ranges.empty() && ranges.back().end == seq) {
            ranges.back().end = seq + 1;
            return;
        }
        ranges.push_back({seq, seq + 1});
        while (ranges.size() > 64) ranges.pop_front();
    }

    sack_feedback_segment feedback() const {
        sack_feedback_segment fb;
        const std::size_t first = ranges.size() > 16 ? ranges.size() - 16 : 0;
        for (std::size_t i = first; i < ranges.size(); ++i) fb.blocks.push_back(ranges[i]);
        fb.cum_ack = ranges.empty() ? 0 : ranges.front().begin;
        return fb;
    }
};

struct twin_run {
    loss_history receiver_view;
    sender_estimator estimator;
    std::uint64_t receiver_events = 0;
    std::uint64_t estimator_events = 0;

    twin_run()
        : receiver_view(loss_history_config{}),
          estimator([] {
              sender_estimator_config cfg;
              cfg.finalize_horizon = 16;
              return cfg;
          }()) {}
};

// Drive both estimators with the same loss pattern; `feedback_kept`
// selects which feedback packets survive (for robustness tests).
twin_run run_twins(const std::set<std::uint64_t>& lost, std::uint64_t total,
                   int feedback_every, double feedback_loss, std::uint64_t seed) {
    twin_run tw;
    light_tracker tracker;
    vtp::util::rng fb_rng(seed);

    for (std::uint64_t seq = 0; seq < total; ++seq) {
        const sim_time send_at = static_cast<sim_time>(seq) * spacing;
        tw.estimator.on_send(seq, send_at);
        if (lost.count(seq) != 0) continue;

        const sim_time arrival = send_at + rtt / 2;
        if (tw.receiver_view.on_packet(seq, arrival, rtt)) ++tw.receiver_events;
        tracker.record(seq);

        if (seq % static_cast<std::uint64_t>(feedback_every) == 0 && seq > 0) {
            if (!fb_rng.bernoulli(feedback_loss)) {
                auto fb = tracker.feedback();
                if (tw.estimator.on_feedback(fb, arrival + rtt / 2, rtt))
                    ++tw.estimator_events;
            }
        }
    }
    // Final flush so the estimator finalises the tail.
    auto fb = tracker.feedback();
    if (tw.estimator.on_feedback(fb, static_cast<sim_time>(total) * spacing + rtt, rtt))
        ++tw.estimator_events;
    return tw;
}

std::set<std::uint64_t> random_losses(double p, std::uint64_t total, std::uint64_t seed,
                                      std::uint64_t clean_tail = 200) {
    vtp::util::rng rng(seed);
    std::set<std::uint64_t> lost;
    for (std::uint64_t s = 1; s + clean_tail < total; ++s)
        if (rng.bernoulli(p)) lost.insert(s);
    return lost;
}

TEST(estimator_test, no_loss_gives_zero_rate) {
    const auto tw = run_twins({}, 2000, 7, 0.0, 1);
    EXPECT_EQ(tw.estimator.loss_event_rate(), 0.0);
    EXPECT_EQ(tw.receiver_view.loss_event_rate(), 0.0);
}

TEST(estimator_test, detects_single_loss_like_receiver) {
    const auto tw = run_twins({500}, 1200, 7, 0.0, 2);
    EXPECT_EQ(tw.receiver_view.loss_events(), 1u);
    EXPECT_EQ(tw.estimator.history().loss_events(), 1u);
}

class equivalence_test : public ::testing::TestWithParam<double> {};

TEST_P(equivalence_test, loss_event_structure_matches_receiver_side) {
    const double loss_rate = GetParam();
    const auto lost = random_losses(loss_rate, 6000, 42 + static_cast<int>(loss_rate * 1e4));
    const auto tw = run_twins(lost, 6000, 7, 0.0, 3);

    ASSERT_GT(tw.receiver_view.loss_events(), 0u);
    EXPECT_EQ(tw.estimator.history().loss_events(), tw.receiver_view.loss_events());
    EXPECT_EQ(tw.estimator.history().lost_packets(), tw.receiver_view.lost_packets());
    EXPECT_EQ(tw.estimator.history().intervals(), tw.receiver_view.intervals());

    const double p_recv = tw.receiver_view.loss_event_rate();
    const double p_send = tw.estimator.loss_event_rate();
    // Identical closed intervals; the open interval differs by at most
    // the finalisation horizon, so the rates are within a few percent.
    EXPECT_NEAR(p_send, p_recv, 0.05 * p_recv + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(loss_rates, equivalence_test,
                         ::testing::Values(0.002, 0.01, 0.03, 0.08));

class feedback_loss_test : public ::testing::TestWithParam<double> {};

TEST_P(feedback_loss_test, estimate_survives_lost_feedback) {
    const double fb_loss = GetParam();
    const auto lost = random_losses(0.02, 6000, 99);
    const auto clean = run_twins(lost, 6000, 7, 0.0, 4);
    const auto lossy = run_twins(lost, 6000, 7, fb_loss, 5);

    // Overlapping SACK windows mean lost feedback only delays
    // finalisation; the event structure must be identical.
    EXPECT_EQ(lossy.estimator.history().loss_events(),
              clean.estimator.history().loss_events());
    EXPECT_EQ(lossy.estimator.history().intervals(),
              clean.estimator.history().intervals());
}

INSTANTIATE_TEST_SUITE_P(feedback_loss_rates, feedback_loss_test,
                         ::testing::Values(0.1, 0.3, 0.5));

TEST(estimator_test, burst_loss_grouped_into_one_event) {
    // Five consecutive losses are one loss event (within one RTT).
    const auto tw = run_twins({300, 301, 302, 303, 304}, 1000, 7, 0.0, 6);
    EXPECT_EQ(tw.estimator.history().loss_events(), 1u);
    EXPECT_EQ(tw.estimator.history().lost_packets(), 5u);
}

TEST(estimator_test, spaced_losses_separate_events) {
    // Two losses far apart in time (> RTT worth of spacing).
    const auto tw = run_twins({300, 600}, 1200, 7, 0.0, 7);
    EXPECT_EQ(tw.estimator.history().loss_events(), 2u);
}

TEST(estimator_test, finalization_respects_horizon) {
    sender_estimator_config cfg;
    cfg.finalize_horizon = 16;
    sender_estimator est(cfg);
    for (std::uint64_t s = 0; s < 100; ++s)
        est.on_send(s, static_cast<sim_time>(s) * spacing);

    sack_feedback_segment fb;
    fb.blocks = {{0, 100}};
    est.on_feedback(fb, milliseconds(1000), rtt);
    // highest reported = 99, horizon 16 -> everything up to 83 final,
    // so the next sequence to finalise is 84.
    EXPECT_EQ(est.finalized_up_to(), 84u);
}

TEST(estimator_test, seed_first_interval_flows_through) {
    sender_estimator est;
    for (std::uint64_t s = 0; s < 200; ++s)
        est.on_send(s, static_cast<sim_time>(s) * spacing);
    sack_feedback_segment fb;
    fb.blocks = {{0, 50}, {51, 200}}; // 50 lost
    est.on_feedback(fb, milliseconds(2000), rtt);
    ASSERT_EQ(est.history().loss_events(), 1u);
    ASSERT_TRUE(est.history().intervals().empty());
    est.history().seed_first_interval(0.02);
    EXPECT_EQ(est.history().intervals().front(), 50u);
}

// ---------------------------------------------------------------------------
// Send-time trimming: differential test against the untrimmed estimator
// ---------------------------------------------------------------------------

// The estimator as it was before it trimmed send times below the
// finalisation point, kept as the reference model: records leave only
// through the cap. Trimming must not change a single result.
class untrimmed_estimator {
public:
    explicit untrimmed_estimator(sender_estimator_config cfg)
        : cfg_(cfg), history_(cfg.history) {}

    void on_send(std::uint64_t seq, sim_time at) {
        if (send_times_.empty()) send_base_ = seq;
        send_times_.push_back(at);
        while (send_times_.size() > cfg_.max_send_records) {
            send_times_.pop_front();
            ++send_base_;
        }
    }

    bool on_feedback(const sack_feedback_segment& fb, sim_time rtt_now) {
        if (!any_feedback_) {
            any_feedback_ = true;
            base_ = fb.blocks.empty() ? fb.cum_ack : fb.blocks.front().begin;
        }
        if (base_ < send_base_) {
            const std::uint64_t jump = send_base_ - base_;
            if (jump >= received_.size())
                received_.clear();
            else
                received_.erase(received_.begin(),
                                received_.begin() + static_cast<std::ptrdiff_t>(jump));
            base_ = send_base_;
        }
        for (const auto& block : fb.blocks) {
            for (std::uint64_t seq = std::max(block.begin, base_); seq < block.end; ++seq) {
                const std::uint64_t idx = seq - base_;
                if (idx >= received_.size()) received_.resize(idx + 1, false);
                received_[idx] = true;
            }
            highest_reported_ =
                std::max(highest_reported_, block.end == 0 ? 0 : block.end - 1);
        }
        if (highest_reported_ < cfg_.finalize_horizon) return false;
        bool new_event = false;
        const std::uint64_t limit = highest_reported_ - cfg_.finalize_horizon;
        while (base_ <= limit) {
            const bool got = !received_.empty() && received_.front();
            if (!received_.empty()) received_.pop_front();
            if (got && history_.on_packet(base_, send_time(base_) + rtt_now / 2, rtt_now))
                new_event = true;
            ++base_;
        }
        return new_event;
    }

    const loss_history& history() const { return history_; }
    std::uint64_t finalized_up_to() const { return base_; }
    std::size_t send_records() const { return send_times_.size(); }

private:
    sim_time send_time(std::uint64_t seq) const {
        if (seq < send_base_ || seq - send_base_ >= send_times_.size()) return 0;
        return send_times_[seq - send_base_];
    }

    sender_estimator_config cfg_;
    loss_history history_;
    std::deque<bool> received_;
    std::uint64_t base_ = 0;
    std::uint64_t highest_reported_ = 0;
    bool any_feedback_ = false;
    std::deque<sim_time> send_times_;
    std::uint64_t send_base_ = 0;
};

// One connection's sends fed to both estimators. Feedback (in sender-side
// phases only) goes to both, and every result must agree after each one.
struct trim_differential {
    sender_estimator trimmed;
    untrimmed_estimator reference;
    light_tracker tracker;
    vtp::util::rng rng;
    std::uint64_t next_seq = 0;
    std::size_t feedbacks = 0;

    explicit trim_differential(std::uint64_t seed)
        : trimmed(sender_estimator_config{}), reference(sender_estimator_config{}),
          rng(seed) {}

    // Send `n` packets with loss probability `p`; when `sender_side`, the
    // receiver's ranges come back every 4th arrival (a tenth of them lost).
    void run(std::uint64_t n, double p, bool sender_side) {
        for (const std::uint64_t end = next_seq + n; next_seq < end; ++next_seq) {
            const sim_time at = static_cast<sim_time>(next_seq) * spacing;
            trimmed.on_send(next_seq, at);
            reference.on_send(next_seq, at);
            if (rng.bernoulli(p)) continue;
            tracker.record(next_seq);
            if (!sender_side || next_seq % 4 != 0 || rng.bernoulli(0.1)) continue;
            const sack_feedback_segment fb = tracker.feedback();
            const bool a = trimmed.on_feedback(fb, at + rtt, rtt);
            const bool b = reference.on_feedback(fb, rtt);
            ++feedbacks;
            ASSERT_EQ(a, b) << "feedback " << feedbacks;
            ASSERT_EQ(trimmed.finalized_up_to(), reference.finalized_up_to())
                << "feedback " << feedbacks;
            ASSERT_EQ(trimmed.history().intervals(), reference.history().intervals())
                << "feedback " << feedbacks;
            ASSERT_EQ(trimmed.loss_event_rate(), reference.history().loss_event_rate())
                << "feedback " << feedbacks;
        }
    }
};

TEST(estimator_trim_test, matches_untrimmed_across_idle_stretch_past_cap) {
    // Sender-side estimation with losses, then a stretch where estimation
    // sits on the receiver (sends only) longer than the 65,536-record cap,
    // then sender-side estimation again: the cap-eviction jump must fire
    // exactly as it did without trimming.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        trim_differential d(seed);
        d.run(20'000, 0.02, true);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        EXPECT_GT(d.trimmed.history().loss_events(), 0u);
        d.run(70'000, 0.02, false);
        const std::uint64_t parked_at = d.trimmed.finalized_up_to();
        d.run(20'000, 0.02, true);
        ASSERT_FALSE(testing::Test::HasFatalFailure());
        EXPECT_GT(d.trimmed.finalized_up_to(), parked_at + 70'000); // jumped
        EXPECT_GT(d.feedbacks, 5'000u);
    }
}

TEST(estimator_trim_test, matches_untrimmed_when_first_feedback_follows_idle_stretch) {
    // Estimation starts on the receiver and moves to the sender only after
    // the cap has evicted records: the first feedback anchors below the
    // oldest record held.
    trim_differential d(7);
    d.run(70'000, 0.01, false);
    d.run(20'000, 0.05, true);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    EXPECT_GT(d.trimmed.history().loss_events(), 0u);
}

TEST(estimator_trim_test, holds_only_unfinalised_send_times) {
    trim_differential d(11);
    d.run(50'000, 0.02, true);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    // The reference holds every record up to its cap; the trimmed one
    // only the horizon plus the feedback cadence.
    EXPECT_EQ(d.reference.send_records(), 50'000u);
    EXPECT_LT(d.trimmed.state_bytes(), 4096u + d.trimmed.history().state_bytes());
}

TEST(estimator_test, state_bytes_bounded_by_send_record_cap) {
    sender_estimator_config cfg;
    cfg.max_send_records = 128;
    sender_estimator est(cfg);
    for (std::uint64_t s = 0; s < 100000; ++s) est.on_send(s, s);
    // The send-time ring must not grow beyond its cap.
    EXPECT_LT(est.state_bytes(), 128 * sizeof(sim_time) + 4096);
}

} // namespace

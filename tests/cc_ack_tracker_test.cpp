// cc::ack_tracker against a naive model.
//
// The model keeps every packet ever sent in an ordered map and restates
// the tracker's contract directly: a report acknowledges the
// outstanding packets it covers (cumulative ack first, then each block
// in order, clamped to the window the tracker still holds), presumes
// lost every outstanding packet `reorder threshold` or more below the
// highest acknowledged one, and an RTO presumes the whole flight lost.
// Seeded random sequences of sends, reports and RTOs compare the acked
// and lost samples (in order) and every counter after each operation.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cc/ack_tracker.hpp"
#include "util/rng.hpp"

namespace {

using vtp::cc::ack_tracker;
using vtp::cc::packet_sample;
using vtp::packet::sack_block;
using vtp::packet::sack_feedback_segment;
using vtp::util::rng;

class naive_tracker {
public:
    enum class state { outstanding, acked, lost };
    struct entry {
        std::uint32_t bytes = 0;
        vtp::util::sim_time sent_at = 0;
        state st = state::outstanding;
    };

    void set_threshold(std::uint64_t t) { threshold_ = t < 1 ? 1 : t; }

    void sent(std::uint64_t seq, std::uint32_t bytes, vtp::util::sim_time now) {
        if (seq < next_) return;
        for (; next_ < seq; ++next_) pkts_[next_] = entry{0, now, state::acked};
        pkts_[seq] = entry{bytes, now, state::outstanding};
        next_ = seq + 1;
        flight_ += bytes;
    }

    void feedback(const sack_feedback_segment& fb, std::vector<packet_sample>& acked,
                  std::vector<packet_sample>& lost, std::uint64_t& prior) {
        prior = flight_;
        if (fb.cum_ack > 0) ack(0, fb.cum_ack, acked);
        for (const auto& b : fb.blocks) ack(b.begin, b.end, acked);
        if (any_acked_ && highest_acked_ >= threshold_) {
            const std::uint64_t below = highest_acked_ - threshold_ + 1;
            for (auto& [seq, e] : pkts_) {
                if (seq < base_ || seq >= below) continue;
                if (e.st != state::outstanding) continue;
                e.st = state::lost;
                flight_ -= e.bytes;
                lost.push_back(packet_sample{seq, e.bytes, e.sent_at});
            }
        }
        // The window starts at the lowest outstanding packet.
        while (base_ < next_ && pkts_[base_].st != state::outstanding) ++base_;
    }

    /// Returns how many packets the timeout presumed lost.
    std::size_t rto() {
        std::size_t lost = 0;
        for (auto& [seq, e] : pkts_) {
            if (seq < base_ || e.st != state::outstanding) continue;
            e.st = state::lost;
            ++lost;
        }
        flight_ = 0;
        base_ = next_;
        return lost;
    }

    std::uint64_t flight() const { return flight_; }
    std::uint64_t outstanding() const {
        std::uint64_t n = 0;
        for (const auto& [seq, e] : pkts_) n += seq >= base_ && e.st == state::outstanding;
        return n;
    }
    std::uint64_t highest_sent() const { return next_ == 0 ? 0 : next_ - 1; }
    std::uint64_t highest_acked() const { return highest_acked_; }
    bool any_acked() const { return any_acked_; }

private:
    void ack(std::uint64_t begin, std::uint64_t end, std::vector<packet_sample>& acked) {
        begin = std::max(begin, base_);
        end = std::min(end, next_);
        for (std::uint64_t seq = begin; seq < end; ++seq) {
            entry& e = pkts_[seq];
            if (e.st != state::outstanding) continue;
            e.st = state::acked;
            flight_ -= e.bytes;
            acked.push_back(packet_sample{seq, e.bytes, e.sent_at});
        }
        if (end > begin) {
            any_acked_ = true;
            highest_acked_ = std::max(highest_acked_, end - 1);
        }
    }

    std::map<std::uint64_t, entry> pkts_;
    std::uint64_t next_ = 0;
    std::uint64_t base_ = 0;
    std::uint64_t flight_ = 0;
    std::uint64_t highest_acked_ = 0;
    bool any_acked_ = false;
    std::uint64_t threshold_ = ack_tracker::reorder_threshold;
};

/// The tracker's report digest, as the sender consumes it.
struct digest {
    std::vector<packet_sample> acked;
    std::vector<packet_sample> lost;
    std::uint64_t prior = 0;
};

digest digest_feedback(ack_tracker& t, const sack_feedback_segment& fb) {
    // One event reused across reports, as connection_sender keeps it:
    // stale samples from the previous report must not leak through.
    static vtp::cc::congestion_event ev;
    t.on_feedback(fb, ev);
    return digest{ev.acked, ev.lost, ev.prior_bytes_in_flight};
}

void expect_same(const std::vector<packet_sample>& got, const std::vector<packet_sample>& want,
                 const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].seq, want[i].seq) << what << " " << i;
        ASSERT_EQ(got[i].bytes, want[i].bytes) << what << " " << i;
        ASSERT_EQ(got[i].sent_at, want[i].sent_at) << what << " " << i;
    }
}

/// Returns the number of samples declared lost (by reports and RTOs).
std::size_t run_seed(std::uint64_t seed) {
    rng r(seed);
    ack_tracker t;
    naive_tracker model;
    const std::uint64_t thresholds[] = {1, 3, 8, ack_tracker::reorder_threshold};
    const std::uint64_t threshold = thresholds[r.uniform_int(0, 3)];
    t.set_reorder_threshold(threshold);
    model.set_threshold(threshold);

    std::uint64_t next_seq = 0;
    // A tracker attached mid-connection sees its first send above 0.
    if (r.bernoulli(0.2)) next_seq = static_cast<std::uint64_t>(r.uniform_int(1, 5));
    std::size_t lost = 0;
    const int ops = 250;
    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
        const double roll = r.uniform();
        if (roll < 0.6) {
            const auto bytes = static_cast<std::uint32_t>(r.uniform_int(0, 1200));
            std::uint64_t seq = next_seq;
            if (r.bernoulli(0.03)) seq += static_cast<std::uint64_t>(r.uniform_int(1, 4)); // gap
            if (r.bernoulli(0.03) && seq > 0) seq -= 1; // replayed send: ignored
            t.on_packet_sent(seq, bytes, op);
            model.sent(seq, bytes, op);
            next_seq = std::max(next_seq, seq + 1);
        } else if (roll < 0.97) {
            sack_feedback_segment fb;
            const auto span = static_cast<std::int64_t>(next_seq) + 6;
            if (r.bernoulli(0.3))
                fb.cum_ack = static_cast<std::uint64_t>(
                    r.uniform_int(std::max<std::int64_t>(0, span - 40), span));
            const int blocks = static_cast<int>(r.uniform_int(0, 5));
            for (int b = 0; b < blocks; ++b) {
                sack_block blk;
                const double kind = r.uniform();
                if (kind < 0.05) {
                    blk.begin = next_seq + static_cast<std::uint64_t>(r.uniform_int(0, 30));
                    blk.end = blk.begin + static_cast<std::uint64_t>(r.uniform_int(0, 30));
                } else if (kind < 0.1) {
                    blk.end = static_cast<std::uint64_t>(r.uniform_int(0, span));
                    blk.begin = blk.end + static_cast<std::uint64_t>(r.uniform_int(0, 4));
                } else {
                    const std::int64_t lo = std::max<std::int64_t>(0, span - 50);
                    blk.begin = static_cast<std::uint64_t>(r.uniform_int(lo, span));
                    blk.end = blk.begin + static_cast<std::uint64_t>(r.uniform_int(1, 10));
                }
                fb.blocks.push_back(blk);
                if (r.bernoulli(0.1)) fb.blocks.push_back(blk);
            }
            const digest got = digest_feedback(t, fb);
            digest want;
            model.feedback(fb, want.acked, want.lost, want.prior);
            EXPECT_EQ(got.prior, want.prior);
            expect_same(got.acked, want.acked, "acked");
            expect_same(got.lost, want.lost, "lost");
            lost += want.lost.size();
        } else {
            t.on_rto();
            lost += model.rto();
        }
        if (::testing::Test::HasFatalFailure()) return lost;
        EXPECT_EQ(t.bytes_in_flight(), model.flight());
        EXPECT_EQ(t.packets_outstanding(), model.outstanding());
        EXPECT_EQ(t.highest_sent(), model.highest_sent());
        EXPECT_EQ(t.highest_acked(), model.highest_acked());
        EXPECT_EQ(t.any_acked(), model.any_acked());
        if (::testing::Test::HasFailure()) return lost;
    }
    return lost;
}

TEST(ack_tracker_test, random_sequences_match_naive_model) {
    std::size_t lost = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        lost += run_seed(seed);
        if (HasFailure()) return;
    }
    EXPECT_GT(lost, 10'000u); // the sequences do exercise loss declaration
}

TEST(ack_tracker_test, reorder_window_declares_loss_in_sequence_order) {
    ack_tracker t;
    for (std::uint64_t s = 0; s < 8; ++s) t.on_packet_sent(s, 100, static_cast<vtp::util::sim_time>(s));
    sack_feedback_segment fb;
    fb.blocks = {sack_block{6, 8}, sack_block{0, 1}};
    const digest d = digest_feedback(t, fb);
    ASSERT_EQ(d.acked.size(), 3u);
    EXPECT_EQ(d.acked[0].seq, 6u);
    EXPECT_EQ(d.acked[2].seq, 0u);
    // Highest acked 7, threshold 3: 1..4 are lost, 5 is still in the window.
    ASSERT_EQ(d.lost.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(d.lost[i].seq, i + 1);
    EXPECT_EQ(d.prior, 800u);
    EXPECT_EQ(t.bytes_in_flight(), 100u);
    EXPECT_EQ(t.packets_outstanding(), 1u);
}

} // namespace

// Reference-model differential tests for the SACK data structures.
//
// Seeded random operation sequences run against the shipped
// sack::scoreboard and sack::reassembly, and after every operation their
// whole observable state is compared with a model:
//  - the scoreboard with the original std::map implementation, kept here
//    verbatim (seq -> record map, merged std::map byte ranges) as the
//    oracle;
//  - the reassembly, in both delivery orders, with a per-byte state
//    array.
// A failure names the seed and the operation, so it reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sack/reassembly.hpp"
#include "sack/scoreboard.hpp"
#include "util/rng.hpp"

namespace {

using vtp::packet::sack_block;
using vtp::packet::sack_feedback_segment;
using vtp::sack::delivered_range;
using vtp::sack::delivery_order;
using vtp::sack::reassembly;
using vtp::sack::scoreboard;
using vtp::sack::scoreboard_config;
using vtp::sack::transmission_record;
using vtp::util::rng;

constexpr int seeds = 1000;

// ---------------------------------------------------------------------------
// scoreboard vs the std::map oracle
// ---------------------------------------------------------------------------

/// The scoreboard as first written: an ordered map of outstanding
/// records and an ordered map of merged delivered byte ranges.
class map_scoreboard {
public:
    explicit map_scoreboard(scoreboard_config cfg) : cfg_(cfg) {}

    void record(const transmission_record& rec) { outstanding_.emplace(rec.seq, rec); }

    void on_sack(const sack_feedback_segment& fb, std::vector<transmission_record>& lost_out) {
        for (const auto& block : fb.blocks) {
            if (block.begin >= block.end) continue;
            highest_reported_ = std::max(highest_reported_, block.end - 1);
            auto it = outstanding_.lower_bound(block.begin);
            while (it != outstanding_.end() && it->first < block.end) {
                const transmission_record& rec = it->second;
                add_delivered(rec.byte_offset, rec.byte_offset + rec.length);
                ++acked_sequences_;
                it = outstanding_.erase(it);
            }
        }
        if (highest_reported_ < cfg_.finalize_horizon) return;
        const std::uint64_t limit = highest_reported_ - cfg_.finalize_horizon;
        auto it = outstanding_.begin();
        while (it != outstanding_.end() && it->first <= limit) {
            transmission_record rec = it->second;
            it = outstanding_.erase(it);
            ++lost_sequences_;
            if (!delivered_contains(rec.byte_offset, rec.byte_offset + rec.length))
                lost_out.push_back(rec);
        }
    }

    std::uint64_t min_outstanding_offset() const {
        std::uint64_t lowest = UINT64_MAX;
        for (const auto& [seq, rec] : outstanding_) lowest = std::min(lowest, rec.byte_offset);
        return lowest;
    }

    std::size_t outstanding() const { return outstanding_.size(); }
    std::uint64_t acked_sequences() const { return acked_sequences_; }
    std::uint64_t lost_sequences() const { return lost_sequences_; }
    std::uint64_t delivered_bytes() const { return total_; }
    const std::map<std::uint64_t, std::uint64_t>& delivered() const { return delivered_; }

private:
    void add_delivered(std::uint64_t begin, std::uint64_t end) {
        if (begin >= end) return;
        auto it = delivered_.upper_bound(begin);
        if (it != delivered_.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= begin) it = prev;
        }
        std::uint64_t new_begin = begin;
        std::uint64_t new_end = end;
        while (it != delivered_.end() && it->first <= new_end) {
            new_begin = std::min(new_begin, it->first);
            new_end = std::max(new_end, it->second);
            total_ -= it->second - it->first;
            it = delivered_.erase(it);
        }
        delivered_.emplace(new_begin, new_end);
        total_ += new_end - new_begin;
    }

    bool delivered_contains(std::uint64_t begin, std::uint64_t end) const {
        if (begin >= end) return true;
        auto it = delivered_.upper_bound(begin);
        if (it == delivered_.begin()) return false;
        --it;
        return it->first <= begin && end <= it->second;
    }

    scoreboard_config cfg_;
    std::map<std::uint64_t, transmission_record> outstanding_;
    std::map<std::uint64_t, std::uint64_t> delivered_;
    std::uint64_t total_ = 0;
    std::uint64_t highest_reported_ = 0;
    std::uint64_t acked_sequences_ = 0;
    std::uint64_t lost_sequences_ = 0;
};

bool same_record(const transmission_record& a, const transmission_record& b) {
    return a.seq == b.seq && a.byte_offset == b.byte_offset && a.length == b.length &&
           a.message_id == b.message_id && a.deadline == b.deadline &&
           a.sent_at == b.sent_at && a.transmit_count == b.transmit_count;
}

/// One stream's view of a connection: its own records under
/// strictly increasing sequence numbers with gaps (probes and other
/// streams' packets), retransmissions of reported losses under fresh
/// numbers, and SACK feedback with overlapping, duplicate, empty,
/// inverted and out-of-range blocks.
/// Returns the number of losses reported.
std::size_t run_scoreboard_seed(std::uint64_t seed) {
    rng r(seed);
    scoreboard_config cfg;
    const std::uint64_t horizons[] = {0, 1, 3, 16, 40};
    cfg.finalize_horizon = horizons[r.uniform_int(0, 4)];
    scoreboard sb(cfg);
    map_scoreboard model(cfg);

    std::uint64_t next_seq = static_cast<std::uint64_t>(r.uniform_int(0, 5));
    std::uint64_t next_offset = 0;
    std::vector<transmission_record> lost_pool; // reported losses awaiting rtx
    const double gap_p = r.uniform(0.0, 0.6);   // other streams interleaving
    const int ops = 250;
    std::size_t reported = 0;

    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
        const double roll = r.uniform();
        if (roll < 0.6) {
            // Transmission: gaps from probes and other streams first.
            while (r.bernoulli(gap_p)) next_seq += static_cast<std::uint64_t>(r.uniform_int(1, 6));
            transmission_record rec;
            rec.seq = next_seq++;
            rec.sent_at = op;
            if (!lost_pool.empty() && r.bernoulli(0.4)) {
                const auto k = static_cast<std::size_t>(
                    r.uniform_int(0, static_cast<std::int64_t>(lost_pool.size()) - 1));
                const transmission_record old = lost_pool[k];
                lost_pool.erase(lost_pool.begin() + static_cast<std::ptrdiff_t>(k));
                rec.byte_offset = old.byte_offset;
                rec.length = old.length;
                rec.message_id = old.message_id;
                rec.deadline = old.deadline;
                rec.transmit_count = old.transmit_count + 1;
            } else {
                rec.byte_offset = next_offset;
                rec.length = static_cast<std::uint32_t>(r.uniform_int(0, 120));
                rec.message_id = static_cast<std::uint32_t>(next_offset / 500);
                rec.deadline = r.bernoulli(0.5) ? vtp::util::time_never : op + 50;
                next_offset += rec.length;
            }
            sb.record(rec);
            model.record(rec);
        } else {
            // Feedback over (mostly) recent sequence numbers.
            sack_feedback_segment fb;
            fb.cum_ack = static_cast<std::uint64_t>(r.uniform_int(0, 50));
            const int blocks = static_cast<int>(r.uniform_int(0, 5));
            for (int b = 0; b < blocks; ++b) {
                sack_block blk;
                const double kind = r.uniform();
                const auto span = static_cast<std::int64_t>(next_seq) + 8;
                if (kind < 0.05) {
                    blk.begin = next_seq + static_cast<std::uint64_t>(r.uniform_int(0, 40));
                    blk.end = blk.begin + static_cast<std::uint64_t>(r.uniform_int(0, 40));
                } else if (kind < 0.1) {
                    blk.begin = static_cast<std::uint64_t>(r.uniform_int(0, 10));
                    blk.end = blk.begin; // empty
                } else if (kind < 0.13) {
                    blk.end = static_cast<std::uint64_t>(r.uniform_int(0, span));
                    blk.begin = blk.end + static_cast<std::uint64_t>(r.uniform_int(1, 5));
                } else if (kind < 0.15) {
                    blk.begin = 0;
                    blk.end = UINT64_MAX / 2; // absurdly wide
                } else {
                    const std::int64_t lo = std::max<std::int64_t>(0, span - 60);
                    blk.begin = static_cast<std::uint64_t>(r.uniform_int(lo, span));
                    blk.end = blk.begin + static_cast<std::uint64_t>(r.uniform_int(1, 12));
                }
                fb.blocks.push_back(blk);
                if (r.bernoulli(0.15)) fb.blocks.push_back(blk); // duplicate
            }
            std::vector<transmission_record> got;
            std::vector<transmission_record> want;
            sb.on_sack(fb, got);
            model.on_sack(fb, want);
            EXPECT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
                EXPECT_TRUE(same_record(got[i], want[i])) << "loss " << i;
            lost_pool.insert(lost_pool.end(), want.begin(), want.end());
            reported += want.size();
        }
        EXPECT_EQ(sb.outstanding(), model.outstanding());
        EXPECT_EQ(sb.acked_sequences(), model.acked_sequences());
        EXPECT_EQ(sb.lost_sequences(), model.lost_sequences());
        EXPECT_EQ(sb.delivered_bytes(), model.delivered_bytes());
        EXPECT_EQ(sb.min_outstanding_offset(), model.min_outstanding_offset());
        EXPECT_TRUE(sb.delivered().ranges() == model.delivered());
        if (::testing::Test::HasFailure()) return reported;
    }
    return reported;
}

TEST(scoreboard_reference_test, random_sequences_match_map_oracle) {
    std::size_t reported = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        reported += run_scoreboard_seed(seed);
        if (HasFailure()) return;
    }
    EXPECT_GT(reported, 10'000u); // the sequences do exercise finalisation
}

// ---------------------------------------------------------------------------
// reassembly vs a per-byte model
// ---------------------------------------------------------------------------

enum class byte_state : std::uint8_t { absent, received, settled };

/// reassembly's contract restated over a byte array: immediate mode
/// delivers every frame with a new byte and settles the lowest gap once
/// more than max_open_gaps are open; ordered mode releases the newly
/// contiguous prefix.
class byte_model {
public:
    byte_model(delivery_order order, std::size_t space) : order_(order), bytes_(space) {}

    delivered_range on_data(std::uint64_t offset, std::uint32_t len, bool eos) {
        if (eos) {
            known_ = true;
            length_ = offset + len;
        }
        if (len == 0) return {};
        bool any_new = false;
        for (std::uint64_t i = offset; i < offset + len; ++i)
            any_new |= bytes_[i] == byte_state::absent;
        if (!any_new) {
            duplicate_ += len;
            return {};
        }
        for (std::uint64_t i = offset; i < offset + len; ++i)
            if (bytes_[i] == byte_state::absent) bytes_[i] = byte_state::received;
        if (order_ == delivery_order::immediate) {
            settle();
            delivered_ += len;
            return {offset, len};
        }
        const std::uint64_t point = prefix_end();
        if (point <= delivered_to_) return {};
        const delivered_range out{delivered_to_, point - delivered_to_};
        delivered_ += point - delivered_to_;
        delivered_to_ = point;
        return out;
    }

    std::uint64_t prefix_end() const {
        std::uint64_t i = 0;
        while (i < bytes_.size() && bytes_[i] != byte_state::absent) ++i;
        return i;
    }

    /// `ranges` are exactly the maximal runs of present (received or
    /// settled) bytes.
    bool same_runs(const std::map<std::uint64_t, std::uint64_t>& ranges) const {
        std::uint64_t at = 0;
        for (const auto& [begin, end] : ranges) {
            if (begin < at || end <= begin || end > bytes_.size()) return false;
            if (begin > 0 && begin == at) return false; // unmerged neighbours
            for (; at < begin; ++at)
                if (bytes_[at] != byte_state::absent) return false;
            for (; at < end; ++at)
                if (bytes_[at] == byte_state::absent) return false;
        }
        for (; at < bytes_.size(); ++at)
            if (bytes_[at] != byte_state::absent) return false;
        return true;
    }

    std::uint64_t received_bytes() const {
        return static_cast<std::uint64_t>(
            std::count(bytes_.begin(), bytes_.end(), byte_state::received));
    }

    bool complete() const {
        if (!known_ || settled_ > 0) return false;
        for (std::uint64_t i = 0; i < length_; ++i)
            if (bytes_[i] != byte_state::received) return false;
        return true;
    }

    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t duplicate() const { return duplicate_; }
    std::uint64_t settled() const { return settled_; }
    bool known() const { return known_; }
    std::uint64_t length() const { return length_; }

private:
    void settle() {
        // Runs of present bytes; a gap precedes each run but one that
        // starts at 0.
        std::size_t runs = 0;
        for (std::size_t i = 0; i < bytes_.size(); ++i)
            runs += bytes_[i] != byte_state::absent &&
                    (i == 0 || bytes_[i - 1] == byte_state::absent);
        const bool anchored = bytes_[0] != byte_state::absent;
        if (runs - (anchored ? 1 : 0) <= reassembly::max_open_gaps) return;
        // Settle the lowest gap.
        std::size_t i = 0;
        while (bytes_[i] != byte_state::absent) ++i;
        for (; bytes_[i] == byte_state::absent; ++i) {
            bytes_[i] = byte_state::settled;
            ++settled_;
        }
    }

    delivery_order order_;
    std::vector<byte_state> bytes_;
    std::uint64_t settled_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t duplicate_ = 0;
    std::uint64_t delivered_to_ = 0;
    bool known_ = false;
    std::uint64_t length_ = 0;
};

/// Frames over a stream of `length` bytes: in-order runs, reordering,
/// duplicates and overlaps, zero-length end-of-stream markers, and (for
/// `sparse`) one-byte frames spaced to open more than max_open_gaps gaps.
/// Returns whether a gap was settled.
bool run_reassembly_seed(std::uint64_t seed, delivery_order order) {
    rng r(seed);
    const bool sparse = seed % 4 == 0;
    const std::uint64_t length =
        sparse ? 1400 : static_cast<std::uint64_t>(r.uniform_int(200, 1600));
    const int ops = sparse ? 420 : 250;
    reassembly ra(order);
    byte_model model(order, static_cast<std::size_t>(length));

    std::uint64_t cursor = 0; // the sender's next new byte
    for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op << " order "
                                        << (order == delivery_order::ordered ? "ordered"
                                                                             : "immediate"));
        std::uint64_t offset = 0;
        std::uint32_t len = 0;
        bool eos = false;
        const double roll = r.uniform();
        if (sparse && roll < 0.8) {
            // Every other byte, mostly advancing: one new gap per frame.
            offset = std::min<std::uint64_t>(cursor, length - 1);
            len = 1;
            cursor = std::min<std::uint64_t>(cursor + 2 + static_cast<std::uint64_t>(r.bernoulli(0.1)),
                                             length - 1);
        } else if (roll < 0.55) {
            offset = std::min(cursor, length);
            len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                static_cast<std::uint64_t>(r.uniform_int(1, 90)), length - offset));
            // Sometimes skip ahead: a loss the sender repairs later.
            cursor = offset + len + (r.bernoulli(0.2) ? static_cast<std::uint64_t>(r.uniform_int(1, 60)) : 0);
            cursor = std::min(cursor, length);
        } else if (roll < 0.9) {
            // Anywhere below the cursor: retransmission, duplicate, overlap.
            const std::uint64_t hi = std::max<std::uint64_t>(cursor, 1);
            offset = static_cast<std::uint64_t>(r.uniform_int(0, static_cast<std::int64_t>(hi) - 1));
            len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                static_cast<std::uint64_t>(r.uniform_int(0, sparse ? 2 : 150)), length - offset));
        } else {
            // End of stream: the last frame or a zero-length marker.
            if (r.bernoulli(0.5)) {
                offset = length;
                len = 0;
            } else {
                len = static_cast<std::uint32_t>(std::min<std::uint64_t>(40, length));
                offset = length - len;
            }
            eos = true;
        }
        if (offset + len == length && r.bernoulli(0.3)) eos = true;

        const delivered_range got = ra.on_data(offset, len, eos);
        const delivered_range want = model.on_data(offset, len, eos);
        EXPECT_EQ(got.offset, want.offset);
        EXPECT_EQ(got.length, want.length);
        EXPECT_EQ(ra.delivered_bytes(), model.delivered());
        EXPECT_EQ(ra.duplicate_bytes(), model.duplicate());
        EXPECT_EQ(ra.received_bytes(), model.received_bytes());
        EXPECT_EQ(ra.in_order_point(), model.prefix_end());
        EXPECT_EQ(ra.stream_length_known(), model.known());
        if (model.known()) {
            EXPECT_EQ(ra.stream_length(), model.length());
        }
        EXPECT_EQ(ra.complete(), model.complete());
        EXPECT_TRUE(model.same_runs(ra.received().ranges()));
        EXPECT_EQ(ra.received().range_count(), ra.received().ranges().size());
        if (::testing::Test::HasFailure()) break;
    }
    return model.settled() > 0;
}

TEST(reassembly_reference_test, ordered_matches_byte_model) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        EXPECT_FALSE(run_reassembly_seed(seed, delivery_order::ordered));
        if (HasFailure()) return;
    }
}

TEST(reassembly_reference_test, immediate_matches_byte_model_including_settled_gaps) {
    int settling = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        settling += run_reassembly_seed(seed, delivery_order::immediate);
        if (HasFailure()) return;
    }
    EXPECT_GE(settling, seeds / 5); // the sparse seeds cross max_open_gaps
}

} // namespace

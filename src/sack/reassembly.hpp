// Receiver-side reliability: byte-interval bookkeeping and stream
// reassembly.
//
// `interval_set` is the shared primitive (also used by the sender
// scoreboard): a merged, ordered set of half-open byte ranges.
//
// `reassembly` tracks the received byte ranges of a stream and delivers
// to the application either in order (full reliability — delivery stalls
// at a gap until retransmission fills it) or immediately (partial /
// no reliability — streaming delivery, gaps are the application's
// problem, which is exactly what a deadline-driven media codec wants).
// An immediate-mode stream keeps at most reassembly::max_open_gaps
// unfilled gaps: past the cap the oldest gap is settled, so a lossy
// unreliable stream holds bounded state however long it runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

namespace vtp::sack {

/// Ordered set of disjoint half-open ranges [begin, end) over uint64.
class interval_set {
public:
    /// Insert [begin, end), merging with neighbours. No-op if begin >= end.
    /// Allocates only for a range disjoint from every other: a merge
    /// updates or re-keys an existing node.
    void add(std::uint64_t begin, std::uint64_t end);

    /// Remove [begin, end) from the set (splitting ranges as needed).
    void remove(std::uint64_t begin, std::uint64_t end);

    /// True if [begin, end) is entirely covered.
    bool contains(std::uint64_t begin, std::uint64_t end) const;

    /// Number of covered bytes within [begin, end).
    std::uint64_t covered_in(std::uint64_t begin, std::uint64_t end) const;

    /// Sum of covered lengths.
    std::uint64_t total() const { return total_; }

    /// End of the contiguous prefix starting at 0 (0 if 0 uncovered).
    std::uint64_t prefix_end() const;

    std::size_t range_count() const { return ranges_.size(); }
    bool empty() const { return ranges_.empty(); }

    /// First uncovered point at or after `from`.
    std::uint64_t first_gap(std::uint64_t from) const;

    const std::map<std::uint64_t, std::uint64_t>& ranges() const { return ranges_; }

private:
    /// Erase the ranges from `it` on that start at or before `end`,
    /// leaving `it` at the first range kept; returns `end` extended over
    /// the erased ones.
    std::uint64_t absorb(std::map<std::uint64_t, std::uint64_t>::iterator& it,
                         std::uint64_t end);

    std::map<std::uint64_t, std::uint64_t> ranges_; ///< begin -> end
    std::uint64_t total_ = 0;
};

enum class delivery_order {
    ordered,   ///< contiguous prefix only (full reliability)
    immediate, ///< deliver on arrival (streaming / partial reliability)
};

/// What one reassembly::on_data call released to the application:
/// nothing (duplicate / gap stall), or one contiguous range. In
/// immediate mode the range is the arriving frame itself; in ordered
/// mode it is the newly contiguous prefix (which may span several
/// previously buffered frames).
struct delivered_range {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    bool any() const { return length > 0; }
};

class reassembly {
public:
    /// (offset, length) of bytes handed to the application.
    using deliver_fn = std::function<void(std::uint64_t, std::uint32_t)>;

    /// Immediate mode: unfilled gaps kept per stream. One more settles
    /// the oldest: it then counts as present for duplicate detection (a
    /// late copy is not delivered) and as absent for received_bytes()
    /// and complete(). Ordered mode never settles.
    static constexpr std::size_t max_open_gaps = 256;

    explicit reassembly(delivery_order order, deliver_fn deliver = {});

    /// Data for [offset, offset+len) arrived; `end_of_stream` marks the
    /// final segment (stream length = offset + len). Returns what became
    /// deliverable (also reported through the deliver hook when set —
    /// the poll-based API uses the return value instead, keeping the
    /// per-packet path free of std::function dispatch).
    delivered_range on_data(std::uint64_t offset, std::uint32_t len, bool end_of_stream);

    std::uint64_t received_bytes() const { return received_.total() - settled_bytes_; }
    std::uint64_t delivered_bytes() const { return delivered_bytes_; }
    std::uint64_t duplicate_bytes() const { return duplicate_bytes_; }
    /// In-order delivery point (ordered mode).
    std::uint64_t in_order_point() const { return received_.prefix_end(); }

    delivery_order order() const { return order_; }
    bool stream_length_known() const { return stream_length_known_; }
    std::uint64_t stream_length() const { return stream_length_; }
    /// All bytes of a finished stream received.
    bool complete() const;

    /// Received byte ranges, settled gaps included (immediate mode).
    const interval_set& received() const { return received_; }

private:
    /// Fill the lowest unfilled gap of `received_` once more than
    /// max_open_gaps are open.
    void settle_excess_gap();

    delivery_order order_;
    deliver_fn deliver_;
    interval_set received_; ///< received bytes plus settled gaps
    std::uint64_t settled_bytes_ = 0;
    std::uint64_t delivered_bytes_ = 0;
    std::uint64_t duplicate_bytes_ = 0;
    std::uint64_t ordered_delivered_to_ = 0;
    bool stream_length_known_ = false;
    std::uint64_t stream_length_ = 0;
};

} // namespace vtp::sack

#include "sack/reassembly.hpp"

#include <algorithm>

namespace vtp::sack {

void interval_set::add(std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;

    // Merge with a range that starts at or before `begin` and reaches
    // it: extend that range in place.
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) {
        const auto prev = std::prev(it);
        if (prev->second >= begin) {
            if (prev->second >= end) return; // already covered
            const std::uint64_t merged_end = absorb(it, end);
            total_ += merged_end - prev->second;
            prev->second = merged_end;
            return;
        }
    }
    if (it == ranges_.end() || it->first > end) {
        ranges_.emplace_hint(it, begin, end); // disjoint: the only allocation
        total_ += end - begin;
        return;
    }
    // `it` starts inside or right after [begin, end): its begin moves
    // down, so re-key its node instead of allocating a new one.
    auto node = ranges_.extract(it++);
    total_ -= node.mapped() - node.key();
    const std::uint64_t merged_end = absorb(it, std::max(end, node.mapped()));
    node.key() = begin;
    node.mapped() = merged_end;
    ranges_.insert(it, std::move(node));
    total_ += merged_end - begin;
}

std::uint64_t interval_set::absorb(std::map<std::uint64_t, std::uint64_t>::iterator& it,
                                   std::uint64_t end) {
    while (it != ranges_.end() && it->first <= end) {
        end = std::max(end, it->second);
        total_ -= it->second - it->first;
        it = ranges_.erase(it);
    }
    return end;
}

void interval_set::remove(std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > begin) it = prev;
    }
    while (it != ranges_.end() && it->first < end) {
        const std::uint64_t r_begin = it->first;
        const std::uint64_t r_end = it->second;
        total_ -= r_end - r_begin;
        it = ranges_.erase(it);
        if (r_begin < begin) {
            ranges_.emplace(r_begin, begin);
            total_ += begin - r_begin;
        }
        if (r_end > end) {
            ranges_.emplace(end, r_end);
            total_ += r_end - end;
        }
    }
}

bool interval_set::contains(std::uint64_t begin, std::uint64_t end) const {
    if (begin >= end) return true;
    auto it = ranges_.upper_bound(begin);
    if (it == ranges_.begin()) return false;
    --it;
    return it->first <= begin && end <= it->second;
}

std::uint64_t interval_set::covered_in(std::uint64_t begin, std::uint64_t end) const {
    if (begin >= end) return 0;
    std::uint64_t covered = 0;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) --it;
    for (; it != ranges_.end() && it->first < end; ++it) {
        const std::uint64_t lo = std::max(begin, it->first);
        const std::uint64_t hi = std::min(end, it->second);
        if (hi > lo) covered += hi - lo;
    }
    return covered;
}

std::uint64_t interval_set::prefix_end() const {
    auto it = ranges_.find(0);
    // The first range must start at exactly 0.
    if (it == ranges_.end()) {
        it = ranges_.begin();
        if (it == ranges_.end() || it->first != 0) return 0;
    }
    return it->second;
}

std::uint64_t interval_set::first_gap(std::uint64_t from) const {
    std::uint64_t point = from;
    auto it = ranges_.upper_bound(point);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second > point) point = prev->second;
    }
    while (it != ranges_.end() && it->first <= point) {
        point = std::max(point, it->second);
        ++it;
    }
    return point;
}

reassembly::reassembly(delivery_order order, deliver_fn deliver)
    : order_(order), deliver_(std::move(deliver)) {}

delivered_range reassembly::on_data(std::uint64_t offset, std::uint32_t len,
                                    bool end_of_stream) {
    if (end_of_stream) {
        stream_length_known_ = true;
        stream_length_ = offset + len;
    }
    if (len == 0) return {};

    if (received_.contains(offset, offset + len)) {
        duplicate_bytes_ += len;
        return {};
    }
    received_.add(offset, offset + len);

    if (order_ == delivery_order::immediate) {
        settle_excess_gap();
        delivered_bytes_ += len;
        if (deliver_) deliver_(offset, len);
        return {offset, len};
    }

    // Ordered: release the newly contiguous prefix.
    const std::uint64_t point = received_.prefix_end();
    if (point > ordered_delivered_to_) {
        const std::uint64_t newly = point - ordered_delivered_to_;
        if (deliver_)
            deliver_(ordered_delivered_to_, static_cast<std::uint32_t>(
                                                std::min<std::uint64_t>(newly, UINT32_MAX)));
        const delivered_range out{ordered_delivered_to_, newly};
        ordered_delivered_to_ = point;
        delivered_bytes_ += newly;
        return out;
    }
    return {};
}

void reassembly::settle_excess_gap() {
    const auto& ranges = received_.ranges();
    const auto first = ranges.begin();
    // Gaps lie below the highest received byte: one before each range,
    // except a first range that starts at 0.
    const std::size_t gaps = ranges.size() - (first->first == 0 ? 1 : 0);
    if (gaps <= max_open_gaps) return;
    const std::uint64_t begin = first->first == 0 ? first->second : 0;
    const std::uint64_t end = first->first == 0 ? std::next(first)->first : first->first;
    settled_bytes_ += end - begin;
    received_.add(begin, end);
}

bool reassembly::complete() const {
    return stream_length_known_ && settled_bytes_ == 0 &&
           received_.contains(0, stream_length_);
}

} // namespace vtp::sack

// Sender-side stream scheduler: weighted deficit round-robin with
// deadline-first promotion.
//
// Every TFRC-paced send slot carries one packet; the scheduler decides
// which stream fills it. Backlogged streams share slots in proportion to
// their weights (deficit round-robin, byte-accurate via charge()).
// A stream whose earliest pending delivery deadline is about to expire
// is promoted ahead of the round-robin order — the send is still charged
// against its deficit, so promotion borrows bandwidth that the weights
// claw back later instead of granting extra share.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/tracer.hpp"
#include "util/time.hpp"

namespace vtp::stream {

struct stream_scheduler_config {
    /// Deficit replenished per weight unit per round-robin round. One
    /// typical packet keeps per-round bursts small.
    std::uint32_t quantum_bytes = 1500;

    /// Promote a stream once its earliest pending deadline is this close
    /// (covers one-way delay plus a few send slots of queueing).
    util::sim_time deadline_promotion_window = util::milliseconds(25);
};

class stream_scheduler {
public:
    /// One stream that has sendable work right now.
    struct candidate {
        std::uint32_t id = 0;
        std::uint32_t weight = 1;
        /// Earliest delivery deadline among its pending work
        /// (util::time_never when none).
        util::sim_time deadline = util::time_never;
    };

    explicit stream_scheduler(stream_scheduler_config cfg = {}) : cfg_(cfg) {}

    /// Pick the stream to fill the next send slot. `cands` must be
    /// non-empty and sorted by id (the mux iterates streams in id order).
    std::uint32_t pick(const std::vector<candidate>& cands, util::sim_time now);

    /// Account `bytes` of payload actually sent on `id` against its
    /// deficit (call after every pick-driven send).
    void charge(std::uint32_t id, std::uint64_t bytes);

    /// `id` ran out of work: forfeit unused positive credit so an idle
    /// stream cannot save up a burst (debt from promotions is kept).
    void trim_idle(std::uint32_t id);

    std::uint64_t promotions() const { return promotions_; }

    /// Flight-recorder hook: promotion decisions are recorded as
    /// stream_sched events (null disables, the default).
    void set_tracer(trace::tracer* t) { tracer_ = t; }

private:
    /// Deficit of stream `id` (grows the table to reach it).
    std::int64_t& deficit(std::uint32_t id) {
        if (id >= deficit_.size()) deficit_.resize(id + 1, 0);
        return deficit_[id];
    }

    stream_scheduler_config cfg_;
    /// Per-stream deficit, indexed by stream id up to the highest seen
    /// (stream ids are dense and capped at max_streams); 0 = no credit.
    std::vector<std::int64_t> deficit_;
    std::uint32_t cursor_ = UINT32_MAX; ///< last served id
    std::uint64_t promotions_ = 0;
    trace::tracer* tracer_ = nullptr;
};

} // namespace vtp::stream

// Poll-based session events (the session API's only delivery mechanism).
//
// Nothing application-side runs inside the transport (on whatever thread
// hosts the agent): an application drains a bounded per-session event
// ring through vtp::session::poll():
//
//   vtp::event evs[16];
//   while (running) {
//       const std::size_t n = s.poll(evs, 16);
//       for (std::size_t i = 0; i < n; ++i)
//           if (evs[i].type == vtp::event_type::readable)
//               while (std::size_t got = s.recv(evs[i].stream_id, buf, sizeof buf))
//                   consume(buf, got);
//   }
//
// Semantics:
//  - `readable` and `writable` are edge-triggered: one event per
//    empty -> non-empty (resp. blocked -> unblocked) transition. Drain
//    recv() until it returns 0 (resp. retry send() after `writable`).
//  - The ring is bounded; a full ring drops the new event and counts it
//    (session_stats::events_dropped) — backpressure is observable, never
//    silent. Sized for coalesced events: capacity >= streams + a handful
//    of lifecycle events never drops in practice.
//  - An installed event_sink (the engine's cross-thread export) takes the
//    place of the ring: events — including readable payload chunks — are
//    pushed to the sink as they happen, on the agent's thread.
#pragma once

#include <cstdint>
#include <vector>

#include "core/profile.hpp"
#include "sack/retransmit.hpp"

namespace vtp::qtp {

enum class event_type : std::uint8_t {
    none = 0,
    /// Handshake done; `prof` is the negotiated profile.
    established,
    /// Receiver role: a new inbound stream appeared (`stream_id`,
    /// `reliability`).
    stream_opened,
    /// Receiver role: recv(stream_id) has data. Edge-triggered.
    readable,
    /// Sender role: a send() that was clamped by max_buffered_bytes can
    /// make progress again (`bytes` = free buffer space). Edge-triggered.
    writable,
    /// A renegotiation was accepted; `prof` is the profile now active.
    profile_changed,
    /// Receiver role: stream `stream_id` is complete — its end-of-stream
    /// marker arrived and every byte it owes was delivered (`bytes` =
    /// final stream length).
    fin,
    /// Connection fully closed (sender: FIN acknowledged; receiver:
    /// peer's FIN seen).
    closed,
    /// The active network path changed (validated migration): traffic
    /// now flows to a new remote address. `offset` carries the old
    /// address, `bytes` the new one (both substrate addresses).
    path_changed,
};

const char* to_string(event_type t);

struct event {
    event_type type = event_type::none;
    std::uint32_t stream_id = 0;
    /// readable: bytes currently buffered for recv(); writable: free
    /// send-buffer space; fin: final stream length.
    std::uint64_t bytes = 0;
    /// readable (sink export): stream offset of the attached chunk.
    std::uint64_t offset = 0;
    /// stream_opened: the stream's reliability mode.
    sack::reliability_mode reliability = sack::reliability_mode::none;
    /// established / profile_changed: the profile in force.
    profile prof{};
};

/// Bounded single-threaded FIFO of session events. Overflow drops the
/// new event and counts it — the producer (the transport) must never
/// block on a slow consumer. The slots are allocated on the first push:
/// a session bound to an event_sink (every engine session) only parks
/// the events raised before the sink was installed, then release()s
/// them.
class event_ring {
public:
    explicit event_ring(std::size_t capacity = 256)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    bool push(const event& ev) {
        if (count_ == capacity_) {
            ++dropped_;
            return false;
        }
        if (ring_.empty()) ring_.resize(capacity_);
        ring_[(head_ + count_) % capacity_] = ev;
        ++count_;
        return true;
    }

    std::size_t poll(event* out, std::size_t max) {
        std::size_t n = 0;
        while (n < max && count_ > 0) {
            out[n++] = ring_[head_];
            head_ = (head_ + 1) % capacity_;
            --count_;
        }
        return n;
    }

    /// Free the slots of a drained ring (a later push allocates again).
    void release() {
        if (count_ > 0) return;
        std::vector<event>().swap(ring_);
        head_ = 0;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t dropped() const { return dropped_; }
    void count_external_drop() { ++dropped_; }

private:
    std::vector<event> ring_; ///< empty until the first push
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
};

/// Cross-thread event export (the engine installs one per shard). Called
/// on the agent's thread; `payload` carries the chunk of a readable
/// event (empty otherwise) and is moved from on success — on failure
/// (sink saturated, return false) it is left intact so the emitter can
/// retain the bytes and retry later instead of losing delivered data.
struct event_sink {
    virtual ~event_sink() = default;
    virtual bool on_session_event(std::uint32_t flow_id, const event& ev,
                                  std::vector<std::uint8_t>& payload) = 0;
};

} // namespace vtp::qtp

// Flow-id → shard mapping. Every shard (and every forwarding decision)
// must agree on which shard owns a flow, so the mapping is a pure
// function of the flow id: the murmur3 fmix32 finalizer to decorrelate
// adjacent ids (auto-assigned session ids are sequential), then a
// modulo. Agents for a flow are only ever attached on its owner shard,
// which is what keeps the per-shard runtime lock-free.
//
// The kernel evaluates the same function: steering_program() is a
// classic BPF program for SO_ATTACH_REUSEPORT_CBPF that reads the flow
// id at payload offset 0 of each datagram and returns its owner, so
// inbound traffic lands on the owner's SO_REUSEPORT member and the SPSC
// handoff is only a fallback. That is why the mix is 32-bit: classic
// BPF has a single 32-bit accumulator. Keep owner() and the program in
// step — engine_udp_io_test checks them against each other live.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__linux__)
#include <linux/filter.h>

#include <array>
#endif

namespace vtp::engine {

class flow_shard_map {
public:
    explicit flow_shard_map(std::size_t shards) : shards_(shards ? shards : 1) {}

    std::size_t owner(std::uint32_t flow_id) const {
        return static_cast<std::size_t>(mix(flow_id) % shards_);
    }

    std::size_t shards() const { return shards_; }

    /// murmur3 fmix32 finalizer (public domain constants).
    static std::uint32_t mix(std::uint32_t h) {
        h ^= h >> 16;
        h *= 0x85ebca6bu;
        h ^= h >> 13;
        h *= 0xc2b2ae35u;
        h ^= h >> 16;
        return h;
    }

#if defined(__linux__)
    /// owner() as a reuseport steering program: the returned index is the
    /// member socket in bind order, so shard i must be the i-th member to
    /// bind. The flow id is the big-endian u32 at payload offset 0 (the
    /// engine datagram header); a datagram too short to hold one makes
    /// the load fail and the program return 0.
    std::array<sock_filter, 14> steering_program() const {
        return {{
            BPF_STMT(BPF_LD | BPF_W | BPF_ABS, 0),          // A = flow id
            BPF_STMT(BPF_MISC | BPF_TAX, 0),                // A ^= A >> 16
            BPF_STMT(BPF_ALU | BPF_RSH | BPF_K, 16),
            BPF_STMT(BPF_ALU | BPF_XOR | BPF_X, 0),
            BPF_STMT(BPF_ALU | BPF_MUL | BPF_K, 0x85ebca6bu), // A *= c1
            BPF_STMT(BPF_MISC | BPF_TAX, 0),                // A ^= A >> 13
            BPF_STMT(BPF_ALU | BPF_RSH | BPF_K, 13),
            BPF_STMT(BPF_ALU | BPF_XOR | BPF_X, 0),
            BPF_STMT(BPF_ALU | BPF_MUL | BPF_K, 0xc2b2ae35u), // A *= c2
            BPF_STMT(BPF_MISC | BPF_TAX, 0),                // A ^= A >> 16
            BPF_STMT(BPF_ALU | BPF_RSH | BPF_K, 16),
            BPF_STMT(BPF_ALU | BPF_XOR | BPF_X, 0),
            BPF_STMT(BPF_ALU | BPF_MOD | BPF_K, static_cast<std::uint32_t>(shards_)),
            BPF_STMT(BPF_RET | BPF_A, 0),                   // member index
        }};
    }
#endif

private:
    std::size_t shards_;
};

} // namespace vtp::engine

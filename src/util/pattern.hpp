// Deterministic payload patterns for end-to-end verification.
//
// One definition shared by every sender/verifier pair (the scenario
// harness, vtpload --payload, the engine soak test): a byte is a pure function
// of (flow, stream, offset), so a receiver can check any chunk without
// materializing the expected buffer — and the two sides can never
// desynchronize across tools.
#pragma once

#include <cstdint>
#include <vector>

namespace vtp::util {

inline std::uint8_t pattern_byte(std::uint32_t flow_id, std::uint32_t stream,
                                 std::uint64_t offset) {
    std::uint64_t x = (static_cast<std::uint64_t>(flow_id) << 40) ^
                      (static_cast<std::uint64_t>(stream) << 32) ^ offset;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return static_cast<std::uint8_t>(x);
}

inline std::vector<std::uint8_t> pattern_buffer(std::uint32_t flow_id,
                                                std::uint32_t stream,
                                                std::uint64_t bytes) {
    std::vector<std::uint8_t> out(static_cast<std::size_t>(bytes));
    for (std::uint64_t i = 0; i < bytes; ++i)
        out[static_cast<std::size_t>(i)] = pattern_byte(flow_id, stream, i);
    return out;
}

} // namespace vtp::util

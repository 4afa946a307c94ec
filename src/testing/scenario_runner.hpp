// Execute a scenario_spec on sim::host sessions and judge it.
//
// The runner builds a dumbbell (one pair per flow), threads the spec's
// impairment chain into the bottleneck datapath (sim/impairment.hpp),
// schedules handover phases and per-flow renegotiation/close events,
// sends deterministic pattern payload on every stream, drains each
// delivered chunk through recv_chunk() (recording it and checking its
// bytes), and — once every flow closed or the deadline hit — evaluates
// the invariant checkers. Everything is driven by the discrete-event
// scheduler, so a (spec, seed) pair reproduces the identical run
// bit-for-bit, including the trace hash.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cc/algorithm_id.hpp"
#include "testing/invariants.hpp"
#include "testing/scenario.hpp"
#include "trace/tracer.hpp"

namespace vtp::testing {

struct scenario_run_options {
    /// 0 = the spec's own seed.
    std::uint64_t seed = 0;
    /// Keep the per-delivery event list (the failure dump); counters and
    /// the trace hash are always computed.
    bool collect_trace = true;
    /// Force every flow (and every scheduled renegotiation profile) onto
    /// this congestion-control algorithm. nullopt runs the spec as
    /// written — the default TFRC path whose trace hashes are the frozen
    /// regression oracle. Overridden runs are judged by the same
    /// invariants but carry their own (non-frozen) hashes.
    std::optional<cc::algorithm_id> cc_override;
    /// Flight recorder (trace/record.hpp): every endpoint of the run —
    /// clients and accepted sessions — records into a per-connection
    /// ring spilling to this shared sink. The simulator is
    /// single-threaded, so a (spec, seed) pair reproduces the
    /// byte-identical record stream; nullptr (the default) leaves every
    /// hook off, which is the frozen-trace-hash oracle configuration.
    trace::sink* trace_sink = nullptr;
    /// Ring capacity per connection; 0 picks a spill-friendly default
    /// when `trace_sink` is set and keeps tracing off otherwise.
    std::size_t trace_ring_records = 0;
};

/// Run `spec` with `seed` (0 = the spec's own seed). `collect_trace`
/// keeps the per-delivery event list (the failure dump); counters and
/// the trace hash are always computed.
scenario_result run_scenario(const scenario_spec& spec, std::uint64_t seed = 0,
                             bool collect_trace = true);
scenario_result run_scenario(const scenario_spec& spec,
                             const scenario_run_options& opts);

/// Write the delivery trace and violations as CSV (the artifact CI
/// uploads on failure). Returns false when the file cannot be written.
bool write_trace_csv(const scenario_result& result, const std::string& path);

/// One-line verdict ("PASS name seed=… hash=…" / "FAIL name … 3 violations").
std::string summarize(const scenario_result& result);

} // namespace vtp::testing

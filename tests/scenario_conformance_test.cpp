// Scenario conformance: every canonical scenario passes its invariant
// set under its fixed seed (the same runs are also registered as
// individual ctest cases through the vtpscenario CLI — this suite is the
// in-process safety net that covers the registry even if the CMake list
// goes stale), plus self-tests of the invariant checkers: a checker that
// cannot flag a planted violation is worse than no checker.
#include <gtest/gtest.h>

#include <set>

#include "testing/invariants.hpp"
#include "testing/scenario.hpp"
#include "testing/scenario_runner.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;

TEST(scenario_registry_test, matrix_is_complete_and_well_formed) {
    const auto& matrix = scenario_matrix();
    EXPECT_GE(matrix.size(), 12u);
    std::set<std::string> names;
    for (const auto& s : matrix) {
        EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario name " << s.name;
        EXPECT_FALSE(s.summary.empty()) << s.name;
        EXPECT_FALSE(s.flows.empty()) << s.name;
        EXPECT_NE(find_scenario(s.name), nullptr);
    }
    // At least one scenario per impairment family plus a handover one.
    auto any = [&](auto pred) {
        for (const auto& s : matrix)
            if (pred(s)) return true;
        return false;
    };
    auto has_kind = [&](impairment_spec::kind k) {
        return any([k](const scenario_spec& s) {
            for (const auto& imp : s.impairments)
                if (imp.what == k) return true;
            return false;
        });
    };
    EXPECT_TRUE(has_kind(impairment_spec::kind::burst));
    EXPECT_TRUE(has_kind(impairment_spec::kind::bernoulli));
    EXPECT_TRUE(has_kind(impairment_spec::kind::reorder));
    EXPECT_TRUE(has_kind(impairment_spec::kind::duplicate));
    EXPECT_TRUE(has_kind(impairment_spec::kind::corrupt));
    EXPECT_TRUE(any([](const scenario_spec& s) { return !s.handovers.empty(); }));
    EXPECT_TRUE(any([](const scenario_spec& s) { return s.rio_queue; }));

    for (const auto& name : reduced_matrix_names())
        EXPECT_NE(find_scenario(name), nullptr) << "reduced matrix names a ghost: " << name;
    EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

class scenario_conformance_test : public ::testing::TestWithParam<std::string> {};

TEST_P(scenario_conformance_test, passes_under_fixed_seed) {
    const auto* spec = find_scenario(GetParam());
    ASSERT_NE(spec, nullptr);
    const auto result = run_scenario(*spec);
    for (const auto& v : result.violations)
        ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
    EXPECT_TRUE(result.passed) << summarize(result);
    EXPECT_GT(result.events, 0u);
    EXPECT_FALSE(result.hit_deadline);
}

INSTANTIATE_TEST_SUITE_P(matrix, scenario_conformance_test,
                         ::testing::ValuesIn(scenario_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Invariant checker self-tests: plant a violation, expect it flagged.
// ---------------------------------------------------------------------------

scenario_spec minimal_spec() {
    scenario_spec s;
    s.name = "synthetic";
    s.flows.resize(1);
    return s;
}

scenario_result healthy_result() {
    scenario_result r;
    r.flows.resize(1);
    auto& f = r.flows[0];
    f.flow_id = 1;
    f.established = true;
    f.client_closed = true;
    f.server_closed = true;
    f.client_stats.stream_bytes_queued = 1000;
    f.client_stats.stream_bytes_sent = 1000;
    f.client_stats.stream_bytes_acked = 1000;
    f.client_stats.packets_sent = 1;
    f.server_stats.packets_received = 1;
    f.server_stats.bytes_received = 1000;
    f.server_stats.bytes_delivered = 1000;
    auto& s = f.streams[0];
    s.opened_by_sender = true;
    s.check_mode = sack::reliability_mode::full;
    s.offered = 1000;
    s.delivered = 1000;
    r.payload_bytes_verified = 1000;
    return r;
}

TEST(invariant_self_test, healthy_result_passes_all_checkers) {
    const auto spec = minimal_spec();
    auto r = healthy_result();
    for (const auto& inv : default_invariants()) inv.check(spec, r);
    EXPECT_TRUE(r.violations.empty())
        << (r.violations.empty() ? "" : r.violations.front().detail);
}

TEST(invariant_self_test, flags_incomplete_full_reliability_stream) {
    auto r = healthy_result();
    r.flows[0].streams[0].delivered = 900;
    check_delivery_integrity(minimal_spec(), r);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].invariant, "delivery-integrity");
}

TEST(invariant_self_test, flags_duplicate_and_out_of_order_delivery) {
    auto r = healthy_result();
    r.flows[0].streams[0].overlap_bytes = 17;
    r.flows[0].streams[0].ooo_deliveries = 2;
    check_delivery_integrity(minimal_spec(), r);
    EXPECT_EQ(r.violations.size(), 2u);
}

TEST(invariant_self_test, flags_unbounded_partial_hole) {
    auto r = healthy_result();
    auto& s = r.flows[0].streams[0];
    s.check_mode = sack::reliability_mode::partial;
    s.offered = 100'000;
    s.delivered = 50'000;
    s.abandoned = 10'000; // 40 kB unaccounted >> the unsettled-tail allowance
    check_delivery_integrity(minimal_spec(), r);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_NE(r.violations[0].detail.find("hole"), std::string::npos);
}

TEST(invariant_self_test, flags_phantom_stream_without_corruption) {
    auto r = healthy_result();
    r.flows[0].streams[7].delivered = 10; // sender never opened stream 7
    check_delivery_integrity(minimal_spec(), r);
    ASSERT_EQ(r.violations.size(), 1u);

    // A checksum-drop corrupt impairment earns no exemption: mutants
    // never reach the transport, so a phantom is still a violation.
    auto strict = minimal_spec();
    impairment_spec cr;
    cr.what = impairment_spec::kind::corrupt;
    cr.probability = 0.1;
    strict.impairments = {cr};
    auto r_strict = healthy_result();
    r_strict.flows[0].streams[7].delivered = 10;
    check_delivery_integrity(strict, r_strict);
    EXPECT_EQ(r_strict.violations.size(), 1u);

    // Only the mutant-delivery mode makes phantoms expected.
    auto spec = minimal_spec();
    cr.deliver_mutants = true;
    spec.impairments = {cr};
    auto r2 = healthy_result();
    r2.flows[0].streams[7].delivered = 10;
    check_delivery_integrity(spec, r2);
    EXPECT_TRUE(r2.violations.empty());
}

TEST(invariant_self_test, flags_corrupt_or_missing_payload) {
    auto r = healthy_result();
    r.payload_bytes_verified = 990;
    r.payload_bytes_mismatched = 10; // bytes that differ from the pattern
    check_delivery_integrity(minimal_spec(), r);
    ASSERT_EQ(r.violations.size(), 2u);
    EXPECT_NE(r.violations[0].detail.find("pattern"), std::string::npos);

    // Counted as delivered but never handed out (dropped at a full
    // receive buffer): the verified total falls short.
    auto r2 = healthy_result();
    r2.payload_bytes_verified = 600;
    check_delivery_integrity(minimal_spec(), r2);
    ASSERT_EQ(r2.violations.size(), 1u);
    EXPECT_EQ(r2.violations[0].invariant, "delivery-integrity");

    // Delivered mutants flip payload bytes by design: no violation.
    auto spec = minimal_spec();
    impairment_spec cr;
    cr.what = impairment_spec::kind::corrupt;
    cr.probability = 0.1;
    cr.deliver_mutants = true;
    spec.impairments = {cr};
    auto r3 = healthy_result();
    r3.payload_bytes_verified = 990;
    r3.payload_bytes_mismatched = 10;
    check_delivery_integrity(spec, r3);
    EXPECT_TRUE(r3.violations.empty());
}

TEST(invariant_self_test, flags_unterminated_close) {
    auto r = healthy_result();
    r.flows[0].client_closed = false;
    check_close_termination(minimal_spec(), r);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].invariant, "close-termination");
}

TEST(invariant_self_test, flags_rate_beyond_equation_bound) {
    auto r = healthy_result();
    auto& cs = r.flows[0].client_stats;
    cs.loss_event_rate = 0.1; // heavy loss: the equation rate is low
    cs.rtt = util::milliseconds(100);
    cs.allowed_rate_bps = 1e9; // and yet the sender claims a gigabit
    auto spec = minimal_spec();
    spec.tfrc_bound_factor = 3.0;
    check_tfrc_equation_bound(spec, r);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].invariant, "tfrc-equation-bound");

    // A gTFRC floor above the equation rate legitimises the same rate.
    auto r2 = healthy_result();
    r2.flows[0].client_stats = cs;
    r2.flows[0].guaranteed_rate_bps = 1e9;
    check_tfrc_equation_bound(spec, r2);
    EXPECT_TRUE(r2.violations.empty());
}

TEST(invariant_self_test, flags_contradictory_counters) {
    auto r = healthy_result();
    r.flows[0].client_stats.stream_bytes_acked = 2000; // acked > sent
    check_stats_consistency(minimal_spec(), r);
    ASSERT_EQ(r.violations.size(), 1u);
    EXPECT_EQ(r.violations[0].invariant, "stats-consistency");

    auto r2 = healthy_result();
    r2.flows[0].streams[0].delivered = 900; // drained chunks disagree with counter
    check_stats_consistency(minimal_spec(), r2);
    ASSERT_EQ(r2.violations.size(), 1u);

    auto r3 = healthy_result();
    r3.flows[0].server_stats.events_dropped = 3; // a full event ring lost events
    check_stats_consistency(minimal_spec(), r3);
    ASSERT_EQ(r3.violations.size(), 1u);
    EXPECT_NE(r3.violations[0].detail.find("events lost"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Runner-level properties.
// ---------------------------------------------------------------------------

TEST(scenario_runner_test, trace_events_match_stream_accounting) {
    const auto* spec = find_scenario("wired_baseline_reliable");
    ASSERT_NE(spec, nullptr);
    const auto result = run_scenario(*spec);
    ASSERT_TRUE(result.passed);
    std::uint64_t trace_bytes = 0;
    for (const auto& e : result.trace) trace_bytes += e.len;
    EXPECT_EQ(trace_bytes, result.flows[0].server_stats.bytes_delivered);
    EXPECT_EQ(trace_bytes, 4'000'000u);
}

TEST(scenario_runner_test, seed_override_changes_the_run) {
    const auto* spec = find_scenario("wireless_burst_loss");
    ASSERT_NE(spec, nullptr);
    const auto a = run_scenario(*spec, 101);
    const auto b = run_scenario(*spec, 102);
    EXPECT_TRUE(a.passed) << summarize(a);
    EXPECT_TRUE(b.passed) << summarize(b);
    EXPECT_NE(a.trace_hash, b.trace_hash);
}

} // namespace

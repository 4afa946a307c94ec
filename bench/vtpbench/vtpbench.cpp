// vtpbench — the live-engine performance ledger.
//
// One process, one bench thread, two engines on loopback: a server
// engine::server (2 shards) accepts every session that a client
// engine::server (1 shard) opens with connect(). The bench thread drives
// both through the v2 poll_events()/send()/close() API, so a measured run
// has exactly four threads. Payload bytes are a pure function of (seed,
// flow, stream, offset) and every byte the server delivers is checked.
//
// Every layer is measured from outside the library:
//  - the bench times its own calls into the API;
//  - it reads the engines' stats()/metrics() and per-session stats;
//  - it reads per-thread CPU from /proc/self/task/<tid>/schedstat, with
//    shard threads identified as the tids that appear across start();
//  - a traced run adds in-memory spans, the engines' flight recorder and
//    a replay of single layers on inputs shaped like the workload.
//
//   vtpbench --workload bulk --seed 1 --seconds 20 --trace 0
//   vtpbench --smoke | --traced | --repeat N [--results DIR]
//
// The last line of a single run is its JSON result; README.md next to
// this file lists the workloads and metrics and the reasons for each.
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.hpp"
#include "engine/server.hpp"
#include "engine/spsc_queue.hpp"
#include "engine/timer_wheel.hpp"
#include "engine/udp_io.hpp"
#include "packet/wire.hpp"
#include "sack/reassembly.hpp"
#include "sack/scoreboard.hpp"
#include "stream/stream_scheduler.hpp"
#include "tfrc/loss_history.hpp"
#include "trace/record.hpp"
#include "trace/writer.hpp"

namespace {

using namespace vtp;
namespace fs = std::filesystem;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class load_kind { closed, paced, churn };

struct workload {
    const char* name;
    load_kind kind;
    bool light;                ///< QTPlight: sender-side loss estimation
    std::uint32_t packet_size; ///< payload bytes per data packet
    std::size_t sessions;      ///< long-lived sessions (closed / paced)
    /// Fixed port pair: SO_REUSEPORT hashes the 4-tuple, so another client
    /// port could move all inbound traffic to the other server shard.
    std::uint16_t srv_port;
    std::uint16_t cli_port;
};

constexpr workload workloads[] = {
    {"bulk", load_kind::closed, false, 1000, 128, 46110, 46111},
    {"light_small", load_kind::closed, true, 200, 128, 46120, 46121},
    {"paced", load_kind::paced, false, 1000, 16, 46130, 46131},
    {"churn", load_kind::churn, false, 1000, 0, 46140, 46141},
};

constexpr std::uint64_t closed_inflight = 256 * 1024; ///< undelivered per session
constexpr std::uint64_t closed_topup = 64 * 1024;     ///< smallest top-up send
/// Four packets: the whole message leaves in one send burst, so its
/// latency does not hang on the rate TFRC grants after an idle gap.
constexpr std::uint64_t paced_msg = 4096;
constexpr std::int64_t paced_period_ns = 1'310'720; ///< 4 KiB at 25 Mb/s
/// Paced sessions are QTPAF sessions whose gTFRC committed rate is twice
/// the offered 25 Mb/s. Without a floor, an app-limited TFRC sender may
/// send at most twice what the receiver last saw, and oscillation damping
/// halves that again after an RTT spike, so one stall of the host could
/// leave a sender at or below its offered rate with a backlog it never
/// drains: in 4 of 10 runs on a shared 4-vCPU VM the message p50 rose from
/// 0.14 ms to 0.6-1.5 ms and RSS by up to 90 MB.
constexpr double paced_committed_bps = 2.0 * paced_msg * 8 * 1e9 / paced_period_ns;
constexpr std::uint64_t churn_object = 16 * 1024;
constexpr double churn_rate = 200.0; ///< session arrivals per second
constexpr std::uint32_t flow_base = 0x60000000;
/// The closed loops reach their steady rate within 0.5 s of the first
/// send; the time this saves goes into the window, whose length is what
/// averages out the engines' rate wandering over seconds.
constexpr double warmup_s = 1.0;
/// Set-up time follows the host's contention, which comes and goes within
/// a second; the median of this many set-ups rides out a short burst.
constexpr int setup_reps = 15;
/// cpu_ns_per_byte is the median over slices of the window this long: at
/// low load the engines switch for seconds at a time between batching
/// regimes that differ by up to 1.5x in CPU per byte.
constexpr std::int64_t slice_ns = 1'000'000'000;
/// After the window the load goes on, uncounted, until every counted
/// message is complete or this much time has passed. Stopping the load
/// instead would leave a loss among a session's last packets to the slow
/// tail-probe recovery (up to ~30 s once TFRC's rate falls to its floor);
/// with later packets behind them, the scoreboard finds it at once.
constexpr double drain_s = 5.0;
constexpr double close_wait_s = 2.0;

const workload* find_workload(const std::string& name) {
    for (const workload& w : workloads)
        if (name == w.name) return &w;
    return nullptr;
}

// ---------------------------------------------------------------------------
// Payload pattern: byte (offset % 8) of a splitmix64 word keyed by
// (seed, flow, stream) and offset / 8.
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t pattern_key(std::uint64_t seed, std::uint32_t flow, std::uint32_t stream) {
    return mix64(seed ^ mix64((static_cast<std::uint64_t>(flow) << 32) | stream));
}

void fill_pattern(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t len) {
    while (len > 0) {
        const std::uint64_t w = mix64(key + (offset >> 3));
        std::uint8_t bytes[8];
        std::memcpy(bytes, &w, sizeof bytes);
        const std::size_t skip = static_cast<std::size_t>(offset & 7);
        const std::size_t take = std::min<std::size_t>(8 - skip, len);
        std::memcpy(out, bytes + skip, take);
        out += take;
        offset += take;
        len -= take;
    }
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Exact quantile of raw samples (nearest rank); NaN when empty.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Log-linear histogram of durations for API call timing (1/32 relative
/// resolution), so that millions of calls cost no memory.
class dur_hist {
public:
    void add(std::int64_t ns) {
        const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
        ++counts_[index(v)];
        ++n_;
    }
    /// Midpoint of the bucket holding the q-th call, in microseconds.
    double quantile_us(double q) const {
        if (n_ == 0) return std::nan("");
        const std::uint64_t rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen >= rank) return mid(i) / 1e3;
        }
        return mid(counts_.size() - 1) / 1e3;
    }

private:
    static constexpr int sub_bits = 5;
    static constexpr std::size_t sub = std::size_t{1} << sub_bits;
    static std::size_t index(std::uint64_t v) {
        if (v < sub) return static_cast<std::size_t>(v);
        const int msb = 63 - std::countl_zero(v);
        const int shift = msb - sub_bits;
        return static_cast<std::size_t>(shift + 1) * sub +
               static_cast<std::size_t>((v >> shift) - sub);
    }
    static double mid(std::size_t i) {
        if (i < sub) return static_cast<double>(i);
        const std::size_t shift = i / sub - 1;
        const double lo = static_cast<double>((sub + i % sub) << shift);
        return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
    }
    std::array<std::uint64_t, sub * 60> counts_{};
    std::uint64_t n_ = 0;
};

/// Bucket upper bound -> count of one registry histogram.
using hist_snap = std::map<std::uint64_t, std::uint64_t>;

std::map<std::string, hist_snap> histograms(const trace::registry& r) {
    std::map<std::string, hist_snap> out;
    r.for_each_series([&](const trace::registry::series_view& s) {
        if (s.h == nullptr) return;
        hist_snap& h = out[s.name];
        for (const auto& [upper, n] : s.h->nonzero_buckets()) h[upper] = n;
    });
    return out;
}

hist_snap hist_delta(const std::map<std::string, hist_snap>& a,
                     const std::map<std::string, hist_snap>& b, const std::string& name) {
    hist_snap d;
    const auto ib = b.find(name);
    if (ib == b.end()) return d;
    const auto ia = a.find(name);
    for (const auto& [upper, n] : ib->second) {
        std::uint64_t before = 0;
        if (ia != a.end()) {
            const auto it = ia->second.find(upper);
            if (it != ia->second.end()) before = it->second;
        }
        if (n > before) d[upper] = n - before;
    }
    return d;
}

std::uint64_t hist_count(const hist_snap& h) {
    std::uint64_t n = 0;
    for (const auto& [upper, c] : h) n += c;
    return n;
}

/// Upper bound of the bucket holding quantile q; NaN when empty.
double hist_quantile(const hist_snap& h, double q) {
    const std::uint64_t n = hist_count(h);
    if (n == 0) return std::nan("");
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
    std::uint64_t seen = 0;
    for (const auto& [upper, c] : h) {
        seen += c;
        if (seen >= rank) return static_cast<double>(upper);
    }
    return static_cast<double>(h.rbegin()->first);
}

std::vector<int> list_tids() {
    std::vector<int> out;
    for (const auto& e : fs::directory_iterator("/proc/self/task"))
        out.push_back(std::atoi(e.path().filename().c_str()));
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<int> new_tids(const std::vector<int>& before) {
    std::vector<int> out;
    for (const int t : list_tids())
        if (!std::binary_search(before.begin(), before.end(), t)) out.push_back(t);
    return out;
}

/// The CPUs this process may run on, read once before any thread is
/// pinned.
std::vector<int> run_cpus;

void read_run_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) run_cpus.push_back(c);
}

/// Pins thread i of `tids` to cpus[i] when there is one CPU per thread,
/// else lets every thread use all of `cpus`.
void set_affinity(const std::vector<int>& tids, const std::vector<int>& cpus) {
    for (std::size_t i = 0; i < tids.size(); ++i) {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (tids.size() == cpus.size())
            CPU_SET(cpus[i], &set);
        else
            for (const int c : cpus) CPU_SET(c, &set);
        ::sched_setaffinity(tids[i], sizeof set, &set);
    }
}

/// Nanoseconds thread `tid` of this process has run on a CPU.
std::uint64_t thread_cpu_ns(int tid) {
    std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/schedstat");
    std::uint64_t run = 0;
    f >> run;
    return run;
}

double vm_hwm_mb() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    return std::nan("");
}

template <typename T>
void keep(const T& v) {
    asm volatile("" : : "r,m"(v) : "memory");
}

// ---------------------------------------------------------------------------
// Clock probe. The vCPUs of a shared host change clock between runs and for
// minutes at a time (between 2.5 and 3.0 GHz on one 4-vCPU Xeon VM), and
// CPU-bound metrics follow. They are therefore reported at a nominal clock: every
// engine thread times this probe, a chain of dependent multiply, add, shift
// and xor that takes 6 cycles a step on x86-64, and the median of its
// readings converts that thread's CPU time into cycles.
// ---------------------------------------------------------------------------

constexpr int probe_steps = 20'000;
constexpr double probe_cycles = 6.0 * probe_steps;
constexpr double nominal_ghz = 3.0;
constexpr std::int64_t probe_every_ns = 100'000'000;

double thread_cpu_now_ns() {
    timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// The calling thread's clock in GHz (cycles per ns of its CPU time).
double probe_clock_ghz() {
    const double a = thread_cpu_now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < probe_steps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 17;
    }
    keep(x);
    return probe_cycles / (thread_cpu_now_ns() - a);
}

/// Probe readings of the engine threads; written on the shard threads.
class clock_log {
public:
    void add(int tid, bool client, std::int64_t at, double ghz) {
        const std::lock_guard<std::mutex> lock(mu_);
        readings_.push_back({tid, client, at, ghz});
    }
    /// Median clock of thread `tid` over [from, to). A thread without
    /// readings there (a trace spool thread) gets the median of every
    /// thread's; NaN when there is none at all.
    double ghz(int tid, std::int64_t from, std::int64_t to) const {
        return median_of([&](const reading& r) { return r.tid == tid && r.at >= from && r.at < to; },
                         [&](const reading& r) { return r.at >= from && r.at < to; });
    }
    /// Median clock of the client (or server) engine's shards over [from, to).
    double side_ghz(bool client, std::int64_t from, std::int64_t to) const {
        return median_of(
            [&](const reading& r) { return r.client == client && r.at >= from && r.at < to; },
            [](const reading&) { return false; });
    }

private:
    struct reading {
        int tid;
        bool client;
        std::int64_t at;
        double ghz;
    };
    template <typename Pick, typename Fallback>
    double median_of(Pick pick, Fallback fallback) const {
        const std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> v;
        for (const reading& r : readings_)
            if (pick(r)) v.push_back(r.ghz);
        if (v.empty())
            for (const reading& r : readings_)
                if (fallback(r)) v.push_back(r.ghz);
        return median(std::move(v));
    }
    mutable std::mutex mu_;
    std::vector<reading> readings_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct metric {
    std::string name;
    double value;
    std::string unit;
};

struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> e2e;
    std::vector<metric> layers;
    std::vector<std::string> invalid; ///< run-validity guard failures
    std::vector<std::string> notes;   ///< human-readable extras
    /// Raw window totals behind the ratios (live operation counts for the
    /// ledger's coverage estimate); not reported as metrics.
    std::map<std::string, double> live;

    void add(std::vector<metric>& to, std::string name, double v, std::string unit) {
        to.push_back({std::move(name), v, std::move(unit)});
    }
    double get(const std::string& name) const {
        for (const auto* set : {&e2e, &layers})
            for (const metric& m : *set)
                if (m.name == name) return m.value;
        return std::nan("");
    }
};

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string json_line(const run_result& r, bool layers) {
    std::string s = "{\"correct\": ";
    s += r.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const metric& m : layers ? r.layers : r.e2e) {
        if (!first) s += ", ";
        first = false;
        s += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    s += "}}";
    return s;
}

// ---------------------------------------------------------------------------
// Spans (traced runs): kept in memory, written when the run ends.
// ---------------------------------------------------------------------------

struct span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent; ///< 0 = root
    std::uint32_t flow;
    std::uint32_t msg;    ///< message index within the flow
    std::int64_t start;
    std::int64_t end;
};

class span_log {
public:
    static constexpr std::size_t cap = 200'000;
    static constexpr std::uint64_t poll_sample = 16; ///< 1 poll span in N

    std::uint32_t open(const char* name, std::uint32_t parent, std::uint32_t flow,
                       std::uint32_t msg, std::int64_t start) {
        if (spans_.size() >= cap) {
            ++dropped_;
            return 0;
        }
        const std::uint32_t id = static_cast<std::uint32_t>(spans_.size() + 1);
        spans_.push_back({name, id, parent, flow, msg, start, -1});
        return id;
    }
    void close(std::uint32_t id, std::int64_t end) {
        if (id != 0) spans_[id - 1].end = end;
    }
    void leaf(const char* name, std::uint32_t parent, std::uint32_t flow, std::uint32_t msg,
              std::int64_t start, std::int64_t end) {
        close(open(name, parent, flow, msg, start), end);
    }

    /// Writes every closed span with its self time (duration minus the
    /// union of its children's intervals) and a per-name summary.
    void write(const std::string& path, const std::string& workload,
               std::vector<std::string>& notes) const {
        std::vector<std::vector<std::uint32_t>> kids(spans_.size() + 1);
        for (const span& s : spans_)
            if (s.end >= 0 && s.parent != 0) kids[s.parent].push_back(s.id);
        struct agg {
            std::uint64_t n = 0;
            double total_us = 0, self_us = 0;
        };
        std::map<std::string, agg> by_name;
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return;
        std::fprintf(f, "{\"workload\": \"%s\", \"dropped\": %llu, \"spans\": [\n",
                     workload.c_str(), static_cast<unsigned long long>(dropped_));
        bool first = true;
        for (const span& s : spans_) {
            if (s.end < 0) continue;
            std::vector<std::pair<std::int64_t, std::int64_t>> iv;
            for (const std::uint32_t k : kids[s.id])
                iv.emplace_back(std::max(spans_[k - 1].start, s.start),
                                std::min(spans_[k - 1].end, s.end));
            std::sort(iv.begin(), iv.end());
            std::int64_t covered = 0, cur_b = 0, cur_e = -1;
            for (const auto& [b, e] : iv) {
                if (e <= b) continue;
                if (b > cur_e) {
                    if (cur_e > cur_b) covered += cur_e - cur_b;
                    cur_b = b;
                    cur_e = e;
                } else {
                    cur_e = std::max(cur_e, e);
                }
            }
            if (cur_e > cur_b) covered += cur_e - cur_b;
            const double dur = static_cast<double>(s.end - s.start) / 1e3;
            const double self = static_cast<double>(s.end - s.start - covered) / 1e3;
            agg& a = by_name[s.name];
            ++a.n;
            a.total_us += dur;
            a.self_us += self;
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"id\": %u, \"parent\": %u, \"flow\": %u, "
                         "\"msg\": %u, \"start_us\": %.3f, \"dur_us\": %.3f, \"self_us\": %.3f}",
                         first ? "" : ",\n", s.name, s.id, s.parent, s.flow, s.msg,
                         static_cast<double>(s.start - spans_.front().start) / 1e3, dur, self);
            first = false;
        }
        std::fprintf(f, "\n], \"summary\": {");
        first = true;
        for (const auto& [name, a] : by_name) {
            std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"total_ms\": %.3f, \"self_ms\": %.3f}",
                         first ? "" : ", ", name.c_str(), static_cast<unsigned long long>(a.n),
                         a.total_us / 1e3, a.self_us / 1e3);
            first = false;
            char line[160];
            std::snprintf(line, sizeof line, "span %-16s n=%-8llu total %10.1f ms  self %10.1f ms",
                          name.c_str(), static_cast<unsigned long long>(a.n), a.total_us / 1e3,
                          a.self_us / 1e3);
            notes.emplace_back(line);
        }
        std::fprintf(f, "}}\n");
        std::fclose(f);
    }

private:
    std::vector<span> spans_;
    std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// One run of one workload against a fresh pair of engines.
// ---------------------------------------------------------------------------

struct run_config {
    const workload* w = nullptr;
    std::uint64_t seed = 1;
    double seconds = 24.0;
    bool layers = false; ///< collect per-session stats for per-layer metrics
    bool traced = false; ///< spans + engine flight recorder
    std::string out_dir;
};

struct message {
    std::uint64_t end;  ///< stream offset one past its last byte
    std::int64_t due;   ///< when it was due to be sent
    bool in_window;     ///< due in the window: its latency is a sample
    bool counted;       ///< due before the window ended: it must complete
};

struct flow_state {
    std::uint32_t flow = 0;
    std::uint64_t key = 0;
    std::uint64_t scheduled = 0; ///< bytes the generator offered
    std::uint64_t sent = 0;      ///< bytes accepted by send()
    std::uint64_t delivered = 0; ///< bytes verified at the server, in order
    std::deque<message> msgs;
    std::uint32_t msg_count = 0;
    std::int64_t due = 0;        ///< scheduled open
    std::int64_t connect_ns = 0; ///< connect() call
    std::int64_t close_ns = 0;   ///< close() accepted
    std::int64_t srv_last_ns = 0; ///< the server's last readable or fin event
    std::int64_t srv_fin_ns = -1;
    bool in_window = false;
    bool ready = false; ///< the client shard has built the session
    bool established = false;
    bool close_wanted = false;
    bool close_sent = false;
    bool closed = false;
    std::uint32_t session_span = 0;
    std::deque<std::uint32_t> msg_spans;
};

/// Point-in-time readings taken at the window edges.
struct snapshot {
    std::int64_t at = 0;
    engine::engine_stats srv, cli;
    std::map<std::string, hist_snap> srv_h, cli_h;
    std::vector<std::uint64_t> cpu; ///< per engine thread (runner::engine_tids_)
    std::uint64_t bench_cpu = 0;
    std::size_t threads = 0;
    std::map<std::uint32_t, session_stats> cli_sessions, srv_sessions;
    std::size_t cli_agents = 0;
};

class runner {
public:
    explicit runner(const run_config& cfg) : cfg_(cfg), w_(*cfg.w) {}

    runner(const runner&) = delete;
    runner& operator=(const runner&) = delete;

    /// Builds both engines and establishes every initial session; returns
    /// the seconds this took (churn: until both engines have started).
    double setup() {
        const std::int64_t t0 = now_ns();
        engine::engine_config sc;
        sc.port = w_.srv_port;
        sc.shards = 2;
        sc.rng_seed = cfg_.seed;
        sc.accept.packet_size = w_.packet_size;
        // The bench polls continuously; the ring only has to absorb a
        // descheduled bench thread.
        sc.event_queue_capacity = 1 << 15;
        engine::engine_config cc = sc;
        cc.port = w_.cli_port;
        cc.shards = 1;
        cc.rng_seed = cfg_.seed + 1000;
        if (cfg_.traced) {
            sc.trace_dir = trace_dir("srv");
            cc.trace_dir = trace_dir("cli");
        }
        // New threads inherit this thread's CPU set: widen it back first.
        set_affinity({static_cast<int>(::syscall(SYS_gettid))}, run_cpus);
        const std::vector<int> before = list_tids();
        srv_ = std::make_unique<engine::server>(sc);
        srv_->start();
        srv_tids_ = new_tids(before);
        const std::vector<int> mid = list_tids();
        cli_ = std::make_unique<engine::server>(cc);
        cli_->start();
        cli_tids_ = new_tids(mid);
        engine_tids_ = cli_tids_;
        engine_tids_.insert(engine_tids_.end(), srv_tids_.begin(), srv_tids_.end());
        bench_tid_ = static_cast<int>(::syscall(SYS_gettid));
        // One CPU for the bench thread, one for the client engine, two
        // for the server engine. Left to the scheduler, the unsaturated
        // workloads' CPU cost changed by up to 2x between runs, depending
        // on whether a woken thread landed on its waker's CPU.
        // A traced engine starts its trace spool threads before its shard
        // threads, so the shards are its newest tids; the spool threads
        // may run on any CPU.
        if (run_cpus.size() >= 4) {
            set_affinity({bench_tid_}, {run_cpus[0]});
            const auto pin = [](const std::vector<int>& tids, std::size_t shards,
                                const std::vector<int>& cpus) {
                const auto first = tids.end() - static_cast<std::ptrdiff_t>(std::min(shards, tids.size()));
                set_affinity({tids.begin(), first}, run_cpus);
                set_affinity({first, tids.end()}, cpus);
            };
            pin(cli_tids_, cc.shards, {run_cpus[1]});
            pin(srv_tids_, sc.shards, {run_cpus[2], run_cpus[3]});
        }
        evs_.resize(256);

        for (std::size_t i = 0; i < w_.sessions; ++i) open_session(now_ns());
        const std::int64_t deadline = now_ns() + 10'000'000'000;
        while (established_ < w_.sessions && now_ns() < deadline) step();
        if (established_ < w_.sessions)
            throw std::runtime_error("sessions did not establish within 10 s");
        return static_cast<double>(now_ns() - t0) / 1e9;
    }

    run_result measure() {
        const std::int64_t start = now_ns();
        t0_ = start + static_cast<std::int64_t>(warmup_s * 1e9);
        t1_ = t0_ + static_cast<std::int64_t>(cfg_.seconds * 1e9);
        std::mt19937_64 rng(mix64(cfg_.seed));
        if (w_.kind == load_kind::closed) {
            for (flow_state& f : flows_)
                for (std::uint64_t k = 0; k < closed_inflight / closed_topup; ++k)
                    schedule(f, closed_topup, start);
        } else if (w_.kind == load_kind::paced) {
            // Sessions take evenly spaced slots of the period, each jittered
            // within an eighth of its slot. Phases drawn over the whole
            // period clustered differently per seed, and the engine's CPU
            // per byte followed the clustering.
            const std::int64_t slot = paced_period_ns / static_cast<std::int64_t>(flows_.size());
            std::uniform_int_distribution<std::int64_t> jitter(0, slot / 8);
            for (std::size_t i = 0; i < flows_.size(); ++i)
                next_due_.push_back(start + static_cast<std::int64_t>(i) * slot + jitter(rng));
        } else {
            // Poisson arrivals conditioned on their count: the same number
            // of sessions in the warm-up and in the window of every run,
            // each placed uniformly at random.
            for (const auto& [from, to] : {std::pair{start, t0_}, std::pair{t0_, t1_}}) {
                const auto n = std::llround(churn_rate * static_cast<double>(to - from) / 1e9);
                std::uniform_int_distribution<std::int64_t> at(from, to - 1);
                for (long long i = 0; i < n; ++i) arrivals_.push_back(at(rng));
            }
            std::sort(arrivals_.begin(), arrivals_.end());
        }

        generating_ = true;
        next_probe_ = start;
        while (now_ns() < t0_) step();
        a_ = take_snapshot();
        in_window_ = true;
        slice_cpu_ = engine_cpu();
        slice_at_ = a_.at;
        next_slice_ = a_.at + slice_ns;
        while (now_ns() < t1_) step();
        in_window_ = false;
        b_ = take_snapshot();

        // Drain: the load goes on, uncounted, until every counted message
        // and churn session is complete.
        const std::int64_t drain_end = t1_ + static_cast<std::int64_t>(drain_s * 1e9);
        while ((pending_msgs_ > 0 || open_sessions_ > 0) && now_ns() < drain_end) step();
        generating_ = false;
        drain_s_ = static_cast<double>(now_ns() - t1_) / 1e9;

        // Long-lived sessions close last. core.close_p50_ms times those
        // that close within close_wait_s; one that does not is no failure,
        // its counted messages are complete.
        std::size_t closing = 0;
        for (flow_state& f : flows_) {
            if (f.close_wanted) continue;
            f.close_wanted = true;
            dirty_.push_back(static_cast<std::size_t>(&f - flows_.data()));
            ++closing;
        }
        const std::int64_t close_end = now_ns() + static_cast<std::int64_t>(close_wait_s * 1e9);
        while (long_closed_ < closing && now_ns() < close_end) step();
        const std::int64_t end = now_ns();
        int shown = 0;
        for (flow_state& f : flows_) {
            if (cfg_.traced && !f.closed) spans_.close(f.session_span, end);
            const bool pending = std::any_of(f.msgs.begin(), f.msgs.end(),
                                             [](const message& m) { return m.counted; });
            if (!pending && (f.closed || w_.kind != load_kind::churn)) continue;
            if (shown++ == 4) continue;
            std::fprintf(stderr,
                         "vtpbench: %s: flow %#x incomplete: offered %llu sent %llu "
                         "delivered %llu, %zu messages pending, close %s, %s\n",
                         w_.name, f.flow, static_cast<unsigned long long>(f.scheduled),
                         static_cast<unsigned long long>(f.sent),
                         static_cast<unsigned long long>(f.delivered), f.msgs.size(),
                         f.close_sent ? "sent" : "not sent",
                         f.srv_fin_ns >= 0 ? "server saw fin" : "no fin at server");
        }
        return results();
    }

    /// Stops both engines (flushing their trace spools).
    void stop() {
        cli_.reset();
        srv_.reset();
    }

    const span_log& spans() const { return spans_; }
    std::int64_t window_start() const { return t0_; }
    std::int64_t window_end() const { return t1_; }

private:
    std::string trace_dir(const char* side) const {
        return cfg_.out_dir + "/trace-" + w_.name + "/" + side;
    }

    bool in_window(std::int64_t t) const { return t >= t0_ && t < t1_; }

    void open_session(std::int64_t due) {
        flow_state f;
        f.flow = flow_base + static_cast<std::uint32_t>(flows_.size());
        f.key = pattern_key(cfg_.seed, f.flow, 0);
        f.due = due;
        f.in_window = in_window(due);
        session_options o = w_.light                   ? session_options::light(sack::reliability_mode::full)
                            : w_.kind == load_kind::paced ? session_options::af(paced_committed_bps)
                                                          : session_options::reliable();
        o.flow_id = f.flow;
        o.packet_size = w_.packet_size;
        const std::int64_t a = now_ns();
        if (cfg_.traced) f.session_span = spans_.open("session", 0, f.flow, 0, due);
        // The handle is only touched on the client shard thread: here, and
        // in the stats closures posted through with_server(). Commands may
        // only follow this callback: the shard drains its command mailbox
        // and its posted closures in separate steps of a turn, so a send()
        // right after connect() can reach the shard before the session does
        // and be dropped.
        cli_->connect(w_.srv_port, o, [this](std::size_t, vtp::session s) {
            const std::uint32_t id = s.flow_id();
            handles_.insert_or_assign(id, std::move(s));
            const std::lock_guard<std::mutex> lock(ready_mu_);
            ready_.push_back(id);
        });
        const std::int64_t b = now_ns();
        connect_us_.add(b - a);
        if (cfg_.traced) spans_.leaf("api.connect", f.session_span, f.flow, 0, a, b);
        f.connect_ns = a;
        flows_.push_back(std::move(f));
        // A churn session is an operation of its own: it must deliver its
        // object and close. Long-lived sessions must establish (setup())
        // and stay open.
        if (w_.kind == load_kind::churn) {
            ++open_sessions_;
            ++sessions_attempted_;
            flow_state& g = flows_.back();
            schedule(g, churn_object, due);
            g.close_wanted = true;
        }
    }

    void schedule(flow_state& f, std::uint64_t len, std::int64_t due) {
        f.scheduled += len;
        const bool counted = due < t1_;
        f.msgs.push_back({f.scheduled, due, in_window(due), counted});
        if (cfg_.traced)
            f.msg_spans.push_back(spans_.open("message", f.session_span, f.flow, f.msg_count, due));
        ++f.msg_count;
        if (counted) {
            ++pending_msgs_;
            ++msgs_attempted_;
        }
        dirty_.push_back(static_cast<std::size_t>(&f - flows_.data()));
    }

    /// Hands every offered byte and close to the client mailbox; a full
    /// mailbox leaves the rest for the next step.
    void pump() {
        {
            const std::lock_guard<std::mutex> lock(ready_mu_);
            ready_taken_.swap(ready_);
        }
        for (const std::uint32_t flow : ready_taken_) {
            flow_state* f = find(flow);
            f->ready = true;
            dirty_.push_back(flow - flow_base);
        }
        ready_taken_.clear();
        std::size_t i = 0;
        for (; i < dirty_.size(); ++i) {
            flow_state& f = flows_[dirty_[i]];
            if (!f.ready) continue; // queued again once the shard built it
            if (f.sent < f.scheduled) {
                const std::size_t len = static_cast<std::size_t>(f.scheduled - f.sent);
                scratch_.resize(len);
                fill_pattern(f.key, f.sent, scratch_.data(), len);
                const std::int64_t a = now_ns();
                const bool ok = cli_->send(0, f.flow, 0, scratch_.data(), len);
                const std::int64_t b = now_ns();
                if (in_window_) send_us_.add(b - a);
                if (cfg_.traced)
                    spans_.leaf("api.send", f.session_span, f.flow, f.msg_count - 1, a, b);
                if (!ok) {
                    ++send_rejected_;
                    break;
                }
                f.sent = f.scheduled;
            }
            if (f.close_wanted && !f.close_sent && f.sent == f.scheduled) {
                const std::int64_t a = now_ns();
                const bool ok = cli_->close(0, f.flow);
                if (cfg_.traced) spans_.leaf("api.close", f.session_span, f.flow, 0, a, now_ns());
                if (!ok) {
                    ++send_rejected_;
                    break;
                }
                f.close_sent = true;
                f.close_ns = a;
            }
        }
        dirty_.erase(dirty_.begin(), dirty_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    void generate(std::int64_t now) {
        if (!generating_) return;
        if (w_.kind == load_kind::paced) {
            for (std::size_t i = 0; i < flows_.size(); ++i) {
                while (next_due_[i] <= now) {
                    if (in_window(next_due_[i])) gen_late_ms_.push_back((now - next_due_[i]) / 1e6);
                    schedule(flows_[i], paced_msg, next_due_[i]);
                    next_due_[i] += paced_period_ns;
                }
            }
        } else if (w_.kind == load_kind::churn) {
            while (next_arrival_ < arrivals_.size() && arrivals_[next_arrival_] <= now) {
                const std::int64_t due = arrivals_[next_arrival_++];
                if (in_window(due)) gen_late_ms_.push_back((now - due) / 1e6);
                open_session(due);
            }
        }
    }

    std::int64_t next_due() const {
        std::int64_t t = INT64_MAX;
        if (!generating_) return t;
        for (const std::int64_t d : next_due_) t = std::min(t, d);
        if (next_arrival_ < arrivals_.size()) t = std::min(t, arrivals_[next_arrival_]);
        return t;
    }

    flow_state* find(std::uint32_t flow) {
        const std::uint32_t i = flow - flow_base;
        return flow >= flow_base && i < flows_.size() ? &flows_[i] : nullptr;
    }

    void on_server_event(engine::engine_event& e, std::int64_t now) {
        flow_state* f = find(e.flow);
        if (f == nullptr) {
            fail("server event for unknown flow");
            return;
        }
        if (e.ev.type == qtp::event_type::readable) {
            const std::vector<std::uint8_t>& p = e.payload;
            if (e.ev.stream_id != 0 || e.ev.offset != f->delivered) {
                fail("chunk out of order");
                return;
            }
            scratch_rx_.resize(p.size());
            fill_pattern(f->key, e.ev.offset, scratch_rx_.data(), p.size());
            if (!p.empty() && std::memcmp(p.data(), scratch_rx_.data(), p.size()) != 0) {
                fail("payload mismatch");
                return;
            }
            f->delivered += p.size();
            f->srv_last_ns = now;
            if (in_window_) window_bytes_ += p.size();
            while (!f->msgs.empty() && f->msgs.front().end <= f->delivered) {
                const message m = f->msgs.front();
                f->msgs.pop_front();
                if (cfg_.traced) {
                    spans_.close(f->msg_spans.front(), now);
                    f->msg_spans.pop_front();
                }
                if (w_.kind == load_kind::churn) continue; // completes at `closed`
                if (m.counted) --pending_msgs_;
                if (m.in_window) msg_ms_.push_back((now - m.due) / 1e6);
            }
            // A closed-loop top-up is due when poll_events() returned the
            // delivery that made room for it.
            if (generating_ && w_.kind == load_kind::closed &&
                f->scheduled - f->delivered + closed_topup <= closed_inflight) {
                if (in_window(now)) gen_late_ms_.push_back((now_ns() - now) / 1e6);
                schedule(*f, closed_inflight - (f->scheduled - f->delivered), now);
            }
        } else if (e.ev.type == qtp::event_type::fin) {
            if (e.ev.bytes != f->scheduled) fail("fin at the wrong stream length");
            f->srv_fin_ns = now;
            f->srv_last_ns = now;
        }
    }

    void on_client_event(const engine::engine_event& e, std::int64_t now) {
        flow_state* f = find(e.flow);
        if (f == nullptr) {
            fail("client event for unknown flow");
            return;
        }
        if (e.ev.type == qtp::event_type::established && !f->established) {
            f->established = true;
            ++established_;
            if (w_.kind != load_kind::churn || f->in_window)
                handshake_ms_.push_back((now - f->connect_ns) / 1e6);
        } else if (e.ev.type == qtp::event_type::closed && !f->closed) {
            f->closed = true;
            if (!f->close_sent) {
                fail("session closed before the bench closed it");
                return;
            }
            // Timed from when there was nothing left to do but close: the
            // close() call or the server's last delivery, whichever is later.
            if (w_.kind != load_kind::churn || f->in_window)
                close_ms_.push_back((now - std::max(f->close_ns, f->srv_last_ns)) / 1e6);
            if (cfg_.traced) spans_.close(f->session_span, now);
            if (w_.kind != load_kind::churn) {
                ++long_closed_;
            } else {
                --open_sessions_;
                if (!f->msgs.empty() || f->delivered != f->scheduled) {
                    fail("session closed before its object was delivered");
                    return;
                }
                --pending_msgs_;
                if (f->in_window) msg_ms_.push_back((now - f->due) / 1e6);
            }
        }
    }

    std::size_t poll(engine::server& eng, bool server_side) {
        const std::int64_t a = now_ns();
        const std::size_t n = eng.poll_events(evs_.data(), evs_.size());
        const std::int64_t b = now_ns();
        if (in_window_) {
            poll_us_.add(b - a);
            ++polls_;
            events_ += n;
        }
        if (cfg_.traced && ++poll_calls_ % span_log::poll_sample == 0)
            spans_.leaf("api.poll_events", 0, 0, 0, a, b);
        for (std::size_t i = 0; i < n; ++i) {
            if (server_side)
                on_server_event(evs_[i], b);
            else
                on_client_event(evs_[i], b);
        }
        return n;
    }

    void step() {
        const std::size_t got = poll(*srv_, true) + poll(*cli_, false);
        const std::int64_t now = now_ns();
        generate(now);
        pump();
        if (generating_ && now < t1_ && now >= next_probe_) {
            post_probes(*cli_, true);
            post_probes(*srv_, false);
            next_probe_ += probe_every_ns;
        }
        if (in_window_ && now >= next_slice_) {
            slice s{slice_at_, now, window_bytes_ - slice_bytes_, engine_cpu()};
            for (std::size_t i = 0; i < s.cpu.size(); ++i) {
                const std::uint64_t before = slice_cpu_[i];
                slice_cpu_[i] = s.cpu[i];
                s.cpu[i] -= before;
            }
            slices_.push_back(std::move(s));
            slice_at_ = now;
            slice_bytes_ = window_bytes_;
            next_slice_ += slice_ns;
        }
        if (got == 0 && dirty_.empty()) {
            const std::int64_t wait = std::min<std::int64_t>(next_due() - now, 50'000);
            if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        }
    }

    /// CPU ns of every engine thread, in engine_tids_ order.
    std::vector<std::uint64_t> engine_cpu() const {
        std::vector<std::uint64_t> out;
        for (const int t : engine_tids_) out.push_back(thread_cpu_ns(t));
        return out;
    }

    /// Times the clock probe once on every shard of `eng`.
    void post_probes(engine::server& eng, bool client) {
        for (std::size_t i = 0; i < eng.shard_count(); ++i)
            eng.with_server(i, [this, client](vtp::server&) {
                const double ghz = probe_clock_ghz();
                clocks_.add(static_cast<int>(::syscall(SYS_gettid)), client, now_ns(), ghz);
            });
    }

    /// Nanoseconds at the nominal clock that `cpu` (per engine_tids_) took
    /// when run over [from, to).
    double nominal_ns(const std::vector<std::uint64_t>& cpu, std::int64_t from, std::int64_t to) const {
        double cycles = 0;
        for (std::size_t i = 0; i < cpu.size(); ++i)
            cycles += static_cast<double>(cpu[i]) * clocks_.ghz(engine_tids_[i], from, to);
        return cycles / nominal_ghz;
    }

    void fail(const char* why) {
        if (correct_) std::fprintf(stderr, "vtpbench: %s: %s\n", w_.name, why);
        correct_ = false;
    }

    /// Runs `fn` on the client shard thread and waits for it.
    template <typename Fn>
    void on_client_shard(Fn fn) {
        std::promise<void> done;
        cli_->with_server(0, [&](vtp::server&) {
            fn();
            done.set_value();
        });
        done.get_future().wait();
    }

    snapshot take_snapshot() {
        snapshot s;
        s.at = now_ns();
        s.srv = srv_->stats();
        s.cli = cli_->stats();
        s.srv_h = histograms(*srv_->metrics());
        s.cli_h = histograms(*cli_->metrics());
        s.cpu = engine_cpu();
        s.bench_cpu = thread_cpu_ns(bench_tid_);
        s.threads = list_tids().size();
        if (cfg_.layers) {
            for (const session_snapshot& sn : srv_->snapshot_sessions())
                s.srv_sessions[sn.flow] = sn.stats;
            on_client_shard([&] {
                engine::shard& sh = cli_->shard_at(0);
                s.cli_agents = sh.agent_count();
                for (const auto& [flow, h] : handles_)
                    if (sh.find_agent(flow) == static_cast<const qtp::agent*>(h.sender()))
                        s.cli_sessions[flow] = h.stats();
            });
        }
        return s;
    }

    run_result results() {
        run_result r;
        r.correct = correct_;
        r.attempted = msgs_attempted_ + sessions_attempted_;
        r.failed = pending_msgs_ + open_sessions_;
        const double win_s = static_cast<double>(b_.at - a_.at) / 1e9;
        const double bytes = static_cast<double>(window_bytes_);
        // Engine CPU of the window, split into the client's threads and the
        // server's, as measured and at the nominal clock.
        std::vector<std::uint64_t> cli_part(b_.cpu.size()), srv_part(b_.cpu.size());
        double cli_cpu = 0, srv_cpu = 0;
        std::vector<double> srv_busy;
        for (std::size_t i = 0; i < b_.cpu.size(); ++i) {
            const std::uint64_t ns = b_.cpu[i] - a_.cpu[i];
            if (i < cli_tids_.size()) {
                cli_part[i] = ns;
                cli_cpu += static_cast<double>(ns);
            } else {
                srv_part[i] = ns;
                srv_cpu += static_cast<double>(ns);
                srv_busy.push_back(static_cast<double>(ns) / 1e9 / win_s);
            }
        }
        const double engine_cpu = cli_cpu + srv_cpu;
        const double cli_nominal = nominal_ns(cli_part, a_.at, b_.at);
        const double srv_nominal = nominal_ns(srv_part, a_.at, b_.at);
        const double cli_ghz = clocks_.side_ghz(true, a_.at, b_.at);
        const double srv_ghz = clocks_.side_ghz(false, a_.at, b_.at);
        std::vector<double> slice_cost;
        for (const slice& s : slices_)
            if (s.bytes > 0)
                slice_cost.push_back(nominal_ns(s.cpu, s.from, s.to) / static_cast<double>(s.bytes));

        // A closed loop runs as fast as the client shard's clock lets it, so
        // its goodput and message latency are scaled to the nominal clock
        // too; an open loop's are set by its schedule.
        const double goodput = bytes * 8.0 / win_s / 1e6;
        const double msg_p50 = quantile(msg_ms_, 0.50);
        const bool closed = w_.kind == load_kind::closed;
        r.add(r.e2e, "goodput_mbps", closed ? goodput * nominal_ghz / cli_ghz : goodput, "Mb/s");
        r.add(r.e2e, "cpu_ns_per_byte",
              slice_cost.empty() ? (cli_nominal + srv_nominal) / bytes : median(slice_cost), "ns/B");
        r.add(r.e2e, "msg_p50_ms", closed ? msg_p50 * cli_ghz / nominal_ghz : msg_p50, "ms");
        r.add(r.e2e, "rss_peak_mb", vm_hwm_mb(), "MB");

        // --- engine -------------------------------------------------------
        const auto d = [](std::uint64_t b, std::uint64_t a) { return static_cast<double>(b - a); };
        const double cli_busy = cli_cpu / 1e9 / win_s;
        const double app_busy = d(b_.bench_cpu, a_.bench_cpu) / 1e9 / win_s;
        const double srv_pkts = d(b_.srv.datagrams_rx, a_.srv.datagrams_rx) +
                                d(b_.srv.datagrams_tx, a_.srv.datagrams_tx);
        const double cli_pkts = d(b_.cli.datagrams_rx, a_.cli.datagrams_rx) +
                                d(b_.cli.datagrams_tx, a_.cli.datagrams_tx);
        auto& L = r.layers;
        r.add(L, "engine.cli_busy_frac", cli_busy, "1");
        r.add(L, "engine.srv_busy_frac", srv_cpu / 1e9 / win_s / static_cast<double>(srv_busy.size()), "1");
        r.add(L, "engine.srv_busy_frac_max", *std::max_element(srv_busy.begin(), srv_busy.end()), "1");
        r.add(L, "engine.cli_clock_ghz", cli_ghz, "GHz");
        r.add(L, "engine.srv_clock_ghz", srv_ghz, "GHz");
        r.add(L, "engine.cli_ns_per_pkt", cli_nominal / cli_pkts, "ns");
        r.add(L, "engine.srv_ns_per_pkt", srv_nominal / srv_pkts, "ns");
        const auto p99_us = [&](const std::map<std::string, hist_snap>& a,
                                const std::map<std::string, hist_snap>& b, const char* name) {
            return hist_quantile(hist_delta(a, b, name), 0.99) / 1e3;
        };
        r.add(L, "engine.cli_turn_p99_us", p99_us(a_.cli_h, b_.cli_h, "vtp_shard_turn_ns"), "us");
        r.add(L, "engine.srv_turn_p99_us", p99_us(a_.srv_h, b_.srv_h, "vtp_shard_turn_ns"), "us");
        r.add(L, "engine.cli_timer_late_p99_us",
              p99_us(a_.cli_h, b_.cli_h, "vtp_timer_fire_latency_ns"), "us");
        r.add(L, "engine.srv_timer_late_p99_us",
              p99_us(a_.srv_h, b_.srv_h, "vtp_timer_fire_latency_ns"), "us");
        const auto per = [](double n, double k) { return k > 0 ? n / k : 0.0; };
        r.add(L, "engine.cli_rx_per_batch",
              per(d(b_.cli.datagrams_rx, a_.cli.datagrams_rx), d(b_.cli.rx_batches, a_.cli.rx_batches)), "1");
        r.add(L, "engine.cli_tx_per_batch",
              per(d(b_.cli.datagrams_tx, a_.cli.datagrams_tx), d(b_.cli.tx_batches, a_.cli.tx_batches)), "1");
        r.add(L, "engine.srv_rx_per_batch",
              per(d(b_.srv.datagrams_rx, a_.srv.datagrams_rx), d(b_.srv.rx_batches, a_.srv.rx_batches)), "1");
        r.add(L, "engine.srv_tx_per_batch",
              per(d(b_.srv.datagrams_tx, a_.srv.datagrams_tx), d(b_.srv.tx_batches, a_.srv.tx_batches)), "1");
        r.add(L, "engine.srv_handoff_frac",
              per(d(b_.srv.handoff_out, a_.srv.handoff_out), d(b_.srv.datagrams_rx, a_.srv.datagrams_rx)), "1");
        const auto both = [&](std::uint64_t engine::engine_stats::*m) {
            return d(b_.srv.*m, a_.srv.*m) + d(b_.cli.*m, a_.cli.*m);
        };
        r.add(L, "engine.handoff_dropped", both(&engine::engine_stats::handoff_dropped), "count");
        r.add(L, "engine.tx_dropped", both(&engine::engine_stats::tx_dropped), "count");
        r.add(L, "engine.pool_exhausted", both(&engine::engine_stats::pool_exhausted), "count");
        r.add(L, "engine.events_dropped", both(&engine::engine_stats::events_dropped), "count");
        r.add(L, "engine.commands_dropped", both(&engine::engine_stats::commands_dropped), "count");
        r.add(L, "engine.decode_errors", both(&engine::engine_stats::decode_errors), "count");
        const double occ = std::max(
            hist_quantile(hist_delta(a_.srv_h, b_.srv_h, "vtp_event_ring_occupancy"), 1.0),
            hist_quantile(hist_delta(a_.cli_h, b_.cli_h, "vtp_event_ring_occupancy"), 1.0));
        r.add(L, "engine.event_ring_occupancy_max", occ, "count");
        r.add(L, "engine.cli_agents_live", static_cast<double>(b_.cli_agents), "count");

        // --- api (bench-timed calls) ---------------------------------------
        r.add(L, "api.poll_events_us_p50", poll_us_.quantile_us(0.50), "us");
        r.add(L, "api.poll_events_us_p99", poll_us_.quantile_us(0.99), "us");
        r.add(L, "api.events_per_poll", per(static_cast<double>(events_), static_cast<double>(polls_)), "1");
        r.add(L, "api.send_us_p99", send_us_.quantile_us(0.99), "us");
        r.add(L, "api.send_rejected", static_cast<double>(send_rejected_), "count");
        r.add(L, "api.connect_us_p99", connect_us_.quantile_us(0.99), "us");
        r.add(L, "bench.app_busy_frac", app_busy, "1");
        r.add(L, "bench.gen_late_p99_ms", quantile(gen_late_ms_, 0.99), "ms");
        r.add(L, "bench.msg_p99_ms", quantile(msg_ms_, 0.99), "ms");

        // --- core / cc / tfrc / sack / stream --------------------------------
        r.add(L, "core.handshake_p50_ms", quantile(handshake_ms_, 0.50), "ms");
        r.add(L, "core.close_p50_ms", quantile(close_ms_, 0.50), "ms");
        r.add(L, "core.feedback_per_data_pkt",
              per(d(b_.srv.datagrams_tx, a_.srv.datagrams_tx), d(b_.cli.datagrams_tx, a_.cli.datagrams_tx)), "1");
        r.add(L, "core.tx_pkts_per_payload_pkt",
              per(d(b_.cli.datagrams_tx, a_.cli.datagrams_tx), bytes / w_.packet_size), "1");
        r.add(L, "cc.rtt_p50_us",
              hist_quantile(hist_delta(a_.srv_h, b_.srv_h, "vtp_rtt_ns"), 0.50) / 1e3, "us");
        std::vector<double> rates, loss;
        double rtx = 0, first_tx = 0, miss = 0, recv_dropped = 0;
        for (const auto& [flow, st] : b_.cli_sessions) {
            rates.push_back(st.allowed_rate_bps / 1e6);
            loss.push_back(st.loss_event_rate);
            const auto it = a_.cli_sessions.find(flow);
            const session_stats before = it == a_.cli_sessions.end() ? session_stats{} : it->second;
            rtx += d(st.rtx_bytes_sent, before.rtx_bytes_sent);
            first_tx += d(st.stream_bytes_sent, before.stream_bytes_sent);
            miss += d(st.tx_payload_miss_bytes, before.tx_payload_miss_bytes);
        }
        for (const auto& [flow, st] : b_.srv_sessions) {
            const auto it = a_.srv_sessions.find(flow);
            recv_dropped += d(st.recv_dropped_bytes,
                              it == a_.srv_sessions.end() ? 0 : it->second.recv_dropped_bytes);
        }
        r.add(L, "cc.pacing_rate_mbps_p50", rates.empty() ? 0.0 : median(rates), "Mb/s");
        double loss_mean = 0;
        for (const double p : loss) loss_mean += p / static_cast<double>(loss.size());
        r.add(L, "tfrc.loss_event_rate_mean", loss_mean, "1");
        r.add(L, "sack.rtx_frac", per(rtx, first_tx), "1");
        r.add(L, "stream.recv_dropped_bytes", recv_dropped, "B");
        r.add(L, "stream.tx_payload_miss_bytes", miss, "B");

        r.live["window_bytes"] = bytes;
        r.live["engine_cpu_ns"] = engine_cpu;
        r.live["data_pkts"] = d(b_.cli.datagrams_tx, a_.cli.datagrams_tx);
        r.live["datagrams_rx"] = both(&engine::engine_stats::datagrams_rx);
        r.live["datagrams_tx"] = both(&engine::engine_stats::datagrams_tx);
        r.live["handoffs"] = d(b_.srv.handoff_out, a_.srv.handoff_out);
        r.live["timer_fires"] =
            static_cast<double>(hist_count(hist_delta(a_.srv_h, b_.srv_h, "vtp_timer_fire_latency_ns")) +
                                hist_count(hist_delta(a_.cli_h, b_.cli_h, "vtp_timer_fire_latency_ns")));

        // --- run validity ------------------------------------------------------
        char why[160];
        if (w_.kind == load_kind::closed && cli_busy < 0.9) {
            std::snprintf(why, sizeof why, "client shard not saturated (busy %.3f < 0.9)", cli_busy);
            r.invalid.emplace_back(why);
        }
        if (app_busy > 0.8) {
            std::snprintf(why, sizeof why, "bench thread is the bottleneck (busy %.3f > 0.8)", app_busy);
            r.invalid.emplace_back(why);
        }
        const double late = r.get("bench.gen_late_p99_ms");
        if (w_.kind != load_kind::closed && late > 1.0) {
            std::snprintf(why, sizeof why, "generator ran late (p99 %.3f ms > 1)", late);
            r.invalid.emplace_back(why);
        }
        if (!cfg_.traced && (a_.threads != 4 || b_.threads != 4)) {
            std::snprintf(why, sizeof why, "%zu/%zu threads in the window, want 4", a_.threads, b_.threads);
            r.invalid.emplace_back(why);
        }
        char line[200];
        std::snprintf(line, sizeof line,
                      "bench.msg_p99_ms %.3f ms from %zu samples (%zu beyond it); "
                      "messages %llu, sessions %llu, drain %.3f s",
                      quantile(msg_ms_, 0.99), msg_ms_.size(), msg_ms_.size() / 100,
                      static_cast<unsigned long long>(msgs_attempted_),
                      static_cast<unsigned long long>(sessions_attempted_), drain_s_);
        r.notes.emplace_back(line);
        std::snprintf(line, sizeof line,
                      "as measured: goodput %.2f Mb/s, msg_p50 %.4f ms, engine CPU %.3f ns/B; "
                      "clock client %.3f GHz, server %.3f GHz",
                      goodput, msg_p50, engine_cpu / bytes, cli_ghz, srv_ghz);
        r.notes.emplace_back(line);
        if (w_.kind == load_kind::churn) {
            std::snprintf(line, sizeof line, "churn completion p999 %.3f ms from %zu sessions",
                          quantile(msg_ms_, 0.999), msg_ms_.size());
            r.notes.emplace_back(line);
        }
        return r;
    }

    // Declared before the engines: connect() callbacks and clock probes
    // write these on the shard threads until the engines are destroyed.
    std::unordered_map<std::uint32_t, vtp::session> handles_;
    std::mutex ready_mu_;
    std::vector<std::uint32_t> ready_; ///< flows the client shard has built
    clock_log clocks_;
    run_config cfg_;
    const workload& w_;
    std::unique_ptr<engine::server> srv_;
    std::unique_ptr<engine::server> cli_;
    std::vector<int> srv_tids_, cli_tids_;
    std::vector<int> engine_tids_; ///< cli_tids_, then srv_tids_
    int bench_tid_ = 0;
    std::vector<engine::engine_event> evs_;
    std::vector<std::uint8_t> scratch_, scratch_rx_;

    std::vector<flow_state> flows_;
    std::vector<std::size_t> dirty_; ///< flows with bytes or a close to hand over
    std::vector<std::uint32_t> ready_taken_;
    std::vector<std::int64_t> next_due_;
    std::vector<std::int64_t> arrivals_;
    std::size_t next_arrival_ = 0;
    std::size_t established_ = 0;
    std::uint64_t pending_msgs_ = 0;
    std::uint64_t open_sessions_ = 0; ///< churn sessions not yet closed
    std::size_t long_closed_ = 0;     ///< long-lived sessions closed after the drain
    std::uint64_t msgs_attempted_ = 0;
    std::uint64_t sessions_attempted_ = 0;
    bool generating_ = false;
    bool in_window_ = false;
    bool correct_ = true;
    std::int64_t t0_ = INT64_MAX, t1_ = INT64_MAX;
    snapshot a_, b_;

    std::uint64_t window_bytes_ = 0;
    struct slice {
        std::int64_t from, to;
        std::uint64_t bytes;
        std::vector<std::uint64_t> cpu; ///< per engine thread
    };
    std::vector<slice> slices_;
    std::vector<std::uint64_t> slice_cpu_;
    std::uint64_t slice_bytes_ = 0;
    std::int64_t slice_at_ = 0, next_slice_ = INT64_MAX;
    std::int64_t next_probe_ = INT64_MAX;
    double drain_s_ = 0;
    std::vector<double> msg_ms_, gen_late_ms_, handshake_ms_, close_ms_;
    dur_hist poll_us_, send_us_, connect_us_;
    std::uint64_t polls_ = 0, events_ = 0, send_rejected_ = 0, poll_calls_ = 0;
    span_log spans_;
};

// ---------------------------------------------------------------------------
// Traced-run extras: flight-recorder counts and the layer replay.
// ---------------------------------------------------------------------------

/// Counts flight-recorder records of both engines in [t0, t1) per
/// delivered MB, then deletes the spool files.
void trace_counts(const std::string& dir, std::int64_t t0, std::int64_t t1, double mb,
                  run_result& r) {
    std::map<std::string, double> n;
    for (const char* k : {"packet_tx", "packet_rx", "feedback_tx", "ack_rx", "loss_event",
                          "timer_fire_nofeedback", "timer_fire_handshake", "timer_fire_fin",
                          "cc_sample"})
        n[k] = 0;
    std::error_code ec;
    for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.path().extension() != ".vtpt") continue;
        std::vector<trace::record> recs;
        if (!trace::read_trace_file(e.path().string(), recs)) continue;
        for (const trace::record& rec : recs) {
            const auto at = static_cast<std::int64_t>(rec.at);
            if (at < t0 || at >= t1) continue;
            const auto type = static_cast<trace::record_type>(rec.type);
            if (type == trace::record_type::timer_fire) {
                switch (static_cast<trace::timer_kind>(rec.aux)) {
                case trace::timer_kind::nofeedback: n["timer_fire_nofeedback"] += 1; break;
                case trace::timer_kind::handshake: n["timer_fire_handshake"] += 1; break;
                case trace::timer_kind::fin: n["timer_fire_fin"] += 1; break;
                }
                continue;
            }
            const auto it = n.find(trace::type_name(type));
            if (it != n.end()) it->second += 1;
        }
    }
    fs::remove_all(dir, ec);
    for (const auto& [k, v] : n) r.add(r.layers, "trace." + k + "_per_mb", mb > 0 ? v / mb : 0.0, "1/MB");
}

/// Median over five repetitions of the mean ns per call of `body(i)`.
template <typename Body>
double ns_per_op(std::size_t ops, Body&& body) {
    std::vector<double> reps;
    std::size_t i = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t a = now_ns();
        for (std::size_t k = 0; k < ops; ++k) body(i++);
        reps.push_back(static_cast<double>(now_ns() - a) / static_cast<double>(ops));
    }
    return median(reps);
}

struct replay_layer {
    const char* name;
    double ns;
    double ops; ///< live operations in the untraced window
};

/// Times the public functions each datapath layer runs per packet, on
/// inputs shaped like the workload: its packet size, its payload and
/// its live timer count.
std::vector<replay_layer> replay(const workload& w, std::uint64_t seed, const run_result& live) {
    const std::uint32_t ps = w.packet_size;
    std::vector<std::uint8_t> payload(ps);
    fill_pattern(pattern_key(seed, flow_base, 0), 0, payload.data(), ps);
    packet::data_segment d;
    d.payload_len = ps;
    d.payload = payload;
    d.rtt_estimate = util::milliseconds(1);
    packet::segment seg{d};
    std::vector<std::uint8_t> buf(engine::max_datagram);
    const std::size_t enc_len = packet::encode_segment_into(seg, buf.data(), buf.size());

    // Live operation counts of the untraced window.
    const double data_pkts = live.live.at("data_pkts");
    const double rx_pkts = live.live.at("datagrams_rx");
    const double tx_pkts = live.live.at("datagrams_tx");
    const double timers = live.live.at("timer_fires");
    const double handoffs = live.live.at("handoffs");
    const double fb_every = std::max(1.0, 1.0 / std::max(1e-6, live.get("core.feedback_per_data_pkt")));

    std::vector<replay_layer> out;
    auto& dseg = std::get<packet::data_segment>(seg);
    out.push_back({"packet.encode_ns", ns_per_op(200'000, [&](std::size_t i) {
                       dseg.seq = i;
                       dseg.byte_offset = i * ps;
                       keep(packet::encode_segment_into(seg, buf.data(), buf.size()));
                   }), tx_pkts});
    out.push_back({"packet.decode_ns", ns_per_op(200'000, [&](std::size_t) {
                       keep(packet::decode_segment(buf.data(), enc_len));
                   }), rx_pkts});

    {
        // Live timer count: a pacing, a feedback and a no-feedback timer
        // per session, plus the reapers.
        const std::size_t live_timers =
            3 * std::max<std::size_t>(w.sessions, static_cast<std::size_t>(churn_rate / 10)) + 4;
        engine::timer_wheel wheel(0);
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<std::int64_t> delay(1, 100'000'000);
        for (std::size_t i = 0; i < live_timers; ++i) wheel.schedule_at(delay(rng), [] {});
        out.push_back({"engine.timer_ns", ns_per_op(200'000, [&](std::size_t i) {
                           const auto id = wheel.schedule_at(delay(rng), [i] { keep(i); });
                           keep(wheel.cancel(id));
                       }), timers});
    }
    {
        struct msg {
            std::uint32_t len = 0;
            std::uint8_t bytes[engine::max_datagram];
        };
        engine::spsc_queue<msg> q(512);
        auto m = std::make_unique<msg>();
        auto got = std::make_unique<msg>();
        out.push_back({"engine.handoff_ns", ns_per_op(200'000, [&](std::size_t) {
                           m->len = static_cast<std::uint32_t>(enc_len);
                           std::memcpy(m->bytes, buf.data(), enc_len);
                           q.push(std::move(*m));
                           q.pop(*got);
                           keep(got->len);
                       }), handoffs});
    }
    {
        tfrc::loss_history h;
        out.push_back({"tfrc.loss_history_ns", ns_per_op(200'000, [&](std::size_t i) {
                           const auto t = static_cast<util::sim_time>(i) * 4'000;
                           keep(h.on_packet(i, t, util::milliseconds(1)));
                       }), w.light ? 0.0 : data_pkts});
    }
    {
        sack::scoreboard sb;
        std::vector<sack::transmission_record> lost;
        packet::sack_feedback_segment fb;
        const auto every = static_cast<std::size_t>(fb_every);
        out.push_back({"sack.scoreboard_ns", ns_per_op(200'000, [&](std::size_t i) {
                           sack::transmission_record rec;
                           rec.seq = i;
                           rec.byte_offset = static_cast<std::uint64_t>(i) * ps;
                           rec.length = ps;
                           sb.record(rec);
                           if (i % every == every - 1) {
                               fb.cum_ack = i + 1;
                               fb.blocks.clear();
                               lost.clear();
                               sb.on_sack(fb, lost);
                           }
                       }), data_pkts});
    }
    {
        sack::reassembly ra(sack::delivery_order::ordered);
        out.push_back({"sack.reassembly_ns", ns_per_op(200'000, [&](std::size_t i) {
                           keep(ra.on_data(static_cast<std::uint64_t>(i) * ps, ps, false));
                       }), data_pkts});
    }
    {
        // The loopback syscalls, on the workload's port pair (free again
        // once the engines are gone): one sendmmsg of a full tx batch, then
        // the recvmmsg calls that drain it. Unlike the live run, no
        // receiving thread sleeps on the socket, so no wake-up is paid.
        const int tx = engine::open_udp_socket(w.cli_port);
        const int rx = engine::open_udp_socket(w.srv_port);
        std::vector<std::uint8_t> dgram(enc_len + 8);
        std::memcpy(dgram.data() + 8, buf.data(), enc_len);
        const std::vector<engine::tx_item> batch(
            64, engine::tx_item{dgram.data(), dgram.size(), engine::loopback_addr(w.srv_port)});
        engine::rx_batch rb(batch.size());
        std::vector<double> tx_ns, rx_ns;
        for (int rep = 0; rep < 2000; ++rep) {
            const std::int64_t a = now_ns();
            const std::size_t sent = engine::send_batch(tx, batch.data(), batch.size());
            const std::int64_t b = now_ns();
            std::size_t got = 0;
            while (got < sent) {
                const std::size_t n = engine::recv_batch(rx, rb);
                if (n == 0) break;
                got += n;
            }
            const std::int64_t c = now_ns();
            if (sent > 0) tx_ns.push_back(static_cast<double>(b - a) / static_cast<double>(sent));
            if (got > 0) rx_ns.push_back(static_cast<double>(c - b) / static_cast<double>(got));
        }
        ::close(tx);
        ::close(rx);
        out.push_back({"engine.tx_syscall_ns", median(tx_ns), tx_pkts});
        out.push_back({"engine.rx_syscall_ns", median(rx_ns), rx_pkts});
    }
    {
        stream::stream_scheduler sch;
        const std::vector<stream::stream_scheduler::candidate> cands{{0, 1, util::time_never}};
        out.push_back({"stream.pick_ns", ns_per_op(200'000, [&](std::size_t i) {
                           const std::uint32_t id = sch.pick(cands, static_cast<util::sim_time>(i));
                           sch.charge(id, ps);
                       }), data_pkts});
    }
    return out;
}


// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct options {
    std::string workload; ///< empty: every workload
    std::uint64_t seed = 1;
    double seconds = 24.0;
    bool layers = false; ///< --trace 1: per-layer metrics
    int repeat = 1;
    bool strict = false; ///< --smoke: invalid or failed runs exit non-zero
    std::string out_dir; ///< spans and trace spools; default: out/ next to the binary
    std::string results_dir;
};

void print_metrics(const std::vector<metric>& ms) {
    for (const metric& m : ms)
        std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(const workload& w, const run_result& r, bool layers) {
    std::printf("== %s: correct=%s attempted=%llu failed=%llu\n", w.name,
                r.correct ? "yes" : "NO", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    print_metrics(r.e2e);
    if (layers) print_metrics(r.layers);
    for (const std::string& n : r.notes) std::printf("  # %s\n", n.c_str());
    for (const std::string& why : r.invalid) std::printf("  INVALID: %s\n", why.c_str());
}

/// One run of `w`: the median of `setup_reps` set-ups, then the measured
/// window on the last pair of engines. With `layers`, a shorter traced
/// run and the layer replay follow.
run_result run_workload(const workload& w, const options& o) {
    run_config cfg;
    cfg.w = &w;
    cfg.seed = o.seed;
    cfg.seconds = o.seconds;
    cfg.layers = o.layers;
    cfg.out_dir = o.out_dir;

    // setup_s is an end-to-end metric only: a per-layer run sets up once.
    // Set-up is mostly page faults and thread start-ups of the bench
    // thread, so like the CPU-bound metrics it is reported at the nominal
    // clock, read on the bench thread before each set-up: across 40 runs
    // set-up time and clock correlated at -0.69.
    const int reps = o.layers ? 1 : setup_reps;
    std::vector<double> setups, clocks;
    run_result r;
    for (int rep = 0; rep < reps; ++rep) {
        runner run(cfg);
        clocks.push_back(median({probe_clock_ghz(), probe_clock_ghz(), probe_clock_ghz()}));
        setups.push_back(run.setup());
        if (rep + 1 == reps) r = run.measure();
    }
    std::vector<double> nominal;
    for (std::size_t i = 0; i < setups.size(); ++i)
        nominal.push_back(setups[i] * clocks[i] / nominal_ghz);
    r.add(r.e2e, "setup_s", median(nominal), "s");
    {
        std::string line = "setup reps (s, as measured):";
        for (const double v : setups) line += " " + json_number(v);
        line += "; clock " + json_number(median(clocks)) + " GHz";
        r.notes.push_back(line);
    }
    if (!o.layers) return r;

    // Traced run: spans and both engines' flight recorders on. Its window
    // is short because the spool grows by ~20 MB/s at full load.
    run_config tcfg = cfg;
    tcfg.traced = true;
    tcfg.layers = false;
    tcfg.seconds = std::min(o.seconds, 4.0);
    fs::create_directories(o.out_dir);
    run_result tr;
    std::int64_t t0 = 0, t1 = 0;
    {
        runner run(tcfg);
        run.setup();
        tr = run.measure();
        t0 = run.window_start();
        t1 = run.window_end();
        run.stop();
        run.spans().write(o.out_dir + "/vtpbench-spans-" + w.name + ".json", w.name, r.notes);
    }
    r.correct = r.correct && tr.correct;
    r.attempted += tr.attempted;
    r.failed += tr.failed;
    for (const std::string& why : tr.invalid) r.notes.push_back("traced run: " + why);
    trace_counts(o.out_dir + "/trace-" + w.name, t0, t1, tr.live.at("window_bytes") / 1e6, r);
    r.add(r.layers, "trace.overhead_frac",
          tr.get("cpu_ns_per_byte") / r.get("cpu_ns_per_byte") - 1.0, "1");

    const std::vector<replay_layer> layers = replay(w, o.seed, r);
    const double busy_ns = r.live.at("engine_cpu_ns");
    double covered = 0;
    for (const replay_layer& l : layers) {
        r.add(r.layers, l.name, l.ns, "ns/op");
        covered += l.ns * l.ops;
    }
    r.add(r.layers, "ledger.coverage", covered / busy_ns, "1");
    std::vector<replay_layer> ranked = layers;
    std::sort(ranked.begin(), ranked.end(), [](const replay_layer& a, const replay_layer& b) {
        return a.ns * a.ops > b.ns * b.ops;
    });
    for (const replay_layer& l : ranked) {
        char line[160];
        std::snprintf(line, sizeof line, "ledger %-20s %8.1f ns/op x %11.0f ops = %5.1f%% of engine CPU",
                      l.name, l.ns, l.ops, 100.0 * l.ns * l.ops / busy_ns);
        r.notes.emplace_back(line);
    }
    return r;
}

/// Folds a reported metric that is not finite into the run-validity
/// failures; false when there is one, as such a run has no result to print.
bool check_finite(run_result& r, bool layers) {
    bool finite = true;
    for (const metric& m : layers ? r.layers : r.e2e) {
        if (std::isfinite(m.value)) continue;
        r.invalid.push_back(m.name + " is not finite");
        finite = false;
    }
    return finite;
}

void append_result(const options& o, const workload& w, bool valid, const std::string& json) {
    if (o.results_dir.empty()) return;
    fs::create_directories(o.results_dir);
    std::ofstream f(o.results_dir + "/results.jsonl", std::ios::app);
    f << "{\"workload\": \"" << w.name << "\", \"seed\": " << o.seed
      << ", \"trace\": " << (o.layers ? 1 : 0) << ", \"seconds\": " << o.seconds
      << ", \"valid\": " << (valid ? "true" : "false") << ", \"result\": " << json << "}\n";
}

/// Runs `w` once and prints its result. A run that a validity guard
/// rejected still prints it: a stall of the shared host can make one
/// run's generator late, so the guards are warnings, recorded with the
/// run in --results, and only --smoke turns them into exit status 3.
/// A metric that is not finite leaves nothing to print (exit 3).
int run_one(const workload& w, const options& o) {
    run_result r;
    try {
        r = run_workload(w, o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "vtpbench: %s: cannot run: %s\n", w.name, e.what());
        return 2;
    }
    const bool finite = check_finite(r, o.layers);
    print_result(w, r, o.layers);
    const std::string json = json_line(r, o.layers);
    append_result(o, w, r.invalid.empty(), json);
    for (const std::string& why : r.invalid)
        std::fprintf(stderr, "vtpbench: %s: invalid run: %s\n", w.name, why.c_str());
    if (!finite) return 3;
    std::printf("%s\n", json.c_str());
    if (!r.correct) return 1;
    if (!o.strict) return 0;
    if (r.failed != 0) return 1;
    return r.invalid.empty() ? 0 : 3;
}

/// Runs this program again with `args` and returns its exit status (2
/// when it could not be started or did not exit normally).
int run_child(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0)
        return 2;
    int st = 0;
    while (::waitpid(pid, &st, 0) < 0)
        if (errno != EINTR) return 2;
    return WIFEXITED(st) ? WEXITSTATUS(st) : 2;
}

int usage() {
    std::fprintf(stderr,
                 "usage: vtpbench [--workload bulk|light_small|paced|churn] [--seed N]\n"
                 "                [--seconds S] [--trace 0|1 | --traced] [--repeat N]\n"
                 "                [--smoke] [--out DIR] [--results DIR]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    // Fixed thresholds: glibc otherwise raises them as large blocks are
    // freed, so that only the first of the set-ups paid the page faults
    // of the engines' rings and pools, and setup_s varied by 5x.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    read_run_cpus();
    options o;
    bool smoke = false;
    bool seconds_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
        if (a == "--workload") o.workload = next();
        else if (a == "--seed") o.seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--seconds") { o.seconds = std::atof(next()); seconds_set = true; }
        else if (a == "--trace") o.layers = std::atoi(next()) != 0;
        else if (a == "--traced") o.layers = true; // the same as --trace 1
        else if (a == "--repeat") o.repeat = std::atoi(next());
        else if (a == "--smoke") smoke = o.strict = true;
        else if (a == "--out") o.out_dir = next();
        else if (a == "--results") o.results_dir = next();
        else return usage();
    }
    if (smoke && !seconds_set) o.seconds = 2.0;
    if (o.seconds <= 0 || o.repeat < 1) return usage();
    if (o.out_dir.empty()) {
        std::error_code ec;
        o.out_dir = (fs::read_symlink("/proc/self/exe", ec).parent_path() / "out").string();
    }

    std::vector<const workload*> chosen;
    if (o.workload.empty()) {
        for (const workload& w : workloads) chosen.push_back(&w);
    } else if (const workload* w = find_workload(o.workload)) {
        chosen.push_back(w);
    } else {
        return usage();
    }

    // Exit status: 1 for a run whose payload check failed, 2 for a run that
    // could not start, 3 for a metric that is not finite (no result). With
    // --smoke, also 1 for failed operations and 3 for a run that a validity
    // guard rejected.
    if (chosen.size() == 1 && o.repeat == 1) return run_one(*chosen[0], o);

    // Several runs: round-robin (A B C D A B C D ...) so that drift on a
    // shared host spreads over every workload instead of landing on one,
    // each run in a fresh process so that rss_peak_mb and the allocator
    // state start from zero.
    int status = 0;
    for (int round = 0; round < o.repeat; ++round) {
        for (const workload* w : chosen) {
            std::vector<std::string> args = {
                "vtpbench", "--workload", w->name,
                "--seed", std::to_string(o.seed + static_cast<std::uint64_t>(round)),
                "--seconds", json_number(o.seconds),
                "--trace", o.layers ? "1" : "0", "--out", o.out_dir};
            if (o.strict) args.emplace_back("--smoke");
            if (!o.results_dir.empty()) {
                args.emplace_back("--results");
                args.push_back(o.results_dir);
            }
            std::fflush(stdout);
            const int rc = run_child(args);
            if (rc == 2) return 2;
            status = std::max(status, rc);
        }
    }
    return status;
}

// Shared plumbing of the benchmark: run options, the result ledger every
// workload fills, the in-memory span log of the traced run, and the
// entry points of the workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aot/aot.hpp"
#include "codegen/flatten.hpp"

namespace perfbench {

[[nodiscard]] inline int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
[[nodiscard]] inline double ms_since(int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e6;
}

/// SplitMix64: every workload input derives from the run's --seed.
class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next() {
        uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, n).
    uint64_t below(uint64_t n) { return next() % n; }
    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t state_;
};

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string root = ".";      ///< checkout root (tests/corpus lives there)
    std::string work_dir;        ///< scratch inside the checkout (AOT builds)
    size_t allowed_cpus = 1;     ///< CPUs in this process's affinity mask
};

/// Everything one run measured. Workloads add metrics by name; main()
/// prints them all and picks the declared ones for the result line.
class Report {
  public:
    struct Metric {
        std::string unit;
        double value = 0;
    };

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_[name] = {unit, value};
    }
    [[nodiscard]] const std::map<std::string, Metric>& metrics() const { return metrics_; }
    [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) != 0; }
    [[nodiscard]] double get(const std::string& name) const { return metrics_.at(name).value; }

    /// Counts one operation; a false `ok` counts it failed with `why`.
    void op(bool ok, const std::string& why = "") {
        ++attempted_;
        if (!ok) fail(why);
    }
    /// Records a failed check (an op or a run-level invariant).
    void fail(const std::string& why) {
        ++failed_;
        if (errors_.size() < 20) errors_.push_back(why);
    }

    [[nodiscard]] uint64_t attempted() const { return attempted_; }
    [[nodiscard]] uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

  private:
    std::map<std::string, Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

// -- spans --------------------------------------------------------------------
//
// The traced run records a span around each call the benchmark makes into
// a layer: name, start, end, the enclosing span, and the id of the
// operation it serves (spans of one op share it). Spans are appended to a
// preallocated in-memory log from the benchmark's main thread only and
// written out when the run ends. With tracing off, a Scope is one branch.

struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t op = 0;
};

class SpanLog {
  public:
    static SpanLog& get() {
        static SpanLog log;
        return log;
    }
    void enable(size_t capacity) {
        on_ = true;
        spans_.reserve(capacity);
    }
    void set_enabled(bool on) { on_ = on; }
    [[nodiscard]] bool on() const { return on_; }

    int32_t open(const char* name, uint64_t op) {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return -1;
        }
        spans_.push_back({name, now_ns(), 0, current_, op});
        current_ = static_cast<int32_t>(spans_.size() - 1);
        return current_;
    }
    void close(int32_t idx) {
        if (idx < 0) return;
        spans_[static_cast<size_t>(idx)].end_ns = now_ns();
        current_ = spans_[static_cast<size_t>(idx)].parent;
    }
    /// An instantaneous event (a frame arriving) as a zero-length span.
    void mark(const char* name, uint64_t op, int64_t t_ns) {
        if (spans_.size() == spans_.capacity()) {
            ++dropped_;
            return;
        }
        spans_.push_back({name, t_ns, t_ns, current_, op});
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] uint64_t dropped() const { return dropped_; }

    /// Per-name totals: count, summed duration and self time (duration
    /// minus the part covered by direct children).
    struct Totals {
        uint64_t count = 0;
        double total_ms = 0;
        double self_ms = 0;
    };
    [[nodiscard]] std::map<std::string, Totals> totals() const;
    /// Writes every span as one JSON array of [name, start_ns, end_ns,
    /// parent, op] rows. Returns false if the file cannot be written.
    bool write(const std::string& path) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    int32_t current_ = -1;
    uint64_t dropped_ = 0;
};

class Scope {
  public:
    Scope(const char* name, uint64_t op = 0)
        : idx_(SpanLog::get().on() ? SpanLog::get().open(name, op) : -1) {}
    ~Scope() {
        if (idx_ >= 0) SpanLog::get().close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    int32_t idx_;
};

// -- machine ------------------------------------------------------------------

struct Machine {
    size_t nproc = 0;            ///< online CPUs (sysconf)
    size_t allowed_cpus = 0;     ///< CPUs in the affinity mask
    unsigned hw_concurrency = 0; ///< std::thread::hardware_concurrency()
    std::string compiler;
    std::string build_type;
};
[[nodiscard]] Machine probe_machine();
/// Peak resident set of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();
/// Throws std::runtime_error when a run would put more threads on the CPUs
/// than the affinity mask allows (no silent oversubscription).
void require_cpus(const Options& opt, size_t threads, const char* what);

/// Pins each thread of this process to one allowed CPU, thread i (in tid
/// order) to CPU (i + shift) mod n. Workloads call it as they measure, with
/// a shift that grows with each group (or each quarter second): on a VM
/// whose vCPUs run at different speeds, every thread then visits every
/// vCPU during a run, and the group medians do not depend on where the OS
/// happened to start a thread.
void rotate_threads(size_t shift);
/// Returns every thread of this process to the whole affinity mask.
void release_threads();

// -- global-allocator meter (main.cpp replaces operator new) ------------------

[[nodiscard]] uint64_t alloc_bytes();

// -- programs and the staged compile pipeline (programs.cpp) ------------------

/// The benchmark's Céu programs. The echo counter prints its running total
/// on every ADD and runs a 10 ms ticker trail; the fleet mix is a counter,
/// a ticker, and an async program that respawns its async block on GO.
extern const char* const kEchoCounter;
extern const char* const kCounter;
extern const char* const kTicker;
extern const char* const kAsyncGo;
/// Sum 1..kAsyncIterations: what one kAsyncGo async block returns.
constexpr int64_t kAsyncIterations = 4;
constexpr int64_t kAsyncResult = kAsyncIterations * (kAsyncIterations + 1) / 2;

/// Whether the compiled backend runs kAsyncGo's respawned async block on
/// every GO, as the interpreter does. Generated C appends each spawn to a
/// fixed-capacity slot table and never reuses a slot, so later spawns are
/// dropped; while that holds, the AOT cells run their async members
/// interpreted (reported as aot.async_respawn_ok = 0).
bool aot_respawns_async(const ceu::aot::ProgramHandle& compiled,
                        const std::shared_ptr<const ceu::flat::CompiledProgram>& async_go);

/// A k-arm `par` over k distinct events whose monolithic state space is
/// the product of the arms' periods (3..k+2): the explosion family.
[[nodiscard]] std::string par_explosion(int k);

enum class Verdict { Deterministic, Nondeterministic, Incomplete, CompileError };
[[nodiscard]] const char* verdict_name(Verdict v);

/// One program taken from source to a determinism verdict on ceuc's
/// default path (lex, parse, sema, flatten, monolithic explore, 1 job),
/// with each stage timed. `max_states` is the explorer's budget (ceuc's
/// default unless a caller screens candidates cheaply).
struct StagedCompile {
    std::shared_ptr<const ceu::flat::CompiledProgram> cp;
    Verdict verdict = Verdict::CompileError;
    size_t tokens = 0;
    size_t instructions = 0;
    size_t states = 0;
    double lex_ms = 0, parse_ms = 0, sema_ms = 0, flatten_ms = 0, explore_ms = 0;
    std::string error;
};
StagedCompile compile_staged(const std::string& source, const std::string& name,
                             bool analyze, uint64_t op = 0, size_t max_states = 20000);

/// Running sums of the compile stages over a set of programs, reported as
/// per-program means under the layer names (lexer.ms, parser.ms, ...).
struct CompileTotals {
    size_t programs = 0;
    double tokens = 0, instructions = 0, states = 0;
    double lex_ms = 0, parse_ms = 0, sema_ms = 0, flatten_ms = 0, explore_ms = 0;
    void add(const StagedCompile& c);
    void report(Report& r) const;
};

/// Compiles `source` for a workload's set-up: staged (so the compile
/// layers are measured) and checked deterministic. Throws on failure.
std::shared_ptr<const ceu::flat::CompiledProgram> setup_compile(const std::string& source,
                                                                const std::string& name,
                                                                CompileTotals& totals);

// -- workloads ------------------------------------------------------------------
//
// Each fills the generic end-to-end metrics (setup_s, latency_p50_us,
// latency_p99_us, throughput_per_s; main adds peak_rss_mb), its own named
// metrics, and — traced — its per-layer metrics.

void run_serve_inject(const Options& opt, Report& r);
void run_serve_migrate(const Options& opt, Report& r);
void run_fleet_mix(const Options& opt, Report& r);
void run_compile_lint(const Options& opt, Report& r);

/// The traced run's layer probes, shared by every workload: the
/// engine → host → compiled host → reactor ledger, the cgen/AOT build,
/// snapshot save/load and the wire codec.
void run_layer_probes(const Options& opt, Report& r);

/// Traced runs measure the workload twice (untraced, then traced) and
/// report the relative change of latency_p50_us as trace.overhead_pct.
void report_trace_overhead(Report& r, double untraced_p50_us, double traced_p50_us);

}  // namespace perfbench

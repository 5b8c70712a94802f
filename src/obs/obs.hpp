// Reaction-level observability (zero overhead when off).
//
// The paper's core guarantee — every external input triggers one bounded,
// run-to-completion reaction chain (§2.2, §2.5) — gives reactions a natural
// span structure. This module makes it visible: the engine (and, through
// the same hook names, cgen-compiled programs) reports the begin/end of
// every reaction chain plus the trail wakes, internal emits (with emit-
// stack depth) and timer expiries (with residual delta) inside it.
//
// Layering: obs depends only on util/. The runtime holds a nullable
// `Recorder*` and guards every hook with one pointer test, so a program
// running without observers pays a single predictable branch per hook site
// (the "<1% when off" budget asserted by the test suite). Sinks are only
// consulted at reaction end, never inside the chain.
//
//   Recorder  — builds the current ReactionSpan from hook calls, keeps the
//               process-level counters, fans finished spans out to sinks.
//   Sink      — consumer interface (one callback per finished reaction).
//   ChromeTraceSink — deterministic Chrome trace_event JSON, byte-identical
//               with the cgen-emitted writer (see trace_format.hpp).
//   RingBufferSink  — compact fixed-capacity binary records for embedded
//               targets: newest N events, constant memory, no allocation
//               after construction.
//   ProcessStats    — counters snapshot with a stable JSON rendering; the
//               bench/ exporters write BENCH_*.json from it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/timeval.hpp"

namespace ceu::obs {

enum class ReactionKind : uint8_t { Boot = 0, Event = 1, Timer = 2, Async = 3 };

/// Engine status at the end of a reaction, as reported to sinks. Matches
/// the generated C's ceu_status encoding, extended with Faulted (which the
/// generated C cannot reach — faults are an interpreter-side feature).
enum class EndStatus : int { Running = 1, Terminated = 2, Faulted = 3 };

/// One intra-reaction happening, in hook-call order.
struct SpanRecord {
    enum class Type : uint8_t { Wake, Emit, TimerFire };
    Type type = Type::Wake;
    int a = 0;       // Wake/TimerFire: gate; Emit: internal event id
    int64_t b = 0;   // Emit: emit-stack depth; TimerFire: residual delta
};

/// One reaction chain. The deterministic fields (everything above wall_ns)
/// are a pure function of the input sequence; the timing/allocation fields
/// are measured and excluded from the deterministic exporters.
struct ReactionSpan {
    ReactionKind kind = ReactionKind::Boot;
    int id = 0;          // Event: input id; Timer: #expired entries; Async: idx
    std::string name;    // input event name; empty otherwise
    Micros ts = 0;       // logical time of the chain (§2.3)
    uint64_t seq = 0;    // reaction ordinal (0-based)
    std::vector<SpanRecord> records;
    int end_status = static_cast<int>(EndStatus::Running);
    int64_t result = 0;  // meaningful when end_status == Terminated

    // Measured extras (interpreter only; not part of the trace contract).
    uint64_t wall_ns = 0;       // steady-clock time inside the chain
    uint64_t instructions = 0;  // flat-program instructions executed
    uint64_t allocations = 0;   // container growth events during the chain
    int max_emit_depth = 0;     // §2.2 internal-event stack high-water

    [[nodiscard]] size_t wakes() const;
    [[nodiscard]] size_t emits() const;
    [[nodiscard]] size_t timer_fires() const;
};

/// Process-level counters, aggregated by the Recorder across every span it
/// sees plus the gauges the host pushes (queue depths, timer occupancy,
/// fault-layer injections).
struct ProcessStats {
    uint64_t reactions = 0;
    std::array<uint64_t, 4> reactions_by_kind = {0, 0, 0, 0};
    uint64_t wakes = 0;
    uint64_t emits = 0;
    uint64_t timer_fires = 0;
    uint64_t instructions = 0;
    uint64_t max_reaction_instructions = 0;
    uint64_t allocations = 0;
    int max_emit_depth = 0;
    uint64_t wall_ns = 0;              // total time inside reaction chains
    uint64_t max_reaction_wall_ns = 0;
    size_t queue_peak = 0;             // trail high-water mark
    size_t timers_peak = 0;            // TimerWheel occupancy high-water
    uint64_t faults = 0;               // reactions that ended Faulted
    uint64_t fault_injections = 0;     // fault-layer events (host-reported)
    uint64_t terminations = 0;

    // Supervision counters (reactor-reported; distinct from raw faults so
    // fleet stats separate "things went wrong" from "the supervisor acted").
    uint64_t checkpoints = 0;          // engine snapshots taken
    uint64_t restores = 0;             // restarts served from a checkpoint
    uint64_t supervised_restarts = 0;  // supervisor-initiated reboots+restores
    uint64_t quarantines = 0;          // members benched after repeated faults
    uint64_t sheds = 0;                // envelopes rejected by inbox backpressure

    // Scheduler counters (reactor-reported, like the supervision block):
    // work-stealing traffic, per-shard arena footprint, and per-phase round
    // time. All of them depend on worker count and thread timing, so
    // clear_measured() zeroes them — they are diagnostics, not part of the
    // deterministic contract — and the per-instance checkpoint format does
    // not carry them (they are fleet-level, stamped at fleet_stats time).
    uint64_t steals = 0;           // items executed by a non-owning worker
    uint64_t steal_failures = 0;   // empty-handed victim scans
    uint64_t arena_bytes = 0;      // bytes reserved by shard arenas
    std::array<uint64_t, 4> phase_ns = {0, 0, 0, 0};  // restarts/events/timers/asyncs

    /// Reactions per wall second spent inside chains (0 if unmeasured).
    [[nodiscard]] double reactions_per_sec() const;

    /// Folds another process's counters into this one: sums the additive
    /// counters, maxes the high-water marks. The reactor uses this to
    /// aggregate per-instance snapshots into per-shard and fleet-level
    /// stats; merging is commutative and associative, so the fleet total
    /// is identical for any shard/worker layout.
    void merge(const ProcessStats& other);

    /// Zeroes the measured (non-deterministic) fields — wall-clock times —
    /// leaving only counters that are a pure function of the input
    /// sequence. The reactor determinism suite compares snapshots across
    /// worker counts after this.
    void clear_measured();

    /// Stable one-object JSON rendering (sorted keys, no whitespace) — the
    /// schema bench/ writes into BENCH_*.json.
    [[nodiscard]] std::string to_json() const;
};

/// Consumer of finished reaction spans. on_reaction runs synchronously at
/// the end of each chain (outside the chain itself); keep it cheap.
class Sink {
  public:
    virtual ~Sink() = default;
    virtual void on_reaction(const ReactionSpan& span) = 0;
    /// Flush / finalize (e.g. close the JSON array). Called by the host
    /// when observation stops; must be idempotent.
    virtual void finish(const ProcessStats& stats) { (void)stats; }
};

/// Receives the engine's hook calls, assembles spans, aggregates stats and
/// dispatches to sinks. Non-reentrant by construction: reaction chains
/// never nest (§5 forbids interleaving the entry points).
class Recorder {
  public:
    /// Sinks are not owned and must outlive the recorder (the host facade
    /// owns both and manages lifetime).
    void add_sink(Sink* sink) { sinks_.push_back(sink); }
    [[nodiscard]] bool has_sinks() const { return !sinks_.empty(); }

    /// When false (default true), spans are not materialized for sinks and
    /// only ProcessStats accumulate — the cheap always-on profile.
    void set_spans_enabled(bool on) { spans_enabled_ = on; }

    /// When false (default true), begin/end skip the steady-clock samples
    /// that feed wall_ns / max_reaction_wall_ns (both then stay 0). Two
    /// clock_gettime calls per reaction are ~10% of a small reaction's
    /// cost; fleets, which only want deterministic counters, turn this off
    /// for every member.
    void set_timing_enabled(bool on) { timing_enabled_ = on; }

    // -- hook surface (mirrors the cgen ceu_obs_* symbols) -------------------
    void begin(ReactionKind kind, int id, const char* name, Micros ts);
    void wake(int gate);
    void emit(int event_id, int depth);
    void timer_fire(int gate, Micros residual);
    void end(int status, int64_t result, uint64_t instructions);

    // -- gauges / counters pushed by the host ---------------------------------
    void count_allocation() { ++span_.allocations; }
    void gauge_queue_depth(size_t depth);
    void gauge_timer_count(size_t count);
    void count_fault_injection() { ++stats_.fault_injections; }

    /// Flush every sink (idempotent at the sink level).
    void finish();

    [[nodiscard]] const ProcessStats& stats() const { return stats_; }
    /// The last finished span (tests / snapshot debugging).
    [[nodiscard]] const ReactionSpan& last_span() const { return last_; }

    // -- checkpoint / restore -------------------------------------------------

    /// Reaction-span ordinal the next begin() will take. Serialized by the
    /// instance checkpoint so restored spans continue the saved numbering.
    [[nodiscard]] uint64_t seq() const { return seq_; }
    /// Reinstates counters and span numbering captured by a checkpoint. Any
    /// half-open span is abandoned (checkpoints are only taken between
    /// reactions, so there is never a legitimate one).
    void restore(const ProcessStats& stats, uint64_t seq) {
        stats_ = stats;
        seq_ = seq;
        open_ = false;
    }

  private:
    std::vector<Sink*> sinks_;
    bool spans_enabled_ = true;
    bool timing_enabled_ = true;
    bool open_ = false;
    uint64_t seq_ = 0;
    uint64_t t0_ns_ = 0;
    ReactionSpan span_;
    ReactionSpan last_;
    ProcessStats stats_;
};

/// Adapts a plain callable into a Sink — the bridge between the obs layer's
/// virtual-interface world and std::function subscribers. The serve layer
/// (and any embedder using host::Instance::add_span_sink) streams spans
/// through one of these without writing a Sink subclass.
class CallbackSink : public Sink {
  public:
    using Fn = std::function<void(const ReactionSpan&)>;
    explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}
    void on_reaction(const ReactionSpan& span) override {
        if (fn_) fn_(span);
    }

  private:
    Fn fn_;
};

/// Deterministic Chrome trace_event JSON writer. Byte-identical with the
/// writer cgen emits into compiled programs (trace_format.hpp is the single
/// source of truth for the record formats).
class ChromeTraceSink : public Sink {
  public:
    void on_reaction(const ReactionSpan& span) override;
    void finish(const ProcessStats& stats) override;

    /// The accumulated trace text. Complete (footer included) only after
    /// finish(); bytes so far otherwise.
    [[nodiscard]] const std::string& text() const { return out_; }

  private:
    void put_record(const char* rendered);
    std::string out_;
    bool header_done_ = false;
    bool first_record_ = true;
    bool finished_ = false;
};

/// Compact binary ring buffer: the newest `capacity` records, constant
/// memory, for embedded-style targets where a JSON stream is unaffordable.
/// Reaction begin/end are folded into the same 24-byte record shape as the
/// intra-reaction events.
class RingBufferSink : public Sink {
  public:
    struct Record {
        enum class Type : uint8_t { Begin, Wake, Emit, TimerFire, End };
        Type type;
        uint8_t kind;    // Begin: ReactionKind; End: end_status
        int32_t a;       // Begin: id; Wake/TimerFire: gate; Emit: event id
        int64_t b;       // Emit: depth; TimerFire: residual; End: result
        Micros ts;
    };
    static_assert(sizeof(Record) == 24, "ring records are fixed 24-byte cells");

    explicit RingBufferSink(size_t capacity);
    void on_reaction(const ReactionSpan& span) override;

    /// Records oldest-to-newest (at most `capacity`).
    [[nodiscard]] std::vector<Record> snapshot() const;
    [[nodiscard]] size_t dropped() const { return dropped_; }
    [[nodiscard]] size_t capacity() const { return ring_.size(); }

  private:
    void push(const Record& r);
    std::vector<Record> ring_;
    size_t head_ = 0;   // next write position
    size_t count_ = 0;  // live records (<= capacity)
    size_t dropped_ = 0;
};

}  // namespace ceu::obs

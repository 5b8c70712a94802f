// The Céu reactive engine: executes a FlatProgram under the synchronous
// model of §2 and the implementation scheme of §4/§5.
//
// The external API mirrors the paper's four C entry points:
//   go_init()          boot reaction
//   go_event(id, v)    reaction to one external input event
//   go_time(now)       wall-clock advance; runs one reaction per expiring
//                      deadline group, with residual-delta compensation
//   go_async()         one round-robin slice of one asynchronous block
// The engine is the interpreter behind rt::Backend (runtime/backend.hpp),
// the interface host::Instance drives.
//
// A reaction chain drains a priority queue of *tracks* (continuation pcs).
// Freshly awakened tracks run at the highest priority; rejoin continuations
// (par/or, par/and, loop escapes) run at their construct's nesting depth —
// outer rejoins last (glitch avoidance, §4.1). Internal events use a stack:
// `emit` suspends the emitter until all awaiting trails completely react
// (§2.2). Trail destruction clears contiguous gate ranges (§4.3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "codegen/flatten.hpp"
#include "runtime/backend.hpp"
#include "runtime/cbind.hpp"
#include "runtime/timerwheel.hpp"
#include "runtime/value.hpp"

namespace ceu::rt {

/// Raised on dynamic errors (unbound C symbol, bad dereference). The
/// temporal analysis cannot rule these out — they live behind the "C hat".
/// Carries the location and bare message separately so error paths
/// (host::Instance::run, the engine's fault trap) can report structured
/// diagnostics instead of a pre-formatted string.
class RuntimeError : public std::runtime_error {
  public:
    RuntimeError(SourceLoc loc, const std::string& msg)
        : std::runtime_error(loc.valid() ? loc.str() + ": " + msg : msg),
          loc_(loc),
          msg_(msg) {}

    [[nodiscard]] SourceLoc loc() const { return loc_; }
    [[nodiscard]] const std::string& message() const { return msg_; }

  private:
    SourceLoc loc_;
    std::string msg_;
};

/// Scheduling knobs. The defaults implement the paper's semantics; the
/// alternatives exist to *validate* the temporal analysis (a program the
/// DFA accepts must behave identically under any legal tie-break) and to
/// ablate the internal-event stack policy of §2.2.
struct EngineOptions {
    /// Order among same-priority tracks. Both are legal serializations of
    /// the unspecified scheduler order (§2).
    enum class TieBreak { Fifo, Lifo };
    TieBreak tie_break = TieBreak::Fifo;

    /// §2.2 ablation: Stack = the paper's policy (emitter halts until
    /// awaiting trails completely react); Queue = broadcast-and-continue
    /// (the emitter proceeds; awakened trails run later). The queue policy
    /// re-introduces dataflow cycles: mutual dependencies ping-pong forever
    /// inside one reaction.
    enum class InternalEvents { Stack, Queue };
    InternalEvents internal_events = InternalEvents::Stack;

    /// Safety net for unbounded reactions (only reachable via the Queue
    /// ablation or buggy C bindings): instruction budget per reaction.
    uint64_t reaction_budget = 50'000'000;

    /// Fault policy for dynamic errors (unbound C symbols, bad derefs,
    /// budget exhaustion). `false` preserves the historical behavior:
    /// RuntimeError propagates out of the go_* entry point. `true` makes
    /// environmental faults *recoverable*: the engine traps the error,
    /// abandons the reaction, moves to Status::Faulted, invokes `on_fault`,
    /// and can be returned to a bootable state with `reset()`.
    bool trap_faults = false;

    /// Runs the engine invariant checker after every reaction (stuck
    /// tracks, gate/timer consistency). Costs O(gates + timers) per
    /// reaction, so it defaults on only in debug builds; soak tests enable
    /// it explicitly.
    bool check_invariants =
#ifndef NDEBUG
        true;
#else
        false;
#endif
};

class Engine final : public Backend {
  public:
    using Options = EngineOptions;

    /// What went wrong when a trapped fault moved the engine to
    /// Status::Faulted.
    struct FaultInfo {
        std::string message;
        SourceLoc loc;
        uint64_t at_reaction = 0;  // value of reactions() when it tripped
    };

    /// `cp` and `bindings` must outlive the engine. The bindings are read-
    /// only to the engine, so one immutable set can be shared by a whole
    /// fleet of engines (binding closures that need per-engine state keep
    /// it on the engine — see `binding_prng`).
    Engine(const flat::CompiledProgram& cp, const CBindings& bindings,
           Options opt = Options());

    // -- the four-entry reactive API (paper §5) ------------------------------

    void go_init() override;
    void go_event(int event_id, Value v = Value::integer(0)) override;
    /// Thin resolve-once wrapper over go_event: interns `name` to its dense
    /// EventId (O(1) against the sema index) and delivers by id. Returns
    /// false if the name is unknown. Hot paths should resolve once and
    /// call go_event directly.
    bool go_event_by_name(const std::string& name, Value v = Value::integer(0));
    void go_time(Micros now) override;
    /// Runs one slice of the current async (round-robin). Returns true if
    /// asynchronous work remains afterwards.
    bool go_async() override;
    bool go_async_n(uint64_t n) override;

    /// Seeds the wall-clock of a not-yet-booted engine: the boot reaction
    /// (and every timer it arms) is stamped `t` instead of 0. go_time
    /// deliberately ignores pre-boot instants (a Loaded engine has no
    /// reactions to run), so late joiners in a fleet need this to boot at
    /// the fleet instant rather than at the epoch. Clocks never rewind;
    /// no-op unless Loaded.
    void set_boot_clock(Micros t) override {
        if (status_ == Status::Loaded) now_ = std::max(now_, t);
    }

    /// Power-cycle: discards every piece of dynamic state — tracks, emit
    /// stack, timers, asyncs, gate flags, data slots — by the same
    /// clear-everything discipline §4.3 uses for trail destruction, and
    /// returns the engine to Status::Loaded so `go_init()` can boot it
    /// again. Wall-clock time (`now()`) persists: reboots don't travel
    /// back in time. Cumulative counters (reactions, instructions) persist
    /// too. Callable from Running, Faulted or Terminated.
    void reset() override;

    [[nodiscard]] bool has_async_work() const override { return alive_asyncs() > 0; }
    [[nodiscard]] Status status() const override { return status_; }
    [[nodiscard]] Value result() const override { return result_; }
    /// Set while status() == Faulted; cleared by reset().
    [[nodiscard]] const std::optional<FaultInfo>& fault() const { return fault_; }
    [[nodiscard]] Micros now() const override { return now_; }
    /// The timestamp attributed to the current reaction chain (§2.3): the
    /// expired deadline for timer reactions, the arrival instant for
    /// events. C bindings that model the physical world must use this, not
    /// `now()` — a late `go_time` batch serves several logical instants.
    [[nodiscard]] Micros logical_now() const { return logical_now_; }

    // -- checkpoint / restore (snapshot.cpp) ----------------------------------

    /// Serializes the complete dynamic state — status, data slots, gate
    /// flags, track queue, emit stack, armed timers (with their expiry
    /// sequence), asyncs, clocks and lifetime counters — as a versioned
    /// little-endian blob appended to `out`. Only callable between
    /// reactions (a mid-reaction engine has live C stack frames no byte
    /// format can capture). Str values are serialized by content; Ptr
    /// values into the engine's own slot vector are rebased to offsets
    /// (restorable anywhere), while pointers into host memory are kept
    /// verbatim and only survive a same-process restore.
    void save(std::vector<uint8_t>& out) const override;

    /// Restores state previously captured by save(). The engine must have
    /// been constructed over a structurally identical program (validated
    /// via program_fingerprint()) with the same scheduling options; after
    /// a successful load the engine behaves byte-identically to the one
    /// that was saved. Dead async contexts are dropped on the way in (older
    /// blobs carry every one their engine spawned); a blob with two live
    /// contexts of one async block is corrupt. Throws snap::SnapshotError on
    /// any mismatch, truncation or corruption, leaving the engine untouched.
    void load(const uint8_t* data, size_t size) override;
    void load(const std::vector<uint8_t>& blob) { load(blob.data(), blob.size()); }

    /// FNV-1a hash of the flat code structure (instructions, gates, slot
    /// layout, event vocabularies). Two programs with equal fingerprints
    /// execute identically for snapshot purposes even when compiled in
    /// different processes — the cross-process restore contract.
    /// Delegates to the free rt::program_fingerprint below.
    [[nodiscard]] uint64_t program_fingerprint() const;

    // -- introspection (tests, benches) ---------------------------------------

    [[nodiscard]] int active_gate_count() const;
    [[nodiscard]] uint64_t reactions() const override { return reactions_; }
    [[nodiscard]] uint64_t instructions_executed() const override { return instructions_; }
    /// Largest reaction chain observed, in instructions — the §2.5 bounded-
    /// execution property made measurable.
    [[nodiscard]] uint64_t max_reaction_instructions() const override {
        return max_reaction_;
    }
    [[nodiscard]] size_t pending_timers() const override { return timers_.size(); }
    /// Earliest armed wall-clock deadline, or -1 if no timer is pending.
    [[nodiscard]] Micros next_timer_deadline() const override {
        return timers_.empty() ? -1 : timers_.next_deadline();
    }
    [[nodiscard]] const std::vector<Value>& data() const { return data_; }
    [[nodiscard]] Value slot(int s) const { return data_[static_cast<size_t>(s)]; }
    /// Value of a named program variable (outermost declaration wins).
    [[nodiscard]] std::optional<Value> var(const std::string& name) const;

    /// Most tracks ever queued at once — the trail high-water mark.
    [[nodiscard]] size_t queue_peak() const override { return queue_peak_; }

    /// Modeled RAM of the static runtime state, in bytes: the slot vector,
    /// gate flags, timer entries and track-queue capacity. Used by the
    /// Table 1 reproduction, and the interpreter's state_bytes().
    [[nodiscard]] size_t ram_model_bytes() const;
    [[nodiscard]] size_t state_bytes() const override { return ram_model_bytes(); }

    /// Engine self-checks, run after every reaction when
    /// options.check_invariants is on: no stuck tracks or live suspended
    /// emitters outside a reaction, every armed timer points at an active
    /// in-range gate, and a Running engine has something left to wake.
    /// Returns the list of violations (empty = healthy).
    [[nodiscard]] std::vector<std::string> verify_invariants() const;

    /// Fault hook: invoked (if set) when a trapped fault moves the engine
    /// to Status::Faulted. The engine is safe to `reset()` from inside the
    /// hook's caller, but not from the hook itself (the reaction frame is
    /// still unwinding).
    std::function<void(const FaultInfo&)> on_fault;

    /// Per-engine PRNG state for the standard `_srand`/`_rand` bindings.
    /// Lives on the engine (not in the binding closure) so one immutable
    /// CBindings set can serve many engines without sharing generator
    /// state across instances. Survives reset()/power-cycles, matching the
    /// historical per-instance closure behavior.
    uint64_t binding_prng = 0x9e3779b97f4a7c15ULL;

  private:
    struct Track {
        flat::Pc pc = 0;
        int prio = flat::kNormalPrio;
        uint64_t seq = 0;
        Value wake = Value::integer(0);
    };
    struct EmitFrame {
        flat::Pc resume = 0;
        int prio = flat::kNormalPrio;
        bool dead = false;
    };
    struct AsyncCtx {
        int async_idx = -1;
        flat::Pc pc = 0;
        bool alive = true;
    };

    /// Either a slot lvalue (full Value) or a raw host int64 lvalue, or an
    /// indexed C array.
    struct LRef {
        enum class Kind { Slot, Raw, CArray, CGlobal } kind = Kind::Slot;
        Value* slot = nullptr;
        int64_t* raw = nullptr;
        const CBindings::ArrayBinding* arr = nullptr;
        std::vector<int64_t> indices;
        SourceLoc loc;
    };

    const flat::CompiledProgram& cp_;
    const flat::FlatProgram& fp_;
    const CBindings& c_;
    Options opt_;
    uint64_t reaction_instr_ = 0;  // instructions in the current reaction
    uint64_t max_reaction_ = 0;
    bool in_reaction_ = false;

    Status status_ = Status::Loaded;
    std::optional<FaultInfo> fault_;
    Value result_ = Value::integer(0);
    std::vector<Value> data_;
    std::vector<uint8_t> gate_active_;
    std::vector<Track> queue_;   // priority queue (max prio, then FIFO)
    std::vector<EmitFrame> stack_;
    TimerWheel timers_;
    std::vector<AsyncCtx> asyncs_;  // bounded: fp_.async_capacity(), in spawn order
    size_t async_rr_ = 0;

    /// Backing store for Str values rehydrated from a snapshot: the source
    /// blob serializes strings by content, and restored Values point here
    /// (AST literal pointers don't survive across processes). A deque so
    /// c_str() stays stable as later strings arrive. Cleared on reset().
    std::deque<std::string> snapshot_strings_;

    // Pooled hot-path scratch: gate snapshots taken while firing events /
    // timers. Reused across reactions so steady-state delivery allocates
    // nothing. Two buffers because a timer batch (expired_scratch_) runs
    // reactions that may themselves snapshot emit targets (firing_scratch_).
    std::vector<int> firing_scratch_;
    std::vector<int> expired_scratch_;

    Micros now_ = 0;          // latest wall-clock timestamp seen
    Micros logical_now_ = 0;  // timestamp attributed to the current reaction
    uint64_t seq_ = 0;
    uint64_t reactions_ = 0;
    uint64_t instructions_ = 0;
    int cur_prio_ = flat::kNormalPrio;
    size_t queue_peak_ = 0;

    // -- scheduling -----------------------------------------------------------

    void enqueue(flat::Pc pc, int prio, Value wake = Value::integer(0));
    bool queue_empty() const { return queue_.empty(); }
    Track pop_track();
    void run_reaction();
    void run_reaction_impl();
    void enter_fault(const RuntimeError& e);
    void check_invariants() const;
    void wake_gate(int gate, Value v);
    void exec(Track t);
    void exec_async(AsyncCtx& ctx);
    void kill_region(int region_idx);
    void check_termination();
    void check_not_reentrant(const char* api) const;
    [[nodiscard]] int status_code() const;
    [[nodiscard]] size_t alive_asyncs() const;
    /// Drops the dead contexts of `table` in place, keeping spawn order, and
    /// returns round-robin cursor `rr` remapped onto the live entries before
    /// it — go_async's next pick is unchanged, as it skips dead contexts.
    static size_t compact_asyncs(std::vector<AsyncCtx>& table, size_t rr);

    // -- expression evaluation --------------------------------------------------

    Value eval(const ast::Expr& e);
    LRef lvalue(const ast::Expr& e);
    void store(const LRef& ref, Value v);
    Value call_c(const ast::CallExpr& call);
    std::string callee_name(const ast::Expr& fn, Value* self, bool* has_self);
};

/// Structural fingerprint of a compiled program, engine-independent: the
/// same hash Engine::program_fingerprint() reports, so cgen can bake it
/// into AOT descriptors and loaders can validate a `.so` against the
/// program it claims to implement.
[[nodiscard]] uint64_t program_fingerprint(const flat::CompiledProgram& cp);

}  // namespace ceu::rt

// ceu::host::Instance — the single embedding facade for running a compiled
// Céu program. Every in-tree host (wsn::CeuMote, the ceuc script runner,
// the conformance differ, the reactor, the demos, examples and tests)
// routes its event injection through this class; rt::Engine stays an
// internal detail with exactly one documented construction path (this
// one).
//
// The facade bundles what every embedding otherwise re-plumbs by hand:
//   - the standard C bindings (merged under host-supplied extras),
//   - trace-line collection / streaming,
//   - the script vocabulary (boot / inject / advance / settle / crash),
//   - the observability layer: sink registration, the reaction Recorder,
//     and the fused ProcessStats snapshot the bench exporters serialize.
//
// Observation is off by default: the backend's Recorder pointer stays null
// and every hook site is one predicted branch (the <1% overhead budget the
// obs tests assert). Attaching a sink — or calling observe_stats() — arms
// the recorder for the rest of the instance's life.
//
// Backends: an Instance drives one rt::Backend (runtime/backend.hpp) and
// nothing else — the interpreter's rt::Engine by default, or, when
// Config::aot carries a loaded aot::ProgramHandle, an aot::Context over
// one compiled C context. Every entry point, gauge and snapshot goes
// through that one interface; the Instance adds the clock, traces, sinks,
// the recorder and the snapshot frame around it. The two backends keep
// byte-identical traces for the same input sequence (the conformance
// differ's aot-in-reactor oracle asserts this); what the compiled backend
// does NOT support: custom C bindings (extras in Config::bindings are
// rejected), string-valued injections, and engine() introspection (it
// throws — use the backend-neutral accessors).
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aot/aot.hpp"
#include "codegen/flatten.hpp"
#include "env/script.hpp"
#include "obs/obs.hpp"
#include "runtime/backend.hpp"
#include "runtime/cbind.hpp"
#include "runtime/engine.hpp"

namespace ceu::host {

struct Config {
    /// Scheduling / fault-trap knobs forwarded to the engine.
    rt::EngineOptions engine{};
    /// Extra C bindings merged over the standard ones (extras win on
    /// conflicts). Must outlive the Instance. May be null.
    const rt::CBindings* bindings = nullptr;
    /// Keep every trace line in memory (trace()/trace_text()). Turn off for
    /// long-running hosts that only stream via add_output_sink.
    bool collect_trace = true;
    /// Run the AOT-compiled backend: must be a handle for the *same*
    /// compiled program the Instance wraps (fingerprints are checked).
    /// Incompatible with Config::bindings (compiled code has the standard
    /// bindings baked in) — supplying both throws std::invalid_argument.
    aot::ProgramHandle aot{};
};

class Instance {
  public:
    /// Wraps an already-compiled program; `cp` must outlive the instance.
    explicit Instance(const flat::CompiledProgram& cp, Config cfg = Config());
    /// Compiles `source` and owns the result. Throws CompileError.
    explicit Instance(const std::string& source, Config cfg = Config());
    /// Shares an immutable compiled program: the fleet path. Booting 100k
    /// instances of one program costs memory proportional to *state*
    /// (slots, gates, queues), not code — the AST/flat code is parsed once
    /// and co-owned by every instance.
    explicit Instance(std::shared_ptr<const flat::CompiledProgram> cp,
                      Config cfg = Config());

    Instance(const Instance&) = delete;
    Instance& operator=(const Instance&) = delete;

    // -- lifecycle ------------------------------------------------------------

    /// Boot reaction (go_init). The instance must be freshly constructed,
    /// reset, or power-cycled.
    void boot();
    /// Discards all dynamic program state; wall-clock persists. The engine
    /// returns to Loaded and boot() can run again.
    void reset();
    /// Crash semantics: reset + a "[crash] engine power-cycled" trace line
    /// + boot. What a Script's `crash` item does.
    void power_cycle();

    // -- inputs (the §5 environment side) ------------------------------------

    /// Delivers one occurrence of a named input event. Throws RuntimeError
    /// if the name is not an input of the program. A thin resolve-once
    /// wrapper: hot callers should resolve_input() once and inject by id.
    void inject(const std::string& event, rt::Value v = rt::Value::integer(0));
    /// Like inject(), but unknown names are ignored (returns false) — the
    /// conformance differ's contract, where generated scripts may mention
    /// events a shrunk program no longer declares.
    bool try_inject(const std::string& event, rt::Value v = rt::Value::integer(0));
    /// Delivers by input id (bounds-checked by the engine; out-of-range ids
    /// are discarded exactly like the compiled C's switch default).
    void inject(int event_id, rt::Value v = rt::Value::integer(0));
    /// Interns an input-event name to its dense id (kNoEvent if unknown) —
    /// the string-to-id boundary; everything past it speaks EventId.
    [[nodiscard]] EventId resolve_input(const std::string& event) const;

    /// Advances the virtual wall-clock by `delta` and runs the due timer
    /// reactions (one per expired deadline group, §2.3).
    void advance(Micros delta);
    /// Absolute-time variant; moving backwards is a no-op (clocks don't
    /// rewind).
    void advance_to(Micros abs_us);

    /// One round-robin async slice; true if async work remains.
    bool step_async();
    /// Up to `n` slices in one call (stops early when the program leaves
    /// Running or the async queue drains); true if async work remains.
    /// Semantically n consecutive step_async calls, but a compiled backend
    /// pays one ABI crossing for the whole budget — the reactor's phase-3
    /// loop runs on this.
    bool run_async_slices(uint64_t n);
    /// Runs asyncs until idle (or the slice cap trips — a safety net).
    void settle(uint64_t max_slices = 10'000'000);

    // -- scripts --------------------------------------------------------------

    void feed(const env::ScriptItem& item);
    /// Boot + run the whole script + drain asyncs. Returns final status.
    /// Dynamic errors (rt::RuntimeError) propagate to the caller.
    rt::Engine::Status run(const env::Script& script);
    /// Like run(), but catches rt::RuntimeError into a structured
    /// diagnostic — the CLI's error path.
    rt::Engine::Status run(const env::Script& script, Diagnostics& diags);
    /// run() without the boot: replays `script` against the instance's
    /// *current* state — the continuation path after load() restored a
    /// checkpoint mid-script. The remaining items must be exactly the
    /// suffix the saved run had not yet consumed for traces to line up.
    rt::Engine::Status resume(const env::Script& script);
    rt::Engine::Status resume(const env::Script& script, Diagnostics& diags);

    // -- checkpoint / restore -------------------------------------------------

    /// Serializes the instance at a reaction boundary into one frame for
    /// both backends: "CEUHST01", host clock, the length-prefixed backend
    /// payload (Backend::save: a CEUENG01 engine blob, or a compiled
    /// context's CEUAOT01 fingerprint + image), recorder counters.
    /// Collected trace lines are *not* part of the blob — a checkpoint
    /// captures state, and restore determinism is asserted over the trace
    /// produced *after* the restore point.
    [[nodiscard]] std::vector<uint8_t> save() const;
    /// Restores a blob produced by save() into this instance. The payload
    /// must come from the same backend and a fingerprint-equal program: an
    /// interpreter payload from the same source compiled in another
    /// process qualifies, a compiled one only from this process. Throws
    /// rt::snap::SnapshotError on a foreign payload, mismatch or
    /// corruption, leaving state untouched.
    void load(const std::vector<uint8_t>& blob);

    // -- observability --------------------------------------------------------

    /// Registers a reaction-span sink (not owned; must outlive the
    /// instance) and arms the recorder.
    void add_sink(obs::Sink* sink);
    /// Same, transferring ownership to the instance.
    void own_sink(std::unique_ptr<obs::Sink> sink);
    /// Arms the recorder for counters only (no span materialization) — the
    /// cheap always-on profile the bench exporters use.
    void observe_stats();
    /// Process-level counters: the recorder's aggregation fused with the
    /// engine's own lifetime gauges (reactions, instructions, queue peak),
    /// so the engine-derived fields are correct even when observation was
    /// armed late or never. Span-derived fields (wakes, emits, by-kind
    /// splits) cover only the observed window.
    [[nodiscard]] obs::ProcessStats snapshot() const;
    /// Flushes every sink (closes the Chrome-trace JSON array). Idempotent.
    void finish_observation();
    [[nodiscard]] obs::Recorder& recorder() { return recorder_; }
    /// Fault-layer integration: harnesses report each injected fault here
    /// so it lands in the stats snapshot.
    void note_fault_injection() { recorder_.count_fault_injection(); }

    // -- embedder sinks -------------------------------------------------------
    //
    // The subscription surface for embedders (the serve layer's contract,
    // and ceuc --run's trace printer): everything a remote client may want
    // streamed — output lines, reaction spans, status transitions — is a
    // callback registered here, so embedders never reach into rt::Engine
    // internals. Sinks are invoked synchronously on the thread driving the
    // instance (inside the reactor: the owning shard's worker), in
    // registration order; keep them cheap and do not re-enter the instance
    // from inside one. All three surfaces are backend-neutral: interpreter
    // and AOT instances feed them identically.

    /// Receives every output/trace line, in emission order — the same
    /// stream trace() collects. Registration does not affect collection
    /// (Config::collect_trace governs that).
    using OutputSink = std::function<void(const std::string&)>;
    void add_output_sink(OutputSink sink);

    /// Receives every finished reaction span. Registering arms the
    /// recorder (same cost model as add_sink: ~zero until armed).
    using SpanSink = std::function<void(const obs::ReactionSpan&)>;
    void add_span_sink(SpanSink sink);

    /// Receives status *transitions*: after any mutating entry point
    /// (boot / inject / advance / async slices / load / reset) leaves the
    /// instance in a different Status than previously notified, each sink
    /// is called once with the new status. The sink is primed with the
    /// current status at registration, so subscribers always know the
    /// starting state. No sinks registered → zero per-call overhead.
    using StatusSink = std::function<void(rt::Engine::Status)>;
    void add_status_sink(StatusSink sink);

    // -- traces ---------------------------------------------------------------

    [[nodiscard]] const std::vector<std::string>& trace() const { return trace_; }
    [[nodiscard]] std::string trace_text() const;
    /// Appends a host-authored annotation line to the trace stream — the
    /// backend-neutral replacement for engine().trace(); the reactor's
    /// supervisor lines ("[supervisor] rebooted ...") come through here.
    void note(const std::string& line);

    // -- introspection (tests, benches; do not inject events through this) ----

    /// Interpreter backend only: a compiled (AOT) instance has no engine
    /// and throws std::logic_error. Fleet-layer code uses the backend-
    /// neutral accessors below instead.
    [[nodiscard]] rt::Engine& engine() {
        if (engine_ == nullptr) {
            throw std::logic_error("compiled (AOT) instance has no interpreter engine");
        }
        return *engine_;
    }
    [[nodiscard]] const rt::Engine& engine() const {
        if (engine_ == nullptr) {
            throw std::logic_error("compiled (AOT) instance has no interpreter engine");
        }
        return *engine_;
    }
    [[nodiscard]] rt::Engine::Status status() const { return backend_->status(); }
    [[nodiscard]] rt::Value result() const { return backend_->result(); }
    [[nodiscard]] Micros clock() const { return clock_; }
    [[nodiscard]] const flat::CompiledProgram& program() const { return *cp_; }

    // Backend-neutral runtime gauges (what after_reaction needs).
    [[nodiscard]] bool is_compiled() const { return engine_ == nullptr; }
    /// Latest wall-clock instant the backend has seen (engine `now`).
    [[nodiscard]] Micros now() const { return backend_->now(); }
    /// Lifetime reaction count (checkpoint cadence is keyed on this).
    [[nodiscard]] uint64_t reactions() const { return backend_->reactions(); }
    /// Earliest armed timer deadline, -1 when none.
    [[nodiscard]] Micros next_timer_deadline() const {
        return backend_->next_timer_deadline();
    }
    [[nodiscard]] bool has_async_work() const { return backend_->has_async_work(); }
    /// Exact bytes of per-instance runtime state: the interpreter's RAM
    /// model (slots, gates, containers at current capacity) or the
    /// compiled backend's context size. The bench derives
    /// bytes_per_instance from this instead of boot RSS deltas, which
    /// swung ~1.7 KB with allocator caching across worker counts.
    [[nodiscard]] size_t state_bytes() const { return backend_->state_bytes(); }

  private:
    void init(Config& cfg);
    /// Fans a status change out to status sinks (no-op without sinks).
    void notify_status();
    rt::Engine::Status replay(const env::Script& script);

    std::unique_ptr<flat::CompiledProgram> owned_cp_;  // set by the source ctor
    std::shared_ptr<const flat::CompiledProgram> shared_cp_;  // fleet ctor
    const flat::CompiledProgram* cp_ = nullptr;
    /// Only populated when the host supplied extra bindings; instances on
    /// the pure standard set share one process-wide immutable copy.
    std::unique_ptr<rt::CBindings> bindings_;
    /// The backend's trace hook captures `this`, so an Instance must not
    /// move — it doesn't; it is non-copyable and reactor slots hold it by
    /// unique_ptr.
    std::unique_ptr<rt::Backend> backend_;
    rt::Engine* engine_ = nullptr;  // backend_, when it is the interpreter
    obs::Recorder recorder_;
    std::vector<std::unique_ptr<obs::Sink>> owned_sinks_;
    std::vector<OutputSink> output_sinks_;
    std::vector<StatusSink> status_sinks_;
    rt::Engine::Status notified_status_ = rt::Engine::Status::Loaded;
    std::vector<std::string> trace_;
    bool collect_trace_ = true;
    Micros clock_ = 0;
};

}  // namespace ceu::host

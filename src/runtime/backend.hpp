// rt::Backend — the one seam between host::Instance and whatever executes a
// program. It is the paper's four-entry interface (§5) plus what a host
// needs around it: the gauges a scheduler reads after each reaction, the
// backend's own checkpoint payload, and the observation wiring.
//
// Two implementations:
//   rt::Engine    the interpreter (runtime/engine.hpp). Declared final, so
//                 callers holding an Engine& still get direct calls.
//   aot::Context  one compiled ceu_ctx_t behind its program's descriptor
//                 (aot/context.hpp).
//
// Both report through the same two channels, wired here rather than in the
// implementations: trace lines go to `on_trace`, reaction spans to the
// attached obs::Recorder (null = observation off, one branch per hook).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/value.hpp"
#include "util/timeval.hpp"

namespace ceu::obs {
class Recorder;
}

namespace ceu::rt {

class Backend {
  public:
    enum class Status { Loaded, Running, Faulted, Terminated };

    Backend() = default;
    Backend(const Backend&) = delete;
    Backend& operator=(const Backend&) = delete;
    virtual ~Backend() = default;

    // -- the four entry points, plus the slice batch and lifecycle -----------

    /// Boot reaction. The backend must be Loaded (fresh or reset).
    virtual void go_init() = 0;
    /// One occurrence of input `event_id`; out-of-range ids are discarded.
    virtual void go_event(int event_id, Value v) = 0;
    /// Wall-clock advance to `now`: one reaction per expired deadline group.
    virtual void go_time(Micros now) = 0;
    /// One round-robin async slice; true if async work remains.
    virtual bool go_async() = 0;
    /// Up to `n` slices, stopping early when the program leaves Running or
    /// the asyncs drain: n go_async() calls in one crossing.
    virtual bool go_async_n(uint64_t n) = 0;
    /// Seeds the clock of a Loaded backend, so boot happens at `t`.
    virtual void set_boot_clock(Micros t) = 0;
    /// Discards all program state and returns to Loaded; `now()` and the
    /// reaction count persist.
    virtual void reset() = 0;

    // -- gauges ---------------------------------------------------------------

    [[nodiscard]] virtual Status status() const = 0;
    [[nodiscard]] virtual Value result() const = 0;
    /// Latest wall-clock instant seen.
    [[nodiscard]] virtual Micros now() const = 0;
    /// Lifetime reaction count.
    [[nodiscard]] virtual uint64_t reactions() const = 0;
    /// Earliest armed timer deadline, -1 when none.
    [[nodiscard]] virtual Micros next_timer_deadline() const = 0;
    [[nodiscard]] virtual bool has_async_work() const = 0;
    /// Exact bytes of per-instance runtime state.
    [[nodiscard]] virtual size_t state_bytes() const = 0;

    /// Interpreter-only gauges; a compiled context reports 0.
    [[nodiscard]] virtual uint64_t instructions_executed() const = 0;
    [[nodiscard]] virtual uint64_t max_reaction_instructions() const = 0;
    [[nodiscard]] virtual size_t queue_peak() const = 0;
    [[nodiscard]] virtual size_t pending_timers() const = 0;

    // -- checkpoint payload -----------------------------------------------------

    /// Appends the backend's own self-describing payload (its magic first)
    /// to `out`. Between reactions only.
    virtual void save(std::vector<uint8_t>& out) const = 0;
    /// Restores a payload from save(). Throws snap::SnapshotError on a
    /// foreign magic, another program's fingerprint or corruption, leaving
    /// the backend untouched.
    virtual void load(const uint8_t* data, size_t size) = 0;

    // -- observation wiring -----------------------------------------------------

    /// Attaches (or, with nullptr, detaches) a reaction-span recorder; it
    /// must outlive the backend or be detached first.
    void set_recorder(obs::Recorder* rec) { obs_ = rec; }
    [[nodiscard]] obs::Recorder* recorder() const { return obs_; }

    /// Receives every trace line: `_printf`-style output, unhandled output
    /// events and host notes.
    std::function<void(const std::string&)> on_trace;
    void trace(const std::string& line) {
        if (on_trace) on_trace(line);
    }

  protected:
    obs::Recorder* obs_ = nullptr;
};

}  // namespace ceu::rt

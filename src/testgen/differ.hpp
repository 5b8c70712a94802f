// Differential driver: one generated (or hand-written) program + script
// pair is executed under every semantics the repo implements —
//
//   * the rt::Engine interpreter under FIFO tie-breaking,
//   * the same interpreter under LIFO tie-breaking,
//   * the cgen-emitted C, compiled with the host C compiler and run with
//     the script on stdin,
//   * the AOT backend: the re-entrant cgen emission compiled into a shared
//     object, dlopen'd, and driven *inside a 1-member reactor::Reactor* —
//     exercising the whole compiled-fleet path (descriptor entry points,
//     host-api trace routing, fleet timer indexing) in-process,
//
// and the observable traces are compared against what the temporal
// analysis (dfa/) promised. The modular partition-and-compose verdict is
// cross-checked against the monolithic DFA first (same conflicts modulo
// witness choice). The conformance contract (paper §2.6) is:
//
//   DFA says OK (deterministic, exploration complete)
//       -> all three executions produce identical traces, results and
//          final statuses. Any mismatch is a bug in one of the backends.
//   DFA refuses (conflicts found)
//       -> the program MAY diverge between schedulers; the harness only
//          records whether it actually did (a meaningfulness statistic),
//          it never asserts equality.
//   DFA incomplete (state budget exhausted)
//       -> no verdict; the case is counted but not failed.
//
// A divergence report carries both traces so the shrinker can preserve
// "same kind of failure" while minimizing.
#pragma once

#include <string>
#include <vector>

#include "env/script.hpp"
#include "runtime/value.hpp"

namespace ceu::testgen {

struct DiffOptions {
    /// Host C compiler invocation prefix (completed with -o out in.c).
    std::string cc = "cc -std=c11 -O1";
    /// Scratch directory for .c/.bin/.in/.out artifacts ("" = TempDir).
    std::string workdir;
    /// DFA exploration budget (verdicts above it become Unknown).
    size_t max_states = 20000;
    /// Skip the compile-and-run C leg entirely (DFA + tie-break only);
    /// used by quick smoke modes where spawning a compiler is too slow.
    bool run_cgen = true;
    /// Cross-check the AOT backend (re-entrant cgen → .so → dlopen) driven
    /// through a 1-member reactor against the interpreter FIFO trace.
    /// Skipped (like the classic C leg) when run_cgen is off — both legs
    /// spawn the host compiler.
    bool check_aot = true;
    /// Compiler command for the AOT shared object (gets the -fPIC/-shared
    /// flags from aot::BuildOptions; unlike `cc` this is just the program).
    std::string aot_cc = "cc";
    /// Emit the classic standalone C harness from the re-entrant (AOT)
    /// code path — the deprecated single-instance wrappers over one static
    /// context — instead of the legacy globals emission. The TraceCompat
    /// suite drives fixed seeds through both entry points.
    bool cgen_reentrant = false;
};

struct DiffResult {
    enum class Kind {
        Agree,             // every applicable cross-check held
        CompileError,      // Céu frontend rejected the program (generator bug)
        DfaRefused,        // DFA found conflicts; parity not asserted
        DfaUnknown,        // DFA hit the state budget; parity not asserted
        TieBreakDiverged,  // DFA OK but FIFO != LIFO  (engine/dfa bug)
        CgenDiverged,      // DFA OK but C != interpreter (cgen bug)
        CgenBuildError,    // host cc rejected the emitted C (cgen bug)
        EngineError,       // interpreter raised a runtime error (engine bug)
        ModularDiverged,   // composed modular verdict != monolithic DFA
        AotDiverged,       // DFA OK but AOT-in-reactor != interpreter
    };
    Kind kind = Kind::Agree;

    /// For DfaRefused cases: did FIFO/LIFO/C actually disagree? (The
    /// statistic showing the conflict bias produces *meaningful* refusals.)
    bool refused_diverged = false;

    std::vector<std::string> fifo_trace;
    std::vector<std::string> lifo_trace;
    std::vector<std::string> cgen_trace;
    std::vector<std::string> aot_trace;
    int fifo_exit = 0;   // uint8-truncated program result
    int lifo_exit = 0;
    int cgen_exit = 0;
    int aot_exit = 0;
    size_t dfa_states = 0;
    size_t dfa_conflicts = 0;

    std::string detail;  // human-readable first point of divergence / error

    [[nodiscard]] bool failure() const {
        return kind == Kind::CompileError || kind == Kind::TieBreakDiverged ||
               kind == Kind::CgenDiverged || kind == Kind::CgenBuildError ||
               kind == Kind::EngineError || kind == Kind::ModularDiverged ||
               kind == Kind::AotDiverged;
    }
    [[nodiscard]] static const char* kind_name(Kind k);
};

/// Runs the full differential check on one program + script pair.
/// Never throws: every failure mode is folded into the result kind.
DiffResult run_differential(const std::string& source, const env::Script& script,
                            const DiffOptions& opt = {});

/// One leg of the reaction-trace byte-compatibility check: the program +
/// script pair executed with Chrome tracing armed. `trace` is the complete
/// trace_event JSON (footer included) when `ok`.
struct TraceRun {
    bool ok = false;
    std::string error;  // compile/build/run failure detail
    std::string trace;
};

/// Interpreter leg: host::Instance with a ChromeTraceSink attached.
TraceRun interp_chrome_trace(const std::string& source, const env::Script& script);
/// Compiled leg: the cgen binary run with CEU_TRACE= pointing at a scratch
/// file. Byte-identical to the interpreter leg on conforming programs.
TraceRun cgen_chrome_trace(const std::string& source, const env::Script& script,
                           const DiffOptions& opt = {});

}  // namespace ceu::testgen

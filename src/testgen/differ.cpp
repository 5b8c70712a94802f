#include "testgen/differ.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/modular.hpp"
#include "aot/aot.hpp"
#include "cgen/cgen.hpp"
#include "codegen/flatten.hpp"
#include "dfa/dfa.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"
#include "runtime/engine.hpp"
#include "testgen/generator.hpp"

namespace ceu::testgen {
namespace {

struct InterpRun {
    std::vector<std::string> trace;
    int exit_code = 0;
    rt::Engine::Status status = rt::Engine::Status::Loaded;
    bool error = false;
    std::string error_msg;
};

/// Mirrors the cgen main(): boot, feed the script (stopping once the
/// program leaves Running), drain asyncs to idle. Drives the engine through
/// the host::Instance facade; the async loop deliberately avoids
/// Instance::settle's clock sync to match the compiled harness exactly.
InterpRun run_interp(const flat::CompiledProgram& cp, const env::Script& script,
                     rt::EngineOptions::TieBreak tb, obs::Sink* sink = nullptr,
                     bool crash_power_cycles = false) {
    host::Config cfg;
    cfg.engine.tie_break = tb;
    InterpRun r;
    try {
        host::Instance inst(cp, cfg);
        if (sink != nullptr) inst.add_sink(sink);
        inst.boot();
        for (const env::ScriptItem& item : script.items()) {
            if (inst.status() != rt::Engine::Status::Running) break;
            switch (item.kind) {
                case env::ScriptItem::Kind::Event:
                    // Unknown events are discarded, like the compiled C's
                    // input switch default.
                    inst.try_inject(item.event, item.value);
                    break;
                case env::ScriptItem::Kind::Advance:
                    inst.advance(item.us);
                    break;
                case env::ScriptItem::Kind::AsyncIdle:
                    for (int i = 0; i < 10'000'000 && inst.step_async(); ++i) {}
                    break;
                case env::ScriptItem::Kind::Crash:
                    // Default: bare reset+boot, mirroring the legacy cgen
                    // harness. The AOT-leg baseline uses the script
                    // vocabulary's power_cycle (adds the "[crash]" line),
                    // matching Reactor::restart.
                    if (crash_power_cycles) {
                        inst.power_cycle();
                    } else {
                        inst.reset();
                        inst.boot();
                    }
                    break;
            }
        }
        while (inst.status() == rt::Engine::Status::Running && inst.step_async()) {}
        inst.finish_observation();
        r.status = inst.status();
        r.trace = inst.trace();
        // The cgen harness exits with (int)result truncated by the OS to
        // one byte; fold the interpreter result the same way.
        r.exit_code = static_cast<int>(static_cast<uint8_t>(inst.result().as_int()));
    } catch (const std::exception& e) {
        r.error = true;
        r.error_msg = e.what();
    }
    return r;
}

struct CgenRun {
    std::vector<std::string> lines;
    int exit_code = 0;
    bool build_error = false;
    bool run_error = false;
    std::string error_msg;
};

CgenRun run_cgen(const flat::CompiledProgram& cp, const std::string& script,
                 const DiffOptions& opt, const std::string& base,
                 const std::string& trace_path = "") {
    CgenRun out;
    std::string c_path = base + ".c";
    std::string bin_path = base + ".bin";
    std::string in_path = base + ".in";
    std::string out_path = base + ".out";
    std::string err_path = base + ".cc.err";
    {
        std::ofstream f(c_path);
        cgen::CgenOptions co;
        co.reentrant = opt.cgen_reentrant;
        f << cgen::emit_c(cp, co);
    }
    {
        std::ofstream f(in_path);
        f << script;
    }
    std::string cc = opt.cc + " -o " + bin_path + " " + c_path + " 2>" + err_path;
    if (std::system(cc.c_str()) != 0) {
        out.build_error = true;
        std::ifstream f(err_path);
        std::stringstream ss;
        ss << f.rdbuf();
        out.error_msg = ss.str();
        return out;
    }
    // `timeout` guards against an emitted C scheduler that spins; generated
    // programs are bounded by construction, so 20s means "hung".
    std::string run = "timeout 20 " + bin_path + " < " + in_path + " > " + out_path;
    if (!trace_path.empty()) run = "CEU_TRACE=" + trace_path + " " + run;
    int rc = std::system(run.c_str());
    if (WIFEXITED(rc)) {
        out.exit_code = WEXITSTATUS(rc);
        if (out.exit_code == 124) {  // timeout(1)'s kill status
            out.run_error = true;
            out.error_msg = "compiled program timed out";
        }
    } else {
        out.run_error = true;
        out.error_msg = "compiled program crashed (signal)";
    }
    std::ifstream f(out_path);
    std::string line;
    while (std::getline(f, line)) out.lines.push_back(line);
    for (const std::string& p : {c_path, bin_path, in_path, out_path, err_path}) {
        ::unlink(p.c_str());
    }
    return out;
}

struct AotRun {
    std::vector<std::string> trace;
    int exit_code = 0;
    rt::Engine::Status status = rt::Engine::Status::Loaded;
    bool build_error = false;  // cc / dlopen / descriptor validation failed
    bool error = false;        // the reactor leg itself threw
    std::string error_msg;
};

/// AOT-in-reactor leg: the re-entrant cgen emission compiled to a .so,
/// loaded, and driven through a 1-member Reactor with the same script
/// semantics as run_interp — every delivery crosses the fleet machinery
/// (mailbox + ticket order, fleet timer heap, after-reaction re-indexing),
/// so this leg checks the descriptor ABI *and* the reactor's compiled-member
/// plumbing at once. Intermediate go_time instants the interpreter sees may
/// be elided here (the heap only syncs members with due work); that is
/// trace-transparent because timers fire per expired deadline group with
/// logical timestamps, not per go_time call.
AotRun run_aot(const std::shared_ptr<const flat::CompiledProgram>& cp,
               const env::Script& script, const DiffOptions& opt) {
    AotRun r;
    aot::BuildOptions bopt;
    bopt.cc = opt.aot_cc;
    bopt.work_dir = opt.workdir;
    std::string err;
    aot::ProgramHandle h = aot::FleetImage::build_one(cp, bopt, &err);
    if (!h) {
        r.build_error = true;
        r.error_msg = err;
        return r;
    }
    try {
        reactor::ReactorConfig rcfg;
        rcfg.workers = 1;
        rcfg.collect_traces = true;
        // The interpreter baseline only steps async bodies at the script's
        // explicit idle points (AsyncIdle items); a fleet reactor normally
        // grants slices every round. Park the async budget and raise it
        // only where run_interp would call step_async, or the legs diverge
        // on when an async's result lands.
        rcfg.async_slices_per_round = 0;
        reactor::Reactor rx(rcfg);
        host::Config hcfg;
        hcfg.aot = h;
        reactor::InstanceId id = rx.add_instance(cp, hcfg);
        rx.boot();
        const host::Instance& inst = rx.instance(id);
        for (const env::ScriptItem& item : script.items()) {
            if (inst.status() != rt::Engine::Status::Running) break;
            switch (item.kind) {
                case env::ScriptItem::Kind::Event:
                    // Unknown events report UnknownEvent and deliver
                    // nothing — same discard as run_interp's try_inject.
                    rx.inject(id, item.event, item.value);
                    rx.run_round();
                    break;
                case env::ScriptItem::Kind::Advance: {
                    // Same target arithmetic as Instance::advance: measured
                    // from the member's own instant, which may be ahead of
                    // the fleet clock after asyncs emitted time.
                    Micros target = std::max(rx.now(), inst.now()) + item.us;
                    rx.advance(target - rx.now());
                    break;
                }
                case env::ScriptItem::Kind::AsyncIdle:
                    rx.set_async_slices_per_round(1);
                    for (int i = 0;
                         i < 10'000'000 && inst.status() == rt::Engine::Status::Running &&
                         inst.has_async_work();
                         ++i) {
                        rx.run_round();
                    }
                    rx.set_async_slices_per_round(0);
                    break;
                case env::ScriptItem::Kind::Crash:
                    rx.restart(id);
                    break;
            }
        }
        rx.set_async_slices_per_round(1);
        while (inst.status() == rt::Engine::Status::Running && inst.has_async_work()) {
            rx.run_round();
        }
        r.status = inst.status();
        r.trace = inst.trace();
        r.exit_code = static_cast<int>(static_cast<uint8_t>(inst.result().as_int()));
    } catch (const std::exception& e) {
        r.error = true;
        r.error_msg = e.what();
    }
    return r;
}

std::string first_divergence(const std::vector<std::string>& a,
                             const std::vector<std::string>& b, const std::string& la,
                             const std::string& lb) {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
            return "line " + std::to_string(i + 1) + ": " + la + " \"" + a[i] + "\" vs " +
                   lb + " \"" + b[i] + "\"";
        }
    }
    if (a.size() != b.size()) {
        return la + " has " + std::to_string(a.size()) + " lines, " + lb + " has " +
               std::to_string(b.size());
    }
    return "";
}

/// Witness-independent identity of a conflict: kind + subject + the
/// normalized (unordered) location pair. Occurrence counts and witnesses
/// legitimately differ between the product space and a composition.
std::string conflict_key(const dfa::Conflict& c) {
    auto loc_str = [](const SourceLoc& l) {
        return std::to_string(l.line) + ":" + std::to_string(l.col);
    };
    const SourceLoc* lo = &c.loc_a;
    const SourceLoc* hi = &c.loc_b;
    if (std::make_pair(hi->line, hi->col) < std::make_pair(lo->line, lo->col)) {
        std::swap(lo, hi);
    }
    return std::to_string(static_cast<int>(c.kind)) + "|" + c.what + "|" +
           loc_str(*lo) + "|" + loc_str(*hi);
}

/// The modular-vs-monolithic equivalence oracle (empty = equivalent): on
/// complete explorations the composed conflict set must equal the
/// whole-program one, and composition must never *lose* completeness the
/// monolithic exploration achieved (groups explore subsets of the product).
std::string modular_mismatch(const dfa::Dfa& d, const analysis::ModularOutcome& mo) {
    if (d.complete() && !mo.complete) {
        return "composed analysis incomplete where monolithic is complete";
    }
    if (!d.complete()) return {};  // no monolithic verdict to compare against
    std::set<std::string> mono, comp;
    for (const dfa::Conflict& c : d.conflicts()) mono.insert(conflict_key(c));
    for (const dfa::Conflict& c : mo.conflicts) comp.insert(conflict_key(c));
    if (mono == comp) return {};
    for (const std::string& k : mono) {
        if (!comp.count(k)) return "conflict only in monolithic verdict: " + k;
    }
    for (const std::string& k : comp) {
        if (!mono.count(k)) return "conflict only in composed verdict: " + k;
    }
    return "conflict sets differ";
}

std::string unique_base(const DiffOptions& opt) {
    static int counter = 0;
    std::string dir = opt.workdir;
    if (dir.empty()) {
        const char* t = std::getenv("TMPDIR");
        dir = (t != nullptr && *t != '\0') ? t : "/tmp";
    }
    if (dir.back() != '/') dir += '/';
    return dir + "ceu_diff_" + std::to_string(getpid()) + "_" + std::to_string(counter++);
}

}  // namespace

const char* DiffResult::kind_name(Kind k) {
    switch (k) {
        case Kind::Agree: return "agree";
        case Kind::CompileError: return "compile-error";
        case Kind::DfaRefused: return "dfa-refused";
        case Kind::DfaUnknown: return "dfa-unknown";
        case Kind::TieBreakDiverged: return "tiebreak-diverged";
        case Kind::CgenDiverged: return "cgen-diverged";
        case Kind::CgenBuildError: return "cgen-build-error";
        case Kind::EngineError: return "engine-error";
        case Kind::ModularDiverged: return "modular-diverged";
        case Kind::AotDiverged: return "aot-diverged";
    }
    return "?";
}

DiffResult run_differential(const std::string& source, const env::Script& script,
                            const DiffOptions& opt) {
    DiffResult res;

    flat::CompiledProgram cp;
    Diagnostics diags;
    if (!flat::compile_checked(source, &cp, diags, "<testgen>")) {
        res.kind = DiffResult::Kind::CompileError;
        res.detail = diags.str();
        return res;
    }

    // DFA verdict first: it decides which checks below are hard asserts.
    dfa::DfaOptions dopt;
    dopt.max_states = opt.max_states;
    dfa::Dfa d = dfa::Dfa::build(cp, dopt);
    res.dfa_states = d.state_count();
    res.dfa_conflicts = d.conflicts().size();
    const bool verdict_ok = d.deterministic() && d.complete();
    const bool verdict_unknown = d.deterministic() && !d.complete();

    analysis::ModularOptions mopt;
    mopt.explore.max_states = opt.max_states;
    analysis::ModularOutcome mo = analysis::explore_modular(cp, mopt);
    std::string mismatch = modular_mismatch(d, mo);
    if (!mismatch.empty()) {
        res.kind = DiffResult::Kind::ModularDiverged;
        res.detail = mismatch;
        return res;
    }

    InterpRun fifo = run_interp(cp, script, rt::EngineOptions::TieBreak::Fifo);
    InterpRun lifo = run_interp(cp, script, rt::EngineOptions::TieBreak::Lifo);
    if (fifo.error || lifo.error) {
        res.kind = DiffResult::Kind::EngineError;
        res.detail = fifo.error ? fifo.error_msg : lifo.error_msg;
        return res;
    }
    res.fifo_trace = fifo.trace;
    res.lifo_trace = lifo.trace;
    res.fifo_exit = fifo.exit_code;
    res.lifo_exit = lifo.exit_code;

    const bool tie_same = fifo.trace == lifo.trace && fifo.exit_code == lifo.exit_code &&
                          fifo.status == lifo.status;

    CgenRun c;
    bool cgen_same = true;
    if (opt.run_cgen) {
        c = run_cgen(cp, script_text(script), opt, unique_base(opt));
        if (c.build_error) {
            res.kind = DiffResult::Kind::CgenBuildError;
            res.detail = c.error_msg;
            return res;
        }
        res.cgen_trace = c.lines;
        res.cgen_exit = c.exit_code;
        // Compare against FIFO: the emitted C uses FIFO track order. The
        // exit code only binds when the program terminated (a still-running
        // program's C main returns the result slot's current value, while
        // the interpreter reports status separately).
        cgen_same = !c.run_error && c.lines == fifo.trace &&
                    (fifo.status != rt::Engine::Status::Terminated ||
                     c.exit_code == fifo.exit_code);
    }

    AotRun a;
    bool aot_same = true;
    bool aot_ran = false;
    if (opt.run_cgen && opt.check_aot) {
        bool has_crash = false;
        for (const env::ScriptItem& item : script.items()) {
            has_crash |= item.kind == env::ScriptItem::Kind::Crash;
        }
        auto scp = std::make_shared<const flat::CompiledProgram>(
            flat::compile(source));
        a = run_aot(scp, script, opt);
        if (a.build_error) {
            // Toolchain / loader failures fold into the build-error kind the
            // shrinker and sweep reports already classify; the "aot: "
            // detail prefix tells the legs apart.
            res.kind = DiffResult::Kind::CgenBuildError;
            res.detail = a.error_msg;
            return res;
        }
        aot_ran = true;
        res.aot_trace = a.trace;
        res.aot_exit = a.exit_code;
        // Crash items power-cycle through Reactor::restart (one extra
        // "[crash]" annotation line), so the baseline for such scripts is
        // an interpreter rerun with the same crash vocabulary. Generated
        // sweeps never contain Crash and compare against `fifo` directly.
        const InterpRun* base = &fifo;
        InterpRun crash_fifo;
        if (has_crash) {
            crash_fifo = run_interp(cp, script, rt::EngineOptions::TieBreak::Fifo,
                                    nullptr, /*crash_power_cycles=*/true);
            base = &crash_fifo;
        }
        aot_same = !a.error && a.trace == base->trace && a.status == base->status &&
                   (base->status != rt::Engine::Status::Terminated ||
                    a.exit_code == base->exit_code);
    }

    if (verdict_ok) {
        if (!tie_same) {
            res.kind = DiffResult::Kind::TieBreakDiverged;
            res.detail = first_divergence(fifo.trace, lifo.trace, "fifo", "lifo");
            if (res.detail.empty()) {
                res.detail = "exit/status differ: fifo=" + std::to_string(fifo.exit_code) +
                             " lifo=" + std::to_string(lifo.exit_code);
            }
            return res;
        }
        if (!cgen_same) {
            res.kind = DiffResult::Kind::CgenDiverged;
            res.detail = c.run_error
                             ? c.error_msg
                             : first_divergence(c.lines, fifo.trace, "cgen", "interp");
            if (res.detail.empty()) {
                res.detail = "exit codes differ: cgen=" + std::to_string(c.exit_code) +
                             " interp=" + std::to_string(fifo.exit_code);
            }
            return res;
        }
        if (!aot_same) {
            res.kind = DiffResult::Kind::AotDiverged;
            res.detail =
                a.error ? a.error_msg
                        : first_divergence(a.trace, fifo.trace, "aot", "interp");
            if (res.detail.empty()) {
                res.detail = "exit/status differ: aot=" + std::to_string(a.exit_code) +
                             " interp=" + std::to_string(fifo.exit_code);
            }
            return res;
        }
        res.kind = DiffResult::Kind::Agree;
        return res;
    }

    // Refused / unknown: record whether schedulers actually disagreed, but
    // a C scheduler crash or hang is a hard failure regardless of verdict.
    if (opt.run_cgen && c.run_error) {
        res.kind = DiffResult::Kind::CgenDiverged;
        res.detail = c.error_msg;
        return res;
    }
    if (aot_ran && a.error) {
        res.kind = DiffResult::Kind::AotDiverged;
        res.detail = a.error_msg;
        return res;
    }
    res.kind = verdict_unknown ? DiffResult::Kind::DfaUnknown : DiffResult::Kind::DfaRefused;
    res.refused_diverged = !tie_same || !cgen_same || (aot_ran && !aot_same);
    return res;
}

TraceRun interp_chrome_trace(const std::string& source, const env::Script& script) {
    TraceRun out;
    flat::CompiledProgram cp;
    Diagnostics diags;
    if (!flat::compile_checked(source, &cp, diags, "<trace>")) {
        out.error = diags.str();
        return out;
    }
    obs::ChromeTraceSink sink;
    InterpRun r = run_interp(cp, script, rt::EngineOptions::TieBreak::Fifo, &sink);
    if (r.error) {
        out.error = r.error_msg;
        return out;
    }
    out.ok = true;
    out.trace = sink.text();
    return out;
}

TraceRun cgen_chrome_trace(const std::string& source, const env::Script& script,
                           const DiffOptions& opt) {
    TraceRun out;
    flat::CompiledProgram cp;
    Diagnostics diags;
    if (!flat::compile_checked(source, &cp, diags, "<trace>")) {
        out.error = diags.str();
        return out;
    }
    std::string base = unique_base(opt);
    std::string trace_path = base + ".trace.json";
    CgenRun c = run_cgen(cp, script_text(script), opt, base, trace_path);
    if (c.build_error || c.run_error) {
        out.error = c.error_msg;
        ::unlink(trace_path.c_str());
        return out;
    }
    std::ifstream f(trace_path);
    std::stringstream ss;
    ss << f.rdbuf();
    out.trace = ss.str();
    out.ok = f.good() || !out.trace.empty();
    if (!out.ok) out.error = "compiled program produced no trace file";
    ::unlink(trace_path.c_str());
    return out;
}

}  // namespace ceu::testgen

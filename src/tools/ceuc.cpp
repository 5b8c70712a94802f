// ceuc — the Céu compiler driver.
//
//   ceuc file.ceu                 compile + temporal analysis (report only)
//   ceuc --run file.ceu           compile, analyze, then run; input script
//                                 read from stdin (see below)
//   ceuc --emit-c file.ceu        print the generated single-threaded C
//   ceuc --disasm file.ceu        print the flat-program disassembly
//   ceuc --dfa-dot file.ceu       print the temporal-analysis DFA (Graphviz)
//   ceuc --flow-dot file.ceu      print the flow graph (Graphviz)
//   ceuc --lint file.ceu          temporal analysis + lint passes
//   ceuc --explain file.ceu       on refusal, print each conflict's witness
//                                 chain (stderr) and a replayable script
//                                 reaching the first conflict (stdout)
//   ceuc --gen.fuzz N --gen.seed S  conformance fuzzing: generate N seeded
//                                 programs from seed S, cross-check the
//                                 interpreter (FIFO+LIFO), the compiled
//                                 cgen output and the DFA verdict; shrink
//                                 and report divergences (exit 1 if any)
//   ceuc --gen.dump --gen.seed S  print the generated program + script for
//                                 one seed (corpus format, for replaying)
//   ceuc --no-analysis ...        skip the temporal analysis
//
// Run options:
//   --trace=FILE                  write a Chrome trace_event JSON of every
//                                 reaction chain (load in about:tracing /
//                                 Perfetto). Byte-identical with the trace
//                                 the cgen-compiled binary writes under
//                                 CEU_TRACE=FILE.
//   --stats=FILE                  write a ProcessStats JSON snapshot after
//                                 the run ("-" = stderr)
//   --checkpoint=FILE             after the script drains, serialize the
//                                 full engine + host state to FILE
//                                 (versioned binary, see docs/EMBEDDING.md)
//   --restore=FILE                load FILE (taken from the same program)
//                                 instead of booting, then run the script
//                                 as a continuation
//
// Analysis options:
//   --analysis.jobs N             explore the DFA with N worker threads
//   --analysis.max-states N       state budget (default 20000)
//   --analysis.strict             incomplete analysis => exit 1
//   --analysis.fail-fast          stop exploring at the first conflict
//   --analysis.modular            partition at the top-level plain par and
//                                 compose per-arm DFAs instead of exploring
//                                 the product space (arms whose interfaces
//                                 interleave fall back to joint exploration;
//                                 see docs/LANGUAGE.md)
//   --analysis.cache-dir DIR      persistent module-DFA cache keyed by
//                                 content hash (implies --analysis.modular):
//                                 repeat runs re-explore only changed
//                                 modules.
//
// Fuzz options:
//   --fuzz.out DIR                write shrunk failures to DIR as corpus
//                                 files (default: report only)
//   --fuzz.cc CMD                 host C compiler command (default
//                                 "cc -std=c11 -O1")
//   --fuzz.no-cgen                skip the compile-and-run C leg
//   --fuzz.no-shrink              report divergences unshrunk
//
// Every subcommand honors --diag-format=text|json (JSON: one object per
// diagnostic on stdout, for CI gating) and the exit-code contract:
//   0  success (--run: the program terminated or is still awaiting; the
//      program's own result value is reported on stderr, not as the exit
//      code — scripts that need it should parse the stats snapshot)
//   1  diagnostics reported (compile error, refusal, divergence, runtime
//      error, engine fault)
//   2  command-line usage error
//
// Input script protocol (one item per line, matching the C harness; see
// env::Script::parse for the full grammar):
//   E <event> [value]   deliver an input event
//   T <micros|TIME>     advance wall-clock time ("T 500ms" also works)
//   A                   run async blocks until idle
//   C                   crash: power-cycle the engine (time persists)
//   Q                   stop reading the script
//   fault <plan-line>   accumulate a fault plan (network harnesses only)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/explore.hpp"
#include "aot/aot.hpp"
#include "analysis/lint.hpp"
#include "analysis/modular.hpp"
#include "analysis/witness.hpp"
#include "cgen/cgen.hpp"
#include "codegen/flatten.hpp"
#include "dfa/dfa.hpp"
#include "fault/plan.hpp"
#include "flow/flowgraph.hpp"
#include "host/instance.hpp"
#include "obs/obs.hpp"
#include "testgen/fuzz.hpp"

namespace {

using namespace ceu;

int usage() {
    std::fprintf(
        stderr,
        "usage: ceuc [--run|--emit-c|--disasm|--dfa-dot|--flow-dot|--lint|"
        "--explain]\n"
        "            [--no-analysis] [--analysis.jobs N] [--analysis.max-states N]\n"
        "            [--analysis.strict] [--analysis.fail-fast]\n"
        "            [--analysis.modular] [--analysis.cache-dir DIR]\n"
        "            [--diag-format=text|json] [--lint-only=IDs] "
        "[--lint-disable=IDs]\n"
        "            [--trace=FILE] [--stats=FILE] [--checkpoint=FILE]\n"
        "            [--restore=FILE] [--backend=interp|aot|mixed] [--aot-cc=CMD]\n"
        "            <file.ceu>\n"
        "       ceuc --gen.fuzz N [--gen.seed S] [--fuzz.out DIR] [--fuzz.cc CMD]\n"
        "            [--fuzz.no-cgen] [--fuzz.no-shrink] [--analysis.max-states N]\n"
        "       ceuc --gen.dump [--gen.seed S]\n");
    return 2;
}

std::vector<std::string> split_ids(const std::string& csv) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : csv) {
        if (c == ',') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

std::string read_file(const std::string& path) {
    if (path == "-") {
        std::ostringstream os;
        os << std::cin.rdbuf();
        return os.str();
    }
    std::ifstream f(path);
    if (!f) throw std::runtime_error("cannot open " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

void json_escape(std::ostringstream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

/// One compiler/runtime diagnostic in the same shape as analysis
/// Finding::json, with "pass" naming the producing stage.
std::string diag_json(const Diagnostic& d, const std::string& pass,
                      const std::string& file) {
    std::ostringstream os;
    os << "{\"pass\":";
    json_escape(os, pass);
    os << ",\"severity\":\"" << severity_name(d.severity) << "\",\"file\":";
    json_escape(os, file);
    os << ",\"line\":" << d.loc.line << ",\"col\":" << d.loc.col << ",\"message\":";
    json_escape(os, d.message);
    os << "}";
    return os.str();
}

/// Dumps diagnostics honoring --diag-format: text goes to stderr, JSON goes
/// to stdout one object per line (the machine-readable channel).
void print_diags(const Diagnostics& diags, const std::string& pass,
                 const std::string& file, bool json) {
    if (json) {
        for (const Diagnostic& d : diags.all()) {
            std::printf("%s\n", diag_json(d, pass, file).c_str());
        }
    } else {
        std::fprintf(stderr, "%s", diags.str().c_str());
    }
}

/// --backend selects how --run executes the program. `interp` is the
/// rt::Engine interpreter; `aot` compiles the program into a shared object
/// (cgen re-entrant mode) and drives the compiled context; `mixed` prefers
/// aot when a host C compiler is available and quietly uses the interpreter
/// otherwise. Under `aot` an unavailable toolchain (or any build/load
/// failure) degrades to the interpreter too, but loudly: a "pass":"aot"
/// diagnostic reports why, so CI can tell a fallback from a clean aot run.
enum class RunBackend { Interp, Aot, Mixed };

struct RunOptions {
    std::string trace_path;  // --trace=FILE: Chrome trace_event JSON
    std::string stats_path;  // --stats=FILE: ProcessStats snapshot ("-" = stderr)
    std::string checkpoint_path;  // --checkpoint=FILE: snapshot after the run
    std::string restore_path;     // --restore=FILE: resume from a snapshot
    RunBackend backend = RunBackend::Interp;
    std::string aot_cc;  // --aot-cc=CMD: compiler for the aot shared object
};

/// AOT toolchain trouble is an environmental condition, not a program
/// error: it is reported as a warning on its own pass and the run falls
/// back to the interpreter, keeping the exit-code contract intact.
std::string aot_fallback_json(const std::string& msg, const std::string& file) {
    std::ostringstream os;
    os << "{\"pass\":\"aot\",\"severity\":\"warning\",\"file\":";
    json_escape(os, file);
    os << ",\"line\":0,\"col\":0,\"message\":";
    json_escape(os, msg);
    os << "}";
    return os.str();
}

/// Engine faults carry a source location; report them in the same JSON
/// shape as every other diagnostic so CI can gate on `"pass":"fault"`.
std::string fault_json(const rt::Engine::FaultInfo& f, const std::string& file) {
    std::ostringstream os;
    os << "{\"pass\":\"fault\",\"severity\":\"error\",\"file\":";
    json_escape(os, file);
    os << ",\"line\":" << f.loc.line << ",\"col\":" << f.loc.col
       << ",\"at_reaction\":" << f.at_reaction << ",\"message\":";
    json_escape(os, f.message);
    os << "}";
    return os.str();
}

int run_program(flat::CompiledProgram cp_in, const std::string& path,
                const RunOptions& ropt, bool json) {
    // Shared ownership from the start: the aot image build and the
    // instance both want to pin the program.
    auto cp = std::make_shared<const flat::CompiledProgram>(std::move(cp_in));
    std::ostringstream script_text;
    script_text << std::cin.rdbuf();

    Diagnostics diags;
    env::Script script;
    if (!env::Script::parse(script_text.str(), &script, diags)) {
        print_diags(diags, "script", "<stdin>", json);
        return 1;
    }
    if (!script.fault_plan_text().empty()) {
        // No simulated network here, but a typo'd plan should not pass
        // silently: validate it and say it goes unused.
        fault::FaultPlan plan;
        if (!fault::parse_plan(script.fault_plan_text(), &plan, diags)) {
            print_diags(diags, "fault-plan", "<stdin>", json);
            return 1;
        }
        std::fprintf(stderr,
                     "note: fault plan parsed but unused (ceuc --run drives a "
                     "single engine, not a network)\n");
    }

    // Trap dynamic errors: the engine parks Faulted with a structured
    // FaultInfo (location + reaction ordinal) instead of unwinding, which
    // is what the exit contract and --diag-format=json report from.
    host::Config hcfg;
    hcfg.engine.trap_faults = true;
    hcfg.collect_trace = false;  // streamed to stdout below, never read back
    if (ropt.backend != RunBackend::Interp) {
        aot::BuildOptions bopt;
        if (!ropt.aot_cc.empty()) bopt.cc = ropt.aot_cc;
        std::string err;
        aot::ProgramHandle h = aot::FleetImage::build_one(cp, bopt, &err);
        if (h) {
            hcfg.aot = h;
        } else if (ropt.backend == RunBackend::Aot) {
            if (json) {
                std::printf("%s\n", aot_fallback_json(err, path).c_str());
            }
            std::fprintf(stderr,
                         "ceuc: aot backend unavailable (%s); running "
                         "interpreted\n",
                         err.c_str());
        }
    }
    host::Instance inst(cp, hcfg);
    inst.add_output_sink([](const std::string& line) { std::printf("%s\n", line.c_str()); });
    obs::ChromeTraceSink trace_sink;
    if (!ropt.trace_path.empty()) inst.add_sink(&trace_sink);
    if (!ropt.stats_path.empty()) inst.observe_stats();

    if (!ropt.restore_path.empty()) {
        std::ifstream f(ropt.restore_path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "ceuc: cannot read %s\n", ropt.restore_path.c_str());
            return 1;
        }
        std::ostringstream os;
        os << f.rdbuf();
        const std::string& raw = os.str();
        std::vector<uint8_t> blob(raw.begin(), raw.end());
        inst.load(blob);  // throws on version/program mismatch -> caught in main
    }

    // Dynamic errors come back as structured diagnostics with a source
    // location instead of an unwound exception string.
    rt::Engine::Status status = ropt.restore_path.empty()
                                    ? inst.run(script, diags)
                                    : inst.resume(script, diags);
    inst.finish_observation();

    if (!ropt.checkpoint_path.empty()) {
        std::vector<uint8_t> blob = inst.save();
        std::ofstream f(ropt.checkpoint_path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "ceuc: cannot write %s\n",
                         ropt.checkpoint_path.c_str());
            return 1;
        }
        f.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
    }

    if (!ropt.trace_path.empty()) {
        std::ofstream f(ropt.trace_path, std::ios::binary);
        if (!f) {
            std::fprintf(stderr, "ceuc: cannot write %s\n", ropt.trace_path.c_str());
            return 1;
        }
        f << trace_sink.text();
    }
    if (!ropt.stats_path.empty()) {
        std::string stats = inst.snapshot().to_json();
        if (ropt.stats_path == "-") {
            std::fprintf(stderr, "%s\n", stats.c_str());
        } else {
            std::ofstream f(ropt.stats_path, std::ios::binary);
            if (!f) {
                std::fprintf(stderr, "ceuc: cannot write %s\n",
                             ropt.stats_path.c_str());
                return 1;
            }
            f << stats << "\n";
        }
    }

    if (!diags.ok()) {
        print_diags(diags, "runtime", path, json);
        return 1;
    }
    if (status == rt::Engine::Status::Faulted) {
        // Compiled contexts fault without a structured FaultInfo (no
        // interpreter engine to ask); the status itself is the report.
        const std::optional<rt::Engine::FaultInfo> f =
            inst.is_compiled() ? std::nullopt : inst.engine().fault();
        if (json && f) {
            std::printf("%s\n", fault_json(*f, path).c_str());
        }
        std::fprintf(stderr, "engine faulted: %s\n",
                     f ? f->message.c_str()
                       : (inst.is_compiled() ? "(compiled context)" : "(unknown)"));
        return 1;
    }
    if (status == rt::Engine::Status::Terminated) {
        // Exit-code contract: 0 means "ran cleanly", independent of the
        // program's own result value (which is reported here instead —
        // the historical `exit(result)` aliased result 1 with "faulted").
        std::fprintf(stderr, "program terminated with %lld\n",
                     static_cast<long long>(inst.result().as_int()));
        return 0;
    }
    if (inst.is_compiled()) {
        // Gate occupancy is interpreter introspection; the compiled
        // context only reports its status.
        std::fprintf(stderr, "program still awaiting\n");
    } else {
        std::fprintf(stderr, "program still awaiting (%d trails)\n",
                     inst.engine().active_gate_count());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    enum class Mode { Check, Run, EmitC, Disasm, DfaDot, FlowDot, Lint, Explain };
    Mode mode = Mode::Check;
    bool analysis = true;
    bool strict = false;
    bool modular = false;
    std::string cache_dir;
    bool json = false;
    analysis::ExploreOptions eopt;
    analysis::LintOptions lopt;
    RunOptions ropt;
    std::string path;
    long gen_fuzz_count = -1;  // >= 0: fuzz mode
    bool gen_dump = false;
    uint64_t gen_seed = 0;
    testgen::FuzzOptions fopt;

    // `--flag value` and `--flag=value` are both accepted.
    auto value_of = [&](const std::string& a, const char* name, int& i,
                        std::string* out) -> bool {
        std::string prefix = std::string(name) + "=";
        if (a == name) {
            if (i + 1 >= argc) return false;
            *out = argv[++i];
            return true;
        }
        if (a.rfind(prefix, 0) == 0) {
            *out = a.substr(prefix.size());
            return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string v;
        if (a == "--run") mode = Mode::Run;
        else if (a == "--emit-c") mode = Mode::EmitC;
        else if (a == "--disasm") mode = Mode::Disasm;
        else if (a == "--dfa-dot") mode = Mode::DfaDot;
        else if (a == "--flow-dot") mode = Mode::FlowDot;
        else if (a == "--lint") mode = Mode::Lint;
        else if (a == "--explain") mode = Mode::Explain;
        else if (a == "--no-analysis") analysis = false;
        else if (a == "--analysis.strict") strict = true;
        else if (a == "--analysis.fail-fast") eopt.stop_at_first_conflict = true;
        else if (a == "--analysis.modular") modular = true;
        else if (value_of(a, "--analysis.cache-dir", i, &v)) {
            if (v.empty()) return usage();
            cache_dir = v;
            modular = true;  // a cache only makes sense for modular verdicts
        }
        else if (value_of(a, "--analysis.jobs", i, &v)) {
            eopt.jobs = std::max(1, std::atoi(v.c_str()));
        } else if (value_of(a, "--analysis.max-states", i, &v)) {
            long n = std::atol(v.c_str());
            if (n <= 0) return usage();
            eopt.max_states = static_cast<size_t>(n);
        } else if (value_of(a, "--diag-format", i, &v)) {
            if (v == "json") json = true;
            else if (v == "text") json = false;
            else return usage();
        } else if (value_of(a, "--trace", i, &v)) {
            if (v.empty()) return usage();
            ropt.trace_path = v;
        } else if (value_of(a, "--stats", i, &v)) {
            if (v.empty()) return usage();
            ropt.stats_path = v;
        } else if (value_of(a, "--checkpoint", i, &v)) {
            if (v.empty()) return usage();
            ropt.checkpoint_path = v;
        } else if (value_of(a, "--restore", i, &v)) {
            if (v.empty()) return usage();
            ropt.restore_path = v;
        } else if (value_of(a, "--backend", i, &v)) {
            if (v == "interp") ropt.backend = RunBackend::Interp;
            else if (v == "aot") ropt.backend = RunBackend::Aot;
            else if (v == "mixed") ropt.backend = RunBackend::Mixed;
            else return usage();
        } else if (value_of(a, "--aot-cc", i, &v)) {
            if (v.empty()) return usage();
            ropt.aot_cc = v;
            fopt.diff.aot_cc = v;
        } else if (value_of(a, "--lint-only", i, &v)) {
            lopt.only = split_ids(v);
        } else if (value_of(a, "--lint-disable", i, &v)) {
            lopt.disable = split_ids(v);
        } else if (value_of(a, "--gen.fuzz", i, &v)) {
            gen_fuzz_count = std::atol(v.c_str());
            if (gen_fuzz_count <= 0) return usage();
        } else if (a == "--gen.dump") {
            gen_dump = true;
        } else if (value_of(a, "--gen.seed", i, &v)) {
            gen_seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (value_of(a, "--fuzz.out", i, &v)) {
            fopt.corpus_dir = v;
        } else if (value_of(a, "--fuzz.cc", i, &v)) {
            fopt.diff.cc = v;
        } else if (a == "--fuzz.no-cgen") {
            fopt.diff.run_cgen = false;
        } else if (a == "--fuzz.no-shrink") {
            fopt.shrink_failures = false;
        }
        else if (a == "--help" || a == "-h") return usage();
        else if (!a.empty() && a[0] == '-' && a != "-") return usage();
        else path = a;
    }
    if (gen_dump) {
        testgen::GenCase gc = testgen::generate(gen_seed);
        testgen::CorpusCase cc;
        cc.source = gc.source;
        cc.script_text = gc.script_text;
        cc.kind = "generated";
        cc.seed = gen_seed;
        std::printf("%s", testgen::corpus_format(cc).c_str());
        return 0;
    }
    if (gen_fuzz_count >= 0) {
        fopt.seed = gen_seed;
        fopt.count = static_cast<int>(gen_fuzz_count);
        fopt.diff.max_states = eopt.max_states;
        testgen::FuzzReport rep = testgen::run_fuzz(
            fopt, [](const std::string& line) { std::fprintf(stderr, "%s\n", line.c_str()); });
        return rep.failures == 0 ? 0 : 1;
    }
    if (path.empty()) return usage();

    try {
        std::string source = read_file(path);
        flat::CompiledProgram cp;
        Diagnostics diags;
        if (!flat::compile_checked(source, &cp, diags, path)) {
            print_diags(diags, "compile", path, json);
            return 1;
        }
        if (json) {
            print_diags(diags, "compile", path, true);  // notes / warnings
        } else {
            for (const auto& d : diags.all()) {
                std::fprintf(stderr, "%s\n", d.str().c_str());
            }
        }

        if (analysis) {
            // One verdict feeds every mode below, whichever engine computed
            // it: monolithic product-space exploration or the modular
            // partition-and-compose path (--analysis.modular /
            // --analysis.cache-dir).
            bool complete = true;
            std::vector<dfa::Conflict> conflicts;
            size_t states = 0;
            bool used_modular = modular && mode != Mode::DfaDot;
            if (used_modular) {
                analysis::ModularOptions mopt;
                mopt.explore = eopt;
                mopt.cache_dir = cache_dir;
                analysis::ModularOutcome mo = analysis::explore_modular(cp, mopt);
                complete = mo.complete;
                conflicts = std::move(mo.conflicts);
                states = mo.states_total;
                size_t cached = 0;
                for (const analysis::GroupResult& g : mo.groups) {
                    if (g.from_cache) ++cached;
                }
                if (json) {
                    std::ostringstream os;
                    os << "{\"pass\":\"analysis-cache\",\"severity\":\"note\",\"file\":";
                    json_escape(os, path);
                    os << ",\"line\":0,\"col\":0"
                       << ",\"partitioned\":" << (mo.partition.partitioned ? "true" : "false")
                       << ",\"composed\":" << (mo.composed ? "true" : "false")
                       << ",\"modules\":" << mo.partition.modules.size()
                       << ",\"groups\":" << mo.groups.size()
                       << ",\"cached_groups\":" << cached
                       << ",\"explored_groups\":" << (mo.groups.size() - cached)
                       << ",\"states_explored\":" << mo.states_explored
                       << ",\"states_total\":" << mo.states_total
                       << ",\"cache_hits\":" << mo.cache.hits
                       << ",\"cache_misses\":" << mo.cache.misses
                       << ",\"cache_stores\":" << mo.cache.stores
                       << ",\"cache_rejected\":" << mo.cache.rejected
                       << ",\"message\":";
                    std::ostringstream msg;
                    msg << mo.partition.modules.size() << " modules in "
                        << mo.groups.size() << " groups, " << cached << " cached";
                    if (!mo.partition.partitioned) {
                        msg << "; whole-program fallback: " << mo.partition.reason;
                    }
                    json_escape(os, msg.str());
                    os << "}";
                    std::printf("%s\n", os.str().c_str());
                } else {
                    std::fprintf(stderr,
                                 "modular analysis: %zu modules in %zu groups "
                                 "(%zu cached, %zu explored); %zu states "
                                 "re-explored / %zu total; cache hits=%zu "
                                 "misses=%zu stores=%zu rejected=%zu\n",
                                 mo.partition.modules.size(), mo.groups.size(),
                                 cached, mo.groups.size() - cached,
                                 mo.states_explored, mo.states_total,
                                 mo.cache.hits, mo.cache.misses, mo.cache.stores,
                                 mo.cache.rejected);
                    if (!mo.partition.partitioned) {
                        std::fprintf(stderr, "  whole-program fallback: %s\n",
                                     mo.partition.reason.c_str());
                    }
                    for (const analysis::GroupResult& g : mo.groups) {
                        if (!g.fallback_reason.empty()) {
                            std::fprintf(stderr,
                                         "  %zu arms explored jointly: %s\n",
                                         g.modules.size(),
                                         g.fallback_reason.c_str());
                        }
                    }
                }
            } else {
                dfa::Dfa d = analysis::explore(cp, eopt);
                complete = d.complete();
                conflicts = d.conflicts();
                states = d.state_count();
                if (mode == Mode::DfaDot) {
                    bool budget_exhausted =
                        !complete && !(eopt.stop_at_first_conflict && !conflicts.empty());
                    if (budget_exhausted) {
                        if (json) {
                            std::printf("%s\n",
                                        analysis::incomplete_finding(states,
                                                                     eopt.max_states)
                                            .json(path)
                                            .c_str());
                        }
                        std::fprintf(stderr,
                                     "warning: temporal analysis incomplete (state "
                                     "budget exhausted: %zu states explored, "
                                     "--analysis.max-states=%zu); determinism NOT proven\n",
                                     states, eopt.max_states);
                    }
                    if (!d.deterministic()) {
                        if (json) {
                            for (const dfa::Conflict& c : conflicts) {
                                std::printf(
                                    "%s\n",
                                    analysis::conflict_finding(c).json(path).c_str());
                            }
                        }
                        std::fprintf(stderr,
                                     "temporal analysis refused the program:\n%s",
                                     d.report().c_str());
                    }
                    std::printf("%s", d.to_dot(path).c_str());
                    return d.deterministic() ? 0 : 1;
                }
            }

            // An exploration truncated by the state budget proves nothing:
            // never let it masquerade as an "OK". Any incomplete module makes
            // a composed verdict incomplete (Dfa::complete() honesty).
            bool budget_exhausted =
                !complete && !(eopt.stop_at_first_conflict && !conflicts.empty());

            if (mode == Mode::Lint) {
                std::vector<analysis::Finding> findings;
                for (const dfa::Conflict& c : conflicts) {
                    findings.push_back(analysis::conflict_finding(c));
                }
                if (budget_exhausted) {
                    findings.push_back(
                        analysis::incomplete_finding(states, eopt.max_states));
                }
                std::vector<analysis::Finding> lints = analysis::run_lints(cp, lopt);
                findings.insert(findings.end(), std::make_move_iterator(lints.begin()),
                                std::make_move_iterator(lints.end()));
                bool errors = false;
                for (const analysis::Finding& f : findings) {
                    errors = errors || f.severity == Severity::Error;
                    std::printf("%s\n",
                                (json ? f.json(path) : f.str(path)).c_str());
                }
                if (errors) return 1;
                return (strict && budget_exhausted) ? 1 : 0;
            }

            if (budget_exhausted) {
                if (json) {
                    std::printf("%s\n",
                                analysis::incomplete_finding(states, eopt.max_states)
                                    .json(path)
                                    .c_str());
                }
                std::fprintf(stderr,
                             "warning: temporal analysis incomplete (state budget "
                             "exhausted: %zu states explored, "
                             "--analysis.max-states=%zu); determinism NOT proven\n",
                             states, eopt.max_states);
                if (strict) {
                    std::fprintf(stderr, "error: --analysis.strict: refusing "
                                         "incompletely analyzed program\n");
                    return 1;
                }
            }
            if (!conflicts.empty()) {
                if (json) {
                    for (const dfa::Conflict& c : conflicts) {
                        std::printf("%s\n",
                                    analysis::conflict_finding(c).json(path).c_str());
                    }
                }
                std::fprintf(stderr, "temporal analysis refused the program:\n");
                for (const dfa::Conflict& c : conflicts) {
                    std::fprintf(stderr, "%s\n", c.str().c_str());
                }
                if (mode == Mode::Explain) {
                    for (const dfa::Conflict& c : conflicts) {
                        std::fprintf(
                            stderr, "  witness: %s\n",
                            analysis::witness_chain(c.witness).c_str());
                    }
                    // Modular witnesses replay whole-program as-is: a module
                    // trigger is a real input, and arms outside the conflict's
                    // group ignore it by construction (no interference edge).
                    const dfa::Conflict& first = conflicts.front();
                    std::printf("# replay script reaching: %s\n", first.str().c_str());
                    std::printf("%s",
                                analysis::witness_script_text(first.witness).c_str());
                    std::printf("Q\n");
                }
                return 1;
            }
            if (mode == Mode::Check || mode == Mode::Explain) {
                std::printf("%s: %s (%zu DFA states, %zu instructions, %d slots, "
                            "%zu gates)\n",
                            path.c_str(),
                            budget_exhausted ? "no conflicts found, INCOMPLETE" : "OK",
                            states, cp.flat.code.size(),
                            cp.flat.data_size, cp.flat.gates.size());
                return 0;
            }
        } else if (mode == Mode::Check) {
            std::printf("%s: parsed and flattened (analysis skipped)\n", path.c_str());
            return 0;
        } else if (mode == Mode::Lint) {
            std::vector<analysis::Finding> findings = analysis::run_lints(cp, lopt);
            for (const analysis::Finding& f : findings) {
                std::printf("%s\n", (json ? f.json(path) : f.str(path)).c_str());
            }
            return 0;
        } else if (mode == Mode::Explain) {
            std::fprintf(stderr, "--explain requires the analysis\n");
            return 2;
        } else if (mode == Mode::DfaDot) {
            std::fprintf(stderr, "--dfa-dot requires the analysis\n");
            return 2;
        }

        switch (mode) {
            case Mode::Run:
                return run_program(std::move(cp), path, ropt, json);
            case Mode::EmitC:
                std::printf("%s", cgen::emit_c(cp).c_str());
                return 0;
            case Mode::Disasm:
                std::printf("%s", flat::disassemble(cp.flat).c_str());
                return 0;
            case Mode::FlowDot:
                std::printf("%s", flow::build_flow_graph(cp).to_dot(path).c_str());
                return 0;
            default:
                return 0;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ceuc: %s\n", e.what());
        return 1;
    }
}

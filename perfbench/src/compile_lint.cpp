// compile-lint: programs taken from source to a determinism verdict on
// ceuc's default path (lex, parse, sema, flatten, monolithic explore with 1
// job), over a seeded corpus:
//   - testgen::generate() programs, seeded from --seed;
//   - the paper's demo programs;
//   - the tests/corpus witnesses (known conflicts);
//   - k-arm par explosions for k = 3..5.
// The only workload where the lexer, parser, sema, codegen and analysis do
// the work; elsewhere they run only inside set-up. Fixed programs must
// match perfbench/expected_verdicts.txt; generated ones must match the
// conformance differ's verdict (interpreter FIFO/LIFO + modular oracle).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "analysis/explore.hpp"
#include "analysis/modular.hpp"
#include "bench.hpp"
#include "demos/demos.hpp"
#include "stats.hpp"
#include "testgen/differ.hpp"
#include "testgen/fuzz.hpp"
#include "testgen/generator.hpp"

namespace perfbench {

using namespace ceu;

namespace {

constexpr size_t kGenerated = 300;
constexpr size_t kGeneratedMaxStates = 64;
constexpr int kSetups = 5;

struct Entry {
    std::string name;
    std::string source;
    bool generated = false;
    env::Script script;   // generated programs: the matched input script
    Verdict expect = Verdict::CompileError;
};

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    if (!f) throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

Verdict parse_verdict(const std::string& s) {
    for (Verdict v : {Verdict::Deterministic, Verdict::Nondeterministic, Verdict::Incomplete,
                      Verdict::CompileError}) {
        if (s == verdict_name(v)) return v;
    }
    throw std::runtime_error("expected_verdicts.txt: unknown verdict '" + s + "'");
}

std::vector<Entry> build_corpus(const Options& opt) {
    std::vector<Entry> corpus;
    // Generated programs are kept only below a state cap: which seeds hit
    // the explorer's budget would otherwise decide the corpus cost. The
    // state-explosion tail is the fixed par family's job.
    for (uint64_t i = 0; corpus.size() < kGenerated; ++i) {
        testgen::GenCase gc = testgen::generate(opt.seed + i);
        StagedCompile c = compile_staged(gc.source, "gen", true, 0, kGeneratedMaxStates + 1);
        if (c.verdict == Verdict::CompileError || c.states > kGeneratedMaxStates) continue;
        Entry e;
        e.name = "gen:" + std::to_string(gc.seed);
        e.source = gc.source;
        e.generated = true;
        e.script = gc.script;
        e.expect = c.verdict;
        corpus.push_back(std::move(e));
    }
    const std::pair<const char*, const char*> demos[] = {
        {"demo:quickstart", demos::kQuickstart},   {"demo:temperature", demos::kTemperature},
        {"demo:ring", demos::kRing},               {"demo:multihop", demos::kMultihop},
        {"demo:ship", demos::kShip},               {"demo:mario_live", demos::kMarioLive},
        {"demo:mario_replay", demos::kMarioReplay}, {"demo:mario_backwards", demos::kMarioBackwards},
    };
    for (const auto& [name, src] : demos) corpus.push_back({name, src, false, {}, {}});

    std::vector<std::filesystem::path> witnesses;
    for (const auto& de : std::filesystem::directory_iterator(opt.root + "/tests/corpus")) {
        if (de.path().extension() == ".ceu") witnesses.push_back(de.path());
    }
    std::sort(witnesses.begin(), witnesses.end());
    if (witnesses.empty()) throw std::runtime_error("no witnesses in tests/corpus");
    for (const auto& path : witnesses) {
        testgen::CorpusCase cc;
        if (!testgen::corpus_parse(read_file(path.string()), &cc)) {
            throw std::runtime_error("malformed corpus file " + path.string());
        }
        corpus.push_back({"corpus:" + path.stem().string(), cc.source, false, {}, {}});
    }
    for (int k = 3; k <= 5; ++k) {
        corpus.push_back({"par:" + std::to_string(k), par_explosion(k), false, {}, {}});
    }

    // Every fixed program has exactly one expected verdict, and vice versa.
    std::map<std::string, Verdict> expected;
    std::istringstream in(read_file(opt.root + "/perfbench/expected_verdicts.txt"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string name, verdict;
        ls >> name >> verdict;
        expected[name] = parse_verdict(verdict);
    }
    size_t fixed = 0;
    for (Entry& e : corpus) {
        if (e.generated) continue;
        auto it = expected.find(e.name);
        if (it == expected.end()) throw std::runtime_error("no expected verdict for " + e.name);
        e.expect = it->second;
        ++fixed;
    }
    if (fixed != expected.size()) {
        throw std::runtime_error("expected_verdicts.txt names programs the corpus lacks");
    }
    return corpus;
}

}  // namespace

void run_compile_lint(const Options& opt, Report& r) {
    // Set-up, repeated: build the corpus (compiling the generated
    // candidates), then one warm pass over the fixed programs.
    std::vector<Entry> corpus;
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
        Scope s("setup", static_cast<uint64_t>(k));
        int64_t t0 = now_ns();
        corpus = build_corpus(opt);
        for (const Entry& e : corpus) {
            if (!e.generated) (void)compile_staged(e.source, e.name, true);
        }
        setups.push_back(ms_since(t0) / 1e3);
    }
    r.metric("setup_s", median(setups), "s");

    // The measured loop: seeded shuffled passes until the budget is spent.
    Rng rng(opt.seed);
    std::vector<size_t> order(corpus.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    double checked_per_s = 0;  // whole-window rate of the last measure()
    // Returns the median per-pass rate (programs per second).
    auto measure = [&](double seconds, std::vector<double>& verdict_us, CompileTotals& totals) {
        int64_t t0 = now_ns();
        std::vector<int64_t> done_ns;
        uint64_t op = 0;
        size_t n = 0;
        for (size_t pass = 0; ms_since(t0) < seconds * 1e3; ++pass) {
            rotate_threads(pass);
            for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
            for (size_t idx : order) {
                const Entry& e = corpus[idx];
                Scope s("lint.program", op);
                int64_t p0 = now_ns();
                StagedCompile c = compile_staged(e.source, e.name, true, op++);
                int64_t p1 = now_ns();
                verdict_us.push_back(static_cast<double>(p1 - p0) / 1e3);
                done_ns.push_back(p1);
                totals.add(c);
                ++n;
                r.op(c.verdict == e.expect, "compile-lint: " + e.name + " is " +
                                                verdict_name(c.verdict) + ", expected " +
                                                verdict_name(e.expect));
            }
        }
        checked_per_s = static_cast<double>(n) / (ms_since(t0) / 1e3);
        return median_rate(done_ns, t0, corpus.size());
    };

    std::vector<double> verdict_us;
    CompileTotals totals;
    double per_s = 0;
    if (opt.trace) {
        std::vector<double> untraced_us;
        CompileTotals untraced_totals;
        SpanLog::get().set_enabled(false);
        measure(opt.seconds * 0.45, untraced_us, untraced_totals);
        SpanLog::get().set_enabled(true);
        per_s = measure(opt.seconds * 0.45, verdict_us, totals);
        std::vector<double> a = untraced_us;
        std::vector<double> b = verdict_us;
        auto pa = percentile(a, 0.5);
        auto pb = percentile(b, 0.5);
        if (pa && pb) report_trace_overhead(r, *pa, *pb);
    } else {
        per_s = measure(opt.seconds * 0.9, verdict_us, totals);
    }
    totals.report(r);
    r.metric("programs_checked_per_s", checked_per_s, "1/s");
    r.metric("throughput_per_s", per_s, "1/s");
    r.metric("verdict.samples", static_cast<double>(verdict_us.size()), "count");
    if (auto p = median_of_groups(verdict_us, corpus.size(), 0.5)) r.metric("latency_p50_us", *p, "us");
    if (auto p = median_of_groups(verdict_us, corpus.size(), 0.9)) r.metric("latency_p90_us", *p, "us");
    std::vector<double> v = verdict_us;
    if (auto p = percentile(v, 0.99)) r.metric("verdict_p99_ms", *p / 1e3, "ms");

    // Generated verdicts against the conformance differ (outside the timed
    // loop): a deterministic verdict must mean FIFO and LIFO traces agree.
    testgen::DiffOptions dopt;
    dopt.run_cgen = false;
    dopt.check_aot = false;
    for (const Entry& e : corpus) {
        if (!e.generated) continue;
        testgen::DiffResult d = testgen::run_differential(e.source, e.script, dopt);
        Verdict oracle = d.kind == testgen::DiffResult::Kind::Agree        ? Verdict::Deterministic
                         : d.kind == testgen::DiffResult::Kind::DfaRefused ? Verdict::Nondeterministic
                         : d.kind == testgen::DiffResult::Kind::DfaUnknown ? Verdict::Incomplete
                                                                           : Verdict::CompileError;
        r.op(!d.failure() && oracle == e.expect,
             "compile-lint: " + e.name + " differ says " +
                 testgen::DiffResult::kind_name(d.kind) + " (" + d.detail + ")");
    }

    if (!opt.trace) return;
    // Comparison-only rows: the parallel explorer and modular composition
    // over the same corpus, one pass each, with every CPU available.
    release_threads();
    analysis::ExploreOptions par;
    par.jobs = static_cast<int>(std::min<size_t>(opt.allowed_cpus, 4));
    double par_ms = 0, mod_ms = 0, mod_states = 0;
    for (const Entry& e : corpus) {
        StagedCompile c = compile_staged(e.source, e.name, false);
        int64_t t0 = now_ns();
        dfa::Dfa d = analysis::explore(*c.cp, par);
        par_ms += ms_since(t0);
        Verdict pv = !d.deterministic() ? Verdict::Nondeterministic
                     : !d.complete()    ? Verdict::Incomplete
                                        : Verdict::Deterministic;
        r.op(pv == e.expect, "compile-lint: parallel explorer disagrees on " + e.name);
        t0 = now_ns();
        analysis::ModularOutcome mo = analysis::explore_modular(*c.cp, {});
        mod_ms += ms_since(t0);
        mod_states += static_cast<double>(mo.states_total);
    }
    double n = static_cast<double>(corpus.size());
    r.metric("analysis.explore_nproc_ms", par_ms / n, "ms");
    r.metric("analysis.modular_ms", mod_ms / n, "ms");
    r.metric("analysis.modular_states", mod_states / n, "count");
}

}  // namespace perfbench

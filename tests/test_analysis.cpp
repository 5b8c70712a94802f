// The analysis subsystem: parallel DFA exploration (serial/parallel
// equivalence), witness traces (replayable conflict scripts), the lint-pass
// framework (golden diagnostics per pass), and the `ceuc --lint/--explain`
// CLI surface.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/explore.hpp"
#include "analysis/lint.hpp"
#include "analysis/witness.hpp"
#include "codegen/flatten.hpp"
#include "demos/demos.hpp"
#include "dfa/dfa.hpp"
#include "host/instance.hpp"

namespace ceu {
namespace {

using analysis::ExploreOptions;
using analysis::Finding;

// The paper's Figure 2 program: trails of period 2 and 3 over the same
// event collide on the 6th occurrence of A. Each writer announces itself
// so witness replays are observable through the trace.
const char* kFigure2 = R"(
    input void A;
    deterministic _printf;
    int v;
    par do
       loop do
          await A;
          await A;
          v = 1;
          _printf("w2\n");
       end
    with
       loop do
          await A;
          await A;
          await A;
          v = 2;
          _printf("w3\n");
       end
    end
)";

// A wide-frontier synthetic: k independent trails over k *distinct* input
// events, with coprime-ish periods. The reachable state space is the
// product of the per-trail positions and every state has k outgoing
// triggers, so a parallel exploration actually has work to share.
std::string wide_program(int k) {
    std::ostringstream os;
    os << "    input void";
    for (int i = 0; i < k; ++i) os << (i ? "," : "") << " E" << i;
    os << ";\n    par do\n";
    for (int i = 0; i < k; ++i) {
        if (i) os << "    with\n";
        os << "       loop do\n";
        for (int j = 0; j < 3 + i; ++j) os << "          await E" << i << ";\n";
        os << "       end\n";
    }
    os << "    end\n";
    return os.str();
}

std::vector<Finding> lint(const std::string& src, const analysis::LintOptions& opt = {}) {
    flat::CompiledProgram cp = flat::compile(src);
    return analysis::run_lints(cp, opt);
}

std::vector<std::string> finding_strs(const std::vector<Finding>& fs) {
    std::vector<std::string> out;
    out.reserve(fs.size());
    for (const Finding& f : fs) out.push_back(f.str());
    return out;
}

// ---------------------------------------------------------------------------
// Serial vs parallel exploration equivalence.

TEST(Explore, SerialAndParallelAgreeOnDemos) {
    const char* corpus[] = {demos::kQuickstart, demos::kTemperature, demos::kRing,
                            demos::kShip, demos::kMarioLive};
    for (const char* src : corpus) {
        flat::CompiledProgram cp = flat::compile(src);
        ExploreOptions serial;
        ExploreOptions par4;
        par4.jobs = 4;
        dfa::Dfa a = analysis::explore(cp, serial);
        dfa::Dfa b = analysis::explore(cp, par4);
        EXPECT_EQ(a.state_count(), b.state_count());
        EXPECT_EQ(a.conflicts().size(), b.conflicts().size());
        EXPECT_EQ(a.complete(), b.complete());
        EXPECT_EQ(a.signature(), b.signature());
    }
}

TEST(Explore, SerialAndParallelAgreeOnWideFrontier) {
    flat::CompiledProgram cp = flat::compile(wide_program(5));
    ExploreOptions serial;
    dfa::Dfa a = analysis::explore(cp, serial);
    // Positions multiply: 3*4*5*6*7 = 2520 distinct states.
    EXPECT_EQ(a.state_count(), 2520u);
    EXPECT_TRUE(a.complete());
    EXPECT_TRUE(a.deterministic());
    for (int jobs : {2, 4, 8}) {
        ExploreOptions p;
        p.jobs = jobs;
        dfa::Dfa b = analysis::explore(cp, p);
        EXPECT_EQ(b.signature(), a.signature()) << "jobs=" << jobs;
    }
}

TEST(Explore, ParallelIsDeterministicRunToRun) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    ExploreOptions p;
    p.jobs = 4;
    std::string first = analysis::explore(cp, p).signature();
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(analysis::explore(cp, p).signature(), first);
    }
}

TEST(Explore, MaxStatesBudgetMarksIncomplete) {
    flat::CompiledProgram cp = flat::compile(wide_program(5));
    for (int jobs : {1, 4}) {
        ExploreOptions opt;
        opt.max_states = 100;
        opt.jobs = jobs;
        dfa::Dfa d = analysis::explore(cp, opt);
        EXPECT_FALSE(d.complete()) << "jobs=" << jobs;
        EXPECT_LE(d.state_count(), 100u + 8u) << "jobs=" << jobs;
    }
}

TEST(Explore, StopAtFirstConflictStillFindsOne) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    for (int jobs : {1, 4}) {
        ExploreOptions opt;
        opt.stop_at_first_conflict = true;
        opt.jobs = jobs;
        dfa::Dfa d = analysis::explore(cp, opt);
        EXPECT_FALSE(d.deterministic()) << "jobs=" << jobs;
        ASSERT_FALSE(d.conflicts().empty()) << "jobs=" << jobs;
        EXPECT_EQ(d.conflicts().front().what, "v");
    }
}

// ---------------------------------------------------------------------------
// Conflict deduplication.

TEST(Conflicts, SymmetricPairsAreDedupedWithOccurrences) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    dfa::Dfa d = dfa::Dfa::build(cp);
    // The v=1/v=2 collision recurs around the 6-cycle, but there is only
    // one (loc_a, loc_b) pair: exactly one report, counting occurrences.
    ASSERT_EQ(d.conflicts().size(), 1u);
    const dfa::Conflict& c = d.conflicts().front();
    EXPECT_EQ(c.kind, dfa::Conflict::Kind::Variable);
    EXPECT_EQ(c.what, "v");
    EXPECT_GE(c.occurrences, 2);
    EXPECT_NE(c.str().find("[x"), std::string::npos);
    // Normalized order: loc_a is the earlier source location.
    EXPECT_LE(c.loc_a.line, c.loc_b.line);
}

TEST(Conflicts, DedupKeyNormalizesLocationOrder) {
    dfa::Conflict a;
    a.kind = dfa::Conflict::Kind::Variable;
    a.what = "v";
    a.loc_a = {7, 3};
    a.loc_b = {12, 5};
    dfa::Conflict b = a;
    std::swap(b.loc_a, b.loc_b);
    EXPECT_EQ(dfa::ConflictSet::key(a), dfa::ConflictSet::key(b));

    dfa::ConflictSet set;
    set.add(a);
    set.add(b);
    std::vector<dfa::Conflict> out = set.take();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out.front().occurrences, 2);
}

// ---------------------------------------------------------------------------
// Witness traces.

TEST(Witness, Figure2ConflictIsReachedAfterSixAs) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    dfa::Dfa d = dfa::Dfa::build(cp);
    ASSERT_FALSE(d.conflicts().empty());
    const auto& w = d.conflicts().front().witness;
    ASSERT_EQ(w.size(), 7u);  // boot + 6 occurrences of A
    EXPECT_EQ(w[0].kind, dfa::WitnessStep::Kind::Boot);
    for (size_t i = 1; i < w.size(); ++i) {
        EXPECT_EQ(w[i].kind, dfa::WitnessStep::Kind::Event);
        EXPECT_EQ(w[i].event, "A");
    }
    EXPECT_EQ(analysis::witness_chain(w), "boot -> A -> A -> A -> A -> A -> A");
}

TEST(Witness, SerialAndParallelProduceTheSameWitness) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    ExploreOptions p;
    p.jobs = 4;
    dfa::Dfa a = analysis::explore(cp, ExploreOptions{});
    dfa::Dfa b = analysis::explore(cp, p);
    ASSERT_FALSE(a.conflicts().empty());
    ASSERT_FALSE(b.conflicts().empty());
    EXPECT_EQ(analysis::witness_chain(a.conflicts().front().witness),
              analysis::witness_chain(b.conflicts().front().witness));
}

TEST(Witness, ScriptTextIsTheRunProtocol) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    dfa::Dfa d = dfa::Dfa::build(cp);
    ASSERT_FALSE(d.conflicts().empty());
    std::string text = analysis::witness_script_text(d.conflicts().front().witness);
    EXPECT_EQ(text, "# boot (implicit)\nE A\nE A\nE A\nE A\nE A\nE A\n");
    // The emitted text must parse back under the --run protocol.
    env::Script parsed;
    Diagnostics diags;
    ASSERT_TRUE(env::Script::parse(text, &parsed, diags)) << diags.str();
    EXPECT_EQ(parsed.items().size(), 6u);
}

TEST(Witness, ReplayDrivesTheRuntimeIntoTheConflictingReaction) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    dfa::Dfa d = dfa::Dfa::build(cp);
    ASSERT_FALSE(d.conflicts().empty());
    env::Script script = analysis::witness_script(d.conflicts().front().witness);

    host::Instance driver(cp);
    driver.boot();
    ASSERT_FALSE(script.items().empty());
    // Feed everything but the last input, then observe what the final
    // (conflicting) reaction executes.
    for (size_t i = 0; i + 1 < script.items().size(); ++i) {
        driver.feed(script.items()[i]);
    }
    size_t before = driver.trace().size();
    driver.feed(script.items().back());
    std::vector<std::string> last(driver.trace().begin() + before, driver.trace().end());
    // Both writers ran in the same reaction: that is the conflict.
    ASSERT_EQ(last.size(), 2u);
    EXPECT_NE(std::find(last.begin(), last.end(), "w2"), last.end());
    EXPECT_NE(std::find(last.begin(), last.end(), "w3"), last.end());
}

TEST(Witness, TimerConflictWitnessUsesTimeSteps) {
    flat::CompiledProgram cp = flat::compile(R"(
        int v;
        par do
           await 10ms;
           v = 1;
        with
           await 10ms;
           v = 2;
        end
    )");
    dfa::Dfa d = dfa::Dfa::build(cp);
    ASSERT_FALSE(d.conflicts().empty());
    const auto& w = d.conflicts().front().witness;
    ASSERT_GE(w.size(), 2u);
    EXPECT_EQ(w.back().kind, dfa::WitnessStep::Kind::Time);
    EXPECT_EQ(w.back().advance, 10000);
    std::string text = analysis::witness_script_text(w);
    EXPECT_NE(text.find("T 10000\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Lint passes (golden diagnostics).

TEST(Lint, UninitReadGolden) {
    analysis::LintOptions only;
    only.only = {"uninit-read"};
    std::vector<std::string> got = finding_strs(lint(R"(
        input void A;
        int x;
        int y;
        await A;
        x = y + 1;
        return x;
    )",
                                                     only));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0],
              "6:13: warning: [uninit-read] variable 'y' may be read before "
              "initialization");
}

TEST(Lint, UninitReadRespectsDominatingWrites) {
    analysis::LintOptions only;
    only.only = {"uninit-read"};
    // y is written on every path before the read: no finding.
    EXPECT_TRUE(lint(R"(
        input int A;
        int x;
        int y;
        x = await A;
        if x then y = 1; else y = 2; end
        return y;
    )",
                     only)
                    .empty());
    // ...but a write on only one branch still leaves an uninitialized path.
    std::vector<std::string> got = finding_strs(lint(R"(
        input int A;
        int x;
        int y;
        x = await A;
        if x then y = 1; end
        return y;
    )",
                                                     only));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_NE(got[0].find("variable 'y' may be read"), std::string::npos);
}

TEST(Lint, UnusedGolden) {
    analysis::LintOptions only;
    only.only = {"unused"};
    std::vector<std::string> got = finding_strs(lint(R"(
        input void A;
        internal void never;
        int dead;
        int sink;
        sink = 1;
        await A;
    )",
                                                     only));
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], "3:9: warning: [unused] internal event 'never' is never used");
    EXPECT_EQ(got[1], "4:13: warning: [unused] variable 'dead' is never used");
    EXPECT_EQ(got[2],
              "5:13: warning: [unused] variable 'sink' is written but never read");
}

TEST(Lint, UnreachableTrailGolden) {
    analysis::LintOptions only;
    only.only = {"unreachable-trail"};
    std::vector<std::string> got = finding_strs(lint(R"(
        input void A;
        int x;
        par/or do
           await A;
           x = 1;
        with
           x = 2;
        end
        return x;
    )",
                                                     only));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0],
              "5:12: warning: [unreachable-trail] code after this await never runs: "
              "a sibling branch of the `par/or` at line 4 always terminates in the "
              "reaction it starts, killing this trail before it can resume");
}

TEST(Lint, UnreachableTrailSilentWhenSiblingsAwait) {
    analysis::LintOptions only;
    only.only = {"unreachable-trail"};
    EXPECT_TRUE(lint(R"(
        input void A, B;
        par/or do
           await A;
        with
           await B;
        end
    )",
                     only)
                    .empty());
}

TEST(Lint, EmitNoAwaiterGolden) {
    analysis::LintOptions only;
    only.only = {"emit-no-awaiter"};
    std::vector<std::string> got = finding_strs(lint(R"(
        input void A;
        internal void ping;
        await A;
        emit ping;
    )",
                                                     only));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0],
              "5:9: warning: [emit-no-awaiter] emit on internal event 'ping' that "
              "no trail ever awaits (the emission is a no-op)");
    // With an awaiting trail the emission is meaningful: silent.
    EXPECT_TRUE(lint(R"(
        input void A;
        internal void ping;
        par do
           await A;
           emit ping;
        with
           loop do await ping; end
        end
    )",
                     only)
                    .empty());
}

TEST(Lint, OnlyAndDisableFilterPasses) {
    const char* src = R"(
        input void A;
        internal void never;
        int dead;
        await A;
    )";
    EXPECT_FALSE(lint(src).empty());
    analysis::LintOptions disable_all;
    disable_all.disable = {"uninit-read", "unused", "unreachable-trail",
                           "emit-no-awaiter"};
    EXPECT_TRUE(lint(src, disable_all).empty());
    analysis::LintOptions only;
    only.only = {"uninit-read"};
    EXPECT_TRUE(lint(src, only).empty());  // nothing uninit here
}

TEST(Lint, RegistryExposesAllPasses) {
    const analysis::PassRegistry& reg = analysis::default_registry();
    ASSERT_EQ(reg.passes().size(), 4u);
    for (const char* id : {"uninit-read", "unused", "unreachable-trail",
                           "emit-no-awaiter"}) {
        const analysis::Pass* p = reg.find(id);
        ASSERT_NE(p, nullptr) << id;
        EXPECT_EQ(p->id(), id);
        EXPECT_FALSE(p->description().empty());
    }
    EXPECT_EQ(reg.find("no-such-pass"), nullptr);
}

TEST(Lint, JsonFindingIsWellFormed) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    dfa::Dfa d = dfa::Dfa::build(cp);
    ASSERT_FALSE(d.conflicts().empty());
    Finding f = analysis::conflict_finding(d.conflicts().front());
    std::string j = f.json("fig2.ceu");
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
    EXPECT_NE(j.find("\"pass\":\"temporal\""), std::string::npos);
    EXPECT_NE(j.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(j.find("\"file\":\"fig2.ceu\""), std::string::npos);
    EXPECT_NE(j.find("\"witness\":[\"boot\",\"A\",\"A\",\"A\",\"A\",\"A\",\"A\"]"),
              std::string::npos);
}

TEST(Lint, JsonEscapesSpecialCharacters) {
    Finding f;
    f.pass = "unused";
    f.message = "quote \" backslash \\ newline \n tab \t";
    std::string j = f.json("dir/a\"b.ceu");
    EXPECT_NE(j.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
              std::string::npos);
    EXPECT_NE(j.find("\"file\":\"dir/a\\\"b.ceu\""), std::string::npos);
}

TEST(Lint, IncompleteFindingNamesTheBudget) {
    Finding f = analysis::incomplete_finding(128, 100);
    EXPECT_EQ(f.pass, "temporal");
    EXPECT_EQ(f.severity, Severity::Warning);
    EXPECT_NE(f.message.find("128 states explored"), std::string::npos);
    EXPECT_NE(f.message.find("--analysis.max-states=100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI integration: the ceuc analysis surface, driven as a subprocess.

std::string ceuc_path() { return std::string(CEU_BUILD_DIR) + "/src/ceuc"; }

struct CliResult {
    int exit_code = 0;
    std::string out;
    std::string err;
};

CliResult run_ceuc(const std::string& args, const std::string& program,
                   const std::string& stdin_text = "") {
    static int n = 0;
    std::string base = ::testing::TempDir() + "ceuc_analysis_" +
                       std::to_string(getpid()) + "_" + std::to_string(n++);
    {
        std::ofstream f(base + ".ceu");
        f << program;
    }
    {
        std::ofstream f(base + ".in");
        f << stdin_text;
    }
    std::string cmd = ceuc_path() + " " + args + " " + base + ".ceu < " + base +
                      ".in > " + base + ".out 2>" + base + ".err";
    CliResult r;
    int rc = std::system(cmd.c_str());
    r.exit_code = WEXITSTATUS(rc);
    auto slurp = [](const std::string& p) {
        std::ifstream f(p);
        std::ostringstream os;
        os << f.rdbuf();
        return os.str();
    };
    r.out = slurp(base + ".out");
    r.err = slurp(base + ".err");
    return r;
}

TEST(CliAnalysis, IncompleteAnalysisWarnsAndStaysHonest) {
    CliResult r = run_ceuc("--analysis.max-states 4", kFigure2);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.err.find("warning: temporal analysis incomplete (state budget "
                         "exhausted"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.out.find("INCOMPLETE"), std::string::npos) << r.out;
    EXPECT_EQ(r.out.find("OK"), std::string::npos) << r.out;
}

TEST(CliAnalysis, StrictTurnsIncompleteIntoFailure) {
    CliResult r = run_ceuc("--analysis.strict --analysis.max-states 4", kFigure2);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("--analysis.strict"), std::string::npos) << r.err;
    // A complete analysis is unaffected by --analysis.strict.
    CliResult ok = run_ceuc("--analysis.strict", "input void A; await A;");
    EXPECT_EQ(ok.exit_code, 0) << ok.err;
}

TEST(CliAnalysis, AnalysisJobsMatchesSerialVerdict) {
    CliResult serial = run_ceuc("", kFigure2);
    CliResult par = run_ceuc("--analysis.jobs 4", kFigure2);
    EXPECT_EQ(serial.exit_code, 1);
    EXPECT_EQ(par.exit_code, 1);
    EXPECT_EQ(serial.err, par.err);
}

TEST(CliAnalysis, LegacyFlagIsAUsageError) {
    // Only the dotted spellings exist: an old un-dotted one is an unknown
    // flag, refused with the usage text (exit 2) before any analysis.
    CliResult legacy = run_ceuc("--analysis-jobs 4", kFigure2);
    EXPECT_EQ(legacy.exit_code, 2);
    EXPECT_NE(legacy.err.find("usage: ceuc"), std::string::npos) << legacy.err;
    EXPECT_NE(legacy.err.find("--analysis.jobs"), std::string::npos) << legacy.err;
    CliResult dotted = run_ceuc("--analysis.jobs 4", kFigure2);
    EXPECT_EQ(dotted.exit_code, 1);  // Figure 2's conflict, as in the serial run
    EXPECT_EQ(dotted.err.find("usage:"), std::string::npos) << dotted.err;
}

TEST(CliAnalysis, LintEmitsJsonPerDiagnostic) {
    CliResult r = run_ceuc("--lint --diag-format=json", kFigure2);
    EXPECT_EQ(r.exit_code, 1);  // the temporal conflict is an error
    std::istringstream is(r.out);
    std::string line;
    int objects = 0;
    bool temporal = false;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        ++objects;
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        temporal = temporal || line.find("\"pass\":\"temporal\"") != std::string::npos;
    }
    EXPECT_GE(objects, 1);
    EXPECT_TRUE(temporal) << r.out;
}

TEST(CliAnalysis, ModularCacheCountersProveIncrementality) {
    std::string dir = ::testing::TempDir() + "ceuc_analysis_cache_" +
                      std::to_string(getpid());
    std::string prog = "input void A, B;\npar do\n   loop do await A; end\n"
                       "with\n   loop do await B; end\nend\n";
    CliResult cold = run_ceuc("--analysis.cache-dir=" + dir, prog);
    EXPECT_EQ(cold.exit_code, 0) << cold.err;
    EXPECT_NE(cold.err.find("cache hits=0 misses=2 stores=2"), std::string::npos)
        << cold.err;
    CliResult warm = run_ceuc("--analysis.cache-dir=" + dir, prog);
    EXPECT_EQ(warm.exit_code, 0) << warm.err;
    EXPECT_NE(warm.err.find("cache hits=2 misses=0 stores=0"), std::string::npos)
        << warm.err;
}

TEST(CliAnalysis, ExplainScriptReplaysIntoTheConflict) {
    CliResult explain = run_ceuc("--explain", kFigure2);
    EXPECT_EQ(explain.exit_code, 1);
    EXPECT_NE(explain.err.find("witness: boot -> A"), std::string::npos)
        << explain.err;
    // The stdout is a complete --run script; feed it back to the runtime.
    CliResult run = run_ceuc("--run --no-analysis", kFigure2, explain.out);
    EXPECT_EQ(run.exit_code, 0) << run.err;
    // 6 As: w2 fires at #2,#4,#6 and w3 at #3,#6 — the last reaction runs both.
    EXPECT_EQ(run.out, "w2\nw3\nw2\nw2\nw3\n");
}

}  // namespace
}  // namespace ceu

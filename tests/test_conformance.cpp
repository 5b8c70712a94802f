// Conformance suite: the seeded generator + differential harness
// (src/testgen/) run as a fixed-seed ctest target. Eight 25-seed shards
// give the required >= 200 generated programs; gtest_discover_tests
// registers each shard as its own ctest entry, so `ctest -L conformance
// -j` runs them in parallel.
//
// The contract under test (paper §2.6): whenever the DFA reports OK and
// complete, the interpreter under FIFO and LIFO tie-breaking and the
// compiled cgen output must produce identical observable traces, results
// and statuses. DFA-refused programs are never claimed deterministic.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/cache.hpp"
#include "analysis/lint.hpp"
#include "codegen/flatten.hpp"
#include "demos/demos.hpp"
#include "dfa/dfa.hpp"
#include "host/instance.hpp"
#include "parser/parser.hpp"
#include "testgen/differ.hpp"
#include "testgen/fuzz.hpp"
#include "testgen/generator.hpp"
#include "testgen/shrink.hpp"

namespace ceu {
namespace {

using testgen::DiffResult;

int count_lines(const std::string& s) {
    int n = 0;
    for (char c : s) n += (c == '\n');
    return n;
}

std::string describe_failures(const testgen::FuzzReport& rep) {
    std::ostringstream os;
    for (const auto& f : rep.failed) {
        os << "seed " << f.seed << " [" << DiffResult::kind_name(f.kind) << "] "
           << f.detail << "\n--- shrunk program ---\n"
           << f.source << "--- script ---\n"
           << f.script_text << "\n";
    }
    return os.str();
}

/// One 25-seed shard of the 200-program fixed-seed conformance run.
void run_shard(uint64_t first_seed) {
    testgen::FuzzOptions opt;
    opt.seed = first_seed;
    opt.count = 25;
    testgen::FuzzReport rep = testgen::run_fuzz(opt);
    EXPECT_EQ(rep.failures, 0) << describe_failures(rep);
    EXPECT_EQ(rep.total, 25);
    // Every failing case must have been shrunk to a small reproducer
    // (acceptance bar: <= 25 lines of program).
    for (const auto& f : rep.failed) {
        EXPECT_LE(count_lines(f.source), 25)
            << "shrinker left a big reproducer for seed " << f.seed;
    }
}

TEST(ConformanceShard, Seeds000) { run_shard(0); }
TEST(ConformanceShard, Seeds025) { run_shard(25); }
TEST(ConformanceShard, Seeds050) { run_shard(50); }
TEST(ConformanceShard, Seeds075) { run_shard(75); }
TEST(ConformanceShard, Seeds100) { run_shard(100); }
TEST(ConformanceShard, Seeds125) { run_shard(125); }
TEST(ConformanceShard, Seeds150) { run_shard(150); }
TEST(ConformanceShard, Seeds175) { run_shard(175); }

// ---------------------------------------------------------------------------
// Generator properties.
// ---------------------------------------------------------------------------

TEST(Generator, SameSeedIsByteIdentical) {
    for (uint64_t seed : {0ULL, 1ULL, 42ULL, 9999ULL}) {
        testgen::GenCase a = testgen::generate(seed);
        testgen::GenCase b = testgen::generate(seed);
        EXPECT_EQ(a.source, b.source) << "seed " << seed;
        EXPECT_EQ(a.script_text, b.script_text) << "seed " << seed;
    }
}

TEST(Generator, DifferentSeedsDiffer) {
    EXPECT_NE(testgen::generate(1).source, testgen::generate(2).source);
}

TEST(Generator, OutputIsPinnedAcrossCommits) {
    // The conformance shards and the benchmark's generated corpus both
    // depend on generate()'s exact output, so a change to it must be a
    // deliberate one: re-pin this digest and re-check every consumer.
    uint64_t h = analysis::cache::fnv1a("");
    for (uint64_t seed = 0; seed < 512; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        h = analysis::cache::fnv1a(gc.source, h);
        h = analysis::cache::fnv1a(gc.script_text, h);
    }
    EXPECT_EQ(h, 0x7b25d273a470c360ULL);
}

TEST(Generator, ProgramsAreWellFormedByConstruction) {
    // A wide band of seeds all pass the frontend, including the §2.5
    // bounded-execution check (every loop body awaits).
    for (uint64_t seed = 5000; seed < 5100; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        flat::CompiledProgram cp;
        Diagnostics diags;
        EXPECT_TRUE(flat::compile_checked(gc.source, &cp, diags, "<gen>"))
            << "seed " << seed << ":\n"
            << diags.str() << "\n"
            << gc.source;
    }
}

TEST(Generator, RenderedSourceRoundTrips) {
    // print -> parse -> print is a fixpoint (the shrinker depends on it).
    for (uint64_t seed = 0; seed < 40; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        Diagnostics diags;
        ast::Program reparsed = parse_source(gc.source, diags, "<roundtrip>");
        ASSERT_TRUE(diags.ok()) << "seed " << seed << "\n" << gc.source;
        EXPECT_EQ(testgen::render(reparsed), gc.source) << "seed " << seed;
    }
}

TEST(Generator, ConflictBiasProducesBothVerdicts) {
    // The DFA must see both accepted and refused programs, or the harness
    // only ever exercises half the contract.
    int ok = 0;
    int refused = 0;
    for (uint64_t seed = 0; seed < 100; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        flat::CompiledProgram cp;
        Diagnostics diags;
        ASSERT_TRUE(flat::compile_checked(gc.source, &cp, diags, "<gen>")) << gc.source;
        dfa::Dfa d = dfa::Dfa::build(cp);
        // Refusals come from the deliberate resource-sharing bias OR from
        // honest timer collisions (same-deadline block exits and returns
        // race; see Conflict::Kind::Escape) — both verdicts must occur.
        if (!d.deterministic()) {
            ++refused;
        } else {
            ++ok;
        }
    }
    EXPECT_GT(ok, 50);
    EXPECT_GT(refused, 5);
}

// ---------------------------------------------------------------------------
// Shrinker.
// ---------------------------------------------------------------------------

TEST(Shrink, MinimizesWhilePreservingTheVerdict) {
    // Find a refused seed, then shrink with "still refused" as the oracle:
    // the result must be smaller (or equal) and still refused. This
    // exercises the exact machinery a cgen divergence would go through.
    for (uint64_t seed = 0; seed < 200; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        testgen::DiffOptions dopt;
        dopt.run_cgen = false;  // DFA + tie-break only: shrinking is O(attempts)
        DiffResult r = testgen::run_differential(gc.source, gc.script, dopt);
        if (r.kind != DiffResult::Kind::DfaRefused) continue;

        testgen::ShrinkResult s =
            testgen::shrink(gc.source, gc.script, DiffResult::Kind::DfaRefused, dopt);
        EXPECT_LE(s.source.size(), gc.source.size());
        EXPECT_GT(s.removed_stmts + s.removed_items, 0)
            << "nothing shrank for seed " << seed;
        DiffResult after = testgen::run_differential(s.source, s.script, dopt);
        EXPECT_EQ(after.kind, DiffResult::Kind::DfaRefused)
            << "shrinking changed the verdict for seed " << seed << "\n"
            << s.source;
        return;  // one refused seed is enough
    }
    FAIL() << "no DFA-refused seed found in [0, 200)";
}

TEST(Shrink, RejectsNonReproducingInput) {
    // An agreeing pair "shrunk" against a failure kind comes back unshrunk.
    testgen::GenCase gc = testgen::generate(3);
    testgen::DiffOptions dopt;
    dopt.run_cgen = false;
    testgen::ShrinkResult s =
        testgen::shrink(gc.source, gc.script, DiffResult::Kind::TieBreakDiverged, dopt);
    EXPECT_EQ(s.source, gc.source);
    EXPECT_EQ(s.removed_stmts, 0);
    EXPECT_EQ(s.attempts, 1);
}

// ---------------------------------------------------------------------------
// Corpus: the format, the checked-in reproducers, and the demo programs.
// ---------------------------------------------------------------------------

TEST(Corpus, FormatRoundTrips) {
    testgen::CorpusCase c;
    c.source = "input void A;\nawait A;\nreturn 1;\n";
    c.script_text = "E A 0\n";
    c.kind = "cgen-diverged";
    c.seed = 1234;
    testgen::CorpusCase back;
    ASSERT_TRUE(testgen::corpus_parse(testgen::corpus_format(c), &back));
    EXPECT_EQ(back.source, c.source);
    EXPECT_EQ(back.script_text, c.script_text);
    EXPECT_EQ(back.kind, c.kind);
    EXPECT_EQ(back.seed, c.seed);
}

/// Every corpus file is a once-diverging pair that must now conform: after
/// the bug it witnessed was fixed, the differ may report Agree or a DFA
/// verdict, but never a failure again. One test instance per file.
std::vector<std::string> corpus_files() {
    std::vector<std::string> out;
    std::filesystem::path dir = std::filesystem::path(CEU_SOURCE_DIR) / "tests" / "corpus";
    if (std::filesystem::exists(dir)) {
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            if (entry.path().extension() == ".ceu") out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, StaysFixed) {
    std::ifstream f(GetParam());
    ASSERT_TRUE(f.is_open()) << GetParam();
    std::stringstream ss;
    ss << f.rdbuf();
    testgen::CorpusCase c;
    ASSERT_TRUE(testgen::corpus_parse(ss.str(), &c)) << GetParam();
    Diagnostics diags;
    env::Script script;
    ASSERT_TRUE(env::Script::parse(c.script_text, &script, diags)) << GetParam();
    DiffResult r = testgen::run_differential(c.source, script);
    EXPECT_FALSE(r.failure())
        << GetParam() << " regressed: " << DiffResult::kind_name(r.kind) << " " << r.detail;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay, ::testing::ValuesIn(corpus_files()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string n = std::filesystem::path(info.param).stem();
                             for (char& ch : n) {
                                 if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                             }
                             return n;
                         });

TEST(Corpus, DirectoryIsNotEmpty) { EXPECT_FALSE(corpus_files().empty()); }

/// Satellite: the hand-written demo corpus through the full differ. The
/// `_trace`-based demos skip the cgen leg (the C harness has no `_trace`
/// binding); tie-break parity and the DFA verdict still apply.
TEST(Corpus, DemoProgramsConform) {
    struct Demo {
        const char* name;
        std::string source;
        env::Script script;
    };
    std::vector<Demo> demos = {
        {"quickstart", demos::kQuickstart,
         env::Script().advance(kSec).event("Restart", 7).advance(2 * kSec)},
        {"temperature", demos::kTemperature,
         env::Script().event("SetCelsius", 100).event("SetFahrenheit", -40)},
        {"watchdog", R"(
            input void A, B;
            loop do
               par/or do
                  await A; await B; _printf("done\n"); break;
               with
                  await 100ms; _printf("timeout\n");
               end
            end
            return 0;
         )",
         env::Script().advance(350 * kMs).event("A").event("B")},
        {"fanin", R"(
            input void A;
            internal void e, e2;
            int v = 0;
            par do
               loop do await A; emit e; end
            with
               loop do await e; v = v + 1; emit e2; end
            with
               loop do await e2; _printf("obs %ld\n", v); end
            end
         )",
         env::Script().event("A").event("A").event("A")},
    };
    for (const auto& d : demos) {
        testgen::DiffOptions opt;
        opt.run_cgen = d.source.find("_trace") == std::string::npos;
        DiffResult r = testgen::run_differential(d.source, d.script, opt);
        EXPECT_EQ(r.kind, DiffResult::Kind::Agree)
            << d.name << ": " << DiffResult::kind_name(r.kind) << " " << r.detail;
    }
}

// ---------------------------------------------------------------------------
// Satellite: rt::TimerWheel residual-delta compensation (§2.4), driven by
// generated timing chains instead of hand-picked demos.
// ---------------------------------------------------------------------------

struct InterpOutcome {
    std::vector<std::string> trace;
    rt::Engine::Status status = rt::Engine::Status::Loaded;
    int64_t result = 0;
};

InterpOutcome run_interp(const std::string& source, const env::Script& script) {
    flat::CompiledProgram cp = flat::compile(source);
    host::Instance d(cp);
    InterpOutcome out;
    out.status = d.run(script);
    out.trace = d.trace();
    out.result = d.engine().result().as_int();
    return out;
}

TEST(TimerResidual, FiftyPlusFortyNineTerminatesAtNinetyNine) {
    // The paper's own example: sequential 50ms+49ms awaits complete before
    // a concurrent 100ms — i.e. after exactly 99ms, not 100ms.
    const std::string src = "await 50ms; await 49ms; return 1;";
    EXPECT_EQ(run_interp(src, env::Script().advance(98 * kMs)).status,
              rt::Engine::Status::Running);
    EXPECT_EQ(run_interp(src, env::Script().advance(99 * kMs)).status,
              rt::Engine::Status::Terminated);
}

TEST(TimerResidual, GeneratedChainsTerminateExactlyAtTotal) {
    for (uint64_t seed = 0; seed < 15; ++seed) {
        testgen::TimingChain chain = testgen::timing_chain(seed);
        ASSERT_GT(chain.total, 0) << "seed " << seed;
        // One microsecond short: the final await is still pending.
        InterpOutcome just_short =
            run_interp(chain.source, env::Script().advance(chain.total - 1));
        EXPECT_EQ(just_short.status, rt::Engine::Status::Running)
            << "seed " << seed << " terminated early\n"
            << chain.source;
        // Exactly at the total: terminated, one line per segment, the
        // result is the segment count.
        InterpOutcome exact = run_interp(chain.source, env::Script().advance(chain.total));
        EXPECT_EQ(exact.status, rt::Engine::Status::Terminated)
            << "seed " << seed << "\n"
            << chain.source;
        EXPECT_EQ(exact.trace.size(), chain.durations.size()) << "seed " << seed;
        EXPECT_EQ(exact.result, static_cast<int64_t>(chain.durations.size()))
            << "seed " << seed;
    }
}

TEST(TimerResidual, ChainsAreAdvanceGranularityInvariant) {
    // Feeding time in awkward 7ms slices must land on exactly the same
    // observable behaviour as one big advance — the residual delta of each
    // expiry carries over (§2.4).
    for (uint64_t seed = 0; seed < 8; ++seed) {
        testgen::TimingChain chain = testgen::timing_chain(seed);
        env::Script sliced;
        for (Micros fed = 0; fed < chain.total; fed += 7 * kMs) {
            sliced.advance(std::min<Micros>(7 * kMs, chain.total - fed));
        }
        InterpOutcome a = run_interp(chain.source, sliced);
        InterpOutcome b = run_interp(chain.source, env::Script().advance(chain.total));
        EXPECT_EQ(a.status, rt::Engine::Status::Terminated) << "seed " << seed;
        EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
        EXPECT_EQ(a.result, b.result) << "seed " << seed;
    }
}

TEST(TimerResidual, ChainsAgreeWithCompiledC) {
    // The cgen runtime implements the same residual compensation: full
    // differential check on a few generated chains, sliced awkwardly.
    for (uint64_t seed = 0; seed < 3; ++seed) {
        testgen::TimingChain chain = testgen::timing_chain(seed);
        env::Script script;
        for (Micros fed = 0; fed < chain.total; fed += 13 * kMs) {
            script.advance(std::min<Micros>(13 * kMs, chain.total - fed));
        }
        DiffResult r = testgen::run_differential(chain.source, script);
        EXPECT_EQ(r.kind, DiffResult::Kind::Agree)
            << "seed " << seed << ": " << DiffResult::kind_name(r.kind) << " " << r.detail
            << "\n"
            << chain.source;
    }
}

// ---------------------------------------------------------------------------
// Satellite: the lint passes over machine-generated programs (they had
// only ever seen hand-written ones). No crashes, no false uninit-reads.
// ---------------------------------------------------------------------------

TEST(LintRobustness, GeneratedCorpusLintsCleanly) {
    for (uint64_t seed = 0; seed < 80; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        flat::CompiledProgram cp;
        Diagnostics diags;
        ASSERT_TRUE(flat::compile_checked(gc.source, &cp, diags, "<gen>")) << gc.source;
        std::vector<analysis::Finding> findings = analysis::run_lints(cp);
        // Every generated variable is initialized at its declaration, so
        // any uninit-read finding is a false positive by construction.
        for (const analysis::Finding& f : findings) {
            EXPECT_NE(f.pass, "uninit-read")
                << "seed " << seed << ": false positive: " << f.message << "\n"
                << gc.source;
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz-loop bookkeeping.
// ---------------------------------------------------------------------------

TEST(FuzzLoop, ReportAccountsForEveryCase) {
    testgen::FuzzOptions opt;
    opt.count = 40;
    opt.seed = 300;
    opt.diff.run_cgen = false;
    testgen::FuzzReport rep = testgen::run_fuzz(opt);
    EXPECT_EQ(rep.total, 40);
    EXPECT_EQ(rep.agree + rep.refused + rep.unknown + rep.failures, rep.total);
    EXPECT_GE(rep.refused, rep.refused_diverged);
    EXPECT_GT(rep.seconds, 0.0);
    EXPECT_FALSE(rep.summary().empty());
}

}  // namespace
}  // namespace ceu

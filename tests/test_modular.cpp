// The modular, incremental temporal analysis: partitioning at the top-level
// plain par, interface-based interference grouping, composed-vs-monolithic
// equivalence (the differential correctness gate), the persistent
// signature-keyed DFA cache (round trips, corruption rejection, line
// rebasing, hit/miss accounting), content-hash stability under reformatting
// and under edits to other modules, and the `ceuc --analysis.modular /
// --analysis.cache-dir` CLI surface.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cache.hpp"
#include "analysis/explore.hpp"
#include "analysis/modular.hpp"
#include "ast/print.hpp"
#include "codegen/flatten.hpp"
#include "demos/demos.hpp"
#include "dfa/dfa.hpp"
#include "testgen/differ.hpp"
#include "testgen/fuzz.hpp"
#include "testgen/generator.hpp"

namespace ceu {
namespace {

using analysis::ModularOptions;
using analysis::ModularOutcome;
using analysis::Partition;

// Three arms over three distinct inputs with distinct periods: no shared
// state, so the composed analysis explores 3 + 4 + 2 states where the
// monolithic product space has 3 * 4 * 2.
const char* kIndependent3 = R"(
    input void A, B, C;
    par do
       loop do
          await A; await A; await A;
       end
    with
       loop do
          await B; await B; await B; await B;
       end
    with
       loop do
          await C; await C;
       end
    end
)";

// The paper's Figure 2 program: both arms write `v` — one group.
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

// The conflict lives entirely inside arm 0 (a nested par over a variable
// local to that arm); arm 1 is independent. The partition isolates the
// refusal to group {0} and its witness must replay whole-program.
const char* kModuleConflict = R"(
    input void A, B;
    deterministic _printf;
    par do
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
    with
       loop do
          await B;
          _printf("b\n");
       end
    end
)";

std::string verdict_key(const dfa::Conflict& c) {
    auto loc = [](const SourceLoc& l) {
        return std::to_string(l.line) + ":" + std::to_string(l.col);
    };
    std::string a = loc(c.loc_a), b = loc(c.loc_b);
    if (b < a) std::swap(a, b);
    return std::to_string(static_cast<int>(c.kind)) + "|" + c.what + "|" + a + "|" + b;
}

std::set<std::string> key_set(const std::vector<dfa::Conflict>& cs) {
    std::set<std::string> out;
    for (const dfa::Conflict& c : cs) out.insert(verdict_key(c));
    return out;
}

/// The correctness gate, as a reusable assertion: composed verdict ==
/// monolithic verdict (same conflict identities, same completeness — a
/// composition may only be *more* complete, never less).
void expect_equivalent(const flat::CompiledProgram& cp, const std::string& tag,
                       size_t max_states = 20000) {
    dfa::DfaOptions dopt;
    dopt.max_states = max_states;
    dfa::Dfa d = dfa::Dfa::build(cp, dopt);
    ModularOptions mopt;
    mopt.explore.max_states = max_states;
    ModularOutcome mo = analysis::explore_modular(cp, mopt);
    if (d.complete()) {
        EXPECT_TRUE(mo.complete) << tag << ": composition lost completeness";
        EXPECT_EQ(key_set(d.conflicts()), key_set(mo.conflicts)) << tag;
    }
    // Monolithic incomplete: no verdict to compare; the composed one may
    // legitimately be stronger (that is the point of composing).
}

// ---------------------------------------------------------------------------
// Partitioning

TEST(Partition, IndependentArmsBecomeSingletonGroups) {
    flat::CompiledProgram cp = flat::compile(kIndependent3);
    Partition part = analysis::partition_program(cp);
    ASSERT_TRUE(part.partitioned) << part.reason;
    ASSERT_EQ(part.modules.size(), 3u);
    EXPECT_TRUE(part.edges.empty());
    ASSERT_EQ(part.groups.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(part.groups[i], std::vector<int>{static_cast<int>(i)});
        EXPECT_GE(part.modules[i].entry, 0);
        EXPECT_FALSE(part.modules[i].has_timers);
        EXPECT_FALSE(part.modules[i].escapes_out);
    }
}

TEST(Partition, SharedVariableGroupsArms) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    Partition part = analysis::partition_program(cp);
    ASSERT_TRUE(part.partitioned) << part.reason;
    ASSERT_EQ(part.modules.size(), 2u);
    ASSERT_EQ(part.edges.size(), 1u);
    EXPECT_NE(part.edges[0].reason.find("shared variable 'v'"), std::string::npos)
        << part.edges[0].reason;
    ASSERT_EQ(part.groups.size(), 1u);
    EXPECT_EQ(part.groups[0], (std::vector<int>{0, 1}));
}

TEST(Partition, InternalEventCouplesEmitterAndAwaiter) {
    flat::CompiledProgram cp = flat::compile(R"(
        input void A;
        internal void e;
        par do
           loop do await A; emit e; end
        with
           loop do await e; end
        end
    )");
    Partition part = analysis::partition_program(cp);
    ASSERT_TRUE(part.partitioned) << part.reason;
    ASSERT_EQ(part.groups.size(), 1u);
    ASSERT_EQ(part.edges.size(), 1u);
    EXPECT_NE(part.edges[0].reason.find("internal event 'e'"), std::string::npos)
        << part.edges[0].reason;
}

TEST(Partition, TimersInBothArmsCouple) {
    flat::CompiledProgram cp = flat::compile(R"(
        par do
           loop do await 10ms; end
        with
           loop do await 7ms; end
        end
    )");
    Partition part = analysis::partition_program(cp);
    ASSERT_TRUE(part.partitioned) << part.reason;
    ASSERT_EQ(part.groups.size(), 1u);
    ASSERT_FALSE(part.edges.empty());
    EXPECT_NE(part.edges[0].reason.find("timers"), std::string::npos)
        << part.edges[0].reason;
}

TEST(Partition, ProgramReturnCouplesEveryArm) {
    flat::CompiledProgram cp = flat::compile(R"(
        input void A, B, C;
        par do
           await A;
           return 1;
        with
           loop do await B; end
        with
           loop do await C; end
        end
    )");
    Partition part = analysis::partition_program(cp);
    ASSERT_TRUE(part.partitioned) << part.reason;
    EXPECT_TRUE(part.modules[0].escapes_out);
    ASSERT_EQ(part.groups.size(), 1u) << "a program return terminates every arm";
}

TEST(Partition, ParOrFallsBackWholeProgram) {
    flat::CompiledProgram cp = flat::compile(R"(
        input void A, B;
        par/or do
           await A;
        with
           await B;
        end
    )");
    Partition part = analysis::partition_program(cp);
    EXPECT_FALSE(part.partitioned);
    EXPECT_NE(part.reason.find("par/and or par/or"), std::string::npos) << part.reason;
    ASSERT_EQ(part.modules.size(), 1u);
    EXPECT_EQ(part.modules[0].entry, -1);
    ASSERT_EQ(part.groups.size(), 1u);
}

TEST(Partition, NoTopLevelParFallsBackWholeProgram) {
    flat::CompiledProgram cp = flat::compile("input void A; await A;");
    Partition part = analysis::partition_program(cp);
    EXPECT_FALSE(part.partitioned);
    EXPECT_FALSE(part.reason.empty());
    ASSERT_EQ(part.modules.size(), 1u);
    EXPECT_EQ(part.modules[0].pc_begin, 0);
    EXPECT_EQ(part.modules[0].pc_end, static_cast<flat::Pc>(cp.flat.code.size()));
}

// ---------------------------------------------------------------------------
// Composition

TEST(Compose, SumNotProductOnIndependentArms) {
    flat::CompiledProgram cp = flat::compile(kIndependent3);
    dfa::Dfa d = dfa::Dfa::build(cp, {});
    ModularOutcome mo = analysis::explore_modular(cp);
    EXPECT_TRUE(mo.composed);
    EXPECT_TRUE(mo.complete);
    EXPECT_TRUE(mo.conflicts.empty());
    // 3 + 4 + 2 composed states vs the 3 * 4 * 2 product.
    EXPECT_EQ(mo.states_total, 9u);
    EXPECT_EQ(d.state_count(), 24u);
}

TEST(Compose, InterferingArmsMatchMonolithicExactly) {
    flat::CompiledProgram cp = flat::compile(kFigure2);
    dfa::Dfa d = dfa::Dfa::build(cp, {});
    ModularOutcome mo = analysis::explore_modular(cp);
    EXPECT_FALSE(mo.composed);  // one joint group: nothing was composed
    ASSERT_EQ(mo.groups.size(), 1u);
    EXPECT_NE(mo.groups[0].fallback_reason.find("shared variable"),
              std::string::npos);
    EXPECT_EQ(key_set(d.conflicts()), key_set(mo.conflicts));
    // Same joint exploration: occurrence counts agree too, not just keys.
    ASSERT_EQ(mo.conflicts.size(), d.conflicts().size());
    EXPECT_EQ(mo.conflicts[0].occurrences, d.conflicts()[0].occurrences);
}

TEST(Compose, ConflictIsolatedToItsModule) {
    flat::CompiledProgram cp = flat::compile(kModuleConflict);
    ModularOutcome mo = analysis::explore_modular(cp);
    EXPECT_TRUE(mo.composed);
    ASSERT_EQ(mo.groups.size(), 2u);
    ASSERT_FALSE(mo.conflicts.empty());
    expect_equivalent(cp, "kModuleConflict");
}

TEST(Compose, IncompleteModuleMakesComposedVerdictIncomplete) {
    flat::CompiledProgram cp = flat::compile(kIndependent3);
    ModularOptions mopt;
    mopt.explore.max_states = 2;  // below the 4-state arm's need
    ModularOutcome mo = analysis::explore_modular(cp, mopt);
    EXPECT_FALSE(mo.complete) << "a truncated module must not report a full cover";
}

TEST(Compose, OccurrenceCountsSumAcrossModules) {
    dfa::Conflict a;
    a.kind = dfa::Conflict::Kind::Variable;
    a.what = "v";
    a.loc_a = {3, 7};
    a.loc_b = {9, 7};
    a.trigger = "A";
    a.occurrences = 2;
    a.witness = {{dfa::WitnessStep::Kind::Boot}, {dfa::WitnessStep::Kind::Event, "A"}};
    dfa::Conflict b = a;
    b.loc_a = a.loc_b;  // (b,a) order must normalize onto the same key
    b.loc_b = a.loc_a;
    b.occurrences = 3;
    b.witness = {{dfa::WitnessStep::Kind::Boot}};
    dfa::ConflictSet set;
    set.add(a);
    set.add(b);
    std::vector<dfa::Conflict> merged = set.take();
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].occurrences, 5);
    EXPECT_EQ(merged[0].witness.size(), 1u) << "merge keeps the shortest witness";
}

// ---------------------------------------------------------------------------
// Differential gate: composed == monolithic over demos, corpus, seeds.

TEST(Equivalence, AllDemos) {
    const std::pair<const char*, const char*> demos[] = {
        {"quickstart", demos::kQuickstart}, {"temperature", demos::kTemperature},
        {"ring", demos::kRing},             {"multihop", demos::kMultihop},
        {"ship", demos::kShip},             {"mario-live", demos::kMarioLive},
        {"mario-replay", demos::kMarioReplay},
        {"mario-backwards", demos::kMarioBackwards},
    };
    for (const auto& [name, src] : demos) {
        flat::CompiledProgram cp = flat::compile(src);
        expect_equivalent(cp, name);
    }
}

TEST(Equivalence, CorpusWitnesses) {
    std::filesystem::path dir =
        std::filesystem::path(CEU_SOURCE_DIR) / "tests" / "corpus";
    int seen = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".ceu") continue;
        std::ifstream f(entry.path());
        std::ostringstream ss;
        ss << f.rdbuf();
        testgen::CorpusCase c;
        ASSERT_TRUE(testgen::corpus_parse(ss.str(), &c)) << entry.path();
        flat::CompiledProgram cp = flat::compile(c.source);
        expect_equivalent(cp, entry.path().filename().string());
        ++seen;
    }
    EXPECT_GT(seen, 0);
}

TEST(Equivalence, TwoHundredSeededPrograms) {
    for (uint64_t seed = 1; seed <= 220; ++seed) {
        testgen::GenCase gc = testgen::generate(seed);
        flat::CompiledProgram cp;
        Diagnostics diags;
        ASSERT_TRUE(flat::compile_checked(gc.source, &cp, diags, "<gen>"))
            << "seed " << seed << ": " << diags.str();
        expect_equivalent(cp, "seed " + std::to_string(seed));
    }
}

TEST(Equivalence, DifferRunsTheModularOracle) {
    // The conformance harness itself cross-checks composed vs monolithic on
    // every case; a refusal must come back as dfa-refused, never
    // modular-diverged.
    env::Script script;
    Diagnostics diags;
    ASSERT_TRUE(env::Script::parse("E A\nE A\nE A\nQ\n", &script, diags));
    testgen::DiffOptions opt;
    opt.run_cgen = false;
    testgen::DiffResult res = testgen::run_differential(kFigure2, script, opt);
    EXPECT_EQ(res.kind, testgen::DiffResult::Kind::DfaRefused)
        << testgen::DiffResult::kind_name(res.kind) << ": " << res.detail;
}

// ---------------------------------------------------------------------------
// Content hashes: stable under reformatting and under edits elsewhere.

TEST(ModuleHash, StableUnderReformatting) {
    flat::CompiledProgram a = flat::compile(kFigure2);
    // Same program, violently reformatted (and with a line shift).
    flat::CompiledProgram b = flat::compile(
        "\n\n  input void A;\n  deterministic _printf;\n  int v;\n"
        "  par do\n  loop do\nawait A;\n   await A;\n     v = 1;\n"
        " _printf(\"w2\\n\");\n  end\nwith\n loop do\n await A;\n await A;\n"
        " await A;\n v = 2;\n _printf(\"w3\\n\");\n end\n end\n");
    Partition pa = analysis::partition_program(a);
    Partition pb = analysis::partition_program(b);
    ASSERT_TRUE(pa.partitioned && pb.partitioned);
    ASSERT_EQ(pa.modules.size(), pb.modules.size());
    for (size_t i = 0; i < pa.modules.size(); ++i) {
        EXPECT_EQ(pa.modules[i].hash, pb.modules[i].hash) << "module " << i;
    }
}

TEST(ModuleHash, StableUnderRenderParseRoundTrip) {
    flat::CompiledProgram a = flat::compile(kModuleConflict);
    flat::CompiledProgram b = flat::compile(ast::print_block(a.ast.body));
    Partition pa = analysis::partition_program(a);
    Partition pb = analysis::partition_program(b);
    ASSERT_TRUE(pa.partitioned && pb.partitioned);
    ASSERT_EQ(pa.modules.size(), pb.modules.size());
    for (size_t i = 0; i < pa.modules.size(); ++i) {
        EXPECT_EQ(pa.modules[i].hash, pb.modules[i].hash) << "module " << i;
    }
    EXPECT_EQ(analysis::program_hash(a), analysis::program_hash(b));
}

TEST(ModuleHash, EditingOneArmLeavesOtherHashesAlone) {
    flat::CompiledProgram a = flat::compile(kIndependent3);
    std::string edited(kIndependent3);
    size_t pos = edited.find("await C; await C;");
    ASSERT_NE(pos, std::string::npos);
    edited.replace(pos, 17, "await C;");
    flat::CompiledProgram b = flat::compile(edited);
    Partition pa = analysis::partition_program(a);
    Partition pb = analysis::partition_program(b);
    ASSERT_TRUE(pa.partitioned && pb.partitioned);
    EXPECT_EQ(pa.modules[0].hash, pb.modules[0].hash);
    EXPECT_EQ(pa.modules[1].hash, pb.modules[1].hash);
    EXPECT_NE(pa.modules[2].hash, pb.modules[2].hash);
}

TEST(ModuleHash, ScopedSignatureStableUnderOtherArmEdits) {
    // Arm 0 (the conflict module) explored alone must produce the same
    // scoped sub-signature when arm 1 changes and all lines shift.
    auto arm0_sig = [](const char* src) {
        flat::CompiledProgram cp = flat::compile(src);
        Partition part = analysis::partition_program(cp);
        EXPECT_TRUE(part.partitioned) << part.reason;
        const std::vector<int>& members = part.groups[0];
        EXPECT_EQ(members, std::vector<int>{0});
        analysis::ExploreOptions eo;
        eo.boot_pcs.push_back(part.modules[0].entry);
        dfa::Dfa d = analysis::explore(cp, eo);
        return d.signature(analysis::group_scope(cp, part, members));
    };
    std::string shifted = "\n\n\n" + std::string(kModuleConflict);
    size_t pos = shifted.find("_printf(\"b\\n\");");
    ASSERT_NE(pos, std::string::npos);
    shifted.replace(pos, 15, "_printf(\"bb\\n\");\n          await B;");
    EXPECT_EQ(arm0_sig(kModuleConflict), arm0_sig(shifted.c_str()));
}

// ---------------------------------------------------------------------------
// Persistent cache

analysis::cache::Entry sample_entry() {
    analysis::cache::Entry e;
    e.members.push_back({0xabcdef01u, 10, 20, 10});
    e.max_states = 1000;
    e.stop_at_first_conflict = false;
    e.state_count = 42;
    e.complete = true;
    e.sub_signature = 0x1122334455667788ULL;
    dfa::Conflict c;
    c.kind = dfa::Conflict::Kind::Variable;
    c.what = "v";
    c.loc_a = {12, 7};
    c.loc_b = {15, 9};
    c.trigger = "A";
    c.occurrences = 4;
    c.witness = {{dfa::WitnessStep::Kind::Boot},
                 {dfa::WitnessStep::Kind::Event, "A"},
                 {dfa::WitnessStep::Kind::Time, "", 500}};
    e.conflicts.push_back(c);
    return e;
}

std::string fresh_cache_dir(const char* tag) {
    std::string dir = ::testing::TempDir() + "ceulint_" + tag + "_" +
                      std::to_string(getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(Cache, RoundTripsAnEntry) {
    analysis::cache::DfaCache cache(fresh_cache_dir("rt"));
    analysis::cache::Entry e = sample_entry();
    uint64_t key = analysis::cache::entry_key({e.members[0].hash}, e.max_states,
                                              e.stop_at_first_conflict);
    cache.store(key, e);
    EXPECT_EQ(cache.stats().stores, 1u);
    analysis::cache::Entry got;
    ASSERT_TRUE(cache.load(key, e, &got));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(got.state_count, 42u);
    EXPECT_TRUE(got.complete);
    EXPECT_EQ(got.sub_signature, e.sub_signature);
    ASSERT_EQ(got.conflicts.size(), 1u);
    EXPECT_EQ(got.conflicts[0].what, "v");
    EXPECT_EQ(got.conflicts[0].loc_a.line, 12u);
    EXPECT_EQ(got.conflicts[0].occurrences, 4);
    ASSERT_EQ(got.conflicts[0].witness.size(), 3u);
    EXPECT_EQ(got.conflicts[0].witness[2].advance, 500);
}

TEST(Cache, RebasesConflictLinesWhenTheModuleMoves) {
    analysis::cache::DfaCache cache(fresh_cache_dir("rebase"));
    analysis::cache::Entry e = sample_entry();
    uint64_t key = analysis::cache::entry_key({e.members[0].hash}, e.max_states,
                                              e.stop_at_first_conflict);
    cache.store(key, e);
    analysis::cache::Entry expect = e;  // same content, module moved +25 lines
    expect.members[0] = {e.members[0].hash, 35, 45, 35};
    analysis::cache::Entry got;
    ASSERT_TRUE(cache.load(key, expect, &got));
    EXPECT_EQ(got.conflicts[0].loc_a.line, 37u);  // 12 - 10 + 35
    EXPECT_EQ(got.conflicts[0].loc_b.line, 40u);
    EXPECT_EQ(got.conflicts[0].loc_a.col, 7u);
}

TEST(Cache, RejectsCorruptTruncatedAndStaleEntries) {
    std::string dir = fresh_cache_dir("rej");
    analysis::cache::DfaCache cache(dir);
    analysis::cache::Entry e = sample_entry();
    uint64_t key = analysis::cache::entry_key({e.members[0].hash}, e.max_states,
                                              e.stop_at_first_conflict);
    cache.store(key, e);
    std::string path = cache.path_for(key);
    auto slurp = [&] {
        std::ifstream f(path, std::ios::binary);
        std::ostringstream os;
        os << f.rdbuf();
        return os.str();
    };
    std::string blob = slurp();
    analysis::cache::Entry got;

    // Truncated: parse-then-commit refuses, never half-applies.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << blob.substr(0, blob.size() / 2);
    }
    EXPECT_FALSE(cache.load(key, e, &got));
    // Wrong version magic.
    {
        std::string bad = blob;
        bad[7] = '9';  // CEULINT1 -> CEULINT9
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << bad;
    }
    EXPECT_FALSE(cache.load(key, e, &got));
    // Trailing garbage.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << blob << "xx";
    }
    EXPECT_FALSE(cache.load(key, e, &got));
    EXPECT_EQ(cache.stats().rejected, 3u);

    // Stale identity: a valid file whose member hash no longer matches.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << blob;
    }
    analysis::cache::Entry other = e;
    other.members[0].hash ^= 1;
    EXPECT_FALSE(cache.load(key, other, &got));
    EXPECT_EQ(cache.stats().rejected, 4u);
    // The pristine file still loads (rejection never destroys it).
    EXPECT_TRUE(cache.load(key, e, &got));
}

TEST(Cache, WarmRunReexploresOnlyTheChangedModule) {
    std::string dir = fresh_cache_dir("incr");
    ModularOptions mopt;
    mopt.cache_dir = dir;

    flat::CompiledProgram cp = flat::compile(kIndependent3);
    ModularOutcome cold = analysis::explore_modular(cp, mopt);
    EXPECT_EQ(cold.cache.hits, 0u);
    EXPECT_EQ(cold.cache.misses, 3u);
    EXPECT_EQ(cold.cache.stores, 3u);
    EXPECT_EQ(cold.states_explored, cold.states_total);

    // Unchanged program: every group comes from the cache.
    ModularOutcome warm = analysis::explore_modular(cp, mopt);
    EXPECT_EQ(warm.cache.hits, 3u);
    EXPECT_EQ(warm.cache.misses, 0u);
    EXPECT_EQ(warm.states_explored, 0u);
    EXPECT_EQ(warm.states_total, cold.states_total);
    EXPECT_EQ(key_set(warm.conflicts), key_set(cold.conflicts));

    // Edit arm 2 only: arms 0 and 1 must hit, arm 2 must re-explore.
    std::string edited(kIndependent3);
    size_t pos = edited.find("await C; await C;");
    ASSERT_NE(pos, std::string::npos);
    edited.replace(pos, 17, "await C;");
    flat::CompiledProgram cp2 = flat::compile(edited);
    ModularOutcome incr = analysis::explore_modular(cp2, mopt);
    EXPECT_EQ(incr.cache.hits, 2u);
    EXPECT_EQ(incr.cache.misses, 1u);
    EXPECT_EQ(incr.cache.stores, 1u);
    ASSERT_EQ(incr.groups.size(), 3u);
    size_t reexplored = 0;
    for (const analysis::GroupResult& g : incr.groups) {
        if (!g.from_cache) ++reexplored;
    }
    EXPECT_EQ(reexplored, 1u);
}

TEST(Cache, HitSurvivesLineShiftAndRebasesTheVerdict) {
    std::string dir = fresh_cache_dir("shift");
    ModularOptions mopt;
    mopt.cache_dir = dir;

    flat::CompiledProgram cp = flat::compile(kModuleConflict);
    ModularOutcome cold = analysis::explore_modular(cp, mopt);
    ASSERT_FALSE(cold.conflicts.empty());

    // Shift the whole program down three lines: the pretty-printed text is
    // unchanged, so both groups hit; conflict lines follow the shift.
    std::string shifted = "\n\n\n" + std::string(kModuleConflict);
    flat::CompiledProgram cp2 = flat::compile(shifted);
    ModularOutcome warm = analysis::explore_modular(cp2, mopt);
    EXPECT_EQ(warm.cache.hits, 2u);
    EXPECT_EQ(warm.cache.misses, 0u);
    ASSERT_EQ(warm.conflicts.size(), cold.conflicts.size());
    EXPECT_EQ(warm.conflicts[0].loc_a.line, cold.conflicts[0].loc_a.line + 3);
    EXPECT_EQ(warm.conflicts[0].loc_b.line, cold.conflicts[0].loc_b.line + 3);
    // And it matches what a fresh exploration of the shifted program says.
    expect_equivalent(cp2, "shifted kModuleConflict");
}

// ---------------------------------------------------------------------------
// CLI surface

std::string ceuc_path() { return std::string(CEU_BUILD_DIR) + "/src/ceuc"; }

struct CliResult {
    int exit_code = 0;
    std::string out;
    std::string err;
};

CliResult run_ceuc(const std::string& args, const std::string& program,
                   const std::string& stdin_text = "") {
    static int n = 0;
    std::string base = ::testing::TempDir() + "ceuc_modular_" +
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

TEST(CliModular, VerdictMatchesMonolithic) {
    CliResult mono = run_ceuc("", kFigure2);
    CliResult mod = run_ceuc("--analysis.modular", kFigure2);
    EXPECT_EQ(mono.exit_code, 1);
    EXPECT_EQ(mod.exit_code, 1);
    EXPECT_NE(mod.err.find("modular analysis:"), std::string::npos) << mod.err;
    EXPECT_NE(mod.err.find("variable 'v' accessed concurrently"),
              std::string::npos)
        << mod.err;
}

TEST(CliModular, CacheDirColdThenWarm) {
    std::string dir = fresh_cache_dir("cli");
    CliResult cold = run_ceuc("--analysis.cache-dir=" + dir, kIndependent3);
    EXPECT_EQ(cold.exit_code, 0) << cold.err;
    EXPECT_NE(cold.err.find("hits=0 misses=3 stores=3"), std::string::npos)
        << cold.err;
    CliResult warm = run_ceuc("--analysis.cache-dir=" + dir, kIndependent3);
    EXPECT_EQ(warm.exit_code, 0) << warm.err;
    EXPECT_NE(warm.err.find("3 cached, 0 explored"), std::string::npos) << warm.err;
    EXPECT_NE(warm.err.find("hits=3 misses=0 stores=0"), std::string::npos)
        << warm.err;
}

TEST(CliModular, JsonModeEmitsCacheStats) {
    std::string dir = fresh_cache_dir("clij");
    CliResult r = run_ceuc("--diag-format=json --analysis.cache-dir=" + dir,
                           kIndependent3);
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("\"pass\":\"analysis-cache\""), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"cache_misses\":3"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("\"partitioned\":true"), std::string::npos) << r.out;
}

TEST(CliModular, StrictRefusesComposedIncompleteVerdict) {
    CliResult r = run_ceuc(
        "--analysis.modular --analysis.strict --analysis.max-states 2", kIndependent3);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("--analysis.strict"), std::string::npos) << r.err;
    // Without --analysis.strict the incomplete composition warns but passes.
    CliResult soft =
        run_ceuc("--analysis.modular --analysis.max-states 2", kIndependent3);
    EXPECT_EQ(soft.exit_code, 0) << soft.err;
    EXPECT_NE(soft.out.find("INCOMPLETE"), std::string::npos)
        << "check-mode summary must not claim OK: " << soft.out << soft.err;
}

TEST(CliModular, ExplainWitnessReplaysAcrossTheModuleBoundary) {
    CliResult explain = run_ceuc("--explain --analysis.modular", kModuleConflict);
    EXPECT_EQ(explain.exit_code, 1);
    EXPECT_NE(explain.err.find("witness:"), std::string::npos) << explain.err;
    ASSERT_NE(explain.out.find("# replay script"), std::string::npos) << explain.out;
    // The composed witness is a whole-program input script: replay it and
    // observe the conflicting writers actually firing.
    CliResult run = run_ceuc("--run --no-analysis", kModuleConflict, explain.out);
    EXPECT_EQ(run.exit_code, 0) << run.err;
    EXPECT_NE(run.out.find("w2"), std::string::npos) << run.out;
    EXPECT_NE(run.out.find("w3"), std::string::npos) << run.out;
}

}  // namespace
}  // namespace ceu

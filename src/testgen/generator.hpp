// Seeded generator of well-formed Céu programs + matched input scripts
// (QuickCheck/Csmith-style, see PAPERS.md): the driver for the differential
// conformance harness. Programs are built directly at the AST level and are
// correct by construction:
//
//  * every loop body starts with an await (the §2.5 bounded-execution rule);
//  * every par branch starts with an await, so branches are never
//    concurrent at the instant the par spawns (boot-time races would make
//    almost every program DFA-refused);
//  * workers own disjoint input events, internal-event await-rights and
//    write-variable sets, so the only sources of concurrency are timer
//    collisions — unless the conflict bias deliberately shares resources
//    to exercise the refusal path;
//  * a dedicated observer trail snapshots every variable on a reserved
//    `Obs` input, giving each program rich observable output without
//    introducing concurrent C calls;
//  * asyncs contain only counting loops with guaranteed breaks (they must
//    settle: both harness sides drain asyncs to idle);
//  * arithmetic is wrapped in `% 9973` at every assignment and
//    multiplication only combines leaves, so no intermediate value can
//    overflow int64 (signed overflow is UB in the generated C).
//
// The same seed always yields byte-identical source and script.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ast/ast.hpp"
#include "env/script.hpp"

namespace ceu::testgen {

struct GenCase {
    uint64_t seed = 0;
    ast::Program program;       // the generated AST; `source` is its rendering
    std::string source;
    env::Script script;
    std::string script_text;    // textual protocol (ceuc --run / cgen main)
    bool has_async = false;
    bool biased_conflict = false;  // generator intentionally shared resources
};

/// Generates one program + script pair from `seed`.
GenCase generate(uint64_t seed);

/// A straight-line await-time chain with known segment durations, for the
/// §2.4 residual-delta tests: prints one line per segment, terminates with
/// the segment count after exactly sum(durations) of logical time.
struct TimingChain {
    std::string source;
    std::vector<Micros> durations;
    Micros total = 0;
};
TimingChain timing_chain(uint64_t seed, int max_segments = 6);

/// Renders a program AST back to parseable Céu source.
std::string render(const ast::Program& prog);

/// Renders a script in the line protocol shared by `ceuc --run` and the
/// cgen `main()` harness (numeric `T` so both sides parse it identically).
std::string script_text(const env::Script& s);

}  // namespace ceu::testgen

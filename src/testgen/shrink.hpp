// Delta-debugging shrinker: given a program + script pair whose
// differential check failed, greedily minimizes both until no single
// reduction preserves the failure. The oracle is "the differ reports the
// SAME failure kind" — a candidate that fails differently (or compiles no
// longer / agrees) is rejected, so the shrunk reproducer still witnesses
// the original bug.
//
// Program reductions work on the re-parsed AST (parse -> mutate -> render
// -> re-test), in a fixed order so shrinking is deterministic:
//   * delete any one statement of any block,
//   * replace a par by one of its branches (spliced in place),
//   * replace an if by its then- or else-body,
//   * replace a loop by its body.
// Script reductions are classic ddmin chunk removal (halves, then single
// items). Candidates that no longer compile are naturally rejected by the
// oracle, so reductions never need to preserve well-formedness themselves.
#pragma once

#include <string>

#include "env/script.hpp"
#include "testgen/differ.hpp"

namespace ceu::testgen {

struct ShrinkResult {
    std::string source;       // minimized program
    env::Script script;       // minimized script
    std::string script_text;
    DiffResult::Kind kind = DiffResult::Kind::Agree;  // the preserved failure
    int attempts = 0;         // oracle invocations spent
    int removed_stmts = 0;    // successful program reductions
    int removed_items = 0;    // successful script reductions
};

/// Minimizes `source`+`script`, re-running the differ under `opt`. `kind`
/// must be the failure the pair exhibits (the caller already ran the
/// differ). If the pair does not actually reproduce `kind`, it is returned
/// unshrunk.
ShrinkResult shrink(const std::string& source, const env::Script& script,
                    DiffResult::Kind kind, const DiffOptions& opt = {});

}  // namespace ceu::testgen

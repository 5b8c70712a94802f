// The fuzz loop: generate -> differential-check -> (on failure) shrink ->
// persist. This is what `ceuc --gen.fuzz N --gen.seed S` and the conformance
// ctest shards drive; the nightly CI sweep is the same loop with a larger
// seed range and a corpus directory for artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "testgen/differ.hpp"
#include "testgen/generator.hpp"
#include "testgen/shrink.hpp"

namespace ceu::testgen {

struct FuzzOptions {
    uint64_t seed = 0;  // first seed; cases use seed, seed+1, ...
    int count = 100;
    DiffOptions diff;
    /// Shrink failing cases before reporting (costs extra differ runs).
    bool shrink_failures = true;
    /// When non-empty, shrunk failures are written here as corpus files.
    std::string corpus_dir;
};

struct FuzzFailure {
    uint64_t seed = 0;
    DiffResult::Kind kind = DiffResult::Kind::Agree;
    std::string detail;
    std::string source;       // shrunk when shrinking is on
    std::string script_text;
    std::string corpus_path;  // "" unless persisted
};

struct FuzzReport {
    int total = 0;
    int agree = 0;
    int refused = 0;           // DFA found conflicts (parity not asserted)
    int refused_diverged = 0;  // ... and the schedulers really disagreed
    int unknown = 0;           // DFA state budget exhausted
    int failures = 0;          // genuine conformance bugs
    double seconds = 0.0;
    std::vector<FuzzFailure> failed;

    [[nodiscard]] double programs_per_sec() const {
        return seconds > 0 ? total / seconds : 0.0;
    }
    [[nodiscard]] std::string summary() const;
};

/// Runs the loop. `log` (optional) receives one line per failing case and
/// the final summary — the CLI wires it to stderr, tests leave it unset.
FuzzReport run_fuzz(const FuzzOptions& opt,
                    const std::function<void(const std::string&)>& log = {});

// Corpus files bundle the program and its script in one artifact:
//
//   # ceu-corpus kind=<kind> seed=<seed>
//   <program source>
//   === script ===
//   <script lines>
//
struct CorpusCase {
    std::string source;
    std::string script_text;
    std::string kind;  // DiffResult kind name recorded at capture time
    uint64_t seed = 0;
};

std::string corpus_format(const CorpusCase& c);
/// Parses a corpus file's text. Returns false on a malformed header.
bool corpus_parse(const std::string& text, CorpusCase* out);

}  // namespace ceu::testgen

#include "testgen/fuzz.hpp"

#include <chrono>
#include <fstream>
#include <sstream>

namespace ceu::testgen {
namespace {

std::string trim(const std::string& s) {
    size_t a = s.find_first_not_of(" \t\r\n");
    if (a == std::string::npos) return "";
    size_t b = s.find_last_not_of(" \t\r\n");
    return s.substr(a, b - a + 1);
}

}  // namespace

std::string FuzzReport::summary() const {
    std::ostringstream os;
    os << total << " programs: " << agree << " agree, " << refused << " dfa-refused ("
       << refused_diverged << " observably diverged), " << unknown << " dfa-unknown, "
       << failures << " failures";
    if (seconds > 0) {
        os << " [" << static_cast<int>(programs_per_sec()) << " programs/sec]";
    }
    return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& opt,
                    const std::function<void(const std::string&)>& log) {
    FuzzReport rep;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < opt.count; ++i) {
        uint64_t seed = opt.seed + static_cast<uint64_t>(i);
        GenCase gc = generate(seed);
        DiffResult r = run_differential(gc.source, gc.script, opt.diff);
        ++rep.total;
        switch (r.kind) {
            case DiffResult::Kind::Agree:
                ++rep.agree;
                continue;
            case DiffResult::Kind::DfaRefused:
                ++rep.refused;
                if (r.refused_diverged) ++rep.refused_diverged;
                continue;
            case DiffResult::Kind::DfaUnknown:
                ++rep.unknown;
                continue;
            default:
                break;
        }
        // A genuine failure: shrink, persist, report.
        ++rep.failures;
        FuzzFailure fail;
        fail.seed = seed;
        fail.kind = r.kind;
        fail.detail = r.detail;
        fail.source = gc.source;
        fail.script_text = gc.script_text;
        if (opt.shrink_failures) {
            ShrinkResult s = shrink(gc.source, gc.script, r.kind, opt.diff);
            fail.source = s.source;
            fail.script_text = s.script_text;
        }
        if (!opt.corpus_dir.empty()) {
            CorpusCase cc;
            cc.source = fail.source;
            cc.script_text = fail.script_text;
            cc.kind = DiffResult::kind_name(fail.kind);
            cc.seed = seed;
            std::string path = opt.corpus_dir + "/seed" + std::to_string(seed) + "_" +
                               cc.kind + ".ceu";
            std::ofstream f(path);
            if (f) {
                f << corpus_format(cc);
                fail.corpus_path = path;
            }
        }
        if (log) {
            log("seed " + std::to_string(seed) + ": " + DiffResult::kind_name(fail.kind) +
                (fail.detail.empty() ? "" : " (" + fail.detail + ")") +
                (fail.corpus_path.empty() ? "" : " -> " + fail.corpus_path));
        }
        rep.failed.push_back(std::move(fail));
    }
    rep.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (log) log(rep.summary());
    return rep;
}

std::string corpus_format(const CorpusCase& c) {
    std::ostringstream os;
    os << "# ceu-corpus kind=" << c.kind << " seed=" << c.seed << "\n";
    os << c.source;
    if (c.source.empty() || c.source.back() != '\n') os << "\n";
    os << "=== script ===\n";
    os << c.script_text;
    if (!c.script_text.empty() && c.script_text.back() != '\n') os << "\n";
    return os.str();
}

bool corpus_parse(const std::string& text, CorpusCase* out) {
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line)) return false;
    if (line.rfind("# ceu-corpus", 0) != 0) return false;
    size_t kpos = line.find("kind=");
    size_t spos = line.find("seed=");
    if (kpos != std::string::npos) {
        std::string rest = line.substr(kpos + 5);
        out->kind = rest.substr(0, rest.find(' '));
    }
    if (spos != std::string::npos) {
        out->seed = std::strtoull(line.c_str() + spos + 5, nullptr, 10);
    }
    std::string src;
    std::string scr;
    bool in_script = false;
    while (std::getline(is, line)) {
        if (trim(line) == "=== script ===") {
            in_script = true;
            continue;
        }
        (in_script ? scr : src) += line + "\n";
    }
    out->source = src;
    out->script_text = scr;
    return true;
}

}  // namespace ceu::testgen

// E8 — temporal-analysis cost (paper §7): "the conversion algorithm is
// exponential, and this is a theoretical lower bound... however, it is
// usable in practice, considering the size of applications in the context
// of embedded systems."
//
// Two sweeps demonstrate both halves of the claim:
//   1. k parallel trails cycling over the same event with pairwise-coprime
//     periods -> the product automaton has ~prod(periods) states
//     (exponential in program size);
//   2. the paper's real programs (quickstart, ring, ship, Mario) analyze in
//     milliseconds with small automata.
// Sweep 3 measures the parallel explorer (analysis::explore) against the
// serial one on a wide-frontier program, verifying order-normalized
// equivalence while timing each --analysis.jobs setting.
// Sweep 4 measures the modular partition-and-compose analysis with its
// persistent cache: composed (sum) vs monolithic (product) state counts,
// and cold-vs-warm wall time (a warm cache re-explores nothing).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/explore.hpp"
#include "analysis/modular.hpp"
#include "demos/demos.hpp"
#include "dfa/dfa.hpp"

namespace {

using namespace ceu;

std::string coprime_program(int k) {
    static const int kPeriods[] = {2, 3, 5, 7, 11, 13};
    std::ostringstream os;
    os << "input void A;\n";
    for (int i = 0; i < k; ++i) os << "int v" << i << ";\n";
    if (k > 1) os << "par do\n";
    for (int i = 0; i < k; ++i) {
        if (i) os << "with\n";
        os << "  loop do\n";
        for (int j = 0; j < kPeriods[i]; ++j) os << "    await A;\n";
        os << "    v" << i << " = 1;\n  end\n";
    }
    if (k > 1) os << "end\n";
    return os.str();
}

// Wide-frontier synthetic for the parallel sweep: k independent trails over
// k *distinct* events. Every state has k outgoing triggers, so the frontier
// is broad enough to shard across workers (the coprime program above has a
// single event and a frontier of width 1 — no parallelism to extract).
std::string wide_program(int k) {
    std::ostringstream os;
    os << "input void";
    for (int i = 0; i < k; ++i) os << (i ? "," : "") << " E" << i;
    os << ";\npar do\n";
    for (int i = 0; i < k; ++i) {
        if (i) os << "with\n";
        os << "  loop do\n";
        for (int j = 0; j < 3 + i; ++j) os << "    await E" << i << ";\n";
        os << "  end\n";
    }
    os << "end\n";
    return os.str();
}

struct Result {
    size_t states;
    double ms;
    bool deterministic;
    bool complete;
};

Result analyze(const std::string& src) {
    flat::CompiledProgram cp = flat::compile(src);
    auto t0 = std::chrono::steady_clock::now();
    dfa::DfaOptions opt;
    opt.max_states = 200000;
    dfa::Dfa d = dfa::Dfa::build(cp, opt);
    auto t1 = std::chrono::steady_clock::now();
    return {d.state_count(),
            std::chrono::duration<double, std::milli>(t1 - t0).count(),
            d.deterministic(), d.complete()};
}

}  // namespace

int main(int argc, char** argv) {
    // --json[=PATH] additionally writes the sweep results as a machine-readable
    // artifact (default BENCH_dfa.json; the nightly CI job uploads it).
    // --pin pins each explorer worker to one of the process's allowed CPUs
    // (cpuset-aware; see ExploreOptions::pin_threads) so migration doesn't
    // smear the parallel sweep.
    std::string json_path;
    bool pin = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_path = (i + 1 < argc) ? argv[++i] : "BENCH_dfa.json";
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else if (std::strcmp(argv[i], "--pin") == 0) {
            pin = true;
        } else {
            std::fprintf(stderr, "usage: %s [--json[=PATH]] [--pin]\n", argv[0]);
            return 2;
        }
    }
    std::ostringstream js;

    std::printf("== Temporal-analysis cost ==\n\n");
    std::printf("sweep 1: k trails with coprime periods over one event "
                "(state explosion)\n");
    std::printf("%4s %12s %10s %14s\n", "k", "DFA states", "time", "product bound");
    long long product = 1;
    static const int kPeriods[] = {2, 3, 5, 7, 11, 13};
    js << "{\"explosion\":[";
    for (int k = 1; k <= 5; ++k) {
        product *= kPeriods[k - 1];
        Result r = analyze(coprime_program(k));
        std::printf("%4d %12zu %8.1fms %14lld%s\n", k, r.states, r.ms, product,
                    r.complete ? "" : "  (capped)");
        js << (k > 1 ? "," : "") << "{\"k\":" << k << ",\"states\":" << r.states
           << ",\"ms\":" << r.ms << ",\"bound\":" << product
           << ",\"complete\":" << (r.complete ? "true" : "false") << "}";
    }
    js << "]";

    std::printf("\nsweep 2: the paper's programs (all 'compile in a few "
                "seconds')\n");
    std::printf("%-12s %12s %10s %15s\n", "program", "DFA states", "time", "verdict");
    struct Named {
        const char* name;
        const char* src;
    };
    const Named programs[] = {
        {"quickstart", demos::kQuickstart},
        {"temperature", demos::kTemperature},
        {"ring", demos::kRing},
        {"ship", demos::kShip},
        {"mario", demos::kMarioLive},
    };
    js << ",\"programs\":[";
    for (size_t i = 0; i < sizeof(programs) / sizeof(programs[0]); ++i) {
        const Named& p = programs[i];
        Result r = analyze(p.src);
        std::printf("%-12s %12zu %8.1fms %15s\n", p.name, r.states, r.ms,
                    r.deterministic ? "deterministic" : "REFUSED");
        js << (i ? "," : "") << "{\"name\":\"" << p.name
           << "\",\"states\":" << r.states << ",\"ms\":" << r.ms
           << ",\"deterministic\":" << (r.deterministic ? "true" : "false")
           << "}";
    }
    js << "]";
    std::printf("\nsweep 3: parallel exploration (--analysis.jobs) on a "
                "wide-frontier program\n");
    std::printf("(hardware concurrency: %u threads)\n",
                std::thread::hardware_concurrency());
    {
        flat::CompiledProgram cp = flat::compile(wide_program(6));
        analysis::ExploreOptions base;
        base.max_states = 200000;
        base.pin_threads = pin;
        auto t0 = std::chrono::steady_clock::now();
        dfa::Dfa serial = analysis::explore(cp, base);
        auto t1 = std::chrono::steady_clock::now();
        double serial_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        std::string want = serial.signature();
        std::printf("%6s %12s %10s %9s %12s\n", "jobs", "DFA states", "time",
                    "speedup", "signature");
        std::printf("%6d %12zu %8.1fms %8.2fx %12s\n", 1, serial.state_count(),
                    serial_ms, 1.0, "(reference)");
        js << ",\"parallel\":[{\"jobs\":1,\"states\":" << serial.state_count()
           << ",\"ms\":" << serial_ms << ",\"speedup\":1,\"identical\":true}";
        for (int jobs : {2, 4, 8}) {
            analysis::ExploreOptions opt = base;
            opt.jobs = jobs;
            auto p0 = std::chrono::steady_clock::now();
            dfa::Dfa par = analysis::explore(cp, opt);
            auto p1 = std::chrono::steady_clock::now();
            double ms = std::chrono::duration<double, std::milli>(p1 - p0).count();
            std::printf("%6d %12zu %8.1fms %8.2fx %12s\n", jobs, par.state_count(),
                        ms, serial_ms / ms,
                        par.signature() == want ? "identical" : "MISMATCH");
            js << ",{\"jobs\":" << jobs << ",\"states\":" << par.state_count()
               << ",\"ms\":" << ms << ",\"speedup\":" << serial_ms / ms
               << ",\"identical\":" << (par.signature() == want ? "true" : "false")
               << "}";
        }
        js << "]";
    }
    std::printf("\nsweep 4: modular composition + persistent cache on the "
                "wide-frontier family\n");
    std::printf("%4s %12s %12s %10s %10s %9s %9s\n", "k", "monolithic",
                "composed", "cold", "warm", "hit rate", "verdict");
    js << ",\"modular\":[";
    for (int k : {3, 4, 5, 6}) {
        flat::CompiledProgram cp = flat::compile(wide_program(k));
        dfa::DfaOptions mono_opt;
        mono_opt.max_states = 200000;
        auto m0 = std::chrono::steady_clock::now();
        dfa::Dfa mono = dfa::Dfa::build(cp, mono_opt);
        auto m1 = std::chrono::steady_clock::now();
        double mono_ms = std::chrono::duration<double, std::milli>(m1 - m0).count();

        std::string dir = std::filesystem::temp_directory_path() /
                          ("ceu_bench_modular_" + std::to_string(k));
        std::filesystem::remove_all(dir);
        analysis::ModularOptions mopt;
        mopt.explore.max_states = 200000;
        mopt.cache_dir = dir;
        auto c0 = std::chrono::steady_clock::now();
        analysis::ModularOutcome cold = analysis::explore_modular(cp, mopt);
        auto c1 = std::chrono::steady_clock::now();
        double cold_ms = std::chrono::duration<double, std::milli>(c1 - c0).count();
        auto w0 = std::chrono::steady_clock::now();
        analysis::ModularOutcome warm = analysis::explore_modular(cp, mopt);
        auto w1 = std::chrono::steady_clock::now();
        double warm_ms = std::chrono::duration<double, std::milli>(w1 - w0).count();
        std::filesystem::remove_all(dir);

        double hit_rate = warm.groups.empty()
                              ? 0.0
                              : static_cast<double>(warm.cache.hits) /
                                    static_cast<double>(warm.groups.size());
        // The equivalence gate rides along: same verdict, same completeness,
        // and the warm run must re-explore nothing.
        bool equivalent = mono.deterministic() == warm.conflicts.empty() &&
                          mono.complete() == warm.complete &&
                          warm.states_explored == 0;
        std::printf("%4d %12zu %12zu %8.1fms %8.1fms %8.0f%% %9s\n", k,
                    mono.state_count(), cold.states_total, cold_ms, warm_ms,
                    hit_rate * 100.0, equivalent ? "identical" : "MISMATCH");
        js << (k > 3 ? "," : "") << "{\"k\":" << k
           << ",\"mono_states\":" << mono.state_count()
           << ",\"mono_ms\":" << mono_ms
           << ",\"composed_states\":" << cold.states_total
           << ",\"groups\":" << cold.groups.size()
           << ",\"cold_ms\":" << cold_ms << ",\"warm_ms\":" << warm_ms
           << ",\"warm_states_explored\":" << warm.states_explored
           << ",\"hit_rate\":" << hit_rate
           << ",\"equivalent\":" << (equivalent ? "true" : "false") << "}";
    }
    js << "]";

    // The parallel sweep only means something relative to the box it ran
    // on: record the thread count so a 1-core artifact is not mistaken
    // for a scaling regression.
    js << ",\"hw_threads\":" << std::thread::hardware_concurrency();
    js << ",\"pinned\":" << (pin ? "true" : "false");
    js << ",\"schema\":\"ceu-bench-dfa-v3\"}";

    if (!json_path.empty()) {
        std::ofstream f(json_path, std::ios::binary);
        if (!f.good()) {
            std::fprintf(stderr, "bench_dfa_scaling: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        f << js.str() << "\n";
        std::printf("\nwrote %s\n", json_path.c_str());
    }

    std::printf("\npaper check: exponential growth in sweep 1, millisecond-scale\n"
                "analysis of every real demo program in sweep 2, and an\n"
                "order-normalized-identical automaton from every jobs setting in\n"
                "sweep 3 (speedup scales with available cores).\n");
    return 0;
}

// perfbench — the repository benchmark. One seeded workload per run:
//
//   perfbench --workload serve-inject|serve-migrate|fleet-mix|compile-lint
//             --seed N --seconds S --trace 0|1 [--root DIR] [--work-dir DIR]
//   perfbench --list-metrics
//
// Prints a human-readable report (machine stamp, seed, every metric by name
// with its unit, failures), then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit status is 0
// only when every output check passed. See perfbench/README.md.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

// -- global-allocator meter ---------------------------------------------------
// Counting ::operator new lets the fleet workload window allocator traffic
// over its measured rounds (reactor.steady_alloc_bytes).
namespace {
std::atomic<uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t alloc_bytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

void report_trace_overhead(Report& r, double untraced_p50_us, double traced_p50_us) {
    r.metric("trace.overhead_pct", (traced_p50_us / untraced_p50_us - 1.0) * 100.0, "%");
}

namespace {

struct Declared {
    const char* name;
    const char* unit;
};

// The metrics the result line carries; BENCHMARK.json declares the same
// names and units (run.py --selftest checks that they agree).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"throughput_per_s", "1/s"},
};

constexpr Declared kPerLayer[] = {
    {"lexer.ms", "ms"},
    {"lexer.tokens", "count"},
    {"parser.ms", "ms"},
    {"sema.ms", "ms"},
    {"codegen.flatten_ms", "ms"},
    {"codegen.instructions", "count"},
    {"analysis.explore_ms", "ms"},
    {"analysis.states", "count"},
    {"runtime.ns_per_reaction", "ns"},
    {"host.ns_per_reaction", "ns"},
    {"aot.ns_per_reaction", "ns"},
    {"reactor.ns_per_reaction_1w", "ns"},
    {"host.overhead_ns", "ns"},
    {"reactor.overhead_ns", "ns"},
    {"cgen.emit_ms", "ms"},
    {"cgen.c_bytes", "B"},
    {"aot.build_ms", "ms"},
    {"aot.ctx_bytes", "B"},
    {"snapshot.save_us", "us"},
    {"snapshot.load_us", "us"},
    {"snapshot.blob_bytes", "B"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.bytes_per_inject", "B"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve-inject|serve-migrate|fleet-mix|"
                 "compile-lint --seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--work-dir DIR]\n"
                 "       perfbench --list-metrics\n");
    return 2;
}

std::string json_str(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void list_metrics() {
    std::printf("{\"end_to_end\": [");
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
        std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kEndToEnd[i].name, kEndToEnd[i].unit);
    }
    std::printf("], \"per_layer\": [");
    for (size_t i = 0; i < std::size(kPerLayer); ++i) {
        std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kPerLayer[i].name, kPerLayer[i].unit);
    }
    std::printf("]}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--list-metrics") {
                list_metrics();
                return 0;
            } else if (a == "--workload") {
                opt.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(value());
            } else if (a == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (a == "--trace") {
                opt.trace = std::stoi(value()) != 0;
            } else if (a == "--root") {
                opt.root = value();
            } else if (a == "--work-dir") {
                opt.work_dir = value();
            } else {
                return usage();
            }
        } catch (const std::exception&) {
            return usage();
        }
    }
    if (!have_workload || opt.seconds <= 0) return usage();
    if (opt.work_dir.empty()) opt.work_dir = opt.root + "/.bench_build/work";

    Machine m = probe_machine();
    opt.allowed_cpus = m.allowed_cpus;
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("machine nproc=%zu allowed_cpus=%zu hardware_concurrency=%u compiler=\"%s\" "
                "build_type=%s\n",
                m.nproc, m.allowed_cpus, m.hw_concurrency, m.compiler.c_str(),
                m.build_type.c_str());
    std::fflush(stdout);

    Report r;
    try {
        std::filesystem::create_directories(opt.work_dir);
        if (opt.trace) SpanLog::get().enable(size_t{2} << 20);
        if (opt.workload == "serve-inject") {
            run_serve_inject(opt, r);
        } else if (opt.workload == "serve-migrate") {
            run_serve_migrate(opt, r);
        } else if (opt.workload == "fleet-mix") {
            run_fleet_mix(opt, r);
        } else if (opt.workload == "compile-lint") {
            run_compile_lint(opt, r);
        } else {
            return usage();
        }
        release_threads();
        if (opt.trace) {
            SpanLog::get().set_enabled(true);
            run_layer_probes(opt, r);
            r.metric("trace.spans", static_cast<double>(SpanLog::get().spans().size()), "count");
            r.metric("trace.spans_dropped", static_cast<double>(SpanLog::get().dropped()), "count");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("ops_failed_frac",
             r.attempted() == 0 ? 1.0
                                : static_cast<double>(r.failed()) /
                                      static_cast<double>(r.attempted()),
             "ratio");

    // The report: every metric this run produced, then span totals.
    for (const auto& [name, mt] : r.metrics()) {
        std::printf("metric %-34s %16.6g %s\n", name.c_str(), mt.value, mt.unit.c_str());
    }
    if (opt.trace) {
        for (const auto& [name, t] : SpanLog::get().totals()) {
            std::printf("span   %-34s count=%llu total_ms=%.3f self_ms=%.3f\n", name.c_str(),
                        static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
        }
    }
    for (const std::string& e : r.errors()) std::printf("FAILED %s\n", e.c_str());

    // The result line: exactly the declared metrics of this run kind.
    bool complete = true;
    std::ostringstream metrics;
    bool first = true;
    auto emit = [&](const Declared& d) {
        if (!r.has(d.name)) {
            std::printf("FAILED metric %s was not measured\n", d.name);
            complete = false;
            return;
        }
        metrics << (first ? "" : ", ") << json_str(d.name) << ": {\"value\": " << num(r.get(d.name))
                << ", \"unit\": " << json_str(d.unit) << "}";
        first = false;
    };
    if (opt.trace) {
        for (const Declared& d : kPerLayer) emit(d);
    } else {
        for (const Declared& d : kEndToEnd) emit(d);
    }
    bool correct = complete && r.failed() == 0 && r.attempted() > 0;

    // Everything, for later comparison: machine, seed, all metrics, spans.
    std::string stem = opt.work_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                       "-trace" + (opt.trace ? "1" : "0");
    {
        std::ofstream f(stem + ".json", std::ios::binary);
        f << "{\"workload\": " << json_str(opt.workload) << ", \"seed\": " << opt.seed
          << ", \"seconds\": " << num(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
          << ", \"machine\": {\"nproc\": " << m.nproc << ", \"allowed_cpus\": "
          << m.allowed_cpus << ", \"hardware_concurrency\": " << m.hw_concurrency
          << ", \"compiler\": " << json_str(m.compiler)
          << ", \"build_type\": " << json_str(m.build_type) << "}, \"correct\": "
          << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted()
          << ", \"failed\": " << r.failed() << ", \"metrics\": {";
        bool f1 = true;
        for (const auto& [name, mt] : r.metrics()) {
            f << (f1 ? "" : ", ") << json_str(name) << ": {\"value\": " << num(mt.value)
              << ", \"unit\": " << json_str(mt.unit) << "}";
            f1 = false;
        }
        f << "}}\n";
    }
    if (opt.trace && !SpanLog::get().write(stem + ".spans.json")) {
        std::fprintf(stderr, "perfbench: cannot write %s.spans.json\n", stem.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(r.attempted()),
                static_cast<unsigned long long>(r.failed()), metrics.str().c_str());
    return correct ? 0 : 1;
}

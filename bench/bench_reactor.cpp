// E12 — reactor scaling: aggregate throughput and boot memory of the
// sharded multi-instance scheduler (src/reactor/) across a worker x fleet
// matrix ({1,2,4,8} workers x {1k,10k,100k} instances of a mixed
// counter/ticker/async program set).
//
// Two claims are measured:
//   - throughput: aggregate reactions/s across the fleet while injecting a
//     fixed event budget and advancing the fleet clock (timer load rides
//     along); with >= 4 hardware threads, 8 workers must hold >= 0.8x of
//     1 worker (the --check gate — the margin absorbs noisy-neighbor
//     variance on shared runners; the strict 8v1 speedup is reported in
//     the JSON as a metric, and the determinism suite separately asserts
//     the traces are byte-identical);
//   - boot memory: RSS growth per instance while building+booting the
//     fleet — the shared-program handle keeps this to per-instance *state*
//     (slots, gates, queues), not code.
//
// --json[=PATH] writes BENCH_reactor.json; --quick caps the fleet at 10k
// for smoke runs; --pin pins the reactor workers (and this thread) to the
// process's allowed CPUs, cpuset-aware. Threshold gating lives in
// scripts/bench_gate.py, which reads the JSON this binary writes.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

#include "aot/aot.hpp"
#include "codegen/flatten.hpp"
#include "host/instance.hpp"
#include "reactor/reactor.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

// -- global-allocator meter ---------------------------------------------------
// Replacing ::operator new/delete lets the bench *prove* the steady-state
// claim (a warmed fleet reacts without touching the global allocator)
// instead of inferring it from RSS deltas, which attribute arena slack,
// allocator caching, and page-cache noise to whatever ran last. Counting
// is two relaxed atomics per call — noise next to malloc itself.
namespace {
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(n);
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

namespace {

using namespace ceu;

/// Scoped pin of the *calling* thread to the first allowed CPU, restoring
/// the previous mask on destruction. Used for the 1-worker cells (which
/// run inline on this thread); it must not outlive the cell — worker
/// threads inherit the spawning thread's mask, so a process-lifetime pin
/// here would collapse every later multi-worker cell onto one core.
class ScopedPin {
  public:
    explicit ScopedPin(bool enable) {
#if defined(__linux__)
        if (!enable) return;
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_)) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(c, &one);
                if (sched_setaffinity(0, sizeof one, &one) == 0) active_ = true;
                return;
            }
        }
#else
        (void)enable;
#endif
    }
    ~ScopedPin() {
#if defined(__linux__)
        if (active_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
#endif
    }
    ScopedPin(const ScopedPin&) = delete;
    ScopedPin& operator=(const ScopedPin&) = delete;

  private:
#if defined(__linux__)
    cpu_set_t saved_{};
#endif
    bool active_ = false;
};

constexpr const char* kCounter = R"(
    input int ADD;
    input void STOP;
    int total = 0;
    int v = 0;
    par do
       loop do
          v = await ADD;
          total = total + v;
       end
    with
       await STOP;
       return total;
    end
)";

constexpr const char* kTicker = R"(
    input void STOP;
    int n = 0;
    par do
       loop do
          await 10ms;
          n = n + 1;
       end
    with
       await STOP;
       return n;
    end
)";

constexpr const char* kAsyncStep = R"(
    input void STOP;
    int r = 0;
    par do
       r = async do
          int acc = 0;
          int i = 0;
          loop do
             i = i + 1;
             acc = acc + i;
             if i == 5000 then break; end
          end
          return acc;
       end;
       await STOP;
    with
       await STOP;
       return r;
    end
)";

struct Cell {
    size_t workers = 0;
    size_t instances = 0;
    double boot_ms = 0;
    double bytes_per_instance = 0;   // exact per-member state (engine RAM
                                     // model / compiled ctx), not RSS delta
    uint64_t steady_alloc_bytes = 0; // ::operator new during measured rounds
    uint64_t steady_alloc_calls = 0;
    uint64_t steals = 0;
    uint64_t steal_failures = 0;
    uint64_t phase_ns[4] = {0, 0, 0, 0};  // restarts/events/timers/asyncs
    uint64_t reactions = 0;
    double ms = 0;
    double reactions_per_sec = 0;
};

/// `img` non-null switches the whole fleet to the AOT-compiled backend:
/// same three programs, every member one calloc'd C context driven through
/// the shared-object descriptors (the `compiled` series).
Cell run_cell(size_t workers, size_t instances,
              const std::shared_ptr<const flat::CompiledProgram>& counter,
              const std::shared_ptr<const flat::CompiledProgram>& ticker,
              const std::shared_ptr<const flat::CompiledProgram>& async_step,
              const std::shared_ptr<const aot::FleetImage>& img = nullptr,
              bool pin = false) {
    Cell cell;
    cell.workers = workers;
    cell.instances = instances;

    // 1-worker rounds run inline on this thread; multi-worker cells leave
    // the control thread free-floating and pin the pool via pin_workers.
    ScopedPin self_pin(pin && workers == 1);

    auto b0 = std::chrono::steady_clock::now();

    reactor::ReactorConfig rc;
    rc.workers = workers;
    rc.seed = 42;
    rc.collect_traces = false;
    rc.observe_stats = true;
    rc.pin_workers = pin;
    reactor::Reactor r(rc);
    for (size_t i = 0; i < instances; ++i) {
        host::Config hc;
        if (img) hc.aot = img->program(i % 3);
        switch (i % 3) {
            case 0: r.add_instance(counter, hc); break;
            case 1: r.add_instance(ticker, hc); break;
            default: r.add_instance(async_step, hc); break;
        }
    }
    r.boot();

    auto b1 = std::chrono::steady_clock::now();
    cell.boot_ms = std::chrono::duration<double, std::milli>(b1 - b0).count();
    // Exact attribution: each member reports its own state footprint (the
    // interpreter's RAM model or the compiled context), so the number is
    // per-instance *state* by construction — no RSS delta to contaminate
    // with arena slack or allocator caching.
    size_t state_total = 0;
    for (size_t i = 0; i < instances; ++i) {
        state_total += r.instance(static_cast<reactor::InstanceId>(i)).state_bytes();
    }
    cell.bytes_per_instance =
        static_cast<double>(state_total) / static_cast<double>(instances);

    // Fixed total event budget so every fleet size does comparable work;
    // each round injects one ADD per counter member, then advances one
    // 10ms period (every ticker fires) and drains (asyncs step).
    size_t rounds = std::max<size_t>(2, 200'000 / std::max<size_t>(1, instances / 3));
    auto one_round = [&] {
        for (size_t i = 0; i < instances; i += 3) {
            r.inject(static_cast<reactor::InstanceId>(i), EventId{0},
                     rt::Value::integer(1));
        }
        r.advance(10 * kMs);
        r.drain();
    };
    // Warmup: grow the shard inboxes and round scratch vectors to steady
    // capacity, so the measured loop shows the steady state.
    one_round();
    one_round();

    uint64_t before = r.fleet_stats().reactions;
    uint64_t alloc_bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
    uint64_t alloc_calls0 = g_alloc_calls.load(std::memory_order_relaxed);
    auto t0 = std::chrono::steady_clock::now();
    for (size_t round = 0; round < rounds; ++round) one_round();
    auto t1 = std::chrono::steady_clock::now();
    cell.steady_alloc_bytes =
        g_alloc_bytes.load(std::memory_order_relaxed) - alloc_bytes0;
    cell.steady_alloc_calls =
        g_alloc_calls.load(std::memory_order_relaxed) - alloc_calls0;
    cell.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    obs::ProcessStats after = r.fleet_stats();
    cell.reactions = after.reactions - before;
    cell.steals = after.steals;
    cell.steal_failures = after.steal_failures;
    for (size_t k = 0; k < 4; ++k) cell.phase_ns[k] = after.phase_ns[k];
    cell.reactions_per_sec =
        cell.ms > 0 ? static_cast<double>(cell.reactions) * 1000.0 / cell.ms : 0.0;
    return cell;
}

struct CheckpointMetrics {
    size_t instances = 0;
    double bytes_per_instance = 0;
    double save_us_per_instance = 0;
    double restore_us_per_instance = 0;
};

/// E13 — checkpoint cost: serialize and restore every member of a warmed
/// mixed fleet; reports blob size and save/restore latency per instance.
CheckpointMetrics run_checkpoint_bench(
    size_t instances, const std::shared_ptr<const flat::CompiledProgram>& counter,
    const std::shared_ptr<const flat::CompiledProgram>& ticker,
    const std::shared_ptr<const flat::CompiledProgram>& async_step) {
    CheckpointMetrics m;
    m.instances = instances;

    reactor::ReactorConfig rc;
    rc.seed = 42;
    reactor::Reactor r(rc);
    for (size_t i = 0; i < instances; ++i) {
        switch (i % 3) {
            case 0: r.add_instance(counter); break;
            case 1: r.add_instance(ticker); break;
            default: r.add_instance(async_step); break;
        }
    }
    r.boot();
    // Warm the fleet so snapshots carry real state: armed timers, queued
    // values, asyncs mid-computation.
    for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < instances; i += 3) {
            r.inject(static_cast<reactor::InstanceId>(i), EventId{0},
                     rt::Value::integer(1));
        }
        r.advance(10 * kMs);
        r.run_round();
    }

    std::vector<std::vector<uint8_t>> blobs;
    blobs.reserve(instances);
    size_t total_bytes = 0;
    auto s0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < instances; ++i) {
        blobs.push_back(r.instance(static_cast<reactor::InstanceId>(i)).save());
        total_bytes += blobs.back().size();
    }
    auto s1 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < instances; ++i) {
        r.instance(static_cast<reactor::InstanceId>(i)).load(blobs[i]);
    }
    auto s2 = std::chrono::steady_clock::now();

    double n = static_cast<double>(instances);
    m.bytes_per_instance = static_cast<double>(total_bytes) / n;
    m.save_us_per_instance =
        std::chrono::duration<double, std::micro>(s1 - s0).count() / n;
    m.restore_us_per_instance =
        std::chrono::duration<double, std::micro>(s2 - s1).count() / n;
    return m;
}

struct ServeMetrics {
    size_t sessions = 0;
    double open_sessions_per_sec = 0;
    double injects_per_sec = 0;
    double inject_p50_us = 0;
    double inject_p99_us = 0;
};

/// E16 — the network front door: a loopback CEUWIRE1 server, one client
/// connection. Measures session-open throughput (create-on-connect rate)
/// and the synchronous inject-to-InjectReply round trip (p50/p99 — the
/// latency a remote driver actually observes, socket included).
ServeMetrics run_serve_bench(size_t sessions) {
    ServeMetrics m;
    m.sessions = sessions;

    serve::Registry reg;
    reg.add("counter", kCounter);
    serve::ServerConfig cfg;
    cfg.workers = 2;
    serve::Server server(std::move(reg), cfg);
    server.start();

    serve::Client client;
    client.connect(server.port());

    auto t0 = std::chrono::steady_clock::now();
    std::vector<uint64_t> ids;
    ids.reserve(sessions);
    for (size_t i = 0; i < sessions; ++i) ids.push_back(client.open());
    auto t1 = std::chrono::steady_clock::now();
    double open_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.open_sessions_per_sec =
        open_ms > 0 ? static_cast<double>(sessions) * 1000.0 / open_ms : 0.0;

    // Inject latency: individually timed round trips, spread across the
    // fleet so the session map and shard dispatch are exercised, not one
    // hot member.
    const size_t kSamples = 2'000;
    std::vector<double> lat_us;
    lat_us.reserve(kSamples);
    auto i0 = std::chrono::steady_clock::now();
    for (size_t k = 0; k < kSamples; ++k) {
        uint64_t id = ids[k % ids.size()];
        auto s0 = std::chrono::steady_clock::now();
        client.inject(id, "ADD", 1);
        auto s1 = std::chrono::steady_clock::now();
        lat_us.push_back(std::chrono::duration<double, std::micro>(s1 - s0).count());
    }
    auto i1 = std::chrono::steady_clock::now();
    double inject_ms = std::chrono::duration<double, std::milli>(i1 - i0).count();
    m.injects_per_sec =
        inject_ms > 0 ? static_cast<double>(kSamples) * 1000.0 / inject_ms : 0.0;
    std::sort(lat_us.begin(), lat_us.end());
    m.inject_p50_us = lat_us[lat_us.size() / 2];
    m.inject_p99_us = lat_us[lat_us.size() * 99 / 100];

    client.bye();
    server.request_stop();
    server.wait();
    return m;
}

/// One cell as a JSON object (sorted-ish stable key order; schema v5).
void emit_cell(std::ostringstream& js, const Cell& c, bool first) {
    js << (first ? "" : ",") << "{\"workers\":" << c.workers
       << ",\"instances\":" << c.instances << ",\"boot_ms\":" << c.boot_ms
       << ",\"bytes_per_instance\":" << c.bytes_per_instance
       << ",\"steady_alloc_bytes\":" << c.steady_alloc_bytes
       << ",\"steady_alloc_calls\":" << c.steady_alloc_calls
       << ",\"steals\":" << c.steals
       << ",\"steal_failures\":" << c.steal_failures
       << ",\"phase_ns\":{\"restarts\":" << c.phase_ns[0]
       << ",\"events\":" << c.phase_ns[1] << ",\"timers\":" << c.phase_ns[2]
       << ",\"asyncs\":" << c.phase_ns[3] << "}"
       << ",\"reactions\":" << c.reactions << ",\"ms\":" << c.ms
       << ",\"reactions_per_sec\":" << c.reactions_per_sec << "}";
}

void print_cell(const Cell& c) {
    std::printf("%8zu %10zu %8.0fms %12.0fB %14llu %11.0f/s %9llu\n", c.workers,
                c.instances, c.boot_ms, c.bytes_per_instance,
                static_cast<unsigned long long>(c.reactions), c.reactions_per_sec,
                static_cast<unsigned long long>(c.steals));
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    bool quick = false;
    bool pin = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_path = (i + 1 < argc) ? argv[++i] : "BENCH_reactor.json";
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--pin") == 0) {
            pin = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            std::fprintf(stderr,
                         "bench_reactor: --check moved to scripts/bench_gate.py "
                         "(run with --json and gate the artifact)\n");
            return 2;
        } else {
            std::fprintf(stderr, "usage: %s [--json[=PATH]] [--quick] [--pin]\n",
                         argv[0]);
            return 2;
        }
    }

    unsigned hw = std::thread::hardware_concurrency();
    std::printf("== Reactor scaling (sharded multi-instance scheduler) ==\n");
    std::printf("(hardware concurrency: %u threads%s)\n\n", hw,
                pin ? ", pinned" : "");
    std::printf("%8s %10s %10s %14s %14s %14s %9s\n", "workers", "instances",
                "boot", "state/inst", "reactions", "aggregate", "steals");

    auto counter = std::make_shared<const flat::CompiledProgram>(flat::compile(kCounter));
    auto ticker = std::make_shared<const flat::CompiledProgram>(flat::compile(kTicker));
    auto async_step =
        std::make_shared<const flat::CompiledProgram>(flat::compile(kAsyncStep));

    std::vector<size_t> fleet_sizes = {1'000, 10'000, 100'000};
    if (quick) fleet_sizes.pop_back();
    const size_t worker_counts[] = {1, 2, 4, 8};

    std::ostringstream js;
    js << "{\"hw_threads\":" << hw << ",\"pinned\":" << (pin ? "true" : "false")
       << ",\"cells\":[";
    double rps_1w_10k = 0;
    double rps_8w_10k = 0;
    uint64_t steady_alloc_1w_10k = 0;
    bool first = true;
    for (size_t instances : fleet_sizes) {
        for (size_t workers : worker_counts) {
            Cell c = run_cell(workers, instances, counter, ticker, async_step,
                              nullptr, pin);
            print_cell(c);
            emit_cell(js, c, first);
            first = false;
            if (instances == 10'000 && workers == 1) {
                rps_1w_10k = c.reactions_per_sec;
                steady_alloc_1w_10k = c.steady_alloc_bytes;
            }
            if (instances == 10'000 && workers == 8) rps_8w_10k = c.reactions_per_sec;
        }
    }
    double speedup = rps_1w_10k > 0 ? rps_8w_10k / rps_1w_10k : 0.0;

    // The compiled series: the same fleet mix with every member on the
    // AOT backend (one shared object for the three programs). Skipped —
    // with an explicit note in the JSON — when the host has no C compiler.
    std::string aot_err;
    std::shared_ptr<const aot::FleetImage> img;
    if (aot::toolchain_available()) {
        std::vector<std::shared_ptr<const flat::CompiledProgram>> programs = {
            counter, ticker, async_step};
        img = aot::FleetImage::build(programs, {}, &aot_err);
    } else {
        aot_err = "aot: no host C compiler";
    }
    double rps_compiled_1w_10k = 0;
    js << "],\"compiled_cells\":[";
    if (img) {
        std::printf("\n-- compiled (AOT) fleet --\n");
        first = true;
        for (size_t instances : fleet_sizes) {
            for (size_t workers : worker_counts) {
                Cell c = run_cell(workers, instances, counter, ticker, async_step,
                                  img, pin);
                print_cell(c);
                emit_cell(js, c, first);
                first = false;
                if (instances == 10'000 && workers == 1) {
                    rps_compiled_1w_10k = c.reactions_per_sec;
                }
            }
        }
    } else {
        std::fprintf(stderr, "compiled series skipped: %s\n", aot_err.c_str());
    }
    double compiled_vs_interp =
        rps_1w_10k > 0 ? rps_compiled_1w_10k / rps_1w_10k : 0.0;

    CheckpointMetrics ck = run_checkpoint_bench(quick ? 1'000 : 10'000, counter,
                                                ticker, async_step);
    ServeMetrics sv = run_serve_bench(quick ? 1'000 : 5'000);
    js << "],\"speedup_8v1_10k\":" << speedup
       << ",\"compiled_vs_interp_10k\":" << compiled_vs_interp
       << ",\"steady_alloc_bytes_1w_10k\":" << steady_alloc_1w_10k
       << ",\"checkpoint\":{\"instances\":"
       << ck.instances << ",\"bytes_per_instance\":" << ck.bytes_per_instance
       << ",\"save_us_per_instance\":" << ck.save_us_per_instance
       << ",\"restore_us_per_instance\":" << ck.restore_us_per_instance
       << "},\"serve\":{\"sessions\":" << sv.sessions
       << ",\"open_sessions_per_sec\":" << sv.open_sessions_per_sec
       << ",\"injects_per_sec\":" << sv.injects_per_sec
       << ",\"inject_p50_us\":" << sv.inject_p50_us
       << ",\"inject_p99_us\":" << sv.inject_p99_us
       << "},\"schema\":\"ceu-bench-reactor-v5\"}";

    std::printf("\n8-worker vs 1-worker aggregate on the 10k mix: %.2fx\n", speedup);
    std::printf("steady-state global-allocator traffic (1 worker, 10k mix): "
                "%llu bytes\n",
                static_cast<unsigned long long>(steady_alloc_1w_10k));
    if (img) {
        std::printf("compiled vs interpreted (1 worker, 10k mix): %.2fx\n",
                    compiled_vs_interp);
    }
    std::printf(
        "checkpoint (%zu-instance mix): %.0f B/inst, save %.2f us/inst, "
        "restore %.2f us/inst\n",
        ck.instances, ck.bytes_per_instance, ck.save_us_per_instance,
        ck.restore_us_per_instance);
    std::printf(
        "serve (loopback, %zu sessions): open %.0f sessions/s, "
        "inject %.0f/s, inject-to-reply p50 %.1f us p99 %.1f us\n",
        sv.sessions, sv.open_sessions_per_sec, sv.injects_per_sec,
        sv.inject_p50_us, sv.inject_p99_us);

    if (!json_path.empty()) {
        std::ofstream f(json_path, std::ios::binary);
        if (!f.good()) {
            std::fprintf(stderr, "bench_reactor: cannot write %s\n", json_path.c_str());
            return 1;
        }
        f << js.str() << "\n";
        std::printf("wrote %s\n", json_path.c_str());
    }

    return 0;
}

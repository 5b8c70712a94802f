// E6 — the §6 blink experiment: two leds at 400ms and 1000ms should light
// together every 2 seconds. The synchronous Céu program stays aligned
// forever (both timers expire in the same reaction chain); the naive
// asynchronous implementations (preemptive RTOS threads, and an
// occam-style channel setup modeled as threads with a timer-server hop)
// lose synchronism as scheduling latency accumulates.
#include <cmath>
#include <cstdio>
#include <vector>

#include "codegen/flatten.hpp"
#include "host/instance.hpp"
#include "wsn/mantis_runtime.hpp"

namespace {

using namespace ceu;

// -- Céu side -----------------------------------------------------------------

const char* kCeuBlink = R"(
    par do
       loop do
          _led0_toggle();
          await 400ms;
       end
    with
       loop do
          _led1_toggle();
          await 1000ms;
       end
    end
)";

struct Toggles {
    std::vector<Micros> led0, led1;
};

Toggles run_ceu(Micros horizon) {
    Toggles t;
    flat::CompiledProgram cp = flat::compile(kCeuBlink, "blink.ceu");
    rt::CBindings extra;
    // The two toggles are concurrent every 2s; they commute.
    extra.fn("led0_toggle", [&t](rt::Engine& e, std::span<const rt::Value>) {
        t.led0.push_back(e.logical_now());
        return rt::Value::integer(0);
    });
    extra.fn("led1_toggle", [&t](rt::Engine& e, std::span<const rt::Value>) {
        t.led1.push_back(e.logical_now());
        return rt::Value::integer(0);
    });
    host::Instance d(cp, {.bindings = &extra});
    d.run(env::Script().advance(horizon));
    return t;
}

// -- asynchronous baselines ------------------------------------------------------

Toggles run_threads(Micros horizon, wsn::MantisConfig cfg) {
    wsn::MantisKernel k(cfg);
    auto* b0 = new wsn::MantisBlinkThread(400 * kMs);
    auto* b1 = new wsn::MantisBlinkThread(1000 * kMs);
    k.add(std::unique_ptr<wsn::MantisThread>(b0));
    k.add(std::unique_ptr<wsn::MantisThread>(b1));
    k.boot(0);
    for (uint64_t guard = 0; guard < 5'000'000; ++guard) {
        Micros e = k.next_event();
        if (e < 0 || e > horizon) break;
        k.advance(e);
    }
    Toggles t;
    for (const auto& [at, on] : b0->toggles) t.led0.push_back(at);
    for (const auto& [at, on] : b1->toggles) t.led1.push_back(at);
    return t;
}

/// Misalignment at each ideal joint instant (multiples of 2s): distance
/// between the nearest led0 toggle and the nearest led1 toggle.
std::vector<double> joint_misalignment(const Toggles& t, Micros horizon) {
    std::vector<double> out;
    auto nearest = [](const std::vector<Micros>& v, Micros x) {
        Micros best = -1;
        for (Micros e : v) {
            if (best < 0 || std::llabs(e - x) < std::llabs(best - x)) best = e;
        }
        return best;
    };
    for (Micros joint = 2 * kSec; joint <= horizon; joint += 2 * kSec) {
        Micros a = nearest(t.led0, joint);
        Micros b = nearest(t.led1, joint);
        if (a < 0 || b < 0) break;
        out.push_back(std::fabs(static_cast<double>(a - b)) / kMs);
    }
    return out;
}

void print_series(const char* name, const std::vector<double>& mis) {
    std::printf("%-22s", name);
    // One sample every 30 joints (every minute), plus the last.
    for (size_t i = 14; i < mis.size(); i += 30) std::printf(" %7.1f", mis[i]);
    double worst = 0;
    for (double m : mis) worst = std::max(worst, m);
    std::printf("   worst=%.1fms\n", worst);
}

}  // namespace

int main() {
    constexpr Micros kHorizon = 10 * kMin;
    std::printf("== Blink synchronism: 400ms + 1000ms leds over 10 minutes ==\n");
    std::printf("(led0/led1 misalignment in ms at the 2s joint instants; one "
                "column per minute)\n\n");

    Toggles ceu_t = run_ceu(kHorizon);
    print_series("Ceu (synchronous)", joint_misalignment(ceu_t, kHorizon));

    wsn::MantisConfig rtos;
    Toggles rtos_t = run_threads(kHorizon, rtos);
    print_series("RTOS threads (naive)", joint_misalignment(rtos_t, kHorizon));

    wsn::MantisConfig occam;  // channel hop through a timer server: slower wakes
    occam.wake_latency = 700;
    occam.ctx_switch = 250;
    Toggles occam_t = run_threads(kHorizon, occam);
    print_series("occam-style (naive)", joint_misalignment(occam_t, kHorizon));

    auto mis = joint_misalignment(ceu_t, kHorizon);
    bool ceu_perfect = true;
    for (double m : mis) ceu_perfect = ceu_perfect && m == 0.0;
    std::printf("\npaper check: the Ceu leds light together at every 2s joint "
                "(drift 0) while the\nasynchronous variants drift apart: %s\n",
                ceu_perfect ? "OK" : "MISMATCH");
    return ceu_perfect ? 0 : 1;
}

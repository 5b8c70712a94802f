// Self-tests of the benchmark's own accounting (run by `run.py --selftest`):
// percentile selection and open-loop latency charging.
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++g_failures;
    } else {
        std::printf("ok   %s\n", what);
    }
}

void percentile_keeps_a_tail() {
    using namespace perfbench;
    // Every reportable percentile leaves >= kTailSamples samples beyond it.
    for (double p : {0.5, 0.9, 0.99, 0.999}) {
        size_t need = min_samples_for(p);
        bool ok = samples_beyond(need, p) >= kTailSamples &&
                  samples_beyond(need - 1, p) < kTailSamples;
        for (size_t n = need; n < need + 2000 && ok; ++n) ok = samples_beyond(n, p) >= kTailSamples;
        expect(ok, "min_samples_for(p) is the smallest n with >= 10 samples beyond");
    }
    expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");

    std::vector<double> v(999);
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
    expect(!percentile(v, 0.99).has_value(), "p99 of 999 samples is refused");
    v.push_back(999);
    auto p99 = percentile(v, 0.99);
    size_t above = 0;
    for (double x : v) above += x > *p99 ? 1 : 0;
    expect(p99.has_value() && above >= kTailSamples, "p99 of 1000 samples keeps 10 above it");
    std::vector<double> small(19, 1.0);
    expect(!percentile(small, 0.5).has_value(), "p50 of 19 samples is refused");
}

void group_medians_resist_a_stall() {
    using namespace perfbench;
    // Five groups of 100 samples; one group is spoiled by a stall.
    std::vector<double> v;
    for (int g = 0; g < 5; ++g) {
        for (int i = 0; i < 100; ++i) v.push_back(g == 2 ? 5000.0 + i : 100.0 + i);
    }
    auto p90 = median_of_groups(v, 100, 0.9);
    expect(p90.has_value() && *p90 == 189.0, "a stalled group does not move the group median");
    expect(!median_of_groups(v, 200, 0.9).has_value(), "fewer than three full groups is refused");
    std::vector<double> tiny(5 * 15, 1.0);
    expect(!median_of_groups(tiny, 15, 0.9).has_value(), "a group without a 10-sample tail is refused");
}

void open_loop_charges_stalls() {
    using namespace perfbench;
    // Ten injects due 1 ms apart on one session. The server stalls: the
    // first answer only arrives at t = 20 ms, and the rest are answered
    // right behind it. Each inject is charged from its due time, so the
    // ones queued behind the stall carry the wait they were made to do.
    constexpr int64_t ms = 1'000'000;
    OpenLoopLedger ledger;
    for (int k = 0; k < 10; ++k) {
        size_t id = ledger.due(7, k * ms, k);
        ledger.sent(id, k * ms);
    }
    for (int k = 0; k < 10; ++k) ledger.answer(7, 20 * ms + k * 10'000);
    bool charged = true;
    for (size_t k = 0; k < 10; ++k) {
        double want_us = (20.0 - static_cast<double>(k)) * 1000.0 + static_cast<double>(k) * 10.0;
        charged = charged && ledger.latency_us(k) == want_us;
    }
    expect(charged, "a stalled reply is charged to every inject queued behind it");

    // A generator that fell behind sends late, but latency still runs from
    // the due time and the lateness shows up as lag.
    OpenLoopLedger late;
    size_t id = late.due(1, 0, 0);
    late.sent(id, 5 * ms);
    late.answer(1, 6 * ms);
    expect(late.latency_us(id) == 6000.0 && late.lag_us(id) == 5000.0,
           "latency counts from the due time; generator lateness is lag");

    // Answers match per session in FIFO order; a stray answer is reported.
    OpenLoopLedger two;
    size_t a0 = two.due(1, 0, 10);
    size_t b0 = two.due(2, 0, 20);
    size_t a1 = two.due(1, 0, 11);
    expect(two.answer(2, 1) == b0 && two.answer(1, 2) == a0 && two.answer(1, 3) == a1,
           "answers match the oldest outstanding inject of their session");
    expect(!two.answer(1, 4).has_value() && two.backlog() == 0,
           "an answer with nothing outstanding is detected");
}

}  // namespace

int main() {
    percentile_keeps_a_tail();
    group_medians_resist_a_stall();
    open_loop_charges_stalls();
    std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
    return g_failures == 0 ? 0 : 1;
}

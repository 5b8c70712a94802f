// Sample statistics and open-loop latency accounting for the benchmark.
//
// Header-only and free of ceu dependencies so the self-test binary can
// exercise exactly the code the workloads use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// A reported percentile must leave at least this many samples above it;
/// otherwise it is the maximum in disguise and swings run to run.
constexpr size_t kTailSamples = 10;

/// 0-based nearest-rank index of percentile `p` (0 < p < 1) in `n` samples.
[[nodiscard]] inline size_t rank_index(size_t n, double p) {
    auto r = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    return r == 0 ? 0 : std::min(r - 1, n - 1);
}

/// Samples strictly beyond the percentile's rank.
[[nodiscard]] inline size_t samples_beyond(size_t n, double p) {
    return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

/// Smallest sample count for which percentile `p` keeps kTailSamples beyond.
[[nodiscard]] inline size_t min_samples_for(double p) {
    size_t n = 1;
    while (samples_beyond(n, p) < kTailSamples) ++n;
    return n;
}

/// Nearest-rank percentile of `v` (sorted in place), or nullopt when fewer
/// than kTailSamples samples lie beyond it (p = 0.5 needs 20 samples).
[[nodiscard]] inline std::optional<double> percentile(std::vector<double>& v, double p) {
    if (samples_beyond(v.size(), p) < kTailSamples) return std::nullopt;
    std::sort(v.begin(), v.end());
    return v[rank_index(v.size(), p)];
}

/// Median of a small set (the repeated set-ups); no tail requirement.
[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The bounded latency metrics: `v` (in measurement order) is cut into
/// consecutive groups of `group` samples, percentile `p` is taken in each
/// full group, and the median of those is returned. A machine stall that
/// spoils one stretch of a run spoils one group, not the result. nullopt
/// unless there are at least three full groups, each with a tail of
/// kTailSamples beyond `p`.
[[nodiscard]] inline std::optional<double> median_of_groups(const std::vector<double>& v,
                                                            size_t group, double p) {
    std::vector<double> per_group;
    for (size_t begin = 0; begin + group <= v.size(); begin += group) {
        std::vector<double> g(v.begin() + static_cast<std::ptrdiff_t>(begin),
                              v.begin() + static_cast<std::ptrdiff_t>(begin + group));
        std::optional<double> q = percentile(g, p);
        if (!q) return std::nullopt;
        per_group.push_back(*q);
    }
    if (per_group.size() < 3) return std::nullopt;
    return median(per_group);
}

/// The bounded throughput metrics: events at `t_ns` (ascending, measured
/// from `t0_ns`) are cut into consecutive groups of `group` events, each
/// group's rate is events per second over the time it spanned, and the
/// median rate is returned (0 when there is no full group).
[[nodiscard]] inline double median_rate(const std::vector<int64_t>& t_ns, int64_t t0_ns,
                                        size_t group) {
    std::vector<double> rates;
    int64_t prev = t0_ns;
    for (size_t end = group; end <= t_ns.size(); end += group) {
        int64_t t = t_ns[end - 1];
        if (t > prev) rates.push_back(static_cast<double>(group) * 1e9 / static_cast<double>(t - prev));
        prev = t;
    }
    return median(rates);
}

/// Open-loop bookkeeping for one generator. Every operation is *due* at a
/// scheduled instant; its latency runs from that instant, not from when the
/// generator got around to sending it, so a stall anywhere (generator,
/// socket, server) is charged to every operation queued behind it. Answers
/// are matched per key (session) in FIFO order, the order the server
/// delivers one session's events.
class OpenLoopLedger {
  public:
    struct Op {
        uint64_t key = 0;
        int64_t due_ns = 0;
        int64_t sent_ns = -1;
        int64_t answered_ns = -1;
        int64_t expect = 0;  ///< the answer the generator predicts
    };

    /// Registers op `id` (ids are dense, in due order) and returns it.
    size_t due(uint64_t key, int64_t due_ns, int64_t expect) {
        ops_.push_back({key, due_ns, -1, -1, expect});
        outstanding_[key].push_back(ops_.size() - 1);
        return ops_.size() - 1;
    }
    void sent(size_t id, int64_t t_ns) { ops_[id].sent_ns = t_ns; }

    /// An answer for `key` arrived at `t_ns`: it belongs to the oldest
    /// unanswered op of that key. Returns its id, or nullopt when nothing
    /// was outstanding (an unexpected answer — a correctness failure).
    std::optional<size_t> answer(uint64_t key, int64_t t_ns) {
        auto it = outstanding_.find(key);
        if (it == outstanding_.end() || it->second.empty()) return std::nullopt;
        size_t id = it->second.front();
        it->second.pop_front();
        ops_[id].answered_ns = t_ns;
        ++answered_;
        return id;
    }

    [[nodiscard]] const Op& op(size_t id) const { return ops_[id]; }
    [[nodiscard]] size_t size() const { return ops_.size(); }
    [[nodiscard]] size_t answered() const { return answered_; }
    [[nodiscard]] size_t backlog() const { return ops_.size() - answered_; }

    /// Latency of op `id` in microseconds, measured from its due instant.
    [[nodiscard]] double latency_us(size_t id) const {
        return static_cast<double>(ops_[id].answered_ns - ops_[id].due_ns) / 1e3;
    }
    /// How late the generator sent op `id` versus its schedule.
    [[nodiscard]] double lag_us(size_t id) const {
        return static_cast<double>(ops_[id].sent_ns - ops_[id].due_ns) / 1e3;
    }

  private:
    std::vector<Op> ops_;
    std::unordered_map<uint64_t, std::deque<size_t>> outstanding_;
    size_t answered_ = 0;
};

}  // namespace perfbench

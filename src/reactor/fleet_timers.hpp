// Fleet-level timer index: which members may have a deadline due by `now`?
//
// Each member's engine keeps its own precise TimerWheel (§2.3 residual
// deltas and same-deadline grouping live there, untouched). A shard only
// needs to know which of its members could have a timer due by the fleet
// instant, in (deadline, instance) order, so that delivery order is a pure
// function of the armed set, independent of worker layout. A binary
// min-heap over one vector answers exactly that: schedule is O(log n), a
// round with nothing due is one compare, and a warmed heap re-arms timers
// inside the capacity it already holds, so steady rounds never touch the
// global allocator.
//
// Entries may be stale (the instance's engine disarmed or re-armed the
// underlying timer since scheduling) — the reactor re-checks each
// candidate against the engine's actual next_timer_deadline() before
// delivering a go_time, and simply reschedules.
//
// Entries of members that left the fleet are *gone*: the owner names them
// with a predicate and counts them with forget(). They never come out of
// collect_due, never show as next_deadline, and once they outnumber the
// live entries the heap is rebuilt without them, so it holds at most twice
// its live entries even when the clock never reaches their deadlines.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "reactor/mailbox.hpp"
#include "util/timeval.hpp"

namespace ceu::reactor {

class FleetTimers {
  public:
    struct Due {
        Micros deadline = 0;
        InstanceId instance = 0;
    };

    FleetTimers() = default;
    /// `gone(id)` holds once `id` has left the fleet.
    explicit FleetTimers(std::function<bool(InstanceId)> gone) : gone_(std::move(gone)) {}

    /// Indexes `deadline` (negative clamps to 0) for `instance`. Duplicates
    /// are allowed (the reactor dedups by tracking each instance's indexed
    /// deadline); stale entries are filtered by the caller on expiry.
    void schedule(InstanceId instance, Micros deadline) {
        heap_.push_back({std::max<Micros>(deadline, 0), instance});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /// Counts `n` more entries as gone: their instance has just left, and
    /// gone() already holds for it.
    void forget(size_t n) {
        dead_ += n;
        settle();
    }

    /// Moves every live entry with deadline <= now to `out`, in (deadline,
    /// instance) order with duplicates adjacent, and discards the gone
    /// ones. Returns the number appended.
    size_t collect_due(Micros now, std::vector<Due>& out) {
        size_t start = out.size();
        while (!heap_.empty() && heap_.front().deadline <= now) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            Due d = heap_.back();
            heap_.pop_back();
            if (dead_ > 0 && gone_(d.instance)) {
                --dead_;
                continue;
            }
            out.push_back(d);
        }
        settle();
        return out.size() - start;
    }

    [[nodiscard]] bool empty() const { return heap_.empty(); }
    /// Entries held, gone ones included.
    [[nodiscard]] size_t size() const { return heap_.size(); }
    /// Earliest live deadline, or -1 when there is none.
    [[nodiscard]] Micros next_deadline() const {
        return heap_.empty() ? -1 : heap_.front().deadline;
    }

  private:
    /// Heap order: the front is the smallest (deadline, instance) pair.
    static bool later(const Due& a, const Due& b) {
        return a.deadline != b.deadline ? a.deadline > b.deadline
                                        : a.instance > b.instance;
    }

    /// Restores the invariants: gone entries are at most half the heap,
    /// and the front is live. A rebuild is O(n) and follows at least n/2
    /// forgotten entries, so it costs O(1) per entry, amortized.
    void settle() {
        if (dead_ == 0) return;
        if (dead_ * 2 > heap_.size()) {
            heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                                       [this](const Due& d) { return gone_(d.instance); }),
                        heap_.end());
            std::make_heap(heap_.begin(), heap_.end(), later);
            dead_ = 0;
            return;
        }
        while (dead_ > 0 && !heap_.empty() && gone_(heap_.front().instance)) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            heap_.pop_back();
            --dead_;
        }
    }

    std::vector<Due> heap_;
    std::function<bool(InstanceId)> gone_;
    size_t dead_ = 0;  // gone entries still in heap_
};

}  // namespace ceu::reactor

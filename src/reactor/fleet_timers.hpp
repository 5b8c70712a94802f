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
#pragma once

#include <algorithm>
#include <cstddef>
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

    /// Indexes `deadline` (negative clamps to 0) for `instance`. Duplicates
    /// are allowed (the reactor dedups by tracking each instance's indexed
    /// deadline); stale entries are filtered by the caller on expiry.
    void schedule(InstanceId instance, Micros deadline) {
        heap_.push_back({std::max<Micros>(deadline, 0), instance});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /// Moves every entry with deadline <= now to `out`, in (deadline,
    /// instance) order with duplicates adjacent. Returns the number
    /// appended.
    size_t collect_due(Micros now, std::vector<Due>& out) {
        size_t start = out.size();
        while (!heap_.empty() && heap_.front().deadline <= now) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            out.push_back(heap_.back());
            heap_.pop_back();
        }
        return out.size() - start;
    }

    [[nodiscard]] bool empty() const { return heap_.empty(); }
    [[nodiscard]] size_t size() const { return heap_.size(); }
    /// Earliest indexed deadline, or -1 when empty.
    [[nodiscard]] Micros next_deadline() const {
        return heap_.empty() ? -1 : heap_.front().deadline;
    }

  private:
    /// Heap order: the front is the smallest (deadline, instance) pair.
    static bool later(const Due& a, const Due& b) {
        return a.deadline != b.deadline ? a.deadline > b.deadline
                                        : a.instance > b.instance;
    }

    std::vector<Due> heap_;
};

}  // namespace ceu::reactor

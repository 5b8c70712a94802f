// Lock-free MPSC mailbox for batched external-event injection.
//
// Producers (any thread) push envelopes with a single CAS loop; the owning
// shard worker grabs the whole batch with one exchange at the start of a
// scheduling round. Because the reactor sorts each drained batch by its
// global injection ticket before delivery, the grab order (LIFO) is
// irrelevant — a Treiber-style push list is sufficient and avoids the
// stub-node bookkeeping of linked MPSC FIFO queues.
//
// Memory: envelopes are heap nodes owned by the queue between push() and
// drain_into(); the drainer frees them after delivery. Producers never
// free, consumers never push, so there is no ABA window (the consumer
// takes the entire list at once and never re-links nodes).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/value.hpp"
#include "sema/sema.hpp"

namespace ceu::reactor {

/// Fleet-wide instance id: the member's slot in the reactor's instance
/// table (low 32 bits) and the slot's generation (high 32 bits). Retiring
/// a member frees its slot for a later add, under the next generation, so
/// the generation tells a stale id from the slot's current member. Slots
/// start at generation 0: until one is reused, ids are the dense slot
/// indices 0..n-1.
using InstanceId = uint64_t;

[[nodiscard]] constexpr uint32_t instance_slot(InstanceId id) {
    return static_cast<uint32_t>(id);
}
[[nodiscard]] constexpr uint32_t instance_generation(InstanceId id) {
    return static_cast<uint32_t>(id >> 32);
}
[[nodiscard]] constexpr InstanceId make_instance_id(uint32_t slot, uint32_t generation) {
    return (InstanceId{generation} << 32) | slot;
}

/// One external-event occurrence in flight from a producer thread to the
/// instance's shard. `ticket` is the global injection ordinal: draining
/// sorts by it, so delivery order per instance equals inject-call order
/// regardless of worker count or grab timing.
struct Envelope {
    InstanceId instance = 0;
    EventId event = kNoEvent;
    rt::Value value = rt::Value::integer(0);
    uint64_t ticket = 0;
    Envelope* next = nullptr;
};

class Mailbox {
  public:
    Mailbox() = default;
    Mailbox(const Mailbox&) = delete;
    Mailbox& operator=(const Mailbox&) = delete;
    ~Mailbox() {
        Envelope* e = head_.load(std::memory_order_relaxed);
        while (e != nullptr) {
            Envelope* n = e->next;
            delete e;
            e = n;
        }
    }

    /// Lock-free push from any thread. Takes ownership of `e`.
    void push(Envelope* e) {
        Envelope* old = head_.load(std::memory_order_relaxed);
        do {
            e->next = old;
        } while (!head_.compare_exchange_weak(old, e, std::memory_order_release,
                                              std::memory_order_relaxed));
    }

    /// Consumer side: atomically takes every queued envelope, appends them
    /// to `out` sorted by ascending ticket, and returns how many arrived.
    /// Ownership of the envelopes transfers to the caller.
    size_t drain_into(std::vector<Envelope*>& out) {
        Envelope* e = head_.exchange(nullptr, std::memory_order_acquire);
        size_t start = out.size();
        while (e != nullptr) {
            out.push_back(e);
            e = e->next;
        }
        // The push list is LIFO; tickets restore global injection order.
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
                  [](const Envelope* a, const Envelope* b) { return a->ticket < b->ticket; });
        return out.size() - start;
    }

    [[nodiscard]] bool empty() const {
        return head_.load(std::memory_order_acquire) == nullptr;
    }

  private:
    // Producers from every thread CAS this head; keep it off whatever the
    // embedding object packs around the mailbox (in the reactor: the
    // shard's scheduler state, read every round by the owner).
    alignas(64) std::atomic<Envelope*> head_{nullptr};
};

}  // namespace ceu::reactor

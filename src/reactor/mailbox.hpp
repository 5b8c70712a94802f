// Per-shard inbox for batched external-event injection.
//
// Producers (any thread) append by-value envelopes to one vector under the
// inbox lock; the owning shard worker takes the whole batch at the start of
// a scheduling round by swapping that vector with its round scratch. Both
// buffers keep their capacity across the swap, so a warmed fleet injects
// and drains without touching the global allocator.
//
// Ticket order: push() draws the envelope's global ticket inside the same
// critical section as the append, so an inbox always holds its envelopes
// in ascending ticket order, and a drain takes a prefix of that sequence.
// A round can therefore never deliver a member's later ticket while an
// earlier one is still on its way into the inbox.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
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
/// instance's shard. `ticket` is the global injection ordinal: delivery
/// order per instance is ticket order, regardless of worker count or
/// drain timing.
struct Envelope {
    InstanceId instance = 0;
    EventId event = kNoEvent;
    rt::Value value = rt::Value::integer(0);
    uint64_t ticket = 0;
};

class Mailbox {
  public:
    /// Any thread: appends `e`, stamped with the next ticket drawn from
    /// `tickets` under the inbox lock, and returns that ticket.
    uint64_t push(Envelope e, std::atomic<uint64_t>& tickets) {
        std::lock_guard<std::mutex> lk(mu_);
        e.ticket = tickets.fetch_add(1, std::memory_order_relaxed);
        queue_.push_back(e);
        return e.ticket;
    }

    /// Consumer side: replaces `out`'s contents with every queued envelope,
    /// in ticket order, and hands `out`'s buffer to the inbox for the next
    /// batch.
    void drain_into(std::vector<Envelope>& out) {
        out.clear();
        std::lock_guard<std::mutex> lk(mu_);
        queue_.swap(out);
    }

    [[nodiscard]] bool empty() const {
        std::lock_guard<std::mutex> lk(mu_);
        return queue_.empty();
    }

  private:
    // Producers from every thread take this lock; keep it off whatever the
    // embedding object packs around the inbox (in the reactor: the shard's
    // scheduler state, read every round by the owner).
    alignas(64) mutable std::mutex mu_;
    std::vector<Envelope> queue_;
};

}  // namespace ceu::reactor

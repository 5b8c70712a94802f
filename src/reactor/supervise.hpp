// Fleet supervision policies: what the reactor does when a member faults.
//
// PR 1 made single-engine faults recoverable (Status::Faulted + reset());
// the sharded reactor originally just *parked* a faulted member forever.
// This module supplies the recovery vocabulary: per-instance policies
// (park / reboot-from-boot / restore-from-checkpoint), deterministic
// seeded exponential backoff measured in supervision ticks
// (kTimerGranularity µs each), and a quarantine rule for members that
// fault repeatedly within a window.
//
// Determinism. Every decision here is a pure function of (policy, seed,
// instance id, fault ordinal, fleet instant) — never of worker count,
// thread timing or wall clock. Backoff jitter uses a splitmix64 hash of
// (seed ^ id ^ ordinal), so two runs of the same seeded fleet restart the
// same members at the same fleet instants no matter how the shards are
// laid out; the supervision determinism suite asserts exactly this at
// 1/2/8 workers.
#pragma once

#include <cstdint>
#include <vector>

#include "reactor/mailbox.hpp"
#include "util/timeval.hpp"

namespace ceu::reactor {

/// Per-instance recovery policy. The reactor default (ReactorConfig::
/// supervise) applies to every member unless overridden via set_policy().
struct SupervisorPolicy {
    enum class Restart : uint8_t {
        Park,     ///< historical behavior: a faulted member stays down
        Reboot,   ///< reset() + boot at the fleet instant (state lost)
        Restore,  ///< reload the latest checkpoint; falls back to Reboot
                  ///< when none has been taken yet
    };
    Restart restart = Restart::Park;

    /// Backoff before the k-th consecutive restart, in supervision ticks
    /// (tick = kTimerGranularity µs): delay doubles per fault, clamped to
    /// backoff_max_ticks.
    uint64_t backoff_initial_ticks = 1;
    uint64_t backoff_max_ticks = 64;
    /// ± jitter applied to the backoff, in permille of the clamped delay,
    /// derived deterministically from (seed, instance, fault ordinal).
    /// 0 = none; 250 spreads restarts ±25% to avoid thundering herds.
    uint32_t backoff_jitter_permille = 0;

    /// Quarantine (bench permanently, stop restarting) after this many
    /// faults within fault_window_ticks. 0 = never quarantine.
    uint32_t quarantine_after = 0;
    uint64_t fault_window_ticks = 256;

    /// Take an automatic checkpoint every N engine reactions (0 = never).
    /// Restore-policy members need a cadence > 0 to have something to
    /// restore from.
    uint64_t checkpoint_every = 0;
};

/// Supervision bookkeeping the reactor keeps per member. Mutated only by
/// the member's own shard (or the control thread between rounds), so no
/// synchronization is needed.
struct MemberState {
    uint64_t faults = 0;               ///< faults detected (raw, lifetime)
    uint64_t supervised_restarts = 0;  ///< restarts performed (reboot+restore)
    uint64_t restores = 0;             ///< restarts served from a checkpoint
    uint64_t checkpoints = 0;          ///< snapshots taken
    bool quarantined = false;
    bool fault_open = false;           ///< current fault awaiting a restart

    /// Fault instants (in supervision ticks) inside the rolling window;
    /// pruned by note_fault.
    std::vector<uint64_t> recent_fault_ticks;

    /// Latest checkpoint blob (empty = none yet).
    std::vector<uint8_t> checkpoint;
    /// Engine reactions() threshold that triggers the next automatic
    /// checkpoint (0 = not yet scheduled).
    uint64_t next_checkpoint_at = 0;
};

/// One pending supervised restart on a shard's agenda.
struct RestartDue {
    Micros due = 0;
    InstanceId instance = 0;
};

/// Deterministic backoff before restart number `fault_ordinal` (1-based):
/// initial << (ordinal-1) ticks, clamped to the max, ± seeded jitter,
/// converted to microseconds at `tick_us` per tick. Never returns < 0.
[[nodiscard]] Micros backoff_delay_us(const SupervisorPolicy& p, uint64_t seed,
                                      InstanceId id, uint64_t fault_ordinal,
                                      Micros tick_us);

/// Records a fault at supervision tick `tick` into the member's rolling
/// window and returns how many faults the window now holds (including this
/// one). The quarantine rule compares the result to quarantine_after.
size_t note_fault_tick(MemberState& m, const SupervisorPolicy& p, uint64_t tick);

}  // namespace ceu::reactor

#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/trace_format.hpp"

namespace ceu::obs {

namespace {
uint64_t now_ns() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

size_t count_records(const ReactionSpan& s, SpanRecord::Type t) {
    return static_cast<size_t>(
        std::count_if(s.records.begin(), s.records.end(),
                      [t](const SpanRecord& r) { return r.type == t; }));
}
}  // namespace

size_t ReactionSpan::wakes() const { return count_records(*this, SpanRecord::Type::Wake); }
size_t ReactionSpan::emits() const { return count_records(*this, SpanRecord::Type::Emit); }
size_t ReactionSpan::timer_fires() const {
    return count_records(*this, SpanRecord::Type::TimerFire);
}

double ProcessStats::reactions_per_sec() const {
    if (wall_ns == 0) return 0.0;
    return static_cast<double>(reactions) * 1e9 / static_cast<double>(wall_ns);
}

void ProcessStats::merge(const ProcessStats& other) {
    reactions += other.reactions;
    for (size_t k = 0; k < reactions_by_kind.size(); ++k) {
        reactions_by_kind[k] += other.reactions_by_kind[k];
    }
    wakes += other.wakes;
    emits += other.emits;
    timer_fires += other.timer_fires;
    instructions += other.instructions;
    max_reaction_instructions =
        std::max(max_reaction_instructions, other.max_reaction_instructions);
    allocations += other.allocations;
    max_emit_depth = std::max(max_emit_depth, other.max_emit_depth);
    wall_ns += other.wall_ns;
    max_reaction_wall_ns = std::max(max_reaction_wall_ns, other.max_reaction_wall_ns);
    queue_peak = std::max(queue_peak, other.queue_peak);
    timers_peak = std::max(timers_peak, other.timers_peak);
    faults += other.faults;
    fault_injections += other.fault_injections;
    terminations += other.terminations;
    checkpoints += other.checkpoints;
    restores += other.restores;
    supervised_restarts += other.supervised_restarts;
    quarantines += other.quarantines;
    sheds += other.sheds;
    steals += other.steals;
    steal_failures += other.steal_failures;
    for (size_t k = 0; k < phase_ns.size(); ++k) phase_ns[k] += other.phase_ns[k];
}

void ProcessStats::clear_measured() {
    wall_ns = 0;
    max_reaction_wall_ns = 0;
    // Scheduler diagnostics: who stole what and how long each phase ran —
    // functions of worker count and thread timing, not of the input
    // sequence.
    steals = 0;
    steal_failures = 0;
    phase_ns = {0, 0, 0, 0};
}

std::string ProcessStats::to_json() const {
    // Keys sorted, no whitespace: the rendering is part of the BENCH_*.json
    // schema and diffed across CI runs.
    std::ostringstream os;
    os << "{";
    os << "\"allocations\":" << allocations;
    os << ",\"checkpoints\":" << checkpoints;
    os << ",\"emits\":" << emits;
    os << ",\"fault_injections\":" << fault_injections;
    os << ",\"faults\":" << faults;
    os << ",\"instructions\":" << instructions;
    os << ",\"max_emit_depth\":" << max_emit_depth;
    os << ",\"max_reaction_instructions\":" << max_reaction_instructions;
    os << ",\"max_reaction_wall_ns\":" << max_reaction_wall_ns;
    os << ",\"phase_ns\":{\"restarts\":" << phase_ns[0]
       << ",\"events\":" << phase_ns[1] << ",\"timers\":" << phase_ns[2]
       << ",\"asyncs\":" << phase_ns[3] << "}";
    os << ",\"quarantines\":" << quarantines;
    os << ",\"queue_peak\":" << queue_peak;
    os << ",\"reactions\":" << reactions;
    os << ",\"reactions_by_kind\":{\"boot\":" << reactions_by_kind[0]
       << ",\"event\":" << reactions_by_kind[1]
       << ",\"timer\":" << reactions_by_kind[2]
       << ",\"async\":" << reactions_by_kind[3] << "}";
    char rps[32];
    std::snprintf(rps, sizeof rps, "%.1f", reactions_per_sec());
    os << ",\"reactions_per_sec\":" << rps;
    os << ",\"restores\":" << restores;
    os << ",\"sheds\":" << sheds;
    os << ",\"steal_failures\":" << steal_failures;
    os << ",\"steals\":" << steals;
    os << ",\"supervised_restarts\":" << supervised_restarts;
    os << ",\"terminations\":" << terminations;
    os << ",\"timer_fires\":" << timer_fires;
    os << ",\"timers_peak\":" << timers_peak;
    os << ",\"wakes\":" << wakes;
    os << ",\"wall_ns\":" << wall_ns;
    os << "}";
    return os.str();
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

void Recorder::begin(ReactionKind kind, int id, const char* name, Micros ts) {
    // Chains never nest (§5); a begin while open means the previous chain
    // unwound through an untrapped error — close it defensively.
    if (open_) end(static_cast<int>(EndStatus::Running), 0, 0);
    open_ = true;
    span_.kind = kind;
    span_.id = id;
    span_.name = (name != nullptr) ? name : "";
    span_.ts = ts;
    span_.seq = seq_;
    span_.records.clear();
    span_.end_status = static_cast<int>(EndStatus::Running);
    span_.result = 0;
    span_.wall_ns = 0;
    span_.instructions = 0;
    span_.allocations = 0;
    span_.max_emit_depth = 0;
    t0_ns_ = timing_enabled_ ? now_ns() : 0;
}

void Recorder::wake(int gate) {
    if (!open_) return;
    if (spans_enabled_) span_.records.push_back({SpanRecord::Type::Wake, gate, 0});
    ++stats_.wakes;
}

void Recorder::emit(int event_id, int depth) {
    if (!open_) return;
    if (spans_enabled_) span_.records.push_back({SpanRecord::Type::Emit, event_id, depth});
    ++stats_.emits;
    span_.max_emit_depth = std::max(span_.max_emit_depth, depth);
}

void Recorder::timer_fire(int gate, Micros residual) {
    if (!open_) return;
    if (spans_enabled_) {
        span_.records.push_back({SpanRecord::Type::TimerFire, gate, residual});
    }
    ++stats_.timer_fires;
}

void Recorder::end(int status, int64_t result, uint64_t instructions) {
    if (!open_) return;
    open_ = false;
    span_.end_status = status;
    span_.result = result;
    span_.instructions = instructions;
    span_.wall_ns = timing_enabled_ ? now_ns() - t0_ns_ : 0;
    ++seq_;

    ++stats_.reactions;
    ++stats_.reactions_by_kind[static_cast<size_t>(span_.kind)];
    stats_.instructions += instructions;
    stats_.max_reaction_instructions =
        std::max(stats_.max_reaction_instructions, instructions);
    stats_.allocations += span_.allocations;
    stats_.max_emit_depth = std::max(stats_.max_emit_depth, span_.max_emit_depth);
    stats_.wall_ns += span_.wall_ns;
    stats_.max_reaction_wall_ns = std::max(stats_.max_reaction_wall_ns, span_.wall_ns);
    if (status == static_cast<int>(EndStatus::Faulted)) ++stats_.faults;
    if (status == static_cast<int>(EndStatus::Terminated)) ++stats_.terminations;

    if (spans_enabled_) {
        for (Sink* s : sinks_) s->on_reaction(span_);
        last_ = span_;
    }
}

void Recorder::gauge_queue_depth(size_t depth) {
    stats_.queue_peak = std::max(stats_.queue_peak, depth);
}

void Recorder::gauge_timer_count(size_t count) {
    stats_.timers_peak = std::max(stats_.timers_peak, count);
}

void Recorder::finish() {
    for (Sink* s : sinks_) s->finish(stats_);
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

void ChromeTraceSink::put_record(const char* rendered) {
    if (!header_done_) {
        out_ += kTraceHeader;
        header_done_ = true;
    }
    if (!first_record_) out_ += kTraceSep;
    first_record_ = false;
    out_ += rendered;
}

void ChromeTraceSink::on_reaction(const ReactionSpan& span) {
    char buf[256];
    const long long ts = static_cast<long long>(span.ts);
    std::snprintf(buf, sizeof buf, kFmtReactionBegin, ts,
                  kReactionKindNames[static_cast<size_t>(span.kind)], span.id,
                  span.name.c_str(), static_cast<unsigned long long>(span.seq));
    put_record(buf);
    for (const SpanRecord& r : span.records) {
        switch (r.type) {
            case SpanRecord::Type::Wake:
                std::snprintf(buf, sizeof buf, kFmtWake, ts, r.a);
                break;
            case SpanRecord::Type::Emit:
                std::snprintf(buf, sizeof buf, kFmtEmit, ts, r.a,
                              static_cast<int>(r.b));
                break;
            case SpanRecord::Type::TimerFire:
                std::snprintf(buf, sizeof buf, kFmtTimerFire, ts, r.a,
                              static_cast<long long>(r.b));
                break;
        }
        put_record(buf);
    }
    if (span.end_status == static_cast<int>(EndStatus::Terminated)) {
        std::snprintf(buf, sizeof buf, kFmtReactionEndResult, ts, span.end_status,
                      static_cast<long long>(span.result));
    } else {
        std::snprintf(buf, sizeof buf, kFmtReactionEnd, ts, span.end_status);
    }
    put_record(buf);
}

void ChromeTraceSink::finish(const ProcessStats&) {
    if (finished_) return;
    finished_ = true;
    if (!header_done_) {
        out_ += kTraceHeader;
        header_done_ = true;
    }
    out_ += kTraceFooter;
}

// ---------------------------------------------------------------------------
// RingBufferSink
// ---------------------------------------------------------------------------

RingBufferSink::RingBufferSink(size_t capacity) : ring_(std::max<size_t>(capacity, 1)) {}

void RingBufferSink::push(const Record& r) {
    if (count_ == ring_.size()) ++dropped_;
    else ++count_;
    ring_[head_] = r;
    head_ = (head_ + 1) % ring_.size();
}

void RingBufferSink::on_reaction(const ReactionSpan& span) {
    push({Record::Type::Begin, static_cast<uint8_t>(span.kind), span.id,
          static_cast<int64_t>(span.seq), span.ts});
    for (const SpanRecord& r : span.records) {
        Record::Type t = r.type == SpanRecord::Type::Wake ? Record::Type::Wake
                         : r.type == SpanRecord::Type::Emit
                             ? Record::Type::Emit
                             : Record::Type::TimerFire;
        push({t, 0, r.a, r.b, span.ts});
    }
    push({Record::Type::End, static_cast<uint8_t>(span.end_status), 0, span.result,
          span.ts});
}

std::vector<RingBufferSink::Record> RingBufferSink::snapshot() const {
    std::vector<Record> out;
    out.reserve(count_);
    size_t start = (head_ + ring_.size() - count_) % ring_.size();
    for (size_t i = 0; i < count_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

}  // namespace ceu::obs

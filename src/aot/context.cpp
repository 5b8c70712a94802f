#include "aot/context.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

namespace ceu::aot {

namespace {

constexpr char kMagic[8] = {'C', 'E', 'U', 'A', 'O', 'T', '0', '1'};

// ceu_host_api_t callbacks; `user` is the Context.
Context& self(void* user) { return *static_cast<Context*>(user); }

void trace_line_cb(void* user, const char* line, int32_t len) {
    self(user).trace(std::string(line, len > 0 ? static_cast<size_t>(len) : 0));
}

void output_cb(void* user, int32_t /*output_id*/, const char* name, int64_t value) {
    // Unhandled-output parity with the interpreter (EmitOutput): outputs
    // become trace lines.
    self(user).trace("output " + std::string(name != nullptr ? name : "?") + " = " +
                     std::to_string(value));
}

void begin_cb(void* user, int32_t kind, int32_t id, const char* name, int64_t ts) {
    if (obs::Recorder* rec = self(user).recorder()) {
        rec->begin(static_cast<obs::ReactionKind>(kind), id, name != nullptr ? name : "", ts);
    }
}

void wake_cb(void* user, int32_t gate) {
    if (obs::Recorder* rec = self(user).recorder()) rec->wake(gate);
}

void emit_cb(void* user, int32_t event_id, int32_t depth) {
    if (obs::Recorder* rec = self(user).recorder()) rec->emit(event_id, depth);
}

void timer_cb(void* user, int32_t gate, int64_t residual) {
    if (obs::Recorder* rec = self(user).recorder()) rec->timer_fire(gate, residual);
}

void end_cb(void* user, int32_t status, int64_t result) {
    if (obs::Recorder* rec = self(user).recorder()) rec->end(status, result, 0);
}

}  // namespace

Context::Context(ProgramHandle program, const flat::CompiledProgram& cp)
    : program_(std::move(program)), d_(program_.desc) {
    if (d_->fingerprint != rt::program_fingerprint(cp)) {
        throw std::invalid_argument(
            "AOT handle was compiled from a different program (fingerprint mismatch)");
    }
    host_api_ = {this, trace_line_cb, begin_cb, wake_cb, emit_cb, timer_cb, end_cb, output_cb};
    ctx_ = d_->create(&host_api_);
    if (ctx_ == nullptr) throw std::runtime_error("AOT context allocation failed");
}

Context::~Context() { d_->destroy(ctx_); }

Context::Status Context::status() const {
    switch (d_->status(ctx_)) {
        case 0: return Status::Loaded;
        case 1: return Status::Running;
        case 2: return Status::Terminated;
        default: return Status::Faulted;
    }
}

void Context::save(std::vector<uint8_t>& out) const {
    rt::snap::ByteWriter w(out);
    w.bytes(reinterpret_cast<const uint8_t*>(kMagic), sizeof kMagic);
    w.u64(d_->fingerprint);
    size_t at = out.size();
    out.resize(at + d_->ctx_size);
    d_->snapshot(ctx_, out.data() + at);
}

void Context::load(const uint8_t* data, size_t size) {
    rt::snap::ByteReader r(data, size);
    if (std::memcmp(r.bytes(sizeof kMagic), kMagic, sizeof kMagic) != 0) {
        throw rt::snap::SnapshotError("bad magic (not a CEUAOT01 compiled-context payload)");
    }
    if (r.u64() != d_->fingerprint) {
        throw rt::snap::SnapshotError(
            "snapshot was taken by a different compiled program (fingerprint mismatch)");
    }
    if (r.remaining() != d_->ctx_size) throw rt::snap::SnapshotError("bad context image size");
    if (d_->restore(ctx_, r.bytes(d_->ctx_size), d_->ctx_size) == 0) {
        throw rt::snap::SnapshotError("compiled context refused the image");
    }
}

}  // namespace ceu::aot

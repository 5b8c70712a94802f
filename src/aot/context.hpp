// aot::Context — one compiled instance as an rt::Backend: a calloc'd
// `ceu_ctx_t` driven through its program's `ceu_aot_program_t` descriptor
// (cgen/aot_abi.hpp). host::Instance holds it behind the same interface as
// the interpreter's rt::Engine and never sees the C ABI.
//
// The context calls back through a `ceu_host_api_t` vtable that lives in
// this object, so a Context must not move once created (its owner holds it
// by pointer). Trace lines and unhandled output events arrive as
// Backend::trace() lines, reaction spans at the attached recorder: the
// interpreter's two channels, so both backends produce byte-identical
// traces for the same inputs.
//
// Not supported here: custom C bindings (the standard set is baked into the
// generated C), string-valued injections (only the integer reaches the
// context) and the interpreter-only gauges, which read 0.
//
// Checkpoint payload: "CEUAOT01", the descriptor's fingerprint, then the
// raw context image. The image may hold pointers into the loaded shared
// object (string literals), so a payload restores only within the process
// that saved it, into a context of the same compiled program.
#pragma once

#include "aot/aot.hpp"
#include "runtime/backend.hpp"

namespace ceu::aot {

class Context final : public rt::Backend {
  public:
    /// A fresh (Loaded) context of `program`. Throws std::invalid_argument
    /// unless `program` was compiled from `cp`, std::runtime_error when the
    /// context cannot be allocated.
    Context(ProgramHandle program, const flat::CompiledProgram& cp);
    ~Context() override;

    void go_init() override { d_->go_init(ctx_); }
    void go_event(int event_id, rt::Value v) override { d_->go_event(ctx_, event_id, v.as_int()); }
    void go_time(Micros now) override { d_->go_time(ctx_, now); }
    bool go_async() override { return d_->go_async(ctx_) != 0; }
    bool go_async_n(uint64_t n) override {
        return d_->go_async_n(ctx_, static_cast<int64_t>(n)) != 0;
    }
    void set_boot_clock(Micros t) override { d_->set_boot_clock(ctx_, t); }
    void reset() override { d_->reset(ctx_); }

    [[nodiscard]] Status status() const override;
    [[nodiscard]] rt::Value result() const override { return rt::Value::integer(d_->result(ctx_)); }
    [[nodiscard]] Micros now() const override { return d_->now(ctx_); }
    [[nodiscard]] uint64_t reactions() const override { return d_->reactions(ctx_); }
    [[nodiscard]] Micros next_timer_deadline() const override { return d_->next_deadline(ctx_); }
    [[nodiscard]] bool has_async_work() const override { return d_->has_async(ctx_) != 0; }
    [[nodiscard]] size_t state_bytes() const override { return d_->ctx_size; }
    [[nodiscard]] uint64_t instructions_executed() const override { return 0; }
    [[nodiscard]] uint64_t max_reaction_instructions() const override { return 0; }
    [[nodiscard]] size_t queue_peak() const override { return 0; }
    [[nodiscard]] size_t pending_timers() const override { return 0; }

    void save(std::vector<uint8_t>& out) const override;
    void load(const uint8_t* data, size_t size) override;

  private:
    ProgramHandle program_;  // pins the shared object `d_` points into
    const ceu_aot_program_t* d_;
    ceu_host_api_t host_api_{};
    void* ctx_ = nullptr;
};

}  // namespace ceu::aot

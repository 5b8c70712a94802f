// AOT fleet images: ahead-of-time compiled Céu programs loadable back into
// the host process.
//
// The cgen re-entrant mode (cgen::CgenOptions::reentrant) turns one compiled
// program into a C translation unit whose only exported symbol is a
// `ceu_aot_program_t` descriptor (aot_abi.hpp). This module batches a fleet's
// worth of such TUs, compiles them *once* with the host C compiler into a
// single shared object, dlopens it, and hands each program back as a
// ProgramHandle. An aot::Context (context.hpp) runs one instance of a
// handle's program as an rt::Backend, so host::Instance drives it through
// the same interface as an interpreter engine and never sees the C ABI.
// The unit of compilation is the fleet, not the instance: 10k instances of
// 20 distinct programs cost 20 TUs and one cc invocation, and every
// instance is just one calloc'd `ceu_ctx_t`.
//
// Failure policy: building never throws. Every failure path — missing or
// broken compiler, cc error, dlopen refusal, descriptor/ABI mismatch,
// fingerprint drift between the .so and the in-memory program — reports a
// structured "aot: ..." string through the `err` out-param and returns an
// empty image/handle, so callers (ceuc --backend=aot, the differential
// harness, bench) can degrade to the interpreter deterministically.
//
// Thread-safety: a built FleetImage is immutable; descriptors are pure
// function tables and contexts are caller-owned, so distinct instances of
// the same compiled program can react on distinct worker threads (the
// generated code's only global is a _Thread_local current-context pointer).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cgen/aot_abi.hpp"
#include "codegen/flatten.hpp"

namespace ceu::aot {

struct BuildOptions {
    /// Host C compiler command. Probed by running it; a missing or broken
    /// compiler is a reported build failure, not a crash.
    std::string cc = "cc";
    /// Flags for the single fleet-wide link. -fPIC/-shared are required for
    /// the dlopen round-trip; -O2 is where the compiled series' speedup
    /// over the interpreter comes from.
    std::string cflags = "-std=c11 -O2 -fPIC -shared -w";
    /// Directory for the generated TUs and the .so. Empty: a fresh
    /// process-unique directory under $TMPDIR (or /tmp).
    std::string work_dir;
    /// Keep the .c/.so/.err artifacts after a successful load (debugging,
    /// and the toolchain failure-path tests poke at them).
    bool keep_artifacts = false;
};

class FleetImage;

/// One compiled program inside a loaded fleet image. The shared_ptr keeps
/// the dlopen handle (and therefore every function pointer in `desc`)
/// alive for as long as any instance context built from it exists.
struct ProgramHandle {
    std::shared_ptr<const FleetImage> image;
    const ceu_aot_program_t* desc = nullptr;

    [[nodiscard]] explicit operator bool() const { return desc != nullptr; }
};

/// A dlopen'd shared object holding one descriptor per fleet program.
class FleetImage : public std::enable_shared_from_this<FleetImage> {
  public:
    /// Emits one re-entrant TU per program, compiles them with one `cc`
    /// invocation, loads the resulting shared object and validates every
    /// descriptor (ABI version + per-program fingerprint). On any failure
    /// returns nullptr and, when `err` is non-null, an "aot: ..." message.
    static std::shared_ptr<const FleetImage> build(
        std::span<const std::shared_ptr<const flat::CompiledProgram>> programs,
        const BuildOptions& opt = {}, std::string* err = nullptr);

    /// dlopens an existing fleet shared object and validates its descriptors
    /// against `programs` (count, ABI version, fingerprints). Split out from
    /// build() so prebuilt images can be revalidated — and so the mismatch
    /// paths are directly testable without corrupting a compiler.
    static std::shared_ptr<const FleetImage> load(
        const std::string& so_path,
        std::span<const std::shared_ptr<const flat::CompiledProgram>> programs,
        std::string* err = nullptr);

    /// Convenience: single-program fleet. Empty handle on failure.
    static ProgramHandle build_one(std::shared_ptr<const flat::CompiledProgram> cp,
                                   const BuildOptions& opt = {},
                                   std::string* err = nullptr);

    FleetImage(const FleetImage&) = delete;
    FleetImage& operator=(const FleetImage&) = delete;
    ~FleetImage();

    [[nodiscard]] size_t size() const { return descs_.size(); }
    [[nodiscard]] const ceu_aot_program_t* descriptor(size_t i) const {
        return descs_[i];
    }
    /// Handle for program `i`, pinning this image.
    [[nodiscard]] ProgramHandle program(size_t i) const {
        return ProgramHandle{shared_from_this(), descs_[i]};
    }
    /// Path of the loaded shared object (unlinked already unless the build
    /// ran with keep_artifacts; the mapping stays valid regardless).
    [[nodiscard]] const std::string& so_path() const { return so_path_; }

  private:
    FleetImage() = default;
    void* dl_ = nullptr;
    std::string so_path_;
    std::vector<const ceu_aot_program_t*> descs_;
};

/// True when `opt.cc` looks runnable — the bench and CI gates use this to
/// self-skip instead of reporting a toolchain failure as a regression.
[[nodiscard]] bool toolchain_available(const BuildOptions& opt = {});

}  // namespace ceu::aot

#include "aot/aot.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cgen/cgen.hpp"
#include "runtime/engine.hpp"

namespace ceu::aot {

namespace {

void set_err(std::string* err, std::string msg) {
    if (err != nullptr) *err = std::move(msg);
}

/// mkdtemp template for a build's scratch directory. Same root resolution
/// as the differential harness: workdir, else $TMPDIR, else /tmp. mkdtemp
/// picks a name no directory holds yet, so a directory an earlier process
/// kept (keep_artifacts) can never make a later build fail.
std::string work_dir_template(const BuildOptions& opt) {
    std::string dir = opt.work_dir;
    if (dir.empty()) {
        const char* t = std::getenv("TMPDIR");
        dir = (t != nullptr && *t != '\0') ? t : "/tmp";
    }
    if (dir.back() != '/') dir += '/';
    return dir + "ceu_aot_XXXXXX";
}

std::string read_text(const std::string& path) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/// First line or two of a compiler/loader stderr dump — enough to diagnose,
/// small enough to embed in a JSON diagnostic.
std::string err_head(const std::string& text) {
    size_t cut = text.find('\n');
    if (cut != std::string::npos) {
        size_t second = text.find('\n', cut + 1);
        cut = second == std::string::npos ? text.size() : second;
    } else {
        cut = text.size();
    }
    std::string head = text.substr(0, cut);
    for (char& c : head) {
        if (c == '\n') c = ' ';
    }
    return head;
}

}  // namespace

bool toolchain_available(const BuildOptions& opt) {
    // Probe the first token of the compiler command; `command -v` covers
    // both $PATH lookups and absolute paths.
    std::string tok = opt.cc.substr(0, opt.cc.find(' '));
    if (tok.empty()) return false;
    std::string probe = "command -v '" + tok + "' >/dev/null 2>&1";
    return std::system(probe.c_str()) == 0;
}

std::shared_ptr<const FleetImage> FleetImage::load(
    const std::string& so_path,
    std::span<const std::shared_ptr<const flat::CompiledProgram>> programs,
    std::string* err) {
    void* dl = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (dl == nullptr) {
        const char* why = ::dlerror();
        set_err(err, "aot: dlopen failed: " + std::string(why != nullptr ? why : "?"));
        return nullptr;
    }
    auto image = std::shared_ptr<FleetImage>(new FleetImage());
    image->dl_ = dl;
    image->so_path_ = so_path;
    image->descs_.reserve(programs.size());
    for (size_t i = 0; i < programs.size(); ++i) {
        std::string sym = std::string(cgen::kAotSymbolPrefix) + std::to_string(i);
        auto* desc =
            static_cast<const ceu_aot_program_t*>(::dlsym(dl, sym.c_str()));
        if (desc == nullptr) {
            set_err(err, "aot: missing descriptor symbol '" + sym + "' in " + so_path);
            return nullptr;  // image dtor dlcloses
        }
        if (desc->abi_version != cgen::kAotAbiVersion) {
            set_err(err, "aot: ABI version mismatch in '" + sym + "': image has " +
                             std::to_string(desc->abi_version) + ", host expects " +
                             std::to_string(cgen::kAotAbiVersion));
            return nullptr;
        }
        uint64_t want = rt::program_fingerprint(*programs[i]);
        if (desc->fingerprint != want) {
            set_err(err, "aot: fingerprint mismatch in '" + sym +
                             "': image was compiled from a different program");
            return nullptr;
        }
        image->descs_.push_back(desc);
    }
    return image;
}

std::shared_ptr<const FleetImage> FleetImage::build(
    std::span<const std::shared_ptr<const flat::CompiledProgram>> programs,
    const BuildOptions& opt, std::string* err) {
    if (programs.empty()) {
        set_err(err, "aot: empty fleet");
        return nullptr;
    }
    for (const auto& cp : programs) {
        if (cp == nullptr) {
            set_err(err, "aot: null program in fleet");
            return nullptr;
        }
    }
    std::string dir = work_dir_template(opt);
    if (::mkdtemp(dir.data()) == nullptr) {
        set_err(err, "aot: cannot create work directory " + dir);
        return nullptr;
    }
    std::vector<std::string> artifacts;
    auto cleanup = [&artifacts, &dir, &opt](bool force) {
        if (opt.keep_artifacts && !force) return;
        for (const std::string& p : artifacts) ::unlink(p.c_str());
        ::rmdir(dir.c_str());
    };

    std::string cmd = opt.cc + " " + opt.cflags;
    std::string so_path = dir + "/fleet.so";
    std::string err_path = dir + "/cc.err";
    cmd += " -o " + so_path;
    for (size_t i = 0; i < programs.size(); ++i) {
        cgen::CgenOptions copt;
        copt.with_main = false;
        copt.with_libc = true;
        copt.reentrant = true;
        copt.aot_symbol = std::string(cgen::kAotSymbolPrefix) + std::to_string(i);
        copt.program_name = "prog" + std::to_string(i);
        std::string c_path = dir + "/tu" + std::to_string(i) + ".c";
        {
            std::ofstream f(c_path);
            f << cgen::emit_c(*programs[i], copt);
            if (!f) {
                set_err(err, "aot: cannot write " + c_path);
                cleanup(true);
                return nullptr;
            }
        }
        artifacts.push_back(c_path);
        cmd += " " + c_path;
    }
    cmd += " 2>" + err_path;
    artifacts.push_back(err_path);
    artifacts.push_back(so_path);

    if (std::system(cmd.c_str()) != 0) {
        std::string detail = err_head(read_text(err_path));
        set_err(err, "aot: cc failed (" + opt.cc + "): " +
                         (detail.empty() ? "compiler not found or produced no diagnostics"
                                         : detail));
        cleanup(false);
        return nullptr;
    }

    std::shared_ptr<const FleetImage> image = load(so_path, programs, err);
    // The mapping survives unlinking the .so (and everything else), so the
    // scratch directory can go away right now unless artifacts were asked
    // for. A failed load keeps them only under keep_artifacts too.
    cleanup(false);
    return image;
}

ProgramHandle FleetImage::build_one(std::shared_ptr<const flat::CompiledProgram> cp,
                                    const BuildOptions& opt, std::string* err) {
    std::shared_ptr<const flat::CompiledProgram> programs[] = {std::move(cp)};
    auto image = build(programs, opt, err);
    if (image == nullptr) return {};
    return image->program(0);
}

FleetImage::~FleetImage() {
    if (dl_ != nullptr) ::dlclose(dl_);
}

}  // namespace ceu::aot

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

/// The CPUs this process may run on, read once before any pinning.
const std::vector<int>& allowed_cpu_list() {
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (::sched_getaffinity(0, sizeof set, &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set)) v.push_back(c);
            }
        }
        return v;
    }();
    return cpus;
}

std::vector<pid_t> thread_ids() {
    std::vector<pid_t> tids;
    for (const auto& de : std::filesystem::directory_iterator("/proc/self/task")) {
        tids.push_back(static_cast<pid_t>(std::stol(de.path().filename().string())));
    }
    std::sort(tids.begin(), tids.end());
    return tids;
}

}  // namespace

Machine probe_machine() {
    Machine m;
    long online = ::sysconf(_SC_NPROCESSORS_ONLN);
    m.nproc = online > 0 ? static_cast<size_t>(online) : 1;
    cpu_set_t set;
    CPU_ZERO(&set);
    m.allowed_cpus = ::sched_getaffinity(0, sizeof set, &set) == 0
                         ? static_cast<size_t>(CPU_COUNT(&set))
                         : m.nproc;
    m.hw_concurrency = std::thread::hardware_concurrency();
    (void)allowed_cpu_list();  // capture the mask before any thread is pinned
    m.compiler = PERFBENCH_COMPILER;
    m.build_type = PERFBENCH_BUILD_TYPE;
    return m;
}

double peak_rss_mb() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

void require_cpus(const Options& opt, size_t threads, const char* what) {
    if (threads > opt.allowed_cpus) {
        throw std::runtime_error(std::string(what) + " needs " + std::to_string(threads) +
                                 " threads but only " + std::to_string(opt.allowed_cpus) +
                                 " CPUs are allowed; refusing to oversubscribe");
    }
}

void rotate_threads(size_t shift) {
    const std::vector<int>& cpus = allowed_cpu_list();
    if (cpus.empty()) return;
    std::vector<pid_t> tids = thread_ids();
    for (size_t i = 0; i < tids.size(); ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[(i + shift) % cpus.size()], &one);
        ::sched_setaffinity(tids[i], sizeof one, &one);
    }
}

void release_threads() {
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int c : allowed_cpu_list()) CPU_SET(c, &all);
    for (pid_t tid : thread_ids()) ::sched_setaffinity(tid, sizeof all, &all);
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            child_ms[static_cast<size_t>(s.parent)] +=
                static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        Totals& t = out[s.name];
        ++t.count;
        t.total_ms += ms;
        t.self_ms += ms - child_ms[i];
    }
    return out;
}

bool SpanLog::write(const std::string& path) const {
    std::ofstream f(path, std::ios::binary);
    if (!f) return false;
    f << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        f << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.start_ns << ","
          << s.end_ns << "," << s.parent << "," << s.op << "]";
    }
    f << "\n]\n";
    return f.good();
}

}  // namespace perfbench

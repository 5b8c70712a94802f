// The two serve workloads: an in-process serve::Server (2 reactor workers,
// 0 io threads) on loopback, driven over one CEUWIRE1 connection by a
// single-threaded generator, so generator + control thread + workers use
// four threads.
//
// serve-inject: an open loop. Injects are due on a fixed schedule; each is
// timed from its due instant to the Output frame it caused (the echo
// counter prints its running total), so any stall is charged to every
// inject queued behind it. Sessions are Zipf-skewed; an Advance frame goes
// out every 100 injects (every session's 10 ms ticker fires). Base rate
// 5,000/s, then a 10k/20k/40k ladder for the sustained rate.
//
// serve-migrate: a closed loop over live sessions. Each cycle injects a
// few ADDs, Detaches, Resumes the blob, injects once more and checks the
// output continues the count: snapshot save/load and session-map churn
// through the same wire and control thread.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "reactor/verdict.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ceu;
using serve::Frame;
using serve::FrameType;

namespace {

constexpr int kSetups = 5;
constexpr size_t kServeWorkers = 2;
constexpr int64_t kSecond = 1'000'000'000;
constexpr int64_t kPeriodUs = 10'000;  // the echo counter's ticker period
// Sessions open in kCohorts cohorts, one Advance of kAdvanceUs apart, so
// their tickers are staggered: each Advance (one per 100 injects) fires
// about one cohort's tickers instead of all 2,000 at once.
constexpr size_t kCohorts = 10;
constexpr int64_t kAdvanceUs = kPeriodUs / kCohorts;
// A ladder rung passes while p90 stays within this (see README: p99 on a
// shared VM is dominated by multi-millisecond scheduling stalls).
constexpr double kRungLimitUs = 1000.0;
// Injects per group of the bounded metrics (0.1 s at the base rate): short
// enough that a burst of machine stalls spoils a few groups, not most.
constexpr size_t kInjectGroup = 500;
// Thread placement rotates this often during a load phase.
constexpr int64_t kRotateNs = 250'000'000;
// In-flight injects of the saturation phase.
constexpr size_t kWindow = 256;

/// One non-blocking client connection, driven from the generator thread.
class Wire {
  public:
    explicit Wire(uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error(std::string("connect() failed: ") + std::strerror(errno));
        }
        int yes = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
        int flags = ::fcntl(fd_, F_GETFL, 0);
        ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
        Frame hello;
        hello.type = FrameType::Hello;
        hello.version = serve::kWireVersion;
        hello.text = "echo";
        queue(hello);
        wait_for(FrameType::Welcome, 5 * kSecond);
    }
    ~Wire() { ::close(fd_); }
    Wire(const Wire&) = delete;
    Wire& operator=(const Wire&) = delete;

    void queue(const Frame& f) {
        Scope s("wire.encode");
        size_t before = out_.size();
        serve::encode_frame(f, out_);
        bytes_out += out_.size() - before;
    }

    void flush() {
        Scope s("socket.send");
        while (off_ < out_.size()) {
            ssize_t n = ::send(fd_, out_.data() + off_, out_.size() - off_, MSG_NOSIGNAL);
            if (n > 0) {
                off_ += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            throw std::runtime_error("send() failed: connection lost");
        }
        if (off_ == out_.size()) {
            out_.clear();
            off_ = 0;
        }
    }

    /// Waits up to `timeout_ns` for the socket, then flushes and reads
    /// whatever it can without blocking.
    void pump(int64_t timeout_ns) {
        pollfd pfd{fd_, static_cast<short>(POLLIN | (off_ < out_.size() ? POLLOUT : 0)), 0};
        timespec ts{timeout_ns / kSecond, timeout_ns % kSecond};
        ::ppoll(&pfd, 1, &ts, nullptr);
        if ((pfd.revents & POLLOUT) != 0) flush();
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
        Scope s("socket.recv");
        uint8_t buf[64 * 1024];
        for (;;) {
            ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n > 0) {
                bytes_in += static_cast<uint64_t>(n);
                reader_.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            throw std::runtime_error("server closed the connection");
        }
    }

    bool next(Frame& f) {
        Scope s("wire.decode");
        return reader_.next(f);
    }

    /// Blocks until a frame of type `want` arrives; Error frames and the
    /// deadline throw. Streamed SessionStatus frames are skipped.
    Frame wait_for(FrameType want, int64_t timeout_ns) {
        int64_t deadline = now_ns() + timeout_ns;
        flush();
        for (;;) {
            Frame f;
            while (next(f)) {
                if (f.type == want) return f;
                if (f.type == FrameType::Error) throw std::runtime_error("server error: " + f.text);
                if (f.type != FrameType::SessionStatus) {
                    throw std::runtime_error(std::string("unexpected frame ") +
                                             serve::frame_type_name(f.type));
                }
            }
            int64_t left = deadline - now_ns();
            if (left <= 0) {
                throw std::runtime_error(std::string("timed out waiting for ") +
                                         serve::frame_type_name(want));
            }
            pump(left);
        }
    }

    uint64_t bytes_out = 0;
    uint64_t bytes_in = 0;

  private:
    int fd_ = -1;
    std::vector<uint8_t> out_;
    size_t off_ = 0;
    serve::FrameReader reader_;
};

/// A running server with one connection and its open sessions.
struct Rig {
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<Wire> wire;
    std::vector<uint64_t> sessions;
    std::vector<int64_t> totals;  // the generator's running sum per session
    std::vector<double> open_us;

    ~Rig() {
        wire.reset();
        if (server) {
            server->request_stop();
            server->wait();
        }
    }
};

/// Set-up: compile, start the server, connect, open `n` sessions one by
/// one. Repeated kSetups times; the last rig is kept.
std::unique_ptr<Rig> set_up(Report& r, size_t n, size_t stagger) {
    std::vector<double> times;
    std::unique_ptr<Rig> rig;
    CompileTotals ct;
    for (int k = 0; k < kSetups; ++k) {
        Scope s("setup", static_cast<uint64_t>(k));
        rig.reset();
        int64_t t0 = now_ns();
        ct = CompileTotals{};
        setup_compile(kEchoCounter, "echo", ct);
        rig = std::make_unique<Rig>();
        serve::Registry reg;
        reg.add("echo", kEchoCounter);
        serve::ServerConfig cfg;
        cfg.workers = kServeWorkers;
        cfg.io_threads = 0;
        rig->server = std::make_unique<serve::Server>(std::move(reg), cfg);
        {
            Scope ss("serve.start");
            rig->server->start();
        }
        rig->wire = std::make_unique<Wire>(rig->server->port());
        for (size_t i = 0; i < n; ++i) {
            if (stagger > 0 && i > 0 && i % (n / stagger) == 0) {
                Frame a;
                a.type = FrameType::Advance;
                a.value = kAdvanceUs;
                rig->wire->queue(a);
                rig->wire->wait_for(FrameType::Advanced, 5 * kSecond);
            }
            Scope so("serve.open", i);
            int64_t o0 = now_ns();
            Frame f;
            f.type = FrameType::Open;
            rig->wire->queue(f);
            Frame got = rig->wire->wait_for(FrameType::SessionOpened, 5 * kSecond);
            rig->open_us.push_back(static_cast<double>(now_ns() - o0) / 1e3);
            rig->sessions.push_back(got.session);
        }
        rig->totals.assign(n, 0);
        times.push_back(ms_since(t0) / 1e3);
    }
    r.metric("setup_s", median(times), "s");
    ct.report(r);
    std::vector<double> open = rig->open_us;
    if (auto v = percentile(open, 0.5)) r.metric("serve.open_p50_us", *v, "us");
    return rig;
}

/// Zipf(1) over `n` sessions, with a seeded rank→session permutation.
class ZipfPicker {
  public:
    ZipfPicker(size_t n, Rng& rng) : cdf_(n), perm_(n) {
        double sum = 0;
        for (size_t i = 0; i < n; ++i) {
            sum += 1.0 / static_cast<double>(i + 1);
            cdf_[i] = sum;
        }
        for (double& c : cdf_) c /= sum;
        for (size_t i = 0; i < n; ++i) perm_[i] = i;
        for (size_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.below(i)]);
    }
    size_t pick(Rng& rng) const {
        size_t rank = static_cast<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), rng.unit()) - cdf_.begin());
        return perm_[std::min(rank, perm_.size() - 1)];
    }

  private:
    std::vector<double> cdf_;
    std::vector<size_t> perm_;
};

struct PhaseResult {
    size_t injects = 0;
    std::vector<double> latency_us, reply_us, reply_to_output_us, lag_us;
    std::vector<int64_t> answered_ns;  // answer instants, ascending
    int64_t t0_ns = 0;
    size_t backlog_max = 0;
    size_t backlog_at_end = 0;   // outstanding when the last inject was sent
    double achieved_per_s = 0;
    bool passed = false;
    uint64_t bytes = 0;
};

/// One load phase of `seconds`. Open loop (window == 0): injects are due
/// every 1/rate s and timed from their due instant. Closed loop (window >
/// 0): `window` injects are kept outstanding, each due when it is sent —
/// the saturation throughput of the path.
PhaseResult drive(Rig& rig, const ZipfPicker& zipf, Rng& rng, double rate, size_t window,
                  double seconds, Report& r) {
    PhaseResult pr;
    const int64_t period = window == 0 ? static_cast<int64_t>(static_cast<double>(kSecond) / rate) : 0;
    size_t n = window == 0 ? static_cast<size_t>(rate * seconds) : SIZE_MAX;
    Wire& w = *rig.wire;
    uint64_t bytes0 = w.bytes_in + w.bytes_out;
    OpenLoopLedger ledger;
    std::vector<int64_t> reply_ns;
    std::deque<size_t> awaiting_reply;
    size_t advances_sent = 0;
    size_t advances_got = 0;
    size_t next = 0;
    bool end_marked = false;
    const int64_t t0 = now_ns() + 1'000'000;
    const int64_t send_end = t0 + static_cast<int64_t>(seconds * kSecond);
    const int64_t hard_deadline = send_end + 5 * kSecond;
    int64_t last_answer = t0;

    int64_t rotated = -1;
    for (;;) {
        int64_t now = now_ns();
        if (int64_t slot = (now - t0) / kRotateNs; slot != rotated) {
            rotated = slot;
            rotate_threads(static_cast<size_t>(std::max<int64_t>(0, slot)));
        }
        if (window > 0 && next < n && now >= send_end) n = next;
        while (next < n && (window == 0 ? t0 + static_cast<int64_t>(next) * period <= now
                                        : now >= t0 && ledger.backlog() < window)) {
            Scope s("loadgen.inject", next);
            size_t si = zipf.pick(rng);
            auto v = 1 + static_cast<int64_t>(rng.below(100));
            rig.totals[si] += v;
            int64_t due = window == 0 ? t0 + static_cast<int64_t>(next) * period : now;
            size_t id = ledger.due(rig.sessions[si], due, rig.totals[si]);
            reply_ns.push_back(-1);
            Frame f;
            f.type = FrameType::Inject;
            f.session = rig.sessions[si];
            f.text = "ADD";
            f.value = v;
            w.queue(f);
            ledger.sent(id, now);
            awaiting_reply.push_back(id);
            if (++next % 100 == 0) {
                Frame a;
                a.type = FrameType::Advance;
                a.value = kAdvanceUs;
                w.queue(a);
                ++advances_sent;
            }
        }
        w.flush();
        if (next == n && !end_marked) {
            end_marked = true;
            pr.backlog_at_end = ledger.backlog();
        }
        if (next == n && ledger.answered() == n && awaiting_reply.empty() &&
            advances_got == advances_sent) {
            break;
        }
        if (now > hard_deadline) {
            r.fail("serve-inject: " + std::to_string(ledger.size() - ledger.answered()) +
                   " injects unanswered at the deadline");
            break;
        }
        int64_t wake = window == 0 && next < n ? t0 + static_cast<int64_t>(next) * period
                                               : now + 1'000'000;
        w.pump(std::max<int64_t>(0, wake - now_ns()));
        int64_t t_recv = now_ns();
        Frame f;
        while (w.next(f)) {
            switch (f.type) {
                case FrameType::InjectReply: {
                    if (awaiting_reply.empty()) {
                        r.fail("serve-inject: unexpected InjectReply");
                        break;
                    }
                    size_t id = awaiting_reply.front();
                    awaiting_reply.pop_front();
                    reply_ns[id] = t_recv;
                    if (f.verdict != static_cast<uint8_t>(reactor::Verdict::Accepted) ||
                        f.session != ledger.op(id).key) {
                        r.fail("serve-inject: inject not accepted");
                    }
                    break;
                }
                case FrameType::Output: {
                    SpanLog::get().mark("loadgen.output", 0, t_recv);
                    std::optional<size_t> id = ledger.answer(f.session, t_recv);
                    if (!id) {
                        r.fail("serve-inject: Output with no outstanding inject");
                        break;
                    }
                    last_answer = t_recv;
                    r.op(f.text == std::to_string(ledger.op(*id).expect),
                         "serve-inject: session " + std::to_string(f.session) + " printed '" +
                             f.text + "', expected " + std::to_string(ledger.op(*id).expect));
                    break;
                }
                case FrameType::Advanced: ++advances_got; break;
                case FrameType::SessionStatus: break;
                default:
                    r.fail(std::string("serve-inject: unexpected ") +
                           serve::frame_type_name(f.type) + " " + f.text);
            }
        }
        pr.backlog_max = std::max(pr.backlog_max, ledger.backlog());
    }
    // Unanswered injects count as attempted and failed.
    for (size_t i = ledger.answered(); i < ledger.size(); ++i) r.op(false, "serve-inject: no Output");

    pr.injects = ledger.size();
    for (size_t id = 0; id < ledger.size(); ++id) {
        const auto& op = ledger.op(id);
        pr.lag_us.push_back(ledger.lag_us(id));
        if (op.answered_ns < 0) continue;
        pr.latency_us.push_back(ledger.latency_us(id));
        pr.answered_ns.push_back(op.answered_ns);
        if (reply_ns[id] >= 0) {
            pr.reply_us.push_back(static_cast<double>(reply_ns[id] - op.sent_ns) / 1e3);
            pr.reply_to_output_us.push_back(static_cast<double>(op.answered_ns - reply_ns[id]) / 1e3);
        }
    }
    std::sort(pr.answered_ns.begin(), pr.answered_ns.end());
    pr.t0_ns = t0;
    pr.achieved_per_s = static_cast<double>(ledger.answered()) /
                        (static_cast<double>(last_answer - t0) / kSecond);
    pr.bytes = w.bytes_in + w.bytes_out - bytes0;
    std::vector<double> lat = pr.latency_us;
    auto p90 = percentile(lat, 0.90);
    pr.passed = p90 && *p90 <= kRungLimitUs && ledger.answered() == ledger.size() &&
                static_cast<double>(pr.backlog_at_end) <= std::max(16.0, rate * 0.002);
    return pr;
}

void report_phase(Report& r, const std::string& prefix, PhaseResult& pr) {
    if (auto v = percentile(pr.latency_us, 0.5)) r.metric(prefix + "_p50_us", *v, "us");
    if (auto v = percentile(pr.latency_us, 0.9)) r.metric(prefix + "_p90_us", *v, "us");
    if (auto v = percentile(pr.latency_us, 0.99)) r.metric(prefix + "_p99_us", *v, "us");
    if (auto v = percentile(pr.latency_us, 0.999)) r.metric(prefix + "_p999_us", *v, "us");
}

}  // namespace

void run_serve_inject(const Options& opt, Report& r) {
    require_cpus(opt, 2 + kServeWorkers, "serve-inject (generator + control + 2 workers)");
    std::unique_ptr<Rig> rig = set_up(r, 2000, kCohorts);
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // the generator's sleeps end on time
    Rng rng(opt.seed);
    ZipfPicker zipf(rig->sessions.size(), rng);

    // Warm-up: the server's pools and buffers and the generator's own
    // grow to steady state before anything is timed.
    (void)drive(*rig, zipf, rng, 5000, 0, 0.5, r);
    PhaseResult base;
    if (opt.trace) {
        SpanLog::get().set_enabled(false);
        PhaseResult untraced = drive(*rig, zipf, rng, 5000, 0, opt.seconds * 0.35, r);
        SpanLog::get().set_enabled(true);
        base = drive(*rig, zipf, rng, 5000, 0, opt.seconds * 0.35, r);
        std::vector<double> a = untraced.latency_us;
        std::vector<double> b = base.latency_us;
        auto pa = percentile(a, 0.5);
        auto pb = percentile(b, 0.5);
        if (pa && pb) report_trace_overhead(r, *pa, *pb);
    } else {
        base = drive(*rig, zipf, rng, 5000, 0, opt.seconds * 0.35, r);
    }
    // Bounded metrics: medians over groups of the base phase.
    if (auto v = median_of_groups(base.latency_us, kInjectGroup, 0.5)) r.metric("latency_p50_us", *v, "us");
    if (auto v = median_of_groups(base.latency_us, kInjectGroup, 0.9)) r.metric("latency_p90_us", *v, "us");
    report_phase(r, "inject_output", base);
    r.metric("inject_output.samples", static_cast<double>(base.latency_us.size()), "count");
    if (auto v = percentile(base.reply_us, 0.5)) r.metric("serve.inject_reply_p50_us", *v, "us");
    if (auto v = percentile(base.reply_us, 0.99)) r.metric("serve.inject_reply_p99_us", *v, "us");
    if (auto v = percentile(base.reply_to_output_us, 0.5)) {
        r.metric("serve.reply_to_output_p50_us", *v, "us");
    }
    r.metric("serve.backlog_max", static_cast<double>(base.backlog_max), "count");
    r.metric("serve.bytes_per_inject",
             static_cast<double>(base.bytes) / static_cast<double>(base.injects), "B");
    if (auto v = percentile(base.lag_us, 0.99)) r.metric("loadgen.lag_p99_us", *v, "us");

    // The rate ladder (untraced runs only): the highest rung, climbing from
    // the base rate, whose p90 stays within 1 ms without a growing backlog.
    if (!opt.trace) {
        double sustained = base.passed ? base.achieved_per_s : 0.0;
        bool climbing = base.passed;
        for (double rate : {10000.0, 20000.0, 40000.0}) {
            if (!climbing) break;
            PhaseResult pr = drive(*rig, zipf, rng, rate, 0, opt.seconds * 0.08, r);
            std::string key = "ladder." + std::to_string(static_cast<int>(rate));
            report_phase(r, key, pr);
            r.metric(key + ".backlog_at_end", static_cast<double>(pr.backlog_at_end), "count");
            climbing = pr.passed;
            if (pr.passed) sustained = pr.achieved_per_s;
        }
        r.metric("inject_rate_sustained", sustained, "injects/s");
        // Saturation: kWindow injects kept in flight, closed loop.
        PhaseResult sat = drive(*rig, zipf, rng, 0, kWindow, opt.seconds * 0.24, r);
        double sat_rate = median_rate(sat.answered_ns, sat.t0_ns, 5000);
        r.metric("serve.saturation_per_s", sat_rate, "1/s");
        r.metric("throughput_per_s", sat_rate, "1/s");
    }
}

void run_serve_migrate(const Options& opt, Report& r) {
    constexpr size_t kGroup = 500;  // cycles per group of the bounded metrics
    require_cpus(opt, 2 + kServeWorkers, "serve-migrate (generator + control + 2 workers)");
    std::unique_ptr<Rig> rig = set_up(r, 500, 0);
    Rng rng(opt.seed);
    Wire& w = *rig->wire;

    struct Samples {
        std::vector<double> migrate_us, detach_us, resume_us, reply_us;
        std::vector<int64_t> done_ns;
        int64_t t0_ns = 0;
        size_t cycles = 0;
        double seconds = 0;
        double blob_bytes = 0;
    };
    // One cycle: k injects + Detach (pipelined), Resume the blob, inject
    // once more on the new session; every Output must continue the count.
    auto cycle = [&](Samples& s, uint64_t op) {
        Scope sc("migrate.cycle", op);
        size_t si = rng.below(rig->sessions.size());
        uint64_t session = rig->sessions[si];
        int k = 1 + static_cast<int>(rng.below(3));
        std::vector<int64_t> expect;
        for (int i = 0; i < k; ++i) {
            auto v = 1 + static_cast<int64_t>(rng.below(100));
            rig->totals[si] += v;
            expect.push_back(rig->totals[si]);
            Frame f;
            f.type = FrameType::Inject;
            f.session = session;
            f.text = "ADD";
            f.value = v;
            w.queue(f);
        }
        int64_t t_inject = now_ns();
        Frame d;
        d.type = FrameType::Detach;
        d.session = session;
        w.queue(d);
        w.flush();
        int64_t t_detach = now_ns();
        bool ok = true;
        size_t outputs = 0;
        size_t replies = 0;
        Frame detached;
        for (bool done = false; !done;) {
            Frame f;
            while (!done && w.next(f)) {
                if (f.type == FrameType::InjectReply) {
                    if (replies++ == 0) s.reply_us.push_back(static_cast<double>(now_ns() - t_inject) / 1e3);
                    ok = ok && f.verdict == static_cast<uint8_t>(reactor::Verdict::Accepted);
                } else if (f.type == FrameType::Output) {
                    ok = ok && outputs < expect.size() && f.session == session &&
                         f.text == std::to_string(expect[outputs]);
                    ++outputs;
                } else if (f.type == FrameType::Detached) {
                    detached = std::move(f);
                    done = true;
                } else if (f.type != FrameType::SessionStatus) {
                    throw std::runtime_error(std::string("serve-migrate: unexpected ") +
                                             serve::frame_type_name(f.type) + " " + f.text);
                }
            }
            if (!done) w.pump(kSecond);
        }
        int64_t t_detached = now_ns();
        Frame res;
        res.type = FrameType::Resume;
        res.blob = std::move(detached.blob);
        s.blob_bytes += static_cast<double>(res.blob.size());
        w.queue(res);
        int64_t t_resume = now_ns();
        Frame opened = w.wait_for(FrameType::SessionOpened, 5 * kSecond);
        int64_t t_opened = now_ns();
        rig->sessions[si] = opened.session;

        auto v = 1 + static_cast<int64_t>(rng.below(100));
        rig->totals[si] += v;
        Frame f;
        f.type = FrameType::Inject;
        f.session = opened.session;
        f.text = "ADD";
        f.value = v;
        w.queue(f);
        w.flush();
        bool replied = false;
        Frame out;
        for (int64_t deadline = now_ns() + 5 * kSecond; out.type != FrameType::Output;) {
            Frame g;
            while (out.type != FrameType::Output && w.next(g)) {
                if (g.type == FrameType::InjectReply) {
                    replied = g.verdict == static_cast<uint8_t>(reactor::Verdict::Accepted);
                } else if (g.type == FrameType::Output) {
                    out = std::move(g);
                } else if (g.type != FrameType::SessionStatus) {
                    throw std::runtime_error(std::string("serve-migrate: unexpected ") +
                                             serve::frame_type_name(g.type) + " " + g.text);
                }
            }
            if (out.type == FrameType::Output) break;
            if (now_ns() > deadline) throw std::runtime_error("serve-migrate: no Output after Resume");
            w.pump(kSecond);
        }
        ok = ok && replies == expect.size() && outputs == expect.size() && replied &&
             out.session == opened.session && out.text == std::to_string(rig->totals[si]);
        r.op(ok, "serve-migrate: session " + std::to_string(session) +
                     " did not continue its count across Detach/Resume");
        s.migrate_us.push_back(static_cast<double>(t_opened - t_detach) / 1e3);
        s.detach_us.push_back(static_cast<double>(t_detached - t_detach) / 1e3);
        s.resume_us.push_back(static_cast<double>(t_opened - t_resume) / 1e3);
        s.done_ns.push_back(now_ns());
        ++s.cycles;
    };
    auto run = [&](double seconds) {
        Samples s;
        int64_t t0 = now_ns();
        s.t0_ns = t0;
        uint64_t op = 0;
        while (ms_since(t0) < seconds * 1e3) {
            if (op % kGroup == 0) rotate_threads(op / kGroup);
            cycle(s, op++);
        }
        s.seconds = ms_since(t0) / 1e3;
        return s;
    };

    Samples main;
    if (opt.trace) {
        SpanLog::get().set_enabled(false);
        Samples untraced = run(opt.seconds * 0.45);
        SpanLog::get().set_enabled(true);
        main = run(opt.seconds * 0.45);
        auto pa = percentile(untraced.migrate_us, 0.5);
        std::vector<double> m = main.migrate_us;
        auto pb = percentile(m, 0.5);
        if (pa && pb) report_trace_overhead(r, *pa, *pb);
    } else {
        main = run(opt.seconds * 0.9);
    }
    if (auto v = median_of_groups(main.migrate_us, kGroup, 0.5)) r.metric("latency_p50_us", *v, "us");
    if (auto v = median_of_groups(main.migrate_us, kGroup, 0.9)) r.metric("latency_p90_us", *v, "us");
    std::vector<double> m = main.migrate_us;
    if (auto v = percentile(m, 0.5)) r.metric("migrate_p50_us", *v, "us");
    if (auto v = percentile(m, 0.99)) r.metric("migrate_p99_us", *v, "us");
    r.metric("migrations_per_s", static_cast<double>(main.cycles) / main.seconds, "1/s");
    r.metric("throughput_per_s", median_rate(main.done_ns, main.t0_ns, kGroup), "1/s");
    r.metric("migrate.samples", static_cast<double>(main.cycles), "count");
    if (auto v = percentile(main.detach_us, 0.5)) r.metric("serve.detach_p50_us", *v, "us");
    if (auto v = percentile(main.resume_us, 0.5)) r.metric("serve.resume_p50_us", *v, "us");
    if (auto v = percentile(main.reply_us, 0.5)) r.metric("serve.inject_reply_p50_us", *v, "us");
    r.metric("serve.blob_bytes", main.blob_bytes / static_cast<double>(std::max<size_t>(1, main.cycles)), "B");
}

}  // namespace perfbench

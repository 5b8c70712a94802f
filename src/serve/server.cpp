#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "host/instance.hpp"
#include "reactor/verdict.hpp"
#include "runtime/snapshot.hpp"

namespace ceu::serve {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
constexpr char kManifestMagic[] = "CEUSRV01";
/// Round cap for quiescing drains (Ping barriers, Detach, shutdown).
constexpr size_t kDrainRoundCap = 1'000'000;

// epoll_event.data sentinels on the control epoll (real conns carry their
// pointer, which is always > 1).
constexpr uint64_t kDataListen = 0;
constexpr uint64_t kDataKick = 1;

void eventfd_signal(int fd) {
    uint64_t one = 1;
    // write() is async-signal-safe; a full counter (EAGAIN) still wakes.
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof one);
}

void eventfd_drain(int fd) {
    uint64_t v;
    while (::read(fd, &v, sizeof v) > 0) {
    }
}

/// Streams a member's reaction spans into its session's pending buffer.
void forward_spans(host::Instance& inst, SessionState* st) {
    inst.add_span_sink([st](const obs::ReactionSpan& span) {
        st->pending_spans.push_back({static_cast<uint8_t>(span.kind), span.seq, span.ts,
                                     static_cast<uint32_t>(span.wakes()),
                                     static_cast<uint32_t>(span.emits())});
    });
}

}  // namespace

Server::Server(Registry registry, ServerConfig cfg)
    : registry_(std::move(registry)),
      cfg_(cfg),
      reactor_([&] {
          reactor::ReactorConfig rc;
          rc.workers = cfg.workers;
          rc.inbox_capacity = cfg.inbox_capacity;
          return rc;
      }()) {
    // Between-round harvest hook: long drains (Detach, Ping, shutdown)
    // stream their outputs per round instead of buffering everything.
    reactor_.on_round_end = [this] { harvest_sessions(); };
}

Server::~Server() {
    request_stop();
    wait();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (control_epfd_ >= 0) ::close(control_epfd_);
    if (control_kick_ >= 0) ::close(control_kick_);
}

void Server::set_nonblocking(int fd) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void Server::start() {
    if (state_.load(std::memory_order_acquire) != State::Idle) {
        throw std::runtime_error("serve: start() called twice");
    }
    if (registry_.size() == 0) {
        throw std::runtime_error("serve: registry has no programs");
    }
    if (!cfg_.resume_dir.empty()) load_resume_manifest();

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
    int yes = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error("serve: bind() failed: " +
                                 std::string(std::strerror(errno)));
    }
    socklen_t alen = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
    port_ = ntohs(addr.sin_port);
    if (::listen(listen_fd_, 512) != 0) {
        throw std::runtime_error("serve: listen() failed");
    }
    set_nonblocking(listen_fd_);

    control_epfd_ = ::epoll_create1(0);
    control_kick_ = ::eventfd(0, EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kDataListen;
    ::epoll_ctl(control_epfd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.u64 = kDataKick;
    ::epoll_ctl(control_epfd_, EPOLL_CTL_ADD, control_kick_, &ev);

    for (size_t i = 0; i < cfg_.io_threads; ++i) {
        auto io = std::make_unique<IoThread>();
        io->epfd = ::epoll_create1(0);
        io->kickfd = ::eventfd(0, EFD_NONBLOCK);
        epoll_event kev{};
        kev.events = EPOLLIN;
        kev.data.ptr = nullptr;  // nullptr marks the kick fd on io epolls
        ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->kickfd, &kev);
        io_.push_back(std::move(io));
    }

    state_.store(State::Running, std::memory_order_release);
    for (size_t i = 0; i < io_.size(); ++i) {
        io_[i]->th = std::thread([this, i] { io_main(i); });
    }
    control_th_ = std::thread([this] { control_main(); });
}

void Server::request_stop() {
    stop_requested_.store(true, std::memory_order_release);
    if (control_kick_ >= 0) eventfd_signal(control_kick_);
}

void Server::wait() {
    if (control_th_.joinable()) control_th_.join();
}

// -- outbox / framing helpers -------------------------------------------------

void Server::send_frame(Conn* conn, const Frame& f) {
    {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        encode_frame(f, conn->outbox);
    }
    if (f.type == FrameType::Output) {
        counters_.outputs.fetch_add(1, std::memory_order_relaxed);
    }
}

void Server::send_error(Conn* conn, const std::string& msg) {
    Frame f;
    f.type = FrameType::Error;
    f.text = msg;
    send_frame(conn, f);
}

void Server::answer_inject(Conn* conn, const Frame& f) {
    reactor::InstanceId member = 0;
    Frame reply;
    reply.type = FrameType::InjectReply;
    reply.session = f.session;
    if (!sessions_.lookup(f.session, member)) {
        reply.verdict = static_cast<uint8_t>(reactor::Verdict::Retired);
    } else {
        reactor::InjectResult r = reactor_.inject(member, f.text, rt::Value::integer(f.value));
        reply.verdict = static_cast<uint8_t>(r.status);
        reply.ticket = r.ticket;
    }
    counters_.injects.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn, reply);
}

void Server::queue_op(Op op) {
    {
        std::lock_guard<std::mutex> lock(ops_mu_);
        ops_.push_back(std::move(op));
    }
    kick_control();
}

void Server::kick_control() { eventfd_signal(control_kick_); }

void Server::kick_io(size_t idx) { eventfd_signal(io_[idx]->kickfd); }

// -- owner-thread socket handling --------------------------------------------

void Server::owner_flush(Conn* conn) {
    if (conn->fd < 0) return;
    std::vector<uint8_t> batch;
    {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        batch.swap(conn->outbox);
    }
    size_t off = 0;
    while (off < batch.size()) {
        ssize_t n = ::send(conn->fd, batch.data() + off, batch.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // Hard write error: the conn is gone; drop the rest.
        if (!conn->dead) {
            conn->dead = true;
            int epfd = conn->io_idx == SIZE_MAX ? control_epfd_
                                                : io_[conn->io_idx]->epfd;
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
            queue_op({Op::Kind::ConnDead, conn, {}});
        }
        return;
    }
    if (off < batch.size()) {
        // Put the unwritten tail back *in front of* anything appended since.
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->outbox.insert(conn->outbox.begin(),
                            batch.begin() + static_cast<std::ptrdiff_t>(off),
                            batch.end());
        if (!conn->want_writable) {
            conn->want_writable = true;
            epoll_event ev{};
            ev.events = EPOLLIN | EPOLLOUT;
            ev.data.ptr = conn;
            int epfd = conn->io_idx == SIZE_MAX ? control_epfd_
                                                : io_[conn->io_idx]->epfd;
            ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn->fd, &ev);
        }
        return;
    }
    if (conn->want_writable) {
        conn->want_writable = false;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = conn;
        int epfd = conn->io_idx == SIZE_MAX ? control_epfd_ : io_[conn->io_idx]->epfd;
        ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    if (conn->closing) {
        bool empty;
        {
            std::lock_guard<std::mutex> lock(conn->out_mu);
            empty = conn->outbox.empty();
        }
        if (empty && !conn->dead) {
            ::shutdown(conn->fd, SHUT_WR);
            conn->dead = true;
            int epfd = conn->io_idx == SIZE_MAX ? control_epfd_
                                                : io_[conn->io_idx]->epfd;
            ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
            queue_op({Op::Kind::ConnDead, conn, {}});
        }
    }
}

void Server::owner_read(Conn* conn) {
    if (conn->dead) return;
    uint8_t buf[kReadChunk];
    bool eof = false;
    for (;;) {
        ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            try {
                conn->reader.feed(buf, static_cast<size_t>(n));
            } catch (const WireError&) {
                eof = true;
                break;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        eof = true;  // orderly EOF or hard error
        break;
    }
    Frame f;
    try {
        while (!conn->dead && conn->reader.next(f)) {
            owner_dispatch(conn, std::move(f));
            f = Frame{};
        }
    } catch (const WireError& e) {
        // Framing violation: report and kill the connection.
        send_error(conn, e.what());
        owner_flush(conn);
        eof = true;
    }
    if (eof && !conn->dead) {
        conn->dead = true;
        int epfd = conn->io_idx == SIZE_MAX ? control_epfd_ : io_[conn->io_idx]->epfd;
        ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
        queue_op({Op::Kind::ConnDead, conn, {}});
    }
}

void Server::owner_dispatch(Conn* conn, Frame&& f) {
    if (!conn->hello_done) {
        if (f.type != FrameType::Hello) {
            throw WireError("expected Hello as the first frame");
        }
        if (f.version != kWireVersion) {
            throw WireError("protocol version " + std::to_string(f.version) +
                            " unsupported (server speaks " +
                            std::to_string(kWireVersion) + ")");
        }
        const Registry::Entry* entry =
            f.text.empty() ? registry_.default_program() : registry_.find(f.text);
        if (entry == nullptr) {
            throw WireError("unknown program '" + f.text + "'");
        }
        if (f.fingerprint != 0 && f.fingerprint != entry->fingerprint) {
            throw WireError("program fingerprint mismatch");
        }
        conn->hello_done = true;
        conn->want_spans = f.flags != 0;
        conn->default_program = entry->name;
        Frame w;
        w.type = FrameType::Welcome;
        w.version = kWireVersion;
        w.fingerprint = entry->fingerprint;
        send_frame(conn, w);
        owner_flush(conn);
        return;
    }
    if (f.type == FrameType::Inject &&
        conn->pending_ops.load(std::memory_order_acquire) == 0) {
        // Fast path: ticket-ordered inject straight from the owner
        // thread. Only valid while no earlier frame from this
        // connection still waits on the control thread (order preservation).
        answer_inject(conn, f);
        owner_flush(conn);
        // There is work to round-schedule now. The control thread kicks
        // itself too: serve-inject runs without this self-kick measured up
        // to 1.3x the inject->Output p90 on a 4-vCPU VM (other sets showed
        // no difference); the cause is not established, so it stays.
        kick_control();
        return;
    }
    conn->pending_ops.fetch_add(1, std::memory_order_acq_rel);
    queue_op({Op::Kind::Frame, conn, std::move(f)});
}

// -- io threads ---------------------------------------------------------------

void Server::io_main(size_t idx) {
    IoThread& io = *io_[idx];
    epoll_event events[64];
    while (!io_stop_.load(std::memory_order_acquire)) {
        int n = ::epoll_wait(io.epfd, events, 64, 200);
        {
            std::lock_guard<std::mutex> lock(io.staging_mu);
            for (Conn* c : io.staging) {
                io.conns.push_back(c);
                epoll_event ev{};
                ev.events = EPOLLIN;
                ev.data.ptr = c;
                ::epoll_ctl(io.epfd, EPOLL_CTL_ADD, c->fd, &ev);
            }
            io.staging.clear();
            // Conns dropped by control. This thread marked each dead and
            // took it out of the epoll set in an earlier pass, before its
            // ConnDead op, so once it is off io.conns nothing here reaches it.
            if (!io.husks.empty()) {
                std::erase_if(io.conns, [](Conn* c) { return c->dead.load(); });
                held_conns_.fetch_sub(io.husks.size(), std::memory_order_release);
                io.husks.clear();
            }
        }
        bool kicked = false;
        for (int i = 0; i < n; ++i) {
            auto* conn = static_cast<Conn*>(events[i].data.ptr);
            if (conn == nullptr) {
                eventfd_drain(io.kickfd);
                kicked = true;
                continue;
            }
            if (conn->dead) continue;
            if ((events[i].events & EPOLLOUT) != 0) owner_flush(conn);
            if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
                owner_read(conn);
            }
        }
        if (kicked) {
            // Control filled outboxes (round outputs, replies) — flush all.
            std::erase_if(io.conns, [](Conn* c) { return c->dead.load(); });
            for (Conn* c : io.conns) owner_flush(c);
        }
    }
    // epfd/kickfd are closed by control *after* the join: the shutdown
    // sequence kicks every io thread once more after setting io_stop_, and
    // that write must never land on a closed (worse: recycled) fd.
}

// -- control thread -----------------------------------------------------------

void Server::control_main() {
    epoll_event events[64];
    while (true) {
        bool pending = reactor_.work_pending();
        int timeout = pending ? 0 : 200;
        int n = ::epoll_wait(control_epfd_, events, 64, timeout);
        for (int i = 0; i < n; ++i) {
            if (events[i].data.u64 == kDataListen) {
                accept_ready();
                continue;
            }
            if (events[i].data.u64 == kDataKick) {
                eventfd_drain(control_kick_);
                continue;
            }
            auto* conn = static_cast<Conn*>(events[i].data.ptr);
            if (conn->dead) continue;
            if ((events[i].events & EPOLLOUT) != 0) owner_flush(conn);
            if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
                owner_read(conn);
            }
        }
        process_ops();
        if (stop_requested_.load(std::memory_order_acquire)) break;
        if (reactor_.work_pending()) {
            reactor_.run_round();  // on_round_end harvests into outboxes
            // Wake owners so freshly harvested output actually hits sockets.
            for (size_t i = 0; i < io_.size(); ++i) kick_io(i);
            for (auto& [fd, conn] : conns_) {
                if (conn->io_idx == SIZE_MAX && !conn->dead) owner_flush(conn.get());
            }
        }
    }

    // -- graceful drain --------------------------------------------------------
    Frame bye;
    bye.type = FrameType::Shutdown;
    bye.text = "server draining";
    for (auto& [fd, conn] : conns_) {
        if (!conn->dead) send_frame(conn.get(), bye);
    }
    drain_to_disk();
    // Final flush, then tear everything down.
    for (size_t i = 0; i < io_.size(); ++i) kick_io(i);
    for (auto& [fd, conn] : conns_) {
        if (conn->io_idx == SIZE_MAX && !conn->dead) owner_flush(conn.get());
    }
    io_stop_.store(true, std::memory_order_release);
    for (size_t i = 0; i < io_.size(); ++i) kick_io(i);
    for (auto& io : io_) {
        if (io->th.joinable()) io->th.join();
        ::close(io->epfd);
        ::close(io->kickfd);
    }
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
    for (auto& io : io_) io->husks.clear();
    held_conns_.store(0, std::memory_order_release);
    state_.store(State::Stopped, std::memory_order_release);
}

void Server::accept_ready() {
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        set_nonblocking(fd);
        int yes = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        counters_.connections.fetch_add(1, std::memory_order_relaxed);
        held_conns_.fetch_add(1, std::memory_order_release);
        Conn* raw = conn.get();
        if (!io_.empty()) {
            size_t idx = static_cast<size_t>(fd) % io_.size();
            raw->io_idx = idx;
            {
                std::lock_guard<std::mutex> lock(io_[idx]->staging_mu);
                io_[idx]->staging.push_back(raw);
            }
            kick_io(idx);
        } else {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = raw;
            ::epoll_ctl(control_epfd_, EPOLL_CTL_ADD, fd, &ev);
        }
        conns_.emplace(fd, std::move(conn));
    }
}

void Server::process_ops() {
    std::vector<Op> batch;
    {
        std::lock_guard<std::mutex> lock(ops_mu_);
        batch.swap(ops_);
    }
    for (Op& op : batch) {
        if (op.kind == Op::Kind::ConnDead) {
            drop_conn(op.conn);
            continue;
        }
        handle_frame_op(op.conn, op.frame);
        op.conn->pending_ops.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void Server::handle_frame_op(Conn* conn, const Frame& f) {
    switch (f.type) {
        case FrameType::Open:
            handle_open(conn, f);
            break;
        case FrameType::Inject:
            // Queued because a control op was in flight ahead of it.
            answer_inject(conn, f);
            break;
        case FrameType::Advance: {
            // Deliver what is already queued at the *current* instant first:
            // "inject then advance" must not teleport the inject into the
            // new instant (script semantics).
            quiesce();
            reactor_.advance(f.value);
            Frame reply;
            reply.type = FrameType::Advanced;
            reply.value = reactor_.now();
            send_frame(conn, reply);
            break;
        }
        case FrameType::Detach:
            handle_detach(conn, f);
            break;
        case FrameType::Resume:
            handle_resume(conn, f);
            break;
        case FrameType::Close:
            handle_close_session(conn, f);
            break;
        case FrameType::Ping: {
            quiesce();
            harvest_sessions();
            Frame reply;
            reply.type = FrameType::Pong;
            reply.ticket = f.ticket;
            send_frame(conn, reply);
            break;
        }
        case FrameType::Bye:
            conn->closing = true;
            break;
        default:
            send_error(conn, std::string("unexpected frame ") +
                                 frame_type_name(f.type));
            break;
    }
    // Whatever the op produced, get it moving.
    if (conn->io_idx == SIZE_MAX) {
        if (!conn->dead || conn->closing) owner_flush(conn);
    } else {
        kick_io(conn->io_idx);
    }
}

SessionState* Server::create_session(Conn* conn, const Registry::Entry& entry,
                                     const std::vector<uint8_t>* blob,
                                     SessionId want_id, std::string* err) {
    host::Config hcfg;
    if (entry.backend == Backend::Aot) hcfg.aot = entry.aot;
    reactor::InstanceId member = reactor_.add_instance(entry.cp, hcfg);

    auto st = std::make_unique<SessionState>();
    st->member = member;
    st->conn_fd = conn != nullptr ? conn->fd : -1;
    st->program = entry.name;
    st->backend = entry.backend;
    st->want_spans = conn != nullptr && conn->want_spans;
    SessionState* raw = st.get();

    host::Instance& inst = reactor_.instance(member);
    if (blob != nullptr) {
        // Resume path: boot *before* wiring sinks, so the phantom boot
        // reaction (whose state the blob overwrites) streams nothing.
        reactor_.boot();
        try {
            inst.load(*blob);
        } catch (const std::exception& e) {
            reactor_.retire(member);
            if (err != nullptr) *err = e.what();
            return nullptr;
        }
        // A snapshot from the future pulls the fleet clock forward: time is
        // virtual and monotonic, and the restored engine's timers are due
        // relative to its own instant. Without this, a session migrated in
        // from a server at t=T would never see its timers fire until the
        // destination fleet happened to pass T.
        if (inst.now() > reactor_.now()) {
            reactor_.advance(inst.now() - reactor_.now());
        }
    }
    inst.add_output_sink(
        [raw](const std::string& line) { raw->pending_out.push_back(line); });
    inst.add_status_sink([raw](rt::Engine::Status s) {
        raw->pending_status.push_back(static_cast<uint8_t>(s));
    });
    if (raw->want_spans) forward_spans(inst, raw);
    if (blob == nullptr) reactor_.boot();  // boot streams through the sinks

    SessionId id;
    if (want_id != 0) {
        if (!sessions_.open_with_id(want_id, std::move(st))) {
            reactor_.retire(member);
            if (err != nullptr) *err = "session id already live";
            return nullptr;
        }
        id = want_id;
    } else {
        id = sessions_.open(std::move(st));
    }
    raw->id = id;
    if (conn != nullptr) conn->sessions.insert(id);
    return raw;
}

void Server::handle_open(Conn* conn, const Frame& f) {
    const Registry::Entry* entry = f.text.empty()
                                       ? registry_.find(conn->default_program)
                                       : registry_.find(f.text);
    if (entry == nullptr) {
        send_error(conn, "unknown program '" + f.text + "'");
        return;
    }
    std::string err;
    SessionState* st = create_session(conn, *entry, nullptr, 0, &err);
    if (st == nullptr) {
        send_error(conn, "open failed: " + err);
        return;
    }
    counters_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
    Frame reply;
    reply.type = FrameType::SessionOpened;
    reply.session = st->id;
    send_frame(conn, reply);
}

void Server::handle_resume(Conn* conn, const Frame& f) {
    // Resolution order: live orphaned session (reattach) -> client-carried
    // blob -> drained-to-disk snapshot from a previous server life.
    if (f.blob.empty() && f.session != 0) {
        if (SessionState* live = sessions_.get(f.session)) {
            unlink_session(*live);
            live->conn_fd = conn->fd;
            if (conn->want_spans && !live->want_spans) {
                live->want_spans = true;
                forward_spans(reactor_.instance(live->member), live);
            }
            conn->sessions.insert(f.session);
            counters_.sessions_resumed.fetch_add(1, std::memory_order_relaxed);
            Frame reply;
            reply.type = FrameType::SessionOpened;
            reply.session = f.session;
            send_frame(conn, reply);
            return;
        }
    }

    const std::vector<uint8_t>* blob = nullptr;
    std::vector<uint8_t> file_blob;
    const Registry::Entry* entry = nullptr;
    if (!f.blob.empty()) {
        entry = f.text.empty() ? registry_.find(conn->default_program)
                               : registry_.find(f.text);
        blob = &f.blob;
    } else {
        auto it = drained_.find(f.session);
        if (it == drained_.end()) {
            send_error(conn, "nothing to resume for session " +
                                 std::to_string(f.session));
            return;
        }
        std::ifstream in(it->second.path, std::ios::binary);
        if (!in) {
            send_error(conn, "drained snapshot unreadable: " + it->second.path);
            return;
        }
        file_blob.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        entry = registry_.find(it->second.program);
        blob = &file_blob;
    }
    if (entry == nullptr) {
        send_error(conn, "unknown program for resume");
        return;
    }
    std::string err;
    SessionState* st = create_session(conn, *entry, blob, f.session, &err);
    if (st == nullptr) {
        send_error(conn, "resume failed: " + err);
        return;
    }
    drained_.erase(st->id);
    counters_.sessions_resumed.fetch_add(1, std::memory_order_relaxed);
    Frame reply;
    reply.type = FrameType::SessionOpened;
    reply.session = st->id;
    send_frame(conn, reply);
}

void Server::handle_detach(Conn* conn, const Frame& f) {
    SessionState* st = sessions_.get(f.session);
    if (st == nullptr) {
        send_error(conn, "unknown session " + std::to_string(f.session));
        return;
    }
    if (st->backend == Backend::Aot) {
        // CEUAOT01 context images are same-process-only; shipping one to a
        // client that may resume elsewhere would be a lie.
        send_error(conn, "session " + std::to_string(f.session) +
                             " is AOT-backed; compiled snapshots cannot "
                             "migrate across processes");
        return;
    }
    quiesce();  // checkpoint at a quiescent reaction boundary
    Frame reply;
    reply.type = FrameType::Detached;
    reply.session = f.session;
    reply.blob = reactor_.instance(st->member).save();
    reactor_.retire(st->member);
    unlink_session(*st);
    std::unique_ptr<SessionState> owned = sessions_.close(f.session);
    if (owned != nullptr) harvest_one(owned.get());  // last outputs first
    send_frame(conn, reply);
}

void Server::handle_close_session(Conn* conn, const Frame& f) {
    std::unique_ptr<SessionState> st = sessions_.close(f.session);
    if (st == nullptr) {
        send_error(conn, "unknown session " + std::to_string(f.session));
        return;
    }
    reactor_.retire(st->member);
    unlink_session(*st);
    harvest_one(st.get());
    Frame reply;
    reply.type = FrameType::SessionClosed;
    reply.session = f.session;
    send_frame(conn, reply);
}

void Server::quiesce() {
    size_t rounds = 0;
    while (reactor_.work_pending() && rounds < kDrainRoundCap) {
        reactor_.run_round();
        ++rounds;
    }
}

void Server::harvest_sessions() {
    for (SessionId id : sessions_.ids()) {
        SessionState* st = sessions_.get(id);
        if (st != nullptr) harvest_one(st);
    }
}

void Server::harvest_one(SessionState* st) {
    if (st->pending_out.empty() && st->pending_spans.empty() &&
        st->pending_status.empty()) {
        return;
    }
    // Orphaned sessions keep buffering: a reconnecting client that Resumes
    // the session receives everything it missed, in order.
    auto it = conns_.find(st->conn_fd);
    if (st->conn_fd < 0 || it == conns_.end() || it->second->dead) return;
    Conn* conn = it->second.get();
    for (std::string& line : st->pending_out) {
        Frame f;
        f.type = FrameType::Output;
        f.session = st->id;
        f.text = std::move(line);
        send_frame(conn, f);
    }
    st->pending_out.clear();
    for (const SpanDigest& d : st->pending_spans) {
        Frame f;
        f.type = FrameType::Span;
        f.session = st->id;
        f.verdict = d.kind;
        f.ticket = d.seq;
        f.value = d.ts;
        f.a = d.wakes;
        f.b = d.emits;
        send_frame(conn, f);
    }
    st->pending_spans.clear();
    for (uint8_t s : st->pending_status) {
        Frame f;
        f.type = FrameType::SessionStatus;
        f.session = st->id;
        f.flags = s;
        send_frame(conn, f);
    }
    st->pending_status.clear();
}

void Server::drop_conn(Conn* conn) {
    // Sessions survive their connection: the kill/reconnect storm resumes
    // them via the live-reattach path. They are only lost on Close/Detach
    // or server drain.
    for (SessionId id : conn->sessions) {
        if (SessionState* st = sessions_.get(id)) {
            if (st->conn_fd == conn->fd) st->conn_fd = -1;
        }
    }
    auto it = conns_.find(conn->fd);
    if (it == conns_.end() || it->second.get() != conn) return;
    ::close(conn->fd);
    conn->fd = -1;
    std::unique_ptr<Conn> husk = std::move(it->second);
    conns_.erase(it);
    size_t idx = conn->io_idx;
    if (idx == SIZE_MAX) {
        // Control owns it, and no op after its ConnDead names it: `husk`
        // frees it here.
        held_conns_.fetch_sub(1, std::memory_order_release);
        return;
    }
    // The owning io thread may still hold the pointer in its conn list: it
    // frees the husk at the start of its next pass.
    {
        std::lock_guard<std::mutex> lock(io_[idx]->staging_mu);
        io_[idx]->husks.push_back(std::move(husk));
    }
    kick_io(idx);
}

void Server::unlink_session(const SessionState& st) {
    auto it = conns_.find(st.conn_fd);
    if (st.conn_fd >= 0 && it != conns_.end()) it->second->sessions.erase(st.id);
}

// -- drain / resume -----------------------------------------------------------

void Server::drain_to_disk() {
    std::vector<reactor::Reactor::DrainedMember> members =
        reactor_.drain_and_checkpoint(kDrainRoundCap);
    harvest_sessions();
    if (cfg_.drain_dir.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(cfg_.drain_dir, ec);

    // member id -> session (sessions are what the manifest speaks).
    std::map<reactor::InstanceId, const reactor::Reactor::DrainedMember*> by_member;
    for (const auto& m : members) by_member[m.id] = &m;

    std::ofstream manifest(cfg_.drain_dir + "/MANIFEST");
    manifest << kManifestMagic << "\n";
    manifest << "fleet_now " << reactor_.now() << "\n";
    manifest << "next_session " << sessions_.next_id() << "\n";
    for (SessionId id : sessions_.ids()) {
        SessionState* st = sessions_.get(id);
        if (st == nullptr) continue;
        auto mit = by_member.find(st->member);
        if (mit == by_member.end()) continue;  // terminated: nothing to resume
        if (st->backend == Backend::Aot) {
            manifest << "skipped " << id << " " << st->program
                     << " aot-same-process-only\n";
            continue;
        }
        std::string path = cfg_.drain_dir + "/" + std::to_string(id) + ".snap";
        std::ofstream snap(path, std::ios::binary);
        snap.write(reinterpret_cast<const char*>(mit->second->snapshot.data()),
                   static_cast<std::streamsize>(mit->second->snapshot.size()));
        manifest << "session " << id << " " << st->program << "\n";
        counters_.drained.fetch_add(1, std::memory_order_relaxed);
    }
}

void Server::load_resume_manifest() {
    std::ifstream in(cfg_.resume_dir + "/MANIFEST");
    if (!in) return;  // nothing drained: fresh start
    std::string line;
    if (!std::getline(in, line) || line != kManifestMagic) {
        throw std::runtime_error("serve: bad drain manifest in " + cfg_.resume_dir);
    }
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "fleet_now") {
            ls >> resumed_fleet_now_;
        } else if (key == "next_session") {
            SessionId next = 0;
            ls >> next;
            if (next > 0) sessions_.reserve_ids_through(next - 1);
        } else if (key == "session") {
            SessionId id = 0;
            std::string program;
            ls >> id >> program;
            drained_[id] = {program,
                            cfg_.resume_dir + "/" + std::to_string(id) + ".snap"};
        }
    }
    // Restore the fleet instant before any member exists: resumed sessions
    // sync to it lazily, exactly like crash-restored supervision members.
    if (resumed_fleet_now_ > 0) reactor_.advance(resumed_fleet_now_);
}

}  // namespace ceu::serve

// serve::Server — the reactor as a network service.
//
// One process hosts one `reactor::Reactor` (1..N workers) and exposes it
// over TCP speaking CEUWIRE1 (wire.hpp): sessions are reactor members
// created on Open from a named program registry (interpreter or AOT
// backend), events flow through the existing any-thread ticket-ordered
// `Reactor::inject()` path, and everything a session produces — output
// lines, reaction-span digests, status transitions — streams back through
// the `host::Instance` embedder-sink surface. No serve code reaches into
// engine internals.
//
// Threading model (mirrors the reactor's own contract):
//   - The *control* thread owns everything with a between-rounds contract:
//     accept, session open/close/detach/resume, fleet-clock advances,
//     scheduling rounds, and harvesting the per-session streaming buffers
//     that shard workers filled during the round.
//   - Optional *io* threads (ServerConfig::io_threads) each epoll a share
//     of the connections. An Inject frame takes the fast path — a direct
//     lock-free `Reactor::inject()` from the io thread plus an immediate
//     InjectReply — unless an earlier frame from the same connection is
//     still queued for the control thread (the per-connection
//     `pending_ops` counter), in which case it queues too: per-connection
//     frame order is preserved exactly, which is what the determinism
//     contract needs. All other frames are control ops.
//   - A connection's socket is only ever written by its owning thread;
//     other threads fill its outbox (mutex) and kick the owner (eventfd).
//
// Determinism: time is virtual (Advance frames), never wall-clock, and a
// pending-event round runs *before* an Advance is applied, so "inject then
// advance" on one connection keeps script semantics. A recorded script
// replayed through one connection produces byte-identical per-session
// streams whatever the worker count — `ctest -L serve` gates 1/2/8.
//
// Graceful drain: request_stop() (async-signal-safe — the SIGTERM handler
// calls it) makes the control thread stop accepting, notify clients
// (Shutdown), run `Reactor::drain_and_checkpoint()`, and write every live
// interpreted session's CEUHST01 blob plus a MANIFEST into
// ServerConfig::drain_dir. A server started with ServerConfig::resume_dir
// pointing there restores the fleet clock and serves Resume frames for the
// drained ids — traces continue byte-identical-thereafter. AOT-backed
// sessions are skipped with a manifest note: CEUAOT01 images are
// same-process-only (see ROADMAP, AOT gaps).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "reactor/reactor.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace ceu::serve {

struct ServerConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral; read back via port()).
    uint16_t port = 0;
    /// Reactor worker threads (the fleet's shards).
    size_t workers = 1;
    /// Extra inject-fast-path io threads. 0 = the control thread owns all
    /// connections too (simplest; fine up to moderate connection counts).
    size_t io_threads = 0;
    /// Per-member inbox bound forwarded to the reactor (0 = unbounded).
    uint32_t inbox_capacity = 0;
    /// Where SIGTERM drain writes checkpoints (empty = drain discards).
    std::string drain_dir;
    /// Where to look for a previous drain's MANIFEST at startup.
    std::string resume_dir;
};

/// Monotonic service counters (relaxed atomics; bench/tools sample them).
struct ServerCounters {
    std::atomic<uint64_t> connections{0};
    std::atomic<uint64_t> sessions_opened{0};
    std::atomic<uint64_t> sessions_resumed{0};
    std::atomic<uint64_t> injects{0};
    std::atomic<uint64_t> outputs{0};
    std::atomic<uint64_t> drained{0};
};

class Server {
  public:
    /// The registry is fixed at construction (immutable while serving).
    Server(Registry registry, ServerConfig cfg);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds + starts the control (and io) threads. Throws std::runtime_error
    /// on socket failure. Returns once the listener is live.
    void start();
    /// Bound port (valid after start()).
    [[nodiscard]] uint16_t port() const { return port_; }

    /// Begins shutdown: stop accepting, notify clients, drain + checkpoint.
    /// Async-signal-safe (atomic store + eventfd write).
    void request_stop();
    /// Blocks until the server fully stopped (drain included).
    void wait();
    [[nodiscard]] bool stopped() const {
        return state_.load(std::memory_order_acquire) == State::Stopped;
    }

    [[nodiscard]] const ServerCounters& counters() const { return counters_; }
    [[nodiscard]] size_t live_sessions() const { return sessions_.size(); }
    /// Connections whose memory the server still holds: the live ones plus
    /// dropped ones an io thread has yet to free (see drop_conn).
    [[nodiscard]] size_t held_connections() const {
        return held_conns_.load(std::memory_order_acquire);
    }

  private:
    struct Conn {
        int fd = -1;
        size_t io_idx = SIZE_MAX;      // owning io thread (SIZE_MAX = control)
        FrameReader reader;
        bool hello_done = false;
        bool want_spans = false;
        std::string default_program;
        // Written by the owner (dead) / control (closing), but read across
        // that boundary: control's drain paths poll any conn's dead flag,
        // and an io owner polls closing. Atomic — the readers are advisory
        // (a stale read just defers the action one wakeup).
        std::atomic<bool> dead{false};  // owner stopped reading it
        std::atomic<bool> closing{false};  // graceful: shut write once flushed
        // Live sessions this connection owns (their conn_fd is fd). Control
        // thread only.
        std::unordered_set<SessionId> sessions;

        // Any-thread: frames queued to control but not yet processed. While
        // nonzero, the owner must queue Injects too (order preservation).
        std::atomic<uint32_t> pending_ops{0};

        // Outbox: filled under mutex by control or owner, drained by owner.
        std::mutex out_mu;
        std::vector<uint8_t> outbox;
        bool want_writable = false;    // EPOLLOUT armed (owner thread only)
    };

    struct Op {
        enum class Kind : uint8_t { Frame, ConnDead } kind = Kind::Frame;
        Conn* conn = nullptr;
        Frame frame;
    };

    struct IoThread {
        int epfd = -1;
        int kickfd = -1;
        std::thread th;
        std::mutex staging_mu;
        std::vector<Conn*> staging;    // control -> io: adopt these conns
        std::vector<std::unique_ptr<Conn>> husks;  // control -> io: free these
        std::vector<Conn*> conns;      // io thread private
    };

    /// One drained-to-disk session (parsed from a resume_dir MANIFEST).
    struct DrainedSession {
        std::string program;
        std::string path;  // snapshot file
    };

    enum class State : uint8_t { Idle, Running, Stopped };

    // -- control thread --------------------------------------------------------
    void control_main();
    void accept_ready();
    void process_ops();
    void handle_frame_op(Conn* conn, const Frame& f);
    void handle_open(Conn* conn, const Frame& f);
    void handle_resume(Conn* conn, const Frame& f);
    void handle_detach(Conn* conn, const Frame& f);
    void handle_close_session(Conn* conn, const Frame& f);
    void quiesce();                       ///< rounds until !work_pending (capped)
    void harvest_sessions();              ///< pending buffers -> conn outboxes
    void harvest_one(SessionState* st);
    void drop_conn(Conn* conn);           ///< orphan sessions, close fd, free
    /// Takes `st` off its owning connection's list (before a close, a
    /// detach or a reattach elsewhere).
    void unlink_session(const SessionState& st);
    void drain_to_disk();
    void load_resume_manifest();
    SessionState* create_session(Conn* conn, const Registry::Entry& entry,
                                 const std::vector<uint8_t>* blob,
                                 SessionId want_id, std::string* err);

    // -- owner-thread io (control for its conns, io threads for theirs) -------
    void io_main(size_t idx);
    void owner_read(Conn* conn);          ///< drain socket, dispatch frames
    void owner_dispatch(Conn* conn, Frame&& f);
    void owner_flush(Conn* conn);         ///< write outbox (partial-safe)
    void queue_op(Op op);
    void kick_control();
    void kick_io(size_t idx);

    // -- helpers ---------------------------------------------------------------
    void send_frame(Conn* conn, const Frame& f);  ///< outbox append (any thread)
    void send_error(Conn* conn, const std::string& msg);
    /// Injects an Inject frame into its session's member and queues the
    /// InjectReply (verdict + ticket). Owner or control thread.
    void answer_inject(Conn* conn, const Frame& f);
    static void set_nonblocking(int fd);

    Registry registry_;
    ServerConfig cfg_;
    reactor::Reactor reactor_;
    SessionMap sessions_;
    ServerCounters counters_;

    int listen_fd_ = -1;
    int control_epfd_ = -1;
    int control_kick_ = -1;
    uint16_t port_ = 0;
    std::atomic<State> state_{State::Idle};
    std::atomic<bool> stop_requested_{false};
    std::thread control_th_;
    std::vector<std::unique_ptr<IoThread>> io_;
    std::atomic<bool> io_stop_{false};

    std::mutex ops_mu_;
    std::vector<Op> ops_;

    // Conns are created on accept (control thread). drop_conn frees a
    // control-owned conn at once and hands an io-owned one to its io
    // thread, which frees it at the start of its next pass (IoThread::husks).
    std::map<int, std::unique_ptr<Conn>> conns_;
    std::atomic<size_t> held_conns_{0};

    std::map<SessionId, DrainedSession> drained_;  // resume_dir inventory
    int64_t resumed_fleet_now_ = 0;
};

}  // namespace ceu::serve

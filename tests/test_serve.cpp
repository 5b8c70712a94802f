// Reactor-as-a-service suite (`ctest -L serve`).
//
// Three layers, matching the serve stack:
//   1. CEUWIRE1 codec — golden round-trips for every frame type, and the
//      reject paths: truncation, trailing garbage, unknown type, corrupt
//      magic, hostile length. A malformed frame must throw, never decode
//      into a subtly wrong op.
//   2. SessionMap under concurrency — open/lookup/close races (the TSan CI
//      job runs this binary).
//   3. The server itself over loopback: handshake accept/reject, the
//      create-on-connect session lifecycle, the shared reactor::Verdict on
//      the wire, span/status streaming, and the two PR headline gates —
//      a recorded script replayed at 1/2/8 workers produces byte-identical
//      per-session traces, and a drained server restarted from its
//      checkpoint directory resumes sessions byte-identical-thereafter.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "reactor/verdict.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace {

using namespace ceu;
using namespace ceu::serve;

// ---------------------------------------------------------------------------
// 1. Wire codec
// ---------------------------------------------------------------------------

std::vector<uint8_t> encode(const Frame& f) {
    std::vector<uint8_t> bytes;
    encode_frame(f, bytes);
    return bytes;
}

/// Strips the u32 length prefix.
std::vector<uint8_t> payload_of(const std::vector<uint8_t>& bytes) {
    EXPECT_GE(bytes.size(), 4u);
    return {bytes.begin() + 4, bytes.end()};
}

Frame round_trip(const Frame& f) {
    std::vector<uint8_t> p = payload_of(encode(f));
    return decode_frame(p.data(), p.size());
}

TEST(WireCodec, HelloRoundTrip) {
    Frame f;
    f.type = FrameType::Hello;
    f.version = kWireVersion;
    f.flags = 1;
    f.text = "quickstart";
    f.fingerprint = 0xfeedfacecafebeefull;
    Frame g = round_trip(f);
    EXPECT_EQ(g.type, FrameType::Hello);
    EXPECT_EQ(g.version, kWireVersion);
    EXPECT_EQ(g.flags, 1);
    EXPECT_EQ(g.text, "quickstart");
    EXPECT_EQ(g.fingerprint, 0xfeedfacecafebeefull);
}

TEST(WireCodec, InjectRoundTrip) {
    Frame f;
    f.type = FrameType::Inject;
    f.session = 42;
    f.text = "Restart";
    f.value = -7;
    Frame g = round_trip(f);
    EXPECT_EQ(g.type, FrameType::Inject);
    EXPECT_EQ(g.session, 42u);
    EXPECT_EQ(g.text, "Restart");
    EXPECT_EQ(g.value, -7);
}

TEST(WireCodec, InjectReplyCarriesVerdictAndTicket) {
    Frame f;
    f.type = FrameType::InjectReply;
    f.session = 3;
    f.verdict = static_cast<uint8_t>(reactor::Verdict::Shed);
    f.ticket = 991;
    Frame g = round_trip(f);
    EXPECT_EQ(g.verdict, static_cast<uint8_t>(reactor::Verdict::Shed));
    EXPECT_EQ(g.ticket, 991u);
}

TEST(WireCodec, BlobFramesRoundTrip) {
    std::vector<uint8_t> blob(4096);
    for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i);
    for (FrameType t : {FrameType::Detached, FrameType::Resume}) {
        Frame f;
        f.type = t;
        f.session = 9;
        f.blob = blob;
        if (t == FrameType::Resume) f.text = "prog";
        Frame g = round_trip(f);
        EXPECT_EQ(g.type, t);
        EXPECT_EQ(g.session, 9u);
        EXPECT_EQ(g.blob, blob);
    }
}

TEST(WireCodec, EveryTypeRoundTripsItsFields) {
    // One representative frame per type; fields not in the type's schema
    // must come back at their defaults (they are not on the wire at all).
    for (uint8_t raw = 1; raw <= 76; ++raw) {
        bool known = (raw >= 1 && raw <= 9) || (raw >= 65 && raw <= 76);
        if (!known) continue;
        Frame f;
        f.type = static_cast<FrameType>(raw);
        f.version = kWireVersion;
        f.flags = 1;
        f.verdict = 2;
        f.session = 7;
        f.ticket = 8;
        f.fingerprint = 9;
        f.value = -10;
        f.a = 11;
        f.b = 12;
        f.text = "t";
        f.blob = {1, 2, 3};
        Frame g = round_trip(f);
        EXPECT_EQ(g.type, f.type) << "type " << int(raw);
        // Re-encoding the decode must be byte-identical (golden property:
        // the codec is its own inverse on the schema'd fields).
        EXPECT_EQ(encode(g), encode(round_trip(g))) << "type " << int(raw);
    }
}

TEST(WireCodec, TruncatedPayloadRejected) {
    Frame f;
    f.type = FrameType::Inject;
    f.session = 1;
    f.text = "event";
    f.value = 5;
    std::vector<uint8_t> p = payload_of(encode(f));
    for (size_t n = 0; n < p.size(); ++n) {
        EXPECT_THROW(decode_frame(p.data(), n), WireError) << "len " << n;
    }
}

TEST(WireCodec, TrailingGarbageRejected) {
    Frame f;
    f.type = FrameType::Ping;
    f.ticket = 4;
    std::vector<uint8_t> p = payload_of(encode(f));
    p.push_back(0);
    EXPECT_THROW(decode_frame(p.data(), p.size()), WireError);
}

TEST(WireCodec, UnknownTypeRejected) {
    for (uint8_t raw : {0, 10, 42, 64, 77, 255}) {
        uint8_t p[1] = {raw};
        EXPECT_THROW(decode_frame(p, 1), WireError) << "type " << int(raw);
    }
}

TEST(WireCodec, CorruptMagicRejected) {
    Frame f;
    f.type = FrameType::Hello;
    f.version = kWireVersion;
    std::vector<uint8_t> p = payload_of(encode(f));
    p[1] ^= 0x20;  // 'E' -> 'e' in the magic
    EXPECT_THROW(decode_frame(p.data(), p.size()), WireError);
}

TEST(WireCodec, HostileLengthRejectedBeforeBuffering) {
    FrameReader r;
    uint32_t huge = kMaxPayload + 1;
    uint8_t prefix[4];
    std::memcpy(prefix, &huge, 4);
    EXPECT_THROW(r.feed(prefix, 4), WireError);
}

TEST(WireCodec, ReaderReassemblesByteByByte) {
    Frame a;
    a.type = FrameType::Output;
    a.session = 5;
    a.text = "v = 7";
    Frame b;
    b.type = FrameType::Pong;
    b.ticket = 17;
    std::vector<uint8_t> stream = encode(a);
    std::vector<uint8_t> bb = encode(b);
    stream.insert(stream.end(), bb.begin(), bb.end());

    FrameReader r;
    std::vector<Frame> got;
    Frame out;
    for (uint8_t byte : stream) {
        r.feed(&byte, 1);
        while (r.next(out)) got.push_back(out);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, FrameType::Output);
    EXPECT_EQ(got[0].text, "v = 7");
    EXPECT_EQ(got[1].type, FrameType::Pong);
    EXPECT_EQ(got[1].ticket, 17u);
    EXPECT_EQ(r.buffered(), 0u);
}

// The wire reply byte IS the reactor verdict — one vocabulary, no mapping
// layer to drift. These values are protocol; the test pins them.
TEST(WireCodec, VerdictValuesArePinned) {
    EXPECT_EQ(static_cast<uint8_t>(reactor::Verdict::Accepted), 0);
    EXPECT_EQ(static_cast<uint8_t>(reactor::Verdict::Shed), 1);
    EXPECT_EQ(static_cast<uint8_t>(reactor::Verdict::Retired), 2);
    EXPECT_EQ(static_cast<uint8_t>(reactor::Verdict::UnknownEvent), 3);
    EXPECT_STREQ(reactor::verdict_name(reactor::Verdict::Accepted), "accepted");
    EXPECT_STREQ(reactor::verdict_name(reactor::Verdict::Shed), "shed");
    EXPECT_STREQ(reactor::verdict_name(reactor::Verdict::Retired), "retired");
    EXPECT_STREQ(reactor::verdict_name(reactor::Verdict::UnknownEvent),
                 "unknown-event");
    EXPECT_TRUE(reactor::verdict_valid(3));
    EXPECT_FALSE(reactor::verdict_valid(4));
}

// ---------------------------------------------------------------------------
// 2. SessionMap concurrency (TSan target)
// ---------------------------------------------------------------------------

TEST(SessionMap, OpenLookupCloseRace) {
    SessionMap map;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> hits{0};

    // Io-thread role: resolve injects against whatever exists right now.
    // Each reader does a final full pass after the opener finishes, so the
    // hit count is nonzero even if the opener's burst outruns the spin-up.
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            auto pass = [&] {
                for (SessionId id : map.ids()) {
                    reactor::InstanceId member = 0;
                    if (map.lookup(id, member)) {
                        hits.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            };
            while (!stop.load()) pass();
            // The guaranteed pass: stop is set only after the opener's
            // burst, so the map is populated here even if every racing
            // pass above ran before the first open (single-core boxes).
            pass();
        });
    }
    // Control-thread role: open and close sessions.
    std::thread opener([&] {
        for (int i = 0; i < 2000; ++i) {
            auto st = std::make_unique<SessionState>();
            st->member = static_cast<reactor::InstanceId>(i);
            SessionId id = map.open(std::move(st));
            if (i % 3 == 0) map.close(id);
        }
        stop.store(true);
    });
    opener.join();
    for (auto& th : readers) th.join();
    EXPECT_GT(hits.load(), 0u);
    EXPECT_EQ(map.size(), 2000u - 667u);
}

TEST(SessionMap, OpenWithIdPreservesAndCollides) {
    SessionMap map;
    auto a = std::make_unique<SessionState>();
    EXPECT_TRUE(map.open_with_id(41, std::move(a)));
    auto b = std::make_unique<SessionState>();
    EXPECT_FALSE(map.open_with_id(41, std::move(b)));  // taken
    // Fresh assignment never collides with a reserved id.
    EXPECT_EQ(map.open(std::make_unique<SessionState>()), 42u);
}

// ---------------------------------------------------------------------------
// 3. Loopback server
// ---------------------------------------------------------------------------

const char* const kCounter = R"(
    input int Restart;
    internal void changed;
    int v = 0;
    par do
       loop do
          await 1s;
          v = v + 1;
          emit changed;
       end
    with
       loop do
          v = await Restart;
          emit changed;
       end
    with
       loop do
          await changed;
          _printf("v = %d\n", v);
       end
    end
)";

const char* const kOneShot = R"(
    input int Go;
    int v = await Go;
    _printf("done %d\n", v);
    escape v;
)";

Registry make_registry() {
    Registry reg;
    reg.add("counter", kCounter);
    reg.add("oneshot", kOneShot);
    return reg;
}

struct ServerGuard {
    explicit ServerGuard(ServerConfig cfg, Registry reg = make_registry())
        : server(std::move(reg), cfg) {
        server.start();
    }
    ~ServerGuard() {
        server.request_stop();
        server.wait();
    }
    Server server;
};

TEST(Serve, HandshakeAndWelcomeFingerprint) {
    ServerGuard g({});
    Client c;
    c.connect(g.server.port(), "counter");
    EXPECT_NE(c.fingerprint(), 0u);
    // Pinning the correct fingerprint succeeds.
    Client c2;
    c2.connect(g.server.port(), "counter", false, c.fingerprint());
    c.bye();
    c2.bye();
}

TEST(Serve, HandshakeRejectsWrongVersion) {
    ServerGuard g({});
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(g.server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    Frame hello;
    hello.type = FrameType::Hello;
    hello.version = 99;
    std::vector<uint8_t> bytes = encode(hello);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    // The server must answer Error (mentioning versions) and close.
    FrameReader reader;
    Frame f;
    bool got_error = false;
    uint8_t buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        reader.feed(buf, static_cast<size_t>(n));
        while (reader.next(f)) {
            if (f.type == FrameType::Error) {
                got_error = true;
                EXPECT_NE(f.text.find("version"), std::string::npos) << f.text;
            }
        }
    }
    ::close(fd);
    EXPECT_TRUE(got_error);
}

TEST(Serve, HandshakeRejectsUnknownProgramAndBadFingerprint) {
    ServerGuard g({});
    Client c;
    EXPECT_THROW(c.connect(g.server.port(), "no-such-program"), ClientError);
    Client c2;
    EXPECT_THROW(c2.connect(g.server.port(), "counter", false, 0xdeadbeefull),
                 ClientError);
}

TEST(Serve, OpenInjectAdvanceStreamsOutputs) {
    ServerConfig cfg;
    cfg.workers = 2;
    ServerGuard g(cfg);
    Client c;
    c.connect(g.server.port(), "counter");
    uint64_t s = c.open();
    Frame r = c.inject(s, "Restart", 7);
    EXPECT_EQ(r.verdict, static_cast<uint8_t>(reactor::Verdict::Accepted));
    Frame r2 = c.inject(s, "Restart", 7);
    EXPECT_GT(r2.ticket, r.ticket);  // tickets are the global injection order
    c.advance(2'000'000);  // two timer periods
    c.ping();
    EXPECT_EQ(c.trace_text(s), "v = 7\nv = 7\nv = 8\nv = 9\n");
    c.bye();
}

TEST(Serve, SharedVerdictVocabularyOnTheWire) {
    ServerGuard g({});
    Client c;
    c.connect(g.server.port(), "counter");
    uint64_t s = c.open();
    // Unknown event: the reactor's verdict, unchanged, on the wire.
    Frame r = c.inject(s, "NoSuchEvent", 1);
    EXPECT_EQ(r.verdict, static_cast<uint8_t>(reactor::Verdict::UnknownEvent));
    // Unknown session: Retired (id space says "gone", not "never was").
    Frame r2 = c.inject(777, "Restart", 1);
    EXPECT_EQ(r2.verdict, static_cast<uint8_t>(reactor::Verdict::Retired));
    c.bye();
}

TEST(Serve, SessionStatusTransitionsStream) {
    ServerGuard g({});
    Client c;
    c.connect(g.server.port(), "oneshot");
    uint64_t s = c.open();
    c.inject(s, "Go", 5);
    c.ping();
    EXPECT_EQ(c.trace_text(s), "done 5\n");
    const std::vector<uint8_t>& st = c.statuses(s);
    ASSERT_FALSE(st.empty());
    EXPECT_EQ(st.back(), static_cast<uint8_t>(rt::Engine::Status::Terminated));
    c.bye();
}

/// Adds 100 / v for every v: `ADD 0` is a dynamic error (division by zero).
const char* const kDivider = R"(
    input int ADD;
    int total = 0;
    int v = 0;
    loop do
       v = await ADD;
       total = total + 100 / v;
       _printf("total %d\n", total);
    end
)";

TEST(Serve, FaultedSessionIsReportedAndTheOthersKeepServing) {
    // A session's dynamic error is its own verdict: the client hears
    // SessionStatus(Faulted) for it, and every other session keeps going.
    Registry reg;
    reg.add("divider", kDivider);
    ServerGuard g({}, std::move(reg));
    Client c;
    c.connect(g.server.port(), "divider");
    uint64_t bad = c.open();
    uint64_t good = c.open();
    Frame r = c.inject(bad, "ADD", 0);
    EXPECT_EQ(r.verdict, static_cast<uint8_t>(reactor::Verdict::Accepted));
    c.ping();
    const std::vector<uint8_t>& st = c.statuses(bad);
    ASSERT_FALSE(st.empty());
    EXPECT_EQ(st.back(), static_cast<uint8_t>(rt::Engine::Status::Faulted));
    EXPECT_EQ(c.trace_text(bad), "");

    c.inject(good, "ADD", 5);
    c.ping();
    EXPECT_EQ(c.trace_text(good), "total 20\n");
    ASSERT_FALSE(c.statuses(good).empty());
    EXPECT_EQ(c.statuses(good).back(),
              static_cast<uint8_t>(rt::Engine::Status::Running));
    c.bye();
}

TEST(Serve, SpanStreamingOptIn) {
    ServerGuard g({});
    Client c;
    c.connect(g.server.port(), "counter", /*want_spans=*/true);
    uint64_t s = c.open();
    c.inject(s, "Restart", 1);
    c.ping();
    ASSERT_FALSE(c.spans(s).empty());
    // Some reaction (the Restart wake) emitted the internal `changed`; the
    // first span is typically the boot reaction, which emits nothing.
    bool saw_emit = false;
    for (const Frame& span : c.spans(s)) saw_emit = saw_emit || span.b >= 1;
    EXPECT_TRUE(saw_emit);
    // And the no-spans default stays silent.
    Client quiet;
    quiet.connect(g.server.port(), "counter");
    uint64_t q = quiet.open();
    quiet.inject(q, "Restart", 1);
    quiet.ping();
    EXPECT_TRUE(quiet.spans(q).empty());
    c.bye();
    quiet.bye();
}

/// Replays the recorded script through one connection against a fresh
/// server with `workers` shards; returns per-session traces.
std::vector<std::string> replay(size_t workers, size_t sessions) {
    ServerConfig cfg;
    cfg.workers = workers;
    ServerGuard g(cfg);
    Client c;
    c.connect(g.server.port(), "counter");
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < sessions; ++i) ids.push_back(c.open());
    // The recorded script: staggered injects + time, interleaved across
    // sessions — the shape a real fan-in produces.
    for (int step = 0; step < 5; ++step) {
        for (size_t i = 0; i < ids.size(); ++i) {
            c.inject(ids[i], "Restart", static_cast<int64_t>(100 * step + i));
        }
        c.advance(500'000);
    }
    c.ping();
    std::vector<std::string> traces;
    for (uint64_t id : ids) traces.push_back(c.trace_text(id));
    c.bye();
    return traces;
}

TEST(Serve, ReplayDeterminismAcrossWorkerCounts) {
    std::vector<std::string> w1 = replay(1, 6);
    std::vector<std::string> w2 = replay(2, 6);
    std::vector<std::string> w8 = replay(8, 6);
    ASSERT_EQ(w1.size(), w2.size());
    ASSERT_EQ(w1.size(), w8.size());
    for (size_t i = 0; i < w1.size(); ++i) {
        EXPECT_EQ(w1[i], w2[i]) << "session " << i << " diverged at 2 workers";
        EXPECT_EQ(w1[i], w8[i]) << "session " << i << " diverged at 8 workers";
        EXPECT_FALSE(w1[i].empty());
    }
}

TEST(Serve, DetachResumeMigratesAcrossServers) {
    // Control: one uninterrupted session.
    ServerGuard control({});
    Client cc;
    cc.connect(control.server.port(), "counter");
    uint64_t cs = cc.open();
    cc.inject(cs, "Restart", 10);
    cc.advance(1'000'000);
    cc.inject(cs, "Restart", 50);
    cc.advance(1'000'000);
    cc.ping();
    std::string expect = cc.trace_text(cs);
    cc.bye();

    // Migrated: same script, but the session changes servers halfway.
    ServerGuard a({});
    ServerGuard b({});
    Client ca;
    ca.connect(a.server.port(), "counter");
    uint64_t s1 = ca.open();
    ca.inject(s1, "Restart", 10);
    ca.advance(1'000'000);
    ca.ping();
    std::string first_half = ca.trace_text(s1);
    std::vector<uint8_t> blob = ca.detach(s1);
    ASSERT_FALSE(blob.empty());
    ca.bye();

    Client cb;
    cb.connect(b.server.port(), "counter");
    uint64_t s2 = cb.resume(0, blob);
    cb.inject(s2, "Restart", 50);
    cb.advance(1'000'000);
    cb.ping();
    std::string second_half = cb.trace_text(s2);
    cb.bye();

    EXPECT_EQ(first_half + second_half, expect);
}

TEST(Serve, DrainCheckpointsAndRestartResumesByteIdentical) {
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "ceu_serve_drain_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Control: uninterrupted run.
    ServerGuard control({});
    Client cc;
    cc.connect(control.server.port(), "counter");
    uint64_t cs = cc.open();
    cc.inject(cs, "Restart", 3);
    cc.advance(1'000'000);
    cc.inject(cs, "Restart", 30);
    cc.advance(1'000'000);
    cc.ping();
    std::string expect = cc.trace_text(cs);
    cc.bye();

    uint64_t drained_id = 0;
    std::string first_half;
    {
        ServerConfig cfg;
        cfg.drain_dir = dir.string();
        ServerGuard g(cfg);
        Client c;
        c.connect(g.server.port(), "counter");
        drained_id = c.open();
        c.inject(drained_id, "Restart", 3);
        c.advance(1'000'000);
        c.ping();
        first_half = c.trace_text(drained_id);
        // SIGTERM path: request_stop drains live sessions to disk. The
        // client just vanishes (no Close) — the session must be drained.
        c.disconnect();
    }  // ~ServerGuard: request_stop + wait
    ASSERT_TRUE(fs::exists(dir / "MANIFEST"));

    // Restart from the drain directory; resume the pre-drain id.
    ServerConfig cfg2;
    cfg2.resume_dir = dir.string();
    ServerGuard g2(cfg2);
    Client c2;
    c2.connect(g2.server.port(), "counter");
    uint64_t rid = c2.resume(drained_id);
    EXPECT_EQ(rid, drained_id);  // id preserved so traces line up
    c2.inject(rid, "Restart", 30);
    c2.advance(1'000'000);
    c2.ping();
    std::string second_half = c2.trace_text(rid);
    c2.bye();

    EXPECT_EQ(first_half + second_half, expect);
    fs::remove_all(dir);
}

TEST(Serve, ConnectionDeathOrphansThenReattachResumes) {
    ServerGuard g({});
    uint64_t id = 0;
    {
        Client c;
        c.connect(g.server.port(), "counter");
        id = c.open();
        c.inject(id, "Restart", 4);
        c.ping();
        EXPECT_EQ(c.trace_text(id), "v = 4\n");
        c.disconnect();  // abrupt: no Bye, no Close
    }
    // The session survives, orphaned, and keeps reacting; outputs buffer.
    Client c2;
    c2.connect(g.server.port(), "counter");
    c2.advance(1'000'000);  // fires the orphan's timer: "v = 5" buffered
    uint64_t back = c2.resume(id);  // live reattach
    EXPECT_EQ(back, id);
    c2.ping();
    EXPECT_EQ(c2.trace_text(id), "v = 5\n");
    // Still the same session: state carried across the reattach.
    c2.inject(id, "Restart", 9);
    c2.ping();
    EXPECT_EQ(c2.trace_text(id), "v = 5\nv = 9\n");
    c2.bye();
}

TEST(Serve, IoThreadsPreserveSemantics) {
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.io_threads = 2;
    ServerGuard g(cfg);
    Client c;
    c.connect(g.server.port(), "counter");
    uint64_t s = c.open();
    c.inject(s, "Restart", 7);
    c.advance(1'000'000);
    c.ping();
    EXPECT_EQ(c.trace_text(s), "v = 7\nv = 8\n");
    c.bye();
}

TEST(Serve, InjectsRacingCloseNeverReachTheSlotsNextSession) {
    // Sessions churn on one connection: each Close retires the session's
    // reactor member and frees its slot, and the next Open reuses it.
    // Another connection keeps injecting into whichever session was opened
    // last, from its io thread, so some injects race the Close that frees
    // the member and the Open that takes the slot over. Each such inject is
    // Accepted or Retired; none reaches the slot's next session.
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.io_threads = 2;
    ServerGuard g(cfg);
    Client churn;
    churn.connect(g.server.port(), "counter");
    std::atomic<uint64_t> latest{churn.open()};
    std::atomic<bool> done{false};
    std::thread racer([&] {
        Client c;
        c.connect(g.server.port(), "counter");
        while (!done.load()) {
            uint64_t target = latest.load();
            Frame r = c.inject(target, "Restart", static_cast<int64_t>(1'000'000 + target));
            EXPECT_TRUE(r.verdict == static_cast<uint8_t>(reactor::Verdict::Accepted) ||
                        r.verdict == static_cast<uint8_t>(reactor::Verdict::Retired));
        }
        c.bye();
    });
    std::vector<uint64_t> closed;
    for (int i = 0; i < 200; ++i) {
        uint64_t s = latest.load();
        churn.inject(s, "Restart", i);
        churn.close_session(s);  // flushes s's outputs first
        closed.push_back(s);
        latest.store(churn.open());
    }
    done.store(true);
    racer.join();
    for (size_t i = 0; i < closed.size(); ++i) {
        uint64_t s = closed[i];
        std::string own = "v = " + std::to_string(1'000'000 + s);
        for (const std::string& line : churn.outputs(s)) {
            EXPECT_TRUE(line == "v = " + std::to_string(i) || line == own)
                << "session " << s << " got " << line;
        }
    }
    EXPECT_EQ(g.server.live_sessions(), 1u);
    churn.bye();
}

TEST(Serve, DroppedConnectionsAreFreed) {
    // A client that reconnects in a loop must not grow the server: a
    // dropped connection is freed once no thread can reach it — at once
    // without io threads, after its io thread's next pass with them.
    for (size_t io_threads : {0u, 2u}) {
        SCOPED_TRACE(io_threads);
        ServerConfig cfg;
        cfg.io_threads = io_threads;
        ServerGuard g(cfg);
        for (int i = 0; i < 1000; ++i) {
            Client c;
            c.connect(g.server.port(), "counter");  // Hello / Welcome
            c.disconnect();
        }
        Client live;
        live.connect(g.server.port(), "counter");
        live.ping();
        // The last drops may still be in flight: their ConnDead ops, and
        // with io threads the hand-over of the husks.
        auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (g.server.held_connections() > 1 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(g.server.held_connections(), 1u);
        live.bye();
    }
}

TEST(Serve, ShutdownAnnouncesToConnectedClients) {
    auto g = std::make_unique<ServerGuard>(ServerConfig{});
    Client c;
    c.connect(g->server.port(), "counter");
    uint64_t s = c.open();
    c.inject(s, "Restart", 1);
    c.ping();
    g->server.request_stop();
    g->server.wait();
    // The Shutdown frame is flushed before the server closes its side.
    c.bye();  // drains to EOF
    EXPECT_TRUE(c.server_shutdown());
    g.reset();
}

}  // namespace

// Event-loop core tests: EventLoop timers/fds/post (both backends — epoll
// and the poll(2) fallback), the WorkerPool, a golden wire transcript of
// the party server, and the slow-loris deadline behavior of the
// readiness-driven core. Suite names start with NetLoop so the TSan CI leg's
// -R "...|Net" regex picks every test up.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "distributed/party.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace waves::net {
namespace {

using namespace std::chrono_literals;

Deadline soon() { return deadline_in(std::chrono::milliseconds(2000)); }

core::RandWave::Params params() {
  return {.eps = 0.2, .window = 1024, .c = 36};
}

// ---------------------------------------------------------------------------
// EventLoop — parameterized over the backend (true = epoll, false = poll).

class NetLoopBackend : public ::testing::TestWithParam<bool> {};

TEST_P(NetLoopBackend, BackendSelectionHonored) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  // Forcing poll must actually select poll; preferring epoll may still
  // fall back where epoll is unavailable, so only the forced case is exact.
  if (!GetParam()) {
    EXPECT_FALSE(loop.using_epoll());
  }
}

TEST_P(NetLoopBackend, PostMarshalsClosuresFromOtherThreads) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> ran{0};
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  std::vector<std::jthread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        loop.post([&ran] { ran.fetch_add(1); });
      }
    });
  }
  posters.clear();  // join posters
  const auto give_up = Clock::now() + 2s;
  while (ran.load() < 200 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 200);
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, TimerFiresOnceNearItsDelay) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> fires{0};
  const auto t0 = Clock::now();
  std::atomic<std::int64_t> fired_after_ms{-1};
  loop.post([&] {
    (void)loop.arm_timer(20ms, [&] {
      fires.fetch_add(1);
      fired_after_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - t0)
                               .count());
    });
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto give_up = Clock::now() + 2s;
  while (fires.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(50ms);  // would catch a double fire
  EXPECT_EQ(fires.load(), 1);
  // One-shot, roughly on time: no earlier than the delay minus one tick.
  EXPECT_GE(fired_after_ms.load(),
            20 - EventLoop::kTimerTick.count());
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, CancelledTimerNeverFires) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> fires{0};
  std::atomic<bool> cancelled{false};
  loop.post([&] {
    const EventLoop::TimerId id =
        loop.arm_timer(30ms, [&] { fires.fetch_add(1); });
    loop.cancel_timer(id);
    cancelled.store(true);
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto give_up = Clock::now() + 2s;
  while (!cancelled.load() && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fires.load(), 0);
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, MultiLapTimerRidesTheRoundsCounter) {
  // kTimerTick * kTimerSlots is the wheel's one-lap horizon (~1s); a delay
  // past it must carry a rounds counter and still fire.
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  const auto horizon = EventLoop::kTimerTick * EventLoop::kTimerSlots;
  std::atomic<int> fires{0};
  const auto t0 = Clock::now();
  std::atomic<std::int64_t> fired_after_ms{-1};
  loop.post([&] {
    (void)loop.arm_timer(horizon + 100ms, [&] {
      fires.fetch_add(1);
      fired_after_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                               Clock::now() - t0)
                               .count());
    });
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto give_up = Clock::now() + horizon + 3s;
  while (fires.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(fires.load(), 1);
  EXPECT_GE(fired_after_ms.load(),
            std::chrono::duration_cast<std::chrono::milliseconds>(horizon)
                .count());
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, OverdueTimerClampsToZeroInsteadOfBlocking) {
  // Regression: when the loop thread falls behind (a handler runs past a
  // timer's due time), the next-timeout computation used to wrap negative
  // under unsigned duration arithmetic — and epoll_wait treats a negative
  // timeout as "block forever", freezing every timer until the next fd
  // event. The overdue slot must clamp to 0 and fire immediately.
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  std::atomic<int> fires{0};
  loop.post([&] {
    (void)loop.arm_timer(10ms, [&] { fires.fetch_add(1); });
    // Stall the loop thread well past the due time before it ever gets to
    // compute a poll timeout for that timer.
    std::this_thread::sleep_for(120ms);
  });
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });
  const auto t0 = Clock::now();
  const auto give_up = t0 + 5s;
  while (fires.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fires.load(), 1);
  // Generous bound: the stall is 120ms; anything near the 5s give-up means
  // the loop blocked on a wrapped timeout. No fd traffic arrives in this
  // test, so only the (fixed) timeout math can wake the loop.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - t0)
                .count(),
            2000);
  runner.request_stop();
  loop.wake();
}

TEST_P(NetLoopBackend, FdReadinessDispatchesHandler) {
  EventLoop loop(GetParam());
  ASSERT_TRUE(loop.ok());
  Listener listener;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
  Socket client = tcp_connect("127.0.0.1", listener.port(), soon());
  ASSERT_TRUE(client.valid());
  Socket server = listener.accept_one(soon());
  ASSERT_TRUE(server.valid());

  std::atomic<int> reads{0};
  char buf[16];
  const int sfd = server.fd();
  // Loop thread not running yet, so registration from here is safe.
  ASSERT_TRUE(loop.add_fd(sfd, /*read=*/true, /*write=*/false,
                          [&, sfd](std::uint32_t events) {
                            if ((events & EventLoop::kReadable) == 0) return;
                            while (::recv(sfd, buf, sizeof buf, 0) > 0) {
                            }
                            reads.fetch_add(1);
                          }));
  EXPECT_EQ(loop.fd_count(), 1u);
  std::jthread runner([&](const std::stop_token& st) { loop.run(st); });

  ASSERT_TRUE(client.send_all("x", 1, soon()));
  const auto give_up = Clock::now() + 2s;
  while (reads.load() == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(reads.load(), 1);
  runner.request_stop();
  loop.wake();
}

INSTANTIATE_TEST_SUITE_P(Backends, NetLoopBackend, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return std::string(p.param ? "epoll" : "poll");
                         });

// ---------------------------------------------------------------------------
// WorkerPool

TEST(NetLoopPool, RunsEveryJobAcrossWorkers) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  const auto give_up = Clock::now() + 5s;
  while (ran.load() < 200 && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 200);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(NetLoopPool, DefaultWorkerCountIsBoundedSmall) {
  const std::size_t n = default_worker_count();
  EXPECT_GE(n, 2u);
  EXPECT_LE(n, 8u);
}

// ---------------------------------------------------------------------------
// Live server over raw frames.

struct RawConn {
  Socket sock;

  [[nodiscard]] static RawConn open(std::uint16_t port) {
    RawConn c;
    c.sock = tcp_connect("127.0.0.1", port, soon());
    EXPECT_TRUE(c.sock.valid());
    return c;
  }

  Frame exchange(MsgType type, const Bytes& payload) {
    EXPECT_TRUE(write_frame(sock, type, payload, soon()));
    Frame f;
    EXPECT_EQ(read_frame(sock, f, soon()), ReadStatus::kOk);
    return f;
  }
};

// ---------------------------------------------------------------------------
// Golden wire transcript: a fixed script against a fixed-seed CountParty
// behind a fresh generation-1 server, every reply's type and payload bytes
// pinned to constants. Any change to what a party puts on the wire shows
// up here as a byte diff. A DeltaReply payload is request_id, generation,
// role, base_cursor, cursor, then the length-prefixed body: the two full
// forms below differ only in their request_id byte (the second bootstrap
// of an unchanged party re-ships the first under the same cursor).

std::string to_hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * b.size());
  for (const std::uint8_t v : b) {
    s.push_back(kDigits[v >> 4]);
    s.push_back(kDigits[v & 0xf]);
  }
  return s;
}

struct GoldenStep {
  const char* what;
  MsgType type;
  const char* payload_hex;
};

constexpr GoldenStep kGolden[] = {
    {"hello", MsgType::kHelloAck, "01000240960101"},
    {"request without tag 1", MsgType::kDeltaReply,
     "01010100019601960102960108107f02010201020102010201020102"
     "01021069010201020102010201020102010201065701020102010657"
     "0102010201015701570000087e67460000000000960108107f020102"
     "010201020102010201020102105e0305060301030605060303030103"
     "050b5a030f0409050606030405075a032706030405045a0334050291"
     "0105019101019101087e5d000000000000"},
    {"tag 1, since_cursor 0", MsgType::kDeltaReply,
     "02010100019601960102960108107f02010201020102010201020102"
     "01021069010201020102010201020102010201065701020102010657"
     "0102010201015701570000087e67460000000000960108107f020102"
     "010201020102010201020102105e0305060301030605060303030103"
     "050b5a030f0409050606030405075a032706030405045a0334050291"
     "0105019101019101087e5d000000000000"},
    {"delta after ingest", MsgType::kDeltaReply,
     "03010101024ebe010200be0108080801050505050505050c0f000006"
     "000006000001000001000000000000000000be010808080105050505"
     "0505050c090206190106011f00020000020000000000000000000000"},
    {"unchanged", MsgType::kDeltaReply, "040101020200"},
    {"wrong role", MsgType::kErr,
     "05021770617274792073657276657320726f6c6520636f756e74"},
    {"subscribe ack", MsgType::kPushUpdate,
     "06010101be01000171be0102be0108108b0102010201020102010505"
     "0505050505017f000000000000088a0167460000000000be0108108b"
     "01020102010201020105050505050505098401030303010305061906"
     "8401060304051f058401060304050291010502910105019101019101"
     "088a015e000000000000"},
    {"malformed header", MsgType::kErr,
     "00010f6d616c666f726d6564206672616d65"},
};

TEST(NetLoopGolden, WireTranscriptMatchesConstants) {
  const core::RandWave::Params p{.eps = 0.5, .window = 64, .c = 4};
  distributed::CountParty party(p, 2, 77);
  for (int i = 0; i < 150; ++i) party.observe((i % 3) != 1);
  ServerConfig cfg;
  cfg.generation = 1;
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());
  RawConn c = RawConn::open(server.port());

  std::vector<Frame> got;
  Hello hello;
  hello.client_id = 42;
  got.push_back(c.exchange(MsgType::kHello, hello.encode()));

  SnapshotRequest req;
  req.request_id = 1;
  req.role = PartyRole::kCount;
  req.n = 64;
  got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

  // The since_cursor of each delta request echoes the previous reply's
  // cursor, exactly as a mirroring client does.
  auto last_cursor = [&got] {
    DeltaReply r;
    EXPECT_TRUE(DeltaReply::decode(got.back().payload, r));
    return r.cursor;
  };
  req.request_id = 2;
  req.delta_capable = true;
  req.since_cursor = 0;
  got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

  for (int i = 0; i < 40; ++i) party.observe((i % 5) == 0);
  req.request_id = 3;
  req.since_cursor = last_cursor();
  got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

  req.request_id = 4;
  req.since_cursor = last_cursor();
  got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

  SnapshotRequest wrong;
  wrong.request_id = 5;
  wrong.role = PartyRole::kDistinct;
  wrong.n = 64;
  got.push_back(c.exchange(MsgType::kSnapshotRequest, wrong.encode()));

  SubscribeRequest sub;
  sub.request_id = 6;
  sub.role = PartyRole::kCount;
  sub.n = 64;
  sub.has_slack = true;
  sub.slack = 1e18;  // never drifts: only the ack push arrives
  sub.check_every_ms = 50;
  got.push_back(c.exchange(MsgType::kSubscribe, sub.encode()));

  std::array<std::uint8_t, kHeaderSize> bad{'J', 'U', 'N', 'K'};
  ASSERT_TRUE(c.sock.send_all(bad.data(), bad.size(), soon()));
  Frame err;
  ASSERT_EQ(read_frame(c.sock, err, soon()), ReadStatus::kOk);
  got.push_back(err);

  ASSERT_EQ(got.size(), std::size(kGolden));
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(kGolden[i].what);
    EXPECT_EQ(got[i].type, kGolden[i].type);
    EXPECT_EQ(to_hex(got[i].payload), kGolden[i].payload_hex);
  }
}

// Live-server behaviors: handshake, query, subscribe ack.
TEST(NetLoopServer, HelloQuerySubscribeAllServe) {
  distributed::CountParty party(params(), 3, 5);
  for (int i = 0; i < 2000; ++i) party.observe(i % 2 == 0);
  PartyServer server(ServerConfig{}, &party);
  ASSERT_TRUE(server.start());

  RawConn c = RawConn::open(server.port());
  Hello hello;
  const Frame ack = c.exchange(MsgType::kHello, hello.encode());
  ASSERT_EQ(ack.type, MsgType::kHelloAck);
  HelloAck decoded;
  ASSERT_TRUE(HelloAck::decode(ack.payload, decoded));
  EXPECT_EQ(decoded.role, PartyRole::kCount);
  EXPECT_EQ(decoded.window, 1024u);

  SnapshotRequest req;
  req.request_id = 1;
  req.role = PartyRole::kCount;
  req.n = 1024;
  // No tag 1: answered with the self-contained full form.
  const Frame rep = c.exchange(MsgType::kSnapshotRequest, req.encode());
  ASSERT_EQ(rep.type, MsgType::kDeltaReply);
  DeltaReply full;
  ASSERT_TRUE(DeltaReply::decode(rep.payload, full));
  EXPECT_EQ(full.base_cursor, 0u);
  EXPECT_FALSE(full.body.empty());

  SubscribeRequest sub;
  sub.request_id = 2;
  sub.role = PartyRole::kCount;
  sub.n = 1024;
  sub.has_slack = true;
  sub.slack = 1e18;  // never drifts: only the initial ack push arrives
  sub.check_every_ms = 50;
  const Frame push = c.exchange(MsgType::kSubscribe, sub.encode());
  EXPECT_EQ(push.type, MsgType::kPushUpdate);

  Unsubscribe unsub;
  unsub.request_id = 3;
  ASSERT_TRUE(write_frame(c.sock, MsgType::kUnsubscribe, unsub.encode(),
                          soon()));
  // Back in request/reply mode.
  req.request_id = 4;
  const Frame rep2 = c.exchange(MsgType::kSnapshotRequest, req.encode());
  ASSERT_EQ(rep2.type, MsgType::kDeltaReply);
  ASSERT_TRUE(DeltaReply::decode(rep2.payload, full));
  EXPECT_EQ(full.base_cursor, 0u);
}

// ---------------------------------------------------------------------------
// Slow loris: the event-loop core must expire stalled partial frames via the
// deadline wheel without stalling any other session.

TEST(NetLoopSlowLoris, StalledPartialHeaderExpiresOthersUnaffected) {
  distributed::CountParty party(params(), 3, 9);
  for (int i = 0; i < 1000; ++i) party.observe(true);
  ServerConfig cfg;
  cfg.io_deadline = std::chrono::milliseconds(200);
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

  // The attacker: three header bytes, then silence.
  Socket loris = tcp_connect("127.0.0.1", server.port(), soon());
  ASSERT_TRUE(loris.valid());
  const auto header = put_header(MsgType::kHello, 0);
  ASSERT_TRUE(loris.send_all(header.data(), 3, soon()));

  // Healthy sessions keep being served the whole time the loris stalls.
  RawConn healthy = RawConn::open(server.port());
  Hello hello;
  EXPECT_EQ(healthy.exchange(MsgType::kHello, hello.encode()).type,
            MsgType::kHelloAck);
  SnapshotRequest req;
  req.role = PartyRole::kCount;
  req.n = 1024;
  const auto until = Clock::now() + 600ms;
  int served = 0;
  while (Clock::now() < until) {
    req.request_id = static_cast<std::uint64_t>(served + 1);
    ASSERT_EQ(healthy.exchange(MsgType::kSnapshotRequest, req.encode()).type,
              MsgType::kDeltaReply);
    ++served;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(served, 10);

  // By now the loris is far past io_deadline: the server must have closed
  // it (EOF on our side), not left the connection parked forever.
  char byte = 0;
  const IoResult r = loris.recv_exact(&byte, 1, soon());
  EXPECT_EQ(r, IoResult::kClosed);
}

TEST(NetLoopSlowLoris, StalledPayloadExpiresToo) {
  distributed::CountParty party(params(), 3, 9);
  ServerConfig cfg;
  cfg.io_deadline = std::chrono::milliseconds(150);
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

  // Full header promising 100 payload bytes; send only 10 and stall.
  Socket loris = tcp_connect("127.0.0.1", server.port(), soon());
  ASSERT_TRUE(loris.valid());
  const auto header = put_header(MsgType::kHello, 100);
  ASSERT_TRUE(loris.send_all(header.data(), header.size(), soon()));
  const char partial[10] = {};
  ASSERT_TRUE(loris.send_all(partial, sizeof partial, soon()));

  char byte = 0;
  EXPECT_EQ(loris.recv_exact(&byte, 1, soon()), IoResult::kClosed);
}

}  // namespace
}  // namespace waves::net

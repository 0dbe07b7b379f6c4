// Event-loop core tests: EventLoop timers/fds/post (both backends — epoll
// and the poll(2) fallback), golden wire transcripts of the party server,
// and the slow-loris deadline and write-backpressure behavior of the
// connection core. Suite names start with NetLoop so the TSan CI leg's
// -R "...|Net" regex picks every test up.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
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

// The same guard for the rest of the delta chain: a distinct-role pull
// chain and subscribe ack, and one delta push per checkpoint flavour.
// Each push subscribes with a one-item slack and a drift timer that never
// fires within the test, ingests, then sends a Hello: the drift check that
// runs after every processed frame emits the push right behind the
// HelloAck, with no timer involved.

constexpr GoldenStep kGoldenDistinct[] = {
    {"hello", MsgType::kHelloAck, "02000240960101"},
    {"since_cursor 0", MsgType::kDeltaReply,
     "01010200019a02960102960108100987012e015301130138015d011d"
     "014201020127014c010c013101560116013b01103c78610121015004"
     "10013501640424014901090138045d011d014c040c01310110585818"
     "012c06400600015405140128063c06500610016405240138064c060c"
     "01065858400d5406501364064c0d0164840100000008860174530000"
     "000000960108100987012e015301130138015d011d01420102012701"
     "4c010c013101560116013b01103c78210246012b0250015a03640309"
     "0313035d02020327014c01310256013b020f185947045b064a051e07"
     "3c092b055001090913035d0202034c023102560108185947045b064a"
     "053c10090f310c560104185947045b063130025b633130015b630008"
     "8601762c0000000000"},
    {"delta after ingest", MsgType::kDeltaReply,
     "02010201028702be010200be0108001046af0151015c01060111011c"
     "01270132013d01480153015e01080113011e012901280010589f010d"
     "0218013903440104032503300151035c0111021c013d034801080329"
     "032a010b050b00052c04580418034404040330045c041c0348040803"
     "2c01030304580e44075c0b4807000100010000000000000000000000"
     "00be0108001046af0151015c01060111011c01270132013d01480153"
     "015e01080113011e0129012800104d9e01020218025a0604010f0130"
     "033b01460151015c0127043d02080413011e01260307020101010307"
     "37080204180204070f0113121e010001050302180e04070001030102"
     "180f04070001010101041600000000000000"},
    {"unchanged", MsgType::kDeltaReply, "030102020200"},
    {"subscribe ack", MsgType::kPushUpdate,
     "04010102be0100019602be0102be01081046af0151015c0106011101"
     "1c01270132013d01480153015e01080113011e01290110589f010d02"
     "18013903440104032503300151035c0111021c013d03480108032903"
     "10648401240138064c060c0100052c04580418034404040330045c04"
     "1c034804080307507e64064c0d580e44075c0b480701648401000000"
     "08ae019e017f0000000000be01081046af0151015c01060111011c01"
     "270132013d01480153015e01080113011e012901104d9e0102021802"
     "5a0604010f0130033b01460151015c0127043d02080413011e010d50"
     "7e09095d054c053102560137080204180204070f0113121e01050987"
     "01310c5601180e040703319301180f0407023193010416000008ae01"
     "9c012c0000000000"},
    {"hello after ingest", MsgType::kHelloAck, "02000240dc0101"},
    {"push delta", MsgType::kPushUpdate,
     "04020102dc0101028e02dc010200dc0108001004cd0111011e012b01"
     "3801450152010601130120012d013a0147015401080115011e001000"
     "bf010d01340341011c0429015003040111013803450120042d015403"
     "080115011a0307030102010109000734041c05500404013804200554"
     "04080105010304025014540e0000000000000000000000000001dc01"
     "081004cd0111011e012b013801450152010601130120012d013a0147"
     "015401080115011027c201410202020f013603500204011e022b0113"
     "0520012d013a014701080215010e18a201412202020f01500504011e"
     "022b01130520012d013a01470115030618a201042b20092d01470215"
     "030418a201042b2d0a47020104cd01000008cc01b7012c0000000000"},
};

constexpr GoldenStep kGoldenCountPush[] = {
    {"hello", MsgType::kHelloAck, "01000240960101"},
    {"subscribe ack", MsgType::kPushUpdate,
     "01010101960100019601960102960108107f02010201020102010201"
     "02010201021069010201020102010201020102010201065701020102"
     "0106570102010201015701570000087e67460000000000960108107f"
     "020102010201020102010201020102105e0305060301030605060303"
     "030103050b5a030f0409050606030405075a032706030405045a0334"
     "0502910105019101019101087e5d000000000000"},
    {"hello after ingest", MsgType::kHelloAck, "01000240be0101"},
    {"push delta", MsgType::kPushUpdate,
     "01020101be0101024ebe010200be0108080801050505050505050c0f"
     "000006000006000001000001000000000000000000be010808080105"
     "0505050505050c090206190106011f00020000020000000000000000"
     "000000"},
};

template <std::size_t N>
void expect_golden(const std::vector<Frame>& got,
                   const GoldenStep (&want)[N]) {
  ASSERT_EQ(got.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(want[i].what);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(to_hex(got[i].payload), want[i].payload_hex);
  }
}

// Subscribes `role` with a one-item slack and no timely drift timer,
// runs `ingest`, then sends a Hello; appends the ack, the HelloAck and the
// drift push to `got`.
template <class Ingest>
void golden_push(RawConn& c, PartyRole role, std::uint64_t request_id,
                 Ingest&& ingest, std::vector<Frame>& got) {
  SubscribeRequest sub;
  sub.request_id = request_id;
  sub.role = role;
  sub.n = 64;
  sub.has_slack = true;
  sub.slack = 1;
  sub.check_every_ms = 60000;
  got.push_back(c.exchange(MsgType::kSubscribe, sub.encode()));
  ingest();
  got.push_back(c.exchange(MsgType::kHello, Hello{42}.encode()));
  Frame push;
  EXPECT_EQ(read_frame(c.sock, push, soon()), ReadStatus::kOk);
  got.push_back(push);
}

TEST(NetLoopGolden, DistinctChainAndPushDeltasMatchConstants) {
  {
    const core::DistinctWave::Params p{
        .eps = 0.5, .window = 64, .max_value = 255, .c = 4};
    distributed::DistinctParty party(p, 2, 77);
    for (std::uint64_t i = 0; i < 150; ++i) party.observe((i * 37) % 101);
    ServerConfig cfg;
    cfg.generation = 1;
    PartyServer server(cfg, &party);
    ASSERT_TRUE(server.start());
    RawConn c = RawConn::open(server.port());

    std::vector<Frame> got;
    got.push_back(c.exchange(MsgType::kHello, Hello{42}.encode()));
    auto last_cursor = [&got] {
      DeltaReply r;
      EXPECT_TRUE(DeltaReply::decode(got.back().payload, r));
      return r.cursor;
    };
    SnapshotRequest req;
    req.request_id = 1;
    req.role = PartyRole::kDistinct;
    req.n = 64;
    req.delta_capable = true;
    req.since_cursor = 0;
    got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

    for (std::uint64_t i = 0; i < 40; ++i) party.observe((i * 11) % 97);
    req.request_id = 2;
    req.since_cursor = last_cursor();
    got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

    req.request_id = 3;
    req.since_cursor = last_cursor();
    got.push_back(c.exchange(MsgType::kSnapshotRequest, req.encode()));

    golden_push(
        c, PartyRole::kDistinct, 4,
        [&party] {
          for (std::uint64_t i = 0; i < 30; ++i) party.observe((i * 13) % 89);
        },
        got);
    expect_golden(got, kGoldenDistinct);
  }
  {
    const core::RandWave::Params p{.eps = 0.5, .window = 64, .c = 4};
    distributed::CountParty party(p, 2, 77);
    for (int i = 0; i < 150; ++i) party.observe((i % 3) != 1);
    ServerConfig cfg;
    cfg.generation = 1;
    PartyServer server(cfg, &party);
    ASSERT_TRUE(server.start());
    RawConn c = RawConn::open(server.port());

    std::vector<Frame> got;
    got.push_back(c.exchange(MsgType::kHello, Hello{42}.encode()));
    golden_push(
        c, PartyRole::kCount, 1,
        [&party] {
          for (int i = 0; i < 40; ++i) party.observe((i % 5) == 0);
        },
        got);
    expect_golden(got, kGoldenCountPush);
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

// ---------------------------------------------------------------------------
// Write backpressure: a peer that pipelines requests and never reads backs
// its replies up into the server's write queue. The queue must not stall
// the loop or grow without bound: once it has stayed non-empty for
// io_deadline the server closes the peer, and other sessions are answered
// the whole time.

/// Connect with a minimal kernel receive buffer (set before connect so the
/// advertised window stays tiny): the kernel absorbs only a few KB of
/// replies before the server's queue takes the rest.
Socket connect_tiny_rcvbuf(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return Socket(fd);
}

TEST(NetLoopBackpressure, NonReadingPipelinerIsClosedOthersUnaffected) {
  distributed::CountParty party(params(), 3, 9);
  for (int i = 0; i < 3000; ++i) party.observe(i % 3 != 0);
  ServerConfig cfg;
  cfg.io_deadline = std::chrono::milliseconds(200);
  PartyServer server(cfg, &party);
  ASSERT_TRUE(server.start());

  // The hog: tag-less count requests (each answered with a full-form
  // reply of a few KB), pipelined in one burst and never read.
  Socket hog = connect_tiny_rcvbuf(server.port());
  ASSERT_TRUE(hog.valid());
  SnapshotRequest req;
  req.role = PartyRole::kCount;
  req.n = 1024;
  Bytes burst;
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    req.request_id = i;
    const Bytes payload = req.encode();
    const auto header =
        put_header(MsgType::kSnapshotRequest,
                   static_cast<std::uint32_t>(payload.size()));
    burst.insert(burst.end(), header.begin(), header.end());
    burst.insert(burst.end(), payload.begin(), payload.end());
  }
  ASSERT_TRUE(hog.send_all(burst.data(), burst.size(), soon()));

  // A healthy session is answered throughout, well past the hog's
  // deadline.
  RawConn healthy = RawConn::open(server.port());
  EXPECT_EQ(healthy.exchange(MsgType::kHello, Hello{}.encode()).type,
            MsgType::kHelloAck);
  const auto until = Clock::now() + 3 * cfg.io_deadline;
  int served = 0;
  while (Clock::now() < until) {
    req.request_id = static_cast<std::uint64_t>(served + 1);
    ASSERT_EQ(healthy.exchange(MsgType::kSnapshotRequest, req.encode()).type,
              MsgType::kDeltaReply);
    ++served;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(served, 10);

  // By now the hog is closed: reading what is left ends in EOF or a reset.
  // A server still holding it open would stream the remaining replies and
  // then go quiet, and this read would time out instead.
  std::array<std::uint8_t, 4096> sink{};
  IoResult r = IoResult::kOk;
  const Deadline dl = soon();
  while (r == IoResult::kOk) r = hog.recv_exact(sink.data(), sink.size(), dl);
  EXPECT_NE(r, IoResult::kTimeout);
}

}  // namespace
}  // namespace waves::net

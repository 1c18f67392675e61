// bga_serve protocol + socket loop: ServeState::handle over every op and
// error path (pure-function determinism included), and a live Server on
// an ephemeral loopback port — framed requests for each query type, the
// HTTP /metrics document validated against bgpatoms-trace/1, idle
// persistence, and a clean shutdown-op exit. The socket smoke runs under
// the serve_smoke ctest label (tools/ci_check.sh) and the worker loop
// under tsan.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/atoms.h"
#include "query/serve.h"
#include "query/server.h"
#include "report/json.h"
#include "report/trace.h"
#include "testutil.h"

namespace bgpatoms::query {
namespace {

using report::json::Value;
using test::DatasetBuilder;

/// Two snapshots: {10.0, 10.1} + {10.2} at t=0; the pair splits at t=100.
ServeState make_state() {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");
  b.snapshot(100);
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 9 1")
      .route("10.2.0.0/16", "100 2");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");

  Timeline timeline;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto snap = sanitize(b.dataset(), i, test::lax_config());
    timeline.add("t" + std::to_string(i),
                 std::make_shared<AtomIndex>(
                     AtomIndex::build(core::compute_atoms(snap))));
  }
  return ServeState{std::move(timeline)};
}

Value reply_for(const ServeState& state, const std::string& request) {
  return Value::parse(state.handle(request).body);
}

bool ok(const Value& reply) {
  const Value* v = reply.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string error_of(const Value& reply) {
  const Value* v = reply.find("error");
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

TEST(ServeState, EmptyTimelineIsRejected) {
  EXPECT_THROW(ServeState{Timeline{}}, std::invalid_argument);
}

TEST(ServeState, LookupResolvesThroughTheIndex) {
  const ServeState state = make_state();
  // Default snapshot is the newest (t1, where the pair has split).
  const auto reply = reply_for(state, R"({"op":"lookup","q":"10.0.0.9"})");
  ASSERT_TRUE(ok(reply));
  EXPECT_EQ(reply.find("label")->as_string(), "t1");
  EXPECT_EQ(reply.find("matched")->as_string(), "10.0.0.0/16");
  EXPECT_EQ(reply.find("size")->as_uint64(), 1u);
  EXPECT_EQ(reply.find("origin")->as_uint64(), 1u);
  ASSERT_NE(reply.find("prefixes"), nullptr);
  EXPECT_EQ(reply.find("prefixes")->as_array().size(), 1u);
  EXPECT_EQ(reply.find("paths")->as_array().size(), 2u);

  // Pinned snapshot 0: the atom still spans both prefixes.
  const auto at0 =
      reply_for(state, R"({"op":"lookup","q":"10.0.0.9","snapshot":0})");
  ASSERT_TRUE(ok(at0));
  EXPECT_EQ(at0.find("label")->as_string(), "t0");
  EXPECT_EQ(at0.find("size")->as_uint64(), 2u);

  // A miss is ok:true, found:false.
  const auto miss = reply_for(state, R"({"op":"lookup","q":"192.0.2.1"})");
  ASSERT_TRUE(ok(miss));
  EXPECT_FALSE(miss.find("found")->as_bool());
}

TEST(ServeState, EquivComparesAtomIds) {
  const ServeState state = make_state();
  const auto same = reply_for(
      state, R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":0})");
  ASSERT_TRUE(ok(same));
  EXPECT_TRUE(same.find("equivalent")->as_bool());

  // After the split (newest snapshot) the same pair is not equivalent.
  const auto split =
      reply_for(state, R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1"})");
  ASSERT_TRUE(ok(split));
  EXPECT_FALSE(split.find("equivalent")->as_bool());

  // A missing side is never equivalent.
  const auto miss =
      reply_for(state, R"({"op":"equiv","a":"10.0.0.1","b":"192.0.2.1"})");
  ASSERT_TRUE(ok(miss));
  EXPECT_FALSE(miss.find("equivalent")->as_bool());
}

TEST(ServeState, HistoryWalksTheTimeline) {
  const ServeState state = make_state();
  const auto reply = reply_for(state, R"({"op":"history","q":"10.2.0.9"})");
  ASSERT_TRUE(ok(reply));
  const auto& entries = reply.find("entries")->as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].find("present")->as_bool());
  EXPECT_FALSE(entries[0].find("same_as_previous")->as_bool());
  EXPECT_TRUE(entries[1].find("present")->as_bool());
  EXPECT_TRUE(entries[1].find("same_as_previous")->as_bool());
  EXPECT_EQ(entries[1].find("label")->as_string(), "t1");
}

TEST(ServeState, StatsReportsEverySnapshot) {
  const ServeState state = make_state();
  const auto reply = reply_for(state, R"({"op":"stats"})");
  ASSERT_TRUE(ok(reply));
  const auto& snaps = reply.find("snapshots")->as_array();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].find("prefixes")->as_uint64(), 3u);
  EXPECT_EQ(snaps[0].find("atoms")->as_uint64(), 2u);
  EXPECT_EQ(snaps[1].find("atoms")->as_uint64(), 3u);
  EXPECT_NE(snaps[0].find("fingerprint")->as_uint64(),
            snaps[1].find("fingerprint")->as_uint64());
}

TEST(ServeState, ErrorPathsKeepTheConnectionUsable) {
  const ServeState state = make_state();
  const auto bad_json = reply_for(state, "{not json");
  EXPECT_FALSE(ok(bad_json));
  EXPECT_NE(error_of(bad_json), "");

  const auto no_op = reply_for(state, R"({"q":"10.0.0.1"})");
  EXPECT_FALSE(ok(no_op));
  EXPECT_NE(error_of(no_op).find("\"op\""), std::string::npos);

  const auto bad_op = reply_for(state, R"({"op":"frobnicate"})");
  EXPECT_FALSE(ok(bad_op));
  EXPECT_NE(error_of(bad_op).find("unknown op"), std::string::npos);

  const auto bad_prefix = reply_for(state, R"({"op":"lookup","q":"10.0/99"})");
  EXPECT_FALSE(ok(bad_prefix));
  EXPECT_NE(error_of(bad_prefix).find("malformed prefix"), std::string::npos);

  const auto bad_snap =
      reply_for(state, R"({"op":"lookup","q":"10.0.0.1","snapshot":7})");
  EXPECT_FALSE(ok(bad_snap));
  EXPECT_NE(error_of(bad_snap).find("out of range"), std::string::npos);

  // The state still answers a well-formed request afterwards.
  EXPECT_TRUE(ok(reply_for(state, R"({"op":"stats"})")));
}

TEST(ServeState, DeeplyNestedFramesGetAnErrorReply) {
  // Hostile frames nest far past the parser's depth bound; each must come
  // back as an error reply rather than exhausting the stack.
  const ServeState state = make_state();
  const std::string arrays(100000, '[');
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += R"({"a":)";
  for (const std::string& frame : {arrays, objects}) {
    const auto reply = reply_for(state, frame);
    EXPECT_FALSE(ok(reply));
    EXPECT_NE(error_of(reply).find("nesting too deep"), std::string::npos);
  }
  EXPECT_TRUE(ok(reply_for(state, R"({"op":"lookup","q":"10.0.0.1"})")));
}

TEST(ServeState, RepliesAreDeterministic) {
  const ServeState state = make_state();
  const std::string request = R"({"op":"lookup","q":"10.1.0.1"})";
  const std::string first = state.handle(request).body;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(state.handle(request).body, first);
  }
}

TEST(ServeState, FrameIsLittleEndianLengthPrefixed) {
  const std::string framed = frame("abc");
  ASSERT_EQ(framed.size(), 7u);
  EXPECT_EQ(framed[0], 3);
  EXPECT_EQ(framed[1], 0);
  EXPECT_EQ(framed[2], 0);
  EXPECT_EQ(framed[3], 0);
  EXPECT_EQ(framed.substr(4), "abc");
}

TEST(ServeState, MetricsDocumentValidatesAsTrace) {
  const ServeState state = make_state();
  (void)state.handle(R"({"op":"stats"})");
  const auto doc = Value::parse(state.metrics_json(2));
  EXPECT_EQ(report::validate_trace(doc), "");
}

// ---------------------------------------------------------------- socket

/// Minimal blocking loopback client for the framed protocol.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_raw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Sends one framed request and decodes the framed JSON reply.
  Value ask(const std::string& request) {
    send_raw(frame(request));
    unsigned char head[4];
    read_exact(head, 4);
    const std::size_t n = static_cast<std::size_t>(head[0]) |
                          static_cast<std::size_t>(head[1]) << 8 |
                          static_cast<std::size_t>(head[2]) << 16 |
                          static_cast<std::size_t>(head[3]) << 24;
    std::string body(n, '\0');
    read_exact(body.data(), n);
    return Value::parse(body);
  }

  /// Reads until EOF (the /metrics HTTP path closes after one response).
  std::string drain() {
    std::string out;
    char buf[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd_, buf, sizeof buf, 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(got));
    }
    return out;
  }

 private:
  void read_exact(void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t got = ::recv(fd_, p, n, 0);
      ASSERT_GT(got, 0);
      p += got;
      n -= static_cast<std::size_t>(got);
    }
  }

  int fd_ = -1;
  bool connected_ = false;
};

TEST(Server, ServesEveryOpOverTheWireAndShutsDownCleanly) {
  const ServeState state = make_state();
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 50;
  auto server = std::make_unique<Server>(state, options);
  const int port = server->port();
  ASSERT_GT(port, 0);
  std::thread serving([&] { server->run(); });

  {
    Client client(port);
    ASSERT_TRUE(client.connected());

    // Each query type over one persistent framed connection; the served
    // bytes must equal an in-process handle() of the same request.
    for (const char* request :
         {R"({"op":"lookup","q":"10.0.0.9"})",
          R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":0})",
          R"({"op":"history","q":"10.2.0.9"})", R"({"op":"stats"})",
          R"({"op":"frobnicate"})"}) {
      const Value served = client.ask(request);
      EXPECT_EQ(served.serialize(), Value::parse(state.handle(request).body)
                                        .serialize())
          << request;
    }

    // The /metrics HTTP surface shares the port and emits a valid
    // bgpatoms-trace/1 document.
    Client http(port);
    ASSERT_TRUE(http.connected());
    http.send_raw("GET /metrics HTTP/1.0\r\n\r\n");
    const std::string response = http.drain();
    ASSERT_NE(response.find("200 OK"), std::string::npos);
    const auto body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const auto doc = Value::parse(response.substr(body_at + 4));
    EXPECT_EQ(report::validate_trace(doc), "");
    const Value* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("serve.requests"), nullptr);
    EXPECT_GE(counters->find("serve.requests")->as_uint64(), 5u);

    // The first framed connection is still usable after the HTTP one.
    EXPECT_TRUE(ok(client.ask(R"({"op":"stats"})")));

    // Shutdown is acknowledged before the server stops.
    const Value bye = client.ask(R"({"op":"shutdown"})");
    EXPECT_TRUE(ok(bye));
  }
  serving.join();  // run() returns: clean shutdown

  // Once the server is destroyed the listening socket is gone: new
  // connections are refused. (While the object lives the kernel still
  // queues connects on the open listen fd, so the check is post-dtor.)
  server.reset();
  Client late(port);
  EXPECT_FALSE(late.connected());
}

TEST(Server, OversizedFrameDropsTheConnectionOnly) {
  const ServeState state = make_state();
  ServerOptions options;
  options.threads = 2;
  options.poll_interval_ms = 50;
  options.max_frame = 64;
  Server server(state, options);
  std::thread serving([&] { server.run(); });

  {
    Client big(server.port());
    ASSERT_TRUE(big.connected());
    // Header announces a frame beyond max_frame: the server must drop
    // the connection without reading the payload.
    big.send_raw(std::string("\xff\xff\x00\x00", 4));
    EXPECT_EQ(big.drain(), "");

    Client fine(server.port());
    ASSERT_TRUE(fine.connected());
    EXPECT_TRUE(ok(fine.ask(R"({"op":"stats"})")));
    EXPECT_TRUE(ok(fine.ask(R"({"op":"shutdown"})")));
  }
  serving.join();
}

}  // namespace
}  // namespace bgpatoms::query

// bga_serve protocol + socket loop: ServeState::handle over every op and
// error path (pure-function determinism included), a hostile-request
// corpus, a campaign-scale request mix against a linear-scan oracle at 1
// and 4 threads with a pinned reply digest, and a live Server on an
// ephemeral loopback port — framed requests for each query type, the
// HTTP /metrics document validated against bgpatoms-trace/1, idle
// persistence, and a clean shutdown-op exit. The suite runs under the
// serve_smoke ctest label (tools/ci_check.sh), the worker loop under
// tsan and the hostile corpus under asan.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/atoms.h"
#include "core/incremental.h"
#include "core/longitudinal.h"
#include "core/parallel.h"
#include "net/hash.h"
#include "query/serve.h"
#include "query/server.h"
#include "report/json.h"
#include "report/trace.h"
#include "testutil.h"

namespace bgpatoms::query {
namespace {

using report::json::Array;
using report::json::Object;
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

// ------------------------------------------------------- hostile requests
//
// A corpus for the serve handler, the trust boundary every bga_serve frame
// crosses: strings of a MiB and more, 400-digit and overflowing numbers,
// NUL bytes, invalid UTF-8 and lone surrogate escapes, every byte-prefix
// truncation of each valid request, a wrong type in every field,
// out-of-range snapshots, duplicate keys and documents whose top level is
// not an object. The contract on every input: the reply parses as a JSON
// object with a boolean "ok"; an ok:false reply carries a string "error";
// the reply is valid UTF-8 and an error reply stays short (it quotes at
// most a bounded, escaped slice of the request); and the handler answers
// each valid request sent afterwards with exactly the bytes a fresh
// ServeState gives. It must never crash or hang; the suite also runs
// under the asan preset.

/// Longest error reply any input may produce: the message plus a quoted
/// slice of the request, never the request itself.
constexpr std::size_t kMaxErrorReply = 512;

/// One valid request per op and field shape.
const std::vector<std::string>& valid_requests() {
  static const std::vector<std::string> requests = {
      R"({"op":"lookup","q":"10.0.0.9"})",
      R"({"op":"lookup","q":"10.1.0.0/16","snapshot":0})",
      R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":1})",
      R"({"op":"history","q":"10.2.0.9"})",
      R"({"op":"stats"})",
  };
  return requests;
}

/// Printable rendering of an input for failure messages.
std::string preview(const std::string& bytes) {
  std::string out;
  for (std::size_t i = 0; i < bytes.size() && i < 80; ++i) {
    const auto c = static_cast<unsigned char>(bytes[i]);
    if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  if (bytes.size() > 80) out += "... (" + std::to_string(bytes.size()) + " B)";
  return out;
}

/// Well-formed UTF-8 (RFC 3629): no overlongs, surrogates or code points
/// above U+10FFFF.
bool valid_utf8(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size()) {
    const auto c = static_cast<unsigned char>(s[i]);
    std::size_t n = 0;
    unsigned lo = 0x80, hi = 0xBF;
    if (c < 0x80) {
      ++i;
      continue;
    } else if (c >= 0xC2 && c <= 0xDF) {
      n = 1;
    } else if (c >= 0xE0 && c <= 0xEF) {
      n = 2;
      if (c == 0xE0) lo = 0xA0;
      if (c == 0xED) hi = 0x9F;
    } else if (c >= 0xF0 && c <= 0xF4) {
      n = 3;
      if (c == 0xF0) lo = 0x90;
      if (c == 0xF4) hi = 0x8F;
    } else {
      return false;
    }
    if (i + n >= s.size()) return false;
    for (std::size_t k = 1; k <= n; ++k) {
      const auto t = static_cast<unsigned char>(s[i + k]);
      if (t < (k == 1 ? lo : 0x80u) || t > (k == 1 ? hi : 0xBFu)) return false;
    }
    i += n + 1;
  }
  return true;
}

/// Sends every input through one ServeState and checks the contract in
/// the file comment on each reply and on the valid requests after it.
void expect_fails_closed(const std::vector<std::string>& corpus) {
  const ServeState fresh = make_state();
  std::vector<std::string> want;
  for (const auto& request : valid_requests()) {
    want.push_back(fresh.handle(request).body);
  }

  const ServeState state = make_state();
  for (const std::string& input : corpus) {
    SCOPED_TRACE(preview(input));
    const std::string body = state.handle(input).body;
    EXPECT_TRUE(valid_utf8(body)) << preview(body);
    Value reply;
    ASSERT_NO_THROW(reply = Value::parse(body)) << preview(body);
    const Value* ok_field = reply.find("ok");
    ASSERT_TRUE(ok_field != nullptr && ok_field->is_bool()) << preview(body);
    if (!ok_field->as_bool()) {
      const Value* error = reply.find("error");
      EXPECT_TRUE(error != nullptr && error->is_string()) << preview(body);
      EXPECT_LE(body.size(), kMaxErrorReply) << preview(body);
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(state.handle(valid_requests()[i]).body, want[i])
          << "after the hostile input, " << valid_requests()[i];
    }
  }
}

constexpr std::size_t kMiB = std::size_t{1} << 20;

TEST(ServeFuzz, MebibyteStrings) {
  const std::string big(kMiB, 'a');
  const std::string dotted = [] {
    std::string s;
    while (s.size() < kMiB) s += "1.";
    return s + "1";
  }();
  std::string escapes;
  while (escapes.size() < kMiB) escapes += "\\n\\u0041";
  expect_fails_closed({
      R"({"op":"lookup","q":")" + big + R"("})",
      R"({"op":"lookup","q":")" + dotted + R"("})",
      R"({"op":"lookup","q":")" + dotted + R"(/16"})",
      R"({"op":"lookup","q":")" + escapes + R"("})",
      R"({"op":"equiv","a":"10.0.0.1","b":")" + big + R"("})",
      R"({"op":"history","q":")" + big + R"("})",
      R"({"op":")" + big + R"("})",
      R"({")" + big + R"(":1,"op":"stats"})",
      R"({"op":"lookup","q":")" + big,  // unterminated
      std::string(kMiB, ' ') + R"({"op":"stats"})",
      R"({"op":"stats","pad":")" + big + R"("})",
      "\"" + big + "\"",
  });
}

TEST(ServeFuzz, HostileNumbers) {
  const std::string digits(400, '9');
  const std::vector<std::string> numbers = {
      digits,  "-" + digits, "0." + digits, digits + ".5", "1e999",
      "-1e999", "1e-999",    "1E400",       "-0",          "-0.0",
      "0e0",    "00",        "-",           "--1",         "+1",
      "1..2",   ".5",        "5.",          "1e",          "1e+",
      "0x10",   "1-2",       "18446744073709551616",
      "-9223372036854775809",
  };
  std::vector<std::string> corpus;
  for (const auto& n : numbers) {
    corpus.push_back(n);
    corpus.push_back(R"({"op":"lookup","q":"10.0.0.9","snapshot":)" + n + "}");
    corpus.push_back(
        R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":)" + n +
        "}");
    corpus.push_back(R"({"op":"lookup","q":)" + n + "}");
    corpus.push_back(R"({"op":)" + n + "}");
    corpus.push_back(R"({"op":"stats","x":[)" + n + "," + n + "]}");
  }
  expect_fails_closed(corpus);
}

TEST(ServeFuzz, NulBytes) {
  using namespace std::string_literals;
  expect_fails_closed({
      "\0"s,
      "\0\0\0\0"s,
      "\0{\"op\":\"stats\"}"s,
      "{\"op\":\"stats\"}\0"s,
      "{\"op\"\0:\"stats\"}"s,
      "{\"op\":\"look\0up\",\"q\":\"10.0.0.9\"}"s,
      "{\"op\":\"lookup\",\"q\":\"10.0.0.9\0\"}"s,
      "{\"op\":\"lookup\",\"q\":\"\0\"}"s,
      "{\"op\":\"lookup\",\"q\":\"10.0.0.0/16\0\"}"s,
      "{\"op\":\"equiv\",\"a\":\"10.0.0.1\",\"b\":\"\0\"}"s,
      "{\"op\":\"stats\",\"\0\":1}"s,
      R"({"op":"lookup","q":"10.0.0.9\u0000"})",
      R"({"op":"\u0000"})",
  });
}

TEST(ServeFuzz, InvalidUtf8AndLoneSurrogates) {
  expect_fails_closed({
      "{\"op\":\"lookup\",\"q\":\"\xff\xfe\"}",
      "{\"op\":\"lookup\",\"q\":\"10.0.0.9\xc0\xaf\"}",
      "{\"op\":\"\xc0\xaf\"}",
      "{\"op\":\"\xe2\x82\"}",
      "{\"op\":\"\xed\xa0\x80\"}",
      "{\"op\":\"\xf4\x90\x80\x80\"}",
      "{\"op\":\"stats\",\"\xff\":1}",
      "\xff{\"op\":\"stats\"}",
      "{\"op\":\"stats\"}\xff",
      "\xef\xbb\xbf{\"op\":\"stats\"}",
      R"({"op":"lookup","q":"\ud800"})",
      R"({"op":"lookup","q":"10.0.0.9\udfff"})",
      R"({"op":"\ud800"})",
      R"({"op":"\ud83d"})",
      R"({"op":"equiv","a":"\ud800","b":"\udc00"})",
      R"({"\ud800":1,"op":"stats"})",
      R"({"op":"lookup","q":"\u12"})",
      R"({"op":"lookup","q":"\uzzzz"})",
      R"({"op":"lookup","q":"\x41"})",
  });
}

TEST(ServeFuzz, EveryTruncationOfEachValidRequest) {
  std::vector<std::string> corpus;
  for (const auto& request : valid_requests()) {
    for (std::size_t n = 0; n < request.size(); ++n) {
      corpus.push_back(request.substr(0, n));
    }
  }
  expect_fails_closed(corpus);
}

TEST(ServeFuzz, WrongTypeInEveryField) {
  const std::vector<Value> wrong = {
      Value(nullptr),  Value(true),   Value(false),
      Value(0),        Value(-1),     Value(1.5),
      Value("0"),      Value("x"),    Value(Array{}),
      Value(Object{}), Value(Array{Value("10.0.0.9")}),
      Value(Object{{"q", Value("10.0.0.9")}}),
  };
  std::vector<std::string> corpus;
  for (const auto& request : valid_requests()) {
    const Object fields = Value::parse(request).as_object();
    for (std::size_t f = 0; f < fields.size(); ++f) {
      for (const Value& v : wrong) {
        Object mutated = fields;
        mutated[f].second = v;
        corpus.push_back(Value(std::move(mutated)).serialize());
      }
      Object missing = fields;
      missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(f));
      corpus.push_back(Value(std::move(missing)).serialize());
    }
  }
  expect_fails_closed(corpus);
}

TEST(ServeFuzz, HostileSnapshotValues) {
  std::vector<std::string> corpus;
  for (const char* v : {"-1", "18446744073709551616", "18446744073709551615",
                        "9223372036854775808", "2", "1.5", "1e0", "-0", "\"0\"",
                        "[0]", "null"}) {
    for (const char* head :
         {R"({"op":"lookup","q":"10.0.0.9","snapshot":)",
          R"({"op":"equiv","a":"10.0.0.1","b":"10.1.0.1","snapshot":)",
          R"({"op":"history","q":"10.2.0.9","snapshot":)",
          R"({"op":"stats","snapshot":)"}) {
      corpus.push_back(std::string(head) + v + "}");
    }
  }
  expect_fails_closed(corpus);
}

TEST(ServeFuzz, DuplicateKeysAndNonObjectDocuments) {
  expect_fails_closed({
      R"({"op":"stats","op":"lookup"})",
      R"({"op":"lookup","op":"stats"})",
      R"({"op":"lookup","q":"10.0.0.9","q":"not a prefix"})",
      R"({"op":"lookup","q":"10.0.0.9","snapshot":0,"snapshot":"x"})",
      R"({"op":"equiv","a":"10.0.0.1","a":7,"b":"10.1.0.1"})",
      R"([])",
      R"([{"op":"stats"}])",
      R"("op")",
      R"(1)",
      R"(null)",
      R"(true)",
      R"({})",
      "",
      "   ",
      R"({"op":"stats"} {"op":"stats"})",
      R"({"op":"stats"},)",
  });
}

// -------------------------------------------------------------- campaign

/// FNV-1a-64 chained over every reply body of the campaign plan below, in
/// plan order. It pins the reply bytes, so a rewrite of the reply writer
/// must keep it. It moves only when the simulated campaign moves (then
/// the ScenarioCompat archive digests move with it) or when the reply
/// format changes on purpose.
constexpr std::uint64_t kCampaignReplyDigest = 0x37ab9bc15e7cf253ULL;

/// One request of the campaign plan, with the sanitized-snapshot rows it
/// names so the oracle can re-derive the reply.
struct PlannedRequest {
  std::string body;
  char op = 'l';            // 'l' lookup, 'e' equiv, 'h' history, 's' stats
  std::string query;        // lookup: the query text
  std::uint32_t row_a = 0;  // equiv: the two stored-prefix rows
  std::uint32_t row_b = 0;
};

/// Fixed-seed mix over the newest snapshot: ~70% lookup (60% of them an
/// exact stored prefix, 30% a stored prefix's bare address, 10% a class-E
/// address the simulator never allocates), ~15% equiv of two stored
/// prefixes, ~10% history, ~5% stats.
std::vector<PlannedRequest> campaign_plan(const core::SanitizedSnapshot& snap,
                                          std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto rows = static_cast<std::uint32_t>(snap.prefixes.size());
  auto prefix_str = [&](std::uint32_t row) {
    return snap.prefix(snap.prefixes[row]).to_string();
  };
  std::vector<PlannedRequest> plan(n);
  for (auto& req : plan) {
    const std::uint64_t dice = rng() % 100;
    if (dice < 70) {
      const auto row = static_cast<std::uint32_t>(rng() % rows);
      const std::uint64_t form = rng() % 10;
      if (form < 6) {
        req.query = prefix_str(row);
      } else if (form < 9) {
        req.query = snap.prefix(snap.prefixes[row]).address().to_string();
      } else {
        req.query = "240." + std::to_string(rng() % 256) + "." +
                    std::to_string(rng() % 256) + ".1";
      }
      req.body = Value(Object{{"op", Value("lookup")}, {"q", Value(req.query)}})
                     .serialize();
    } else if (dice < 85) {
      req.op = 'e';
      req.row_a = static_cast<std::uint32_t>(rng() % rows);
      req.row_b = static_cast<std::uint32_t>(rng() % rows);
      req.body = Value(Object{{"op", Value("equiv")},
                              {"a", Value(prefix_str(req.row_a))},
                              {"b", Value(prefix_str(req.row_b))}})
                     .serialize();
    } else if (dice < 95) {
      req.op = 'h';
      const auto row = static_cast<std::uint32_t>(rng() % rows);
      req.body = Value(Object{{"op", Value("history")},
                              {"q", Value(prefix_str(row))}})
                     .serialize();
    } else {
      req.op = 's';
      req.body = Value(Object{{"op", Value("stats")}}).serialize();
    }
  }
  return plan;
}

/// Linear-scan longest match over the snapshot's stored prefixes.
std::optional<bgp::PrefixId> oracle_longest_match(
    const core::SanitizedSnapshot& snap, const net::Prefix& query) {
  std::optional<bgp::PrefixId> best;
  int best_len = -1;
  for (const auto id : snap.prefixes) {
    const auto& p = snap.prefix(id);
    if (p.length() > best_len && p.contains(query)) {
      best = id;
      best_len = p.length();
    }
  }
  return best;
}

TEST(ServeState, CampaignRepliesMatchOracleAtAnyThreadCount) {
  core::CampaignConfig config;
  config.year = 2024.75;
  config.scale = 0.005;
  config.seed = 7700;
  config.with_stability = true;  // 4 snapshots: history has depth
  const core::Campaign campaign = core::run_campaign(config);
  ASSERT_EQ(campaign.atom_sets.size(), 4u);

  Timeline timeline;
  for (std::size_t i = 0; i < campaign.atom_sets.size(); ++i) {
    auto index = std::make_shared<AtomIndex>(
        AtomIndex::build(campaign.atom_sets[i]));
    EXPECT_EQ(index->partition_fingerprint(),
              core::partition_fingerprint(campaign.atom_sets[i]))
        << "snapshot " << i;
    timeline.add("snap" + std::to_string(i), std::move(index));
  }
  const ServeState state{std::move(timeline)};
  const core::AtomSet& latest = campaign.atom_sets.back();
  const core::SanitizedSnapshot& snap = *latest.snapshot;
  const auto plan = campaign_plan(snap, 20'000, 7701);

  // One thread: keep a per-reply hash for the thread comparison and the
  // chained digest, and check every lookup and equiv against the oracle.
  std::vector<std::uint64_t> one_thread(plan.size());
  std::uint64_t digest = fnv1a64("", 0);
  std::size_t lookups = 0, misses = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedRequest& req = plan[i];
    const std::string body = state.handle(req.body).body;
    one_thread[i] = fnv1a64(body);
    digest = fnv1a64(body.data(), body.size(), digest);
    const Value reply = Value::parse(body);
    ASSERT_TRUE(ok(reply)) << req.body;
    if (req.op == 'l') {
      ++lookups;
      const auto want =
          oracle_longest_match(snap, *net::parse_prefix(req.query));
      ASSERT_EQ(reply.find("found")->as_bool(), want.has_value()) << req.body;
      if (!want) {
        ++misses;
        continue;
      }
      EXPECT_EQ(reply.find("matched")->as_string(),
                snap.prefix(*want).to_string())
          << req.body;
      EXPECT_EQ(reply.find("atom")->as_uint64(), latest.atom_of.at(*want))
          << req.body;
    } else if (req.op == 'e') {
      const bool want = latest.atom_of.at(snap.prefixes[req.row_a]) ==
                        latest.atom_of.at(snap.prefixes[req.row_b]);
      EXPECT_EQ(reply.find("equivalent")->as_bool(), want) << req.body;
    }
  }
  EXPECT_GT(lookups, 0u);
  EXPECT_GT(misses, 0u);  // the class-E addresses reached the miss path

  // Four threads on one pool: the same bytes at every request position.
  std::vector<std::uint64_t> four_threads(plan.size());
  core::TaskPool pool(4);
  pool.run(plan.size(), [&](std::size_t i) {
    four_threads[i] = fnv1a64(state.handle(plan[i].body).body);
  });
  EXPECT_EQ(four_threads, one_thread);

  EXPECT_EQ(digest, kCampaignReplyDigest)
      << "reply digest 0x" << std::hex << digest;
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

#include "query/serve.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "report/json.h"
#include "report/trace.h"

namespace bgpatoms::query {

namespace {

using report::json::Array;
using report::json::Object;
using report::json::Value;

Value error_reply(std::string message) {
  return Value(Object{{"ok", Value(false)}, {"error", Value(std::move(message))}});
}

/// Request text quoted for an error message: at most 64 bytes, printable
/// ASCII as is and any other byte as \xNN, so an error reply stays short
/// and valid UTF-8 whatever the request carried.
std::string quoted(std::string_view text) {
  constexpr std::size_t kMaxEcho = 64;
  std::string out = "\"";
  for (const char ch : text.substr(0, kMaxEcho)) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c < 0x7f) {
      out += ch;
    } else {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  out += text.size() > kMaxEcho ? "\"..." : "\"";
  return out;
}

/// Required string field or throws (caught into an error reply).
const std::string& str_field(const Value& req, const char* key) {
  const Value* v = req.find(key);
  if (v == nullptr || !v->is_string()) {
    throw std::runtime_error(std::string("missing string field \"") + key +
                             "\"");
  }
  return v->as_string();
}

/// Optional "snapshot" field; defaults to the newest snapshot.
std::size_t snapshot_field(const Value& req, const Timeline& timeline) {
  const Value* v = req.find("snapshot");
  if (v == nullptr) return timeline.size() - 1;
  if (!v->is_integer()) throw std::runtime_error("\"snapshot\" not an integer");
  const std::uint64_t i = v->as_uint64();
  if (i >= timeline.size()) {
    throw std::runtime_error("snapshot " + std::to_string(i) +
                             " out of range (timeline has " +
                             std::to_string(timeline.size()) + ")");
  }
  return static_cast<std::size_t>(i);
}

net::Prefix parse_query(const std::string& text) {
  const auto p = net::parse_prefix(text);
  if (!p) throw std::runtime_error("malformed prefix " + quoted(text));
  return *p;
}

/// The per-snapshot resolution of one point query, shared by lookup and
/// equiv: matched prefix + full atom record, or found:false.
Object resolve(const AtomIndex& index, const net::Prefix& query,
               bool with_members) {
  Object out;
  out.emplace_back("query", Value(query.to_string()));
  const auto hit = index.lookup(query);
  if (!hit) {
    out.emplace_back("found", Value(false));
    return out;
  }
  const AtomRecord* rec = index.atom(hit->atom);
  out.emplace_back("found", Value(true));
  out.emplace_back("matched", Value(hit->prefix.to_string()));
  out.emplace_back("atom", Value(static_cast<std::uint64_t>(hit->atom)));
  out.emplace_back("size", Value(static_cast<std::uint64_t>(rec->size())));
  out.emplace_back("origin", Value(static_cast<std::uint64_t>(rec->origin)));
  out.emplace_back("moas", Value(rec->moas));
  if (with_members) {
    Array members;
    members.reserve(rec->rows.size());
    for (const std::uint32_t row : rec->rows) {
      members.emplace_back(index.prefix_at(row).to_string());
    }
    out.emplace_back("prefixes", Value(std::move(members)));
    Array paths;
    paths.reserve(rec->paths.size());
    for (const auto& [vp, path] : rec->paths) {
      paths.emplace_back(Object{
          {"vp", Value(static_cast<std::uint64_t>(vp))},
          {"path", Value(index.paths().get(path).to_string())}});
    }
    out.emplace_back("paths", Value(std::move(paths)));
  }
  return out;
}

Value handle_lookup(const Timeline& timeline, const Value& req) {
  const net::Prefix query = parse_query(str_field(req, "q"));
  const std::size_t snap = snapshot_field(req, timeline);
  Object reply{{"ok", Value(true)},
               {"op", Value("lookup")},
               {"snapshot", Value(static_cast<std::uint64_t>(snap))},
               {"label", Value(timeline.label(snap))}};
  Object hit = resolve(timeline.at(snap), query, /*with_members=*/true);
  reply.insert(reply.end(), std::make_move_iterator(hit.begin()),
               std::make_move_iterator(hit.end()));
  return Value(std::move(reply));
}

Value handle_equiv(const Timeline& timeline, const Value& req) {
  const net::Prefix a = parse_query(str_field(req, "a"));
  const net::Prefix b = parse_query(str_field(req, "b"));
  const std::size_t snap = snapshot_field(req, timeline);
  const AtomIndex& index = timeline.at(snap);
  const auto hit_a = index.lookup(a);
  const auto hit_b = index.lookup(b);
  const bool equivalent = hit_a && hit_b && hit_a->atom == hit_b->atom;
  return Value(Object{
      {"ok", Value(true)},
      {"op", Value("equiv")},
      {"snapshot", Value(static_cast<std::uint64_t>(snap))},
      {"equivalent", Value(equivalent)},
      {"a", Value(resolve(index, a, /*with_members=*/false))},
      {"b", Value(resolve(index, b, /*with_members=*/false))}});
}

Value handle_history(const Timeline& timeline, const Value& req) {
  const net::Prefix query = parse_query(str_field(req, "q"));
  // History is an address-wise walk; a CIDR query asks about its first
  // address (the canonicalized network address).
  const auto entries = timeline.history(query.address());
  Array out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    // Each field's Value is built in place inside its pair: no json::Value
    // temporary is moved, which GCC 12 misreads as a read of the moved
    // variant's uninitialized vector members (-Wmaybe-uninitialized).
    Object row;
    row.reserve(e.present ? 9 : 3);
    row.emplace_back("snapshot", static_cast<std::uint64_t>(e.snapshot));
    row.emplace_back("label", timeline.label(e.snapshot));
    row.emplace_back("present", e.present);
    if (e.present) {
      row.emplace_back("matched", e.matched.to_string());
      row.emplace_back("atom", static_cast<std::uint64_t>(e.atom));
      row.emplace_back("size", static_cast<std::uint64_t>(e.size));
      row.emplace_back("origin", static_cast<std::uint64_t>(e.origin));
      row.emplace_back("moas", e.moas);
      row.emplace_back("same_as_previous", e.same_as_previous);
    }
    out.emplace_back(std::move(row));
  }
  return Value(Object{{"ok", Value(true)},
                      {"op", Value("history")},
                      {"query", Value(query.to_string())},
                      {"entries", Value(std::move(out))}});
}

Value handle_stats(const Timeline& timeline) {
  Array snaps;
  snaps.reserve(timeline.size());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const AtomIndex& index = timeline.at(i);
    snaps.emplace_back(Object{
        {"label", Value(timeline.label(i))},
        {"timestamp", Value(static_cast<std::int64_t>(index.timestamp()))},
        {"prefixes", Value(static_cast<std::uint64_t>(index.prefix_count()))},
        {"atoms", Value(static_cast<std::uint64_t>(index.atom_count()))},
        {"vps", Value(static_cast<std::uint64_t>(index.vp_count()))},
        {"fingerprint", Value(timeline.fingerprint(i))}});
  }
  return Value(Object{{"ok", Value(true)},
                      {"op", Value("stats")},
                      {"snapshots", Value(std::move(snaps))}});
}

}  // namespace

ServeState::ServeState(Timeline timeline) : timeline_(std::move(timeline)) {
  if (timeline_.empty()) {
    throw std::invalid_argument("ServeState: timeline holds no snapshots");
  }
}

ServeState::Reply ServeState::handle(std::string_view request) const {
  const std::uint64_t t0 = obs::monotonic_ns();
  Reply reply;
  std::string op;
  Value result;
  try {
    const Value req = Value::parse(request);
    const Value* op_field = req.find("op");
    if (op_field == nullptr || !op_field->is_string()) {
      throw std::runtime_error("missing string field \"op\"");
    }
    op = op_field->as_string();
    if (op == "lookup") {
      result = handle_lookup(timeline_, req);
    } else if (op == "equiv") {
      result = handle_equiv(timeline_, req);
    } else if (op == "history") {
      result = handle_history(timeline_, req);
    } else if (op == "stats") {
      result = handle_stats(timeline_);
    } else if (op == "shutdown") {
      reply.shutdown = true;
      result = Value(Object{{"ok", Value(true)}, {"op", Value("shutdown")}});
    } else {
      throw std::runtime_error("unknown op " + quoted(op));
    }
  } catch (const std::exception& e) {
    result = error_reply(e.what());
  }
  reply.body = result.serialize();

  const std::uint64_t elapsed = obs::monotonic_ns() - t0;
  // Distinct macro sites per endpoint: each caches its own registry slot.
  if (op == "lookup") {
    OBS_HISTOGRAM("serve.lookup.ns", elapsed);
  } else if (op == "equiv") {
    OBS_HISTOGRAM("serve.equiv.ns", elapsed);
  } else if (op == "history") {
    OBS_HISTOGRAM("serve.history.ns", elapsed);
  } else if (op == "stats") {
    OBS_HISTOGRAM("serve.stats.ns", elapsed);
  } else {
    OBS_HISTOGRAM("serve.other.ns", elapsed);
  }
  OBS_COUNT("serve.requests");
  return reply;
}

std::string ServeState::metrics_json(int threads) const {
  report::TraceMeta meta;
  meta.threads = threads;
  return report::trace_to_json(obs::registry().snapshot(), meta).serialize();
}

std::string frame(std::string_view payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.append(payload);
  return out;
}

}  // namespace bgpatoms::query

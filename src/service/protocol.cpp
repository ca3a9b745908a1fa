#include "service/protocol.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "eval/table.hpp"
#include "util/framing.hpp"

namespace fetch::service {

namespace {

using util::json::Value;

Value json_count(std::size_t value) {
  return Value::number(static_cast<std::uint64_t>(value));
}

Value json_ratio(double value) {
  return Value::number(value, eval::fmt(value, 4));
}

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Parses a "0x..." hex string; false on anything else. Strict: only
/// hex digits after the prefix (strtoull alone would also accept signs
/// and leading whitespace).
bool parse_hex64(const Value* value, std::uint64_t* out) {
  if (value == nullptr || value->kind() != Value::Kind::kString) {
    return false;
  }
  const std::string& text = value->text();
  if (text.rfind("0x", 0) != 0 || text.size() < 3 || text.size() > 18) {
    return false;
  }
  for (std::size_t i = 2; i < text.size(); ++i) {
    if (std::isxdigit(static_cast<unsigned char>(text[i])) == 0) {
      return false;
    }
  }
  *out = std::strtoull(text.c_str() + 2, nullptr, 16);
  return true;
}

bool get_count(const Value& obj, const char* key, std::size_t* out) {
  const Value* v = obj.get(key);
  if (v == nullptr || v->kind() != Value::Kind::kNumber) {
    return false;
  }
  *out = static_cast<std::size_t>(v->as_double());
  return true;
}

Value base_response(const char* status) {
  Value doc = Value::object();
  doc.set("schema", Value(kSchema));
  doc.set("status", Value(status));
  return doc;
}

/// How analysis_json(fa).dump(1) opens: the object and the key of its
/// first member, "path".
constexpr std::string_view kResultOpen = "{\n    \"path\": ";

/// ok_response(Op::kQuery) as dumped, minus its closing "\n}", so the
/// query members can follow it. Built once from the tree, so the two
/// cannot disagree.
const std::string& query_envelope() {
  static const std::string head = [] {
    std::string text = ok_response(Op::kQuery).dump();
    text.resize(text.size() - 2);
    return text;
  }();
  return head;
}

/// Wire bytes: the 4-byte little-endian length header, then \p payload.
void append_header(std::size_t payload_size, std::string* wire) {
  const auto len = static_cast<std::uint32_t>(payload_size);
  wire->push_back(static_cast<char>(len & 0xff));
  wire->push_back(static_cast<char>((len >> 8) & 0xff));
  wire->push_back(static_cast<char>((len >> 16) & 0xff));
  wire->push_back(static_cast<char>((len >> 24) & 0xff));
}

/// The stats reply, in reply order: each key and the metric it shows.
/// Keys under kServerPrefix go into the nested "server" object, and the
/// flattened `query --op stats` lines print them with the prefix.
constexpr std::string_view kServerPrefix = "server.";
constexpr std::pair<std::string_view, const char*> kStatsView[] = {
    {"entries", "cache_entries"},
    {"capacity", "cache_capacity"},
    {"shards", "cache_shards"},
    {"hits", "cache_hits_total"},
    {"misses", "cache_misses_total"},
    {"joined", "cache_joined_total"},
    {"evictions", "cache_evictions_total"},
    {"server.accepted", "service_accepted_total"},
    {"server.active", "service_active_connections"},
    {"server.peak_active", "service_peak_active_connections"},
    {"server.rejected_connections", "service_rejected_connections_total"},
    {"server.emfile_rejections", "service_emfile_rejections_total"},
    {"server.idle_timeouts", "service_idle_timeouts_total"},
    {"server.write_stall_timeouts", "service_write_stall_timeouts_total"},
    {"server.queries_shed", "service_queries_shed_total"},
    {"server.frames_shed", "service_frames_shed_total"},
    {"server.queue_depth", "service_queue_depth"},
    {"server.queue_high_water", "service_queue_high_water"},
    {"server.slow_queries", "service_slow_queries_total"},
    {"server.uptime_ms", "service_uptime_ms"},
    {"server.workers", "service_workers"},
};

/// The in-band error that replaces a reply too large for one frame.
std::string oversize_frame(std::size_t payload_size) {
  // A result too large for one frame (a binary with millions of detected
  // functions) must not degrade into a silent hangup — and must not be
  // retried against the cache forever with the same outcome. Tell the
  // client what happened instead.
  return encode_frame(error_response("result of " +
                                     std::to_string(payload_size) +
                                     " bytes exceeds the frame cap"));
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kQuery:
      return "query";
    case Op::kStats:
      return "stats";
    case Op::kMetrics:
      return "metrics";
    case Op::kShutdown:
      return "shutdown";
  }
  return "?";
}

std::string default_socket_path() {
  if (const char* env = std::getenv("FETCH_SOCKET")) {
    if (env[0] != '\0') {
      return env;
    }
  }
  return "/tmp/fetch-serve." + std::to_string(::getuid()) + ".sock";
}

Value request_json(const Request& request) {
  Value doc = Value::object();
  doc.set("schema", Value(kSchema));
  doc.set("op", Value(op_name(request.op)));
  if (request.op == Op::kQuery) {
    doc.set("path", Value(request.path));
    if (!request.trace.empty()) {
      doc.set("trace", Value(request.trace));
    }
  }
  return doc;
}

std::optional<Request> parse_request(const std::string& payload,
                                     std::string* error) {
  const auto doc = Value::parse(payload);
  if (!doc || !doc->is_object()) {
    *error = "request is not a JSON object";
    return std::nullopt;
  }
  const Value* schema = doc->get("schema");
  if (schema == nullptr || schema->text() != kSchema) {
    *error = std::string("request schema must be \"") + kSchema + "\"";
    return std::nullopt;
  }
  const Value* op = doc->get("op");
  if (op == nullptr || op->kind() != Value::Kind::kString) {
    *error = "request has no \"op\" string";
    return std::nullopt;
  }
  Request request;
  if (op->text() == "ping") {
    request.op = Op::kPing;
  } else if (op->text() == "query") {
    request.op = Op::kQuery;
  } else if (op->text() == "stats") {
    request.op = Op::kStats;
  } else if (op->text() == "metrics") {
    request.op = Op::kMetrics;
  } else if (op->text() == "shutdown") {
    request.op = Op::kShutdown;
  } else {
    *error = "unknown op \"" + op->text() + "\"";
    return std::nullopt;
  }
  if (request.op == Op::kQuery) {
    const Value* path = doc->get("path");
    if (path == nullptr || path->kind() != Value::Kind::kString ||
        path->text().empty()) {
      *error = "query needs a non-empty \"path\" string";
      return std::nullopt;
    }
    request.path = path->text();
    if (const Value* trace = doc->get("trace"); trace != nullptr) {
      if (trace->kind() != Value::Kind::kString) {
        *error = "query \"trace\" must be a string";
        return std::nullopt;
      }
      request.trace = trace->text();
    }
  }
  return request;
}

Value ok_response(Op op) {
  Value doc = base_response("ok");
  doc.set("op", Value(op_name(op)));
  return doc;
}

Value error_response(const std::string& message) {
  Value doc = base_response("error");
  doc.set("error", Value(message));
  return doc;
}

Value error_response(const std::string& message, const std::string& code) {
  Value doc = error_response(message);
  doc.set("code", Value(code));
  return doc;
}

std::string encode_frame(const Value& response) {
  const std::string payload = response.dump();
  if (payload.size() > util::kMaxFrameBytes) {
    return oversize_frame(payload.size());
  }
  std::string wire;
  wire.reserve(payload.size() + 4);
  append_header(payload.size(), &wire);
  wire.append(payload);
  return wire;
}

std::string encode_result_body(const eval::FileAnalysis& fa) {
  std::string text = analysis_json(fa).dump(1);
  text.erase(0, kResultOpen.size() + Value(fa.row.path).dump().size());
  return text;
}

std::string query_frame(std::string_view cache, const std::string& path,
                        std::string_view body, const std::string& trace,
                        const Value& stages) {
  const std::string cache_json = Value(std::string(cache)).dump();
  const std::string path_json = Value(path).dump();
  const std::string trace_json = Value(trace).dump();
  const std::string stages_json = stages.dump(1);
  const std::string_view parts[] = {
      query_envelope(),
      ",\n  \"cache\": ",  cache_json,
      ",\n  \"result\": ", kResultOpen, path_json, body,
      ",\n  \"trace\": ",  trace_json,
      ",\n  \"stages\": ", stages_json,
      "\n}"};
  std::size_t size = 0;
  for (const std::string_view part : parts) {
    size += part.size();
  }
  if (size > util::kMaxFrameBytes) {
    return oversize_frame(size);
  }
  std::string wire;
  wire.reserve(size + 4);
  append_header(size, &wire);
  for (const std::string_view part : parts) {
    wire.append(part);
  }
  return wire;
}

Value analysis_json(const eval::FileAnalysis& fa) {
  Value doc = Value::object();
  doc.set("path", Value(fa.row.path));
  doc.set("ok", Value(fa.row.ok));
  doc.set("content_hash", Value(hex64(fa.content_hash)));
  if (!fa.row.ok) {
    doc.set("error", Value(fa.row.error));
    return doc;
  }
  doc.set("truth_source", Value(fa.row.truth_source));
  doc.set("truth", json_count(fa.row.truth));
  doc.set("detected", json_count(fa.row.detected));
  doc.set("tp", json_count(fa.row.tp));
  doc.set("fp", json_count(fa.row.fp));
  doc.set("fn", json_count(fa.row.fn));
  doc.set("precision", json_ratio(fa.row.precision()));
  doc.set("recall", json_ratio(fa.row.recall()));
  doc.set("f1", json_ratio(fa.row.f1()));
  doc.set("plt_excluded", json_count(fa.row.plt_excluded));
  doc.set("zero_sized", json_count(fa.row.zero_sized));
  doc.set("ifuncs", json_count(fa.row.ifuncs));
  doc.set("aliases", json_count(fa.row.aliases));
  doc.set("fde_starts", json_count(fa.fde_starts));
  doc.set("pointer_starts", json_count(fa.pointer_starts));
  doc.set("merged_parts", json_count(fa.merged_parts));
  doc.set("invalid_fde_starts", json_count(fa.invalid_fde_starts));
  Value functions = Value::array();
  for (const auto& [addr, provenance] : fa.functions) {
    Value entry = Value::array();
    entry.add(Value(hex64(addr)));
    entry.add(Value(provenance));
    functions.add(std::move(entry));
  }
  doc.set("functions", std::move(functions));
  return doc;
}

std::optional<eval::FileAnalysis> analysis_from_json(
    const util::json::Value& doc, std::string* error) {
  if (!doc.is_object()) {
    *error = "result is not a JSON object";
    return std::nullopt;
  }
  eval::FileAnalysis fa;
  const Value* path = doc.get("path");
  const Value* ok = doc.get("ok");
  if (path == nullptr || ok == nullptr ||
      ok->kind() != Value::Kind::kBool) {
    *error = "result lacks path/ok members";
    return std::nullopt;
  }
  fa.row.path = path->text();
  fa.row.ok = ok->as_bool();
  if (const Value* hash = doc.get("content_hash");
      !parse_hex64(hash, &fa.content_hash)) {
    *error = "result content_hash is not a 0x hex string";
    return std::nullopt;
  }
  if (!fa.row.ok) {
    const Value* message = doc.get("error");
    fa.row.error = message == nullptr ? "unknown analysis error"
                                      : message->text();
    return fa;
  }
  const Value* source = doc.get("truth_source");
  if (source == nullptr) {
    *error = "result lacks truth_source";
    return std::nullopt;
  }
  fa.row.truth_source = source->text();
  if (!get_count(doc, "truth", &fa.row.truth) ||
      !get_count(doc, "detected", &fa.row.detected) ||
      !get_count(doc, "tp", &fa.row.tp) ||
      !get_count(doc, "fp", &fa.row.fp) ||
      !get_count(doc, "fn", &fa.row.fn) ||
      !get_count(doc, "plt_excluded", &fa.row.plt_excluded) ||
      !get_count(doc, "zero_sized", &fa.row.zero_sized) ||
      !get_count(doc, "ifuncs", &fa.row.ifuncs) ||
      !get_count(doc, "aliases", &fa.row.aliases) ||
      !get_count(doc, "fde_starts", &fa.fde_starts) ||
      !get_count(doc, "pointer_starts", &fa.pointer_starts) ||
      !get_count(doc, "merged_parts", &fa.merged_parts) ||
      !get_count(doc, "invalid_fde_starts", &fa.invalid_fde_starts)) {
    *error = "result lacks a numeric metric member";
    return std::nullopt;
  }
  const Value* functions = doc.get("functions");
  if (functions == nullptr || !functions->is_array()) {
    *error = "result lacks a functions array";
    return std::nullopt;
  }
  fa.functions.reserve(functions->items().size());
  for (const Value& entry : functions->items()) {
    std::uint64_t addr = 0;
    if (!entry.is_array() || entry.items().size() != 2 ||
        !parse_hex64(&entry.items()[0], &addr) ||
        entry.items()[1].kind() != Value::Kind::kString) {
      *error = "malformed functions entry";
      return std::nullopt;
    }
    fa.functions.emplace_back(addr, entry.items()[1].text());
  }
  return fa;
}

Value stats_view(const obs::Snapshot& snapshot) {
  Value stats = Value::object();
  Value server = Value::object();
  for (const auto& [key, metric] : kStatsView) {
    std::uint64_t value = 0;
    if (const auto it = snapshot.counters().find(metric);
        it != snapshot.counters().end()) {
      value = it->second;
    } else if (const auto gauge = snapshot.gauges().find(metric);
               gauge != snapshot.gauges().end()) {
      value = static_cast<std::uint64_t>(gauge->second);
    }
    if (key.starts_with(kServerPrefix)) {
      server.set(std::string(key.substr(kServerPrefix.size())),
                 Value::number(value));
    } else {
      stats.set(std::string(key), Value::number(value));
    }
  }
  stats.set("server", std::move(server));
  return stats;
}

bool response_ok(const util::json::Value& response, std::string* error) {
  const Value* schema = response.get("schema");
  if (schema == nullptr || schema->text() != kSchema) {
    *error = std::string("response schema is not \"") + kSchema + "\"";
    return false;
  }
  const Value* status = response.get("status");
  if (status == nullptr || status->text() != "ok") {
    const Value* message = response.get("error");
    *error = message != nullptr ? message->text() : "server reported an error";
    return false;
  }
  return true;
}

std::string response_error_code(const util::json::Value& response) {
  const Value* code = response.get("code");
  return code != nullptr && code->kind() == Value::Kind::kString ? code->text()
                                                                 : std::string();
}

}  // namespace fetch::service

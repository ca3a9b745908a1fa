#include "service/protocol.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <utility>

#include "eval/table.hpp"
#include "util/framing.hpp"

namespace fetch::service {

namespace {

using util::json::Reader;
using util::json::Value;

Value json_count(std::size_t value) {
  return Value::number(static_cast<std::uint64_t>(value));
}

Value json_ratio(double value) {
  return Value::number(value, eval::fmt(value, 4));
}

/// "0x" + the hex digits of \p value, zero-padded to \p digits: 16 for
/// the content hash (the cache key as DESIGN.md documents it), 1 for a
/// function address ("0x26000", "0x0").
std::string hex64(std::uint64_t value, int digits) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%0*llx", digits,
                static_cast<unsigned long long>(value));
  return buf;
}

/// Each byte's value as a hex digit of either case; 0xff for any other
/// byte. A lookup, not a digit-or-letter branch, because the address
/// digits of a reply mix the two at random.
constexpr std::array<std::uint8_t, 256> kHexDigits = [] {
  std::array<std::uint8_t, 256> digits{};
  digits.fill(0xff);
  for (std::uint8_t i = 0; i < 10; ++i) {
    digits['0' + i] = i;
  }
  for (std::uint8_t i = 0; i < 6; ++i) {
    digits['a' + i] = digits['A' + i] = 10 + i;
  }
  return digits;
}();

/// Decodes "0x" + 1 to 16 hex digits of either case; false on anything
/// else (a sign, whitespace, no digits, a 17th digit).
bool parse_hex64(std::string_view text, std::uint64_t* out) {
  if (text.size() < 3 || text.size() > 18 || text[0] != '0' ||
      text[1] != 'x') {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : text.substr(2)) {
    const std::uint8_t digit = kHexDigits[static_cast<unsigned char>(c)];
    if (digit > 0xf) {
      return false;
    }
    value = value << 4 | digit;
  }
  *out = value;
  return true;
}

// --- Reading replies ----------------------------------------------------------
//
// A reply is read member by member with util::json::Reader. Each decoder
// keeps what it reads of a member until its object closes, and a later
// member of the same name replaces it (Value::set keeps the last too), so
// the checks then run in the order, and with the messages, they have when
// made on a tree. Every decoder reads its whole value even when the value
// is unusable, so a syntax error further on is still found.

/// Reads a value as Value::text() shows it: a string's contents, a
/// number's source text, "" for anything else.
bool read_text(Reader& in, std::string* out) {
  std::string_view text;
  const std::optional<Value::Kind> kind = in.peek();
  if (kind == Value::Kind::kString) {
    if (!in.string(&text)) {
      return false;
    }
  } else if (kind == Value::Kind::kNumber) {
    if (!in.number(nullptr, &text)) {
      return false;
    }
  } else if (!in.skip()) {
    return false;
  }
  out->assign(text);
  return true;
}

/// A count member: a number, truncated toward zero. Any other value, and
/// a number no std::size_t holds, reads as nullopt.
bool read_count(Reader& in, std::optional<std::size_t>* out) {
  out->reset();
  if (in.peek() != Value::Kind::kNumber) {
    return in.skip();
  }
  double value = 0.0;
  if (!in.number(&value)) {
    return false;
  }
  if (value > -1.0 && value < 18446744073709551616.0) {  // 2^64
    *out = static_cast<std::size_t>(value);
  }
  return true;
}

/// The count members of a result, in the order analysis_json writes them.
constexpr std::string_view kCountKeys[] = {
    "truth", "detected", "tp", "fp", "fn", "plt_excluded", "zero_sized",
    "ifuncs", "aliases", "fde_starts", "pointer_starts", "merged_parts",
    "invalid_fde_starts"};
constexpr std::size_t kCounts = std::size(kCountKeys);
constexpr std::size_t kDetected = 1;
constexpr std::size_t kPltExcluded = 5;
static_assert(kCountKeys[kDetected] == "detected" &&
              kCountKeys[kPltExcluded] == "plt_excluded");

/// The shortest functions entry, ["0x0",""], and its separating comma.
constexpr std::size_t kMinEntryBytes = 11;

using Functions = std::vector<std::pair<std::uint64_t, std::string>>;

/// One ["0x<hex>","<provenance>"] entry, appended to *functions. *good
/// turns false when the value is anything else. The compact form
/// query_frame writes takes one scan; any other spelling (whitespace,
/// escapes, another shape) is read token by token.
bool read_function(Reader& in, bool* good, Functions* functions) {
  std::string_view hex;
  std::string_view provenance_text;
  if (in.compact_string_pair(&hex, &provenance_text)) {
    std::uint64_t addr = 0;
    if (parse_hex64(hex, &addr)) {
      functions->emplace_back(addr, provenance_text);
    } else {
      *good = false;
    }
    return true;
  }
  if (in.peek() != Value::Kind::kArray) {
    *good = false;
    return in.skip();
  }
  if (!in.begin_array()) {
    return false;
  }
  std::uint64_t addr = 0;
  std::string provenance;
  std::size_t items = 0;
  bool shaped = true;
  std::string_view text;
  while (in.next_item()) {
    if (items < 2 && in.peek() == Value::Kind::kString) {
      if (!in.string(&text)) {
        return false;
      }
      if (items == 0) {
        shaped = parse_hex64(text, &addr);
      } else {
        provenance.assign(text);
      }
    } else {
      shaped = false;
      if (!in.skip()) {
        return false;
      }
    }
    ++items;
  }
  if (!in.ok()) {
    return false;
  }
  if (shaped && items == 2) {
    functions->emplace_back(addr, std::move(provenance));
  } else {
    *good = false;
  }
  return true;
}

/// What a result's functions member held.
enum class FunctionsState : std::uint8_t { kMissing, kMalformed, kOk };

/// The functions member, decoded into *functions (reserved for
/// \p expected entries). kMissing when the value is not an array;
/// kMalformed when an entry is not a pair (the entries after it are
/// skipped).
bool read_functions(Reader& in, std::size_t expected, FunctionsState* state,
                    Functions* functions) {
  functions->clear();
  *state = FunctionsState::kMissing;
  if (in.peek() != Value::Kind::kArray) {
    return in.skip();
  }
  if (!in.begin_array()) {
    return false;
  }
  functions->reserve(expected);
  bool good = true;
  while (in.next_item()) {
    if (!(good ? read_function(in, &good, functions) : in.skip())) {
      return false;
    }
  }
  *state = good ? FunctionsState::kOk : FunctionsState::kMalformed;
  return in.ok();
}

/// Reads the result object at \p in: the analysis, or nullopt + *error.
/// \p document_bytes, the size of the whole document, caps how many
/// function entries the counts can make it reserve, so a hostile count
/// cannot drive the allocation. A syntax error shows as !in.ok().
std::optional<eval::FileAnalysis> read_analysis(Reader& in,
                                                std::size_t document_bytes,
                                                std::string* error) {
  if (in.peek() != Value::Kind::kObject) {
    (void)in.skip();
    *error = "result is not a JSON object";
    return std::nullopt;
  }
  std::optional<std::string> path;
  std::optional<std::string> message;
  std::optional<std::string> truth_source;
  std::optional<bool> ok;
  bool has_hash = false;
  std::uint64_t hash = 0;
  std::optional<std::size_t> counts[kCounts];
  FunctionsState functions_state = FunctionsState::kMissing;
  Functions functions;
  if (!in.begin_object()) {
    return std::nullopt;
  }
  std::string_view key;
  while (in.next_member(&key)) {
    bool read = true;
    const auto count = std::find(std::begin(kCountKeys), std::end(kCountKeys),
                                 key);
    if (key == "path") {
      read = read_text(in, &path.emplace());
    } else if (key == "ok") {
      ok.reset();
      if (in.peek() == Value::Kind::kBool) {
        read = in.boolean(&ok.emplace());
      } else {
        read = in.skip();
      }
    } else if (key == "content_hash") {
      has_hash = false;
      std::string_view text;
      if (in.peek() == Value::Kind::kString) {
        read = in.string(&text);
        has_hash = read && parse_hex64(text, &hash);
      } else {
        read = in.skip();
      }
    } else if (key == "error") {
      read = read_text(in, &message.emplace());
    } else if (key == "truth_source") {
      read = read_text(in, &truth_source.emplace());
    } else if (count != std::end(kCountKeys)) {
      read = read_count(in, &counts[count - std::begin(kCountKeys)]);
    } else if (key == "functions") {
      // analysis_json writes detected and plt_excluded first; together
      // they count the entries.
      const std::size_t expected = counts[kDetected].value_or(0) +
                                   counts[kPltExcluded].value_or(0);
      read = read_functions(
          in, std::min(expected, document_bytes / kMinEntryBytes),
          &functions_state, &functions);
    } else {
      read = in.skip();
    }
    if (!read) {
      return std::nullopt;
    }
  }
  if (!in.ok()) {
    return std::nullopt;
  }

  eval::FileAnalysis fa;
  if (!path || !ok) {
    *error = "result lacks path/ok members";
    return std::nullopt;
  }
  fa.row.path = std::move(*path);
  fa.row.ok = *ok;
  if (!has_hash) {
    *error = "result content_hash is not a 0x hex string";
    return std::nullopt;
  }
  fa.content_hash = hash;
  if (!fa.row.ok) {
    fa.row.error = message ? std::move(*message) : "unknown analysis error";
    return fa;
  }
  if (!truth_source) {
    *error = "result lacks truth_source";
    return std::nullopt;
  }
  fa.row.truth_source = std::move(*truth_source);
  std::size_t* const slots[kCounts] = {
      &fa.row.truth,        &fa.row.detected,   &fa.row.tp,
      &fa.row.fp,           &fa.row.fn,         &fa.row.plt_excluded,
      &fa.row.zero_sized,   &fa.row.ifuncs,     &fa.row.aliases,
      &fa.fde_starts,       &fa.pointer_starts, &fa.merged_parts,
      &fa.invalid_fde_starts};
  for (std::size_t i = 0; i < kCounts; ++i) {
    if (!counts[i]) {
      *error = "result lacks a numeric metric member";
      return std::nullopt;
    }
    *slots[i] = *counts[i];
  }
  if (functions_state == FunctionsState::kMissing) {
    *error = "result lacks a functions array";
    return std::nullopt;
  }
  if (functions_state == FunctionsState::kMalformed) {
    *error = "malformed functions entry";
    return std::nullopt;
  }
  fa.functions = std::move(functions);
  return fa;
}

Value base_response(const char* status) {
  Value doc = Value::object();
  doc.set("schema", Value(kSchema));
  doc.set("status", Value(status));
  return doc;
}

/// How analysis_json(fa).dump_compact() opens: the object and the key
/// of its first member, "path".
constexpr std::string_view kResultOpen = "{\"path\":";

/// ok_response(Op::kQuery) as dumped, minus its closing "}", so the
/// query members can follow it. Built once from the tree, so the two
/// cannot disagree.
const std::string& query_envelope() {
  static const std::string head = [] {
    std::string text = ok_response(Op::kQuery).dump_compact();
    text.pop_back();
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
  const std::string payload = response.dump_compact();
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
  std::string text = analysis_json(fa).dump_compact();
  text.erase(0, kResultOpen.size() + Value(fa.row.path).dump_compact().size());
  return text;
}

std::string query_frame(std::string_view cache, const std::string& path,
                        std::string_view body, const std::string& trace,
                        const Value& stages) {
  const std::string cache_json = Value(std::string(cache)).dump_compact();
  const std::string path_json = Value(path).dump_compact();
  const std::string trace_json = Value(trace).dump_compact();
  const std::string stages_json = stages.dump_compact();
  const std::string_view parts[] = {
      query_envelope(),
      ",\"cache\":",  cache_json,
      ",\"result\":", kResultOpen, path_json, body,
      ",\"trace\":",  trace_json,
      ",\"stages\":", stages_json,
      "}"};
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
  doc.set("content_hash", Value(hex64(fa.content_hash, 16)));
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
    entry.add(Value(hex64(addr, 1)));
    entry.add(Value(provenance));
    functions.add(std::move(entry));
  }
  doc.set("functions", std::move(functions));
  return doc;
}

std::optional<eval::FileAnalysis> analysis_from_json(std::string_view text,
                                                     std::string* error) {
  Reader in(text);
  std::optional<eval::FileAnalysis> fa = read_analysis(in, text.size(), error);
  if (!in.end()) {
    *error = "result is not valid JSON";
    return std::nullopt;
  }
  return fa;
}

QueryReply parse_query_reply(std::string_view payload, std::string* error) {
  Reader in(payload);
  std::optional<std::string> schema;
  std::optional<std::string> status;
  std::optional<std::string> message;
  std::optional<std::string> cache;
  std::optional<std::string> trace;
  std::string code;
  bool has_result = false;
  std::optional<eval::FileAnalysis> analysis;
  std::string analysis_error;
  Value stages = Value::array();
  if (in.peek() == Value::Kind::kObject && in.begin_object()) {
    std::string_view key;
    while (in.next_member(&key)) {
      bool read = true;
      if (key == "schema") {
        read = read_text(in, &schema.emplace());
      } else if (key == "status") {
        read = read_text(in, &status.emplace());
      } else if (key == "error") {
        read = read_text(in, &message.emplace());
      } else if (key == "code") {
        // Only a string counts as a code (response_error_code).
        const bool is_string = in.peek() == Value::Kind::kString;
        read = read_text(in, &code);
        if (!is_string) {
          code.clear();
        }
      } else if (key == "cache") {
        read = read_text(in, &cache.emplace());
      } else if (key == "trace") {
        read = read_text(in, &trace.emplace());
      } else if (key == "result") {
        has_result = true;
        analysis = read_analysis(in, payload.size(), &analysis_error);
        read = in.ok();
      } else if (key == "stages") {
        // Only an array counts; anything else leaves no stages.
        stages = Value::array();
        if (in.peek() == Value::Kind::kArray) {
          std::optional<Value> value = in.value();
          read = value.has_value();
          if (read) {
            stages = std::move(*value);
          }
        } else {
          read = in.skip();
        }
      } else {
        read = in.skip();
      }
      if (!read) {
        break;
      }
    }
  } else {
    (void)in.skip();
  }

  QueryReply reply;
  if (!in.end()) {
    *error = "server sent malformed JSON";
    return reply;
  }
  if (schema != kSchema) {
    *error = std::string("response schema is not \"") + kSchema + "\"";
    reply.error_code = std::move(code);
    return reply;
  }
  if (status != "ok") {
    *error = message ? std::move(*message) : "server reported an error";
    reply.error_code = std::move(code);
    return reply;
  }
  if (!has_result) {
    *error = "query response has no result";
    return reply;
  }
  if (!analysis) {
    *error = std::move(analysis_error);
    return reply;
  }
  QueryResult& out = reply.result.emplace();
  out.analysis = std::move(*analysis);
  out.cache = cache ? std::move(*cache) : "?";
  out.trace = trace ? std::move(*trace) : "";
  out.stages = std::move(stages);
  return reply;
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

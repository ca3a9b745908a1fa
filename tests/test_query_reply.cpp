/// \file test_query_reply.cpp
/// Differential test of the client's one-pass reply decode
/// (service::parse_query_reply, service::analysis_from_json) against the
/// tree decode it replaced: Value::parse of the whole reply, response_ok
/// and response_error_code on the tree, and the tree-walking
/// analysis_from_json kept below as the reference. Both must give the
/// same analysis, or the same error, on real replies from a live daemon
/// (smoke corpus and fixtures, miss and hit), on every service_frame
/// fuzz seed, and on targeted edits of a reply.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/runner.hpp"
#include "eval/session.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "synth/corpus.hpp"
#include "util/framing.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace fetch {
namespace {

using util::json::Value;

// --- Reference: the tree decode ---------------------------------------------

bool reference_hex64(const Value* value, std::uint64_t* out) {
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

bool reference_count(const Value& obj, const char* key, std::size_t* out) {
  const Value* v = obj.get(key);
  if (v == nullptr || v->kind() != Value::Kind::kNumber) {
    return false;
  }
  *out = static_cast<std::size_t>(v->as_double());
  return true;
}

std::optional<eval::FileAnalysis> reference_analysis(const Value& doc,
                                                     std::string* error) {
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
      !reference_hex64(hash, &fa.content_hash)) {
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
  if (!reference_count(doc, "truth", &fa.row.truth) ||
      !reference_count(doc, "detected", &fa.row.detected) ||
      !reference_count(doc, "tp", &fa.row.tp) ||
      !reference_count(doc, "fp", &fa.row.fp) ||
      !reference_count(doc, "fn", &fa.row.fn) ||
      !reference_count(doc, "plt_excluded", &fa.row.plt_excluded) ||
      !reference_count(doc, "zero_sized", &fa.row.zero_sized) ||
      !reference_count(doc, "ifuncs", &fa.row.ifuncs) ||
      !reference_count(doc, "aliases", &fa.row.aliases) ||
      !reference_count(doc, "fde_starts", &fa.fde_starts) ||
      !reference_count(doc, "pointer_starts", &fa.pointer_starts) ||
      !reference_count(doc, "merged_parts", &fa.merged_parts) ||
      !reference_count(doc, "invalid_fde_starts", &fa.invalid_fde_starts)) {
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
        !reference_hex64(&entry.items()[0], &addr) ||
        entry.items()[1].kind() != Value::Kind::kString) {
      *error = "malformed functions entry";
      return std::nullopt;
    }
    fa.functions.emplace_back(addr, entry.items()[1].text());
  }
  return fa;
}

/// A decoded reply, or the error (and error code) that stopped it.
struct Decoded {
  std::optional<service::QueryResult> result;
  std::string error;
  std::string code;
};

/// What ServiceClient::query made of a reply payload with the tree.
Decoded reference_reply(const std::string& payload) {
  Decoded out;
  const auto response = Value::parse(payload);
  if (!response) {
    out.error = "server sent malformed JSON";
    return out;
  }
  if (!service::response_ok(*response, &out.error)) {
    out.code = service::response_error_code(*response);
    return out;
  }
  const Value* result = response->get("result");
  if (result == nullptr) {
    out.error = "query response has no result";
    return out;
  }
  auto analysis = reference_analysis(*result, &out.error);
  if (!analysis) {
    return out;
  }
  service::QueryResult& r = out.result.emplace();
  r.analysis = std::move(*analysis);
  const Value* cache = response->get("cache");
  r.cache = cache == nullptr ? "?" : cache->text();
  if (const Value* id = response->get("trace"); id != nullptr) {
    r.trace = id->text();
  }
  if (const Value* stages = response->get("stages");
      stages != nullptr && stages->is_array()) {
    r.stages = *stages;
  }
  return out;
}

Decoded one_pass_reply(const std::string& payload) {
  Decoded out;
  service::QueryReply reply = service::parse_query_reply(payload, &out.error);
  out.result = std::move(reply.result);
  out.code = std::move(reply.error_code);
  return out;
}

/// Every field of \p fa but the function list, one per line.
std::string describe(const eval::FileAnalysis& fa) {
  std::string out = "path " + fa.row.path + "\nok " +
                    std::to_string(fa.row.ok) + "\nerror " + fa.row.error +
                    "\ntruth_source " + fa.row.truth_source + "\nhash " +
                    std::to_string(fa.content_hash) + "\n";
  for (const std::size_t count :
       {fa.row.truth, fa.row.detected, fa.row.tp, fa.row.fp, fa.row.fn,
        fa.row.plt_excluded, fa.row.zero_sized, fa.row.ifuncs,
        fa.row.aliases, fa.fde_starts, fa.pointer_starts, fa.merged_parts,
        fa.invalid_fde_starts}) {
    out += std::to_string(count) + " ";
  }
  return out;
}

void expect_same_analysis(const eval::FileAnalysis& got,
                          const eval::FileAnalysis& want) {
  EXPECT_EQ(describe(got), describe(want));
  EXPECT_TRUE(got.functions == want.functions)
      << got.functions.size() << " vs " << want.functions.size()
      << " functions";
}

/// Both decodes of \p payload agree; returns whether it decoded.
bool expect_same_reply(const std::string& payload) {
  const Decoded want = reference_reply(payload);
  const Decoded got = one_pass_reply(payload);
  EXPECT_EQ(got.result.has_value(), want.result.has_value())
      << "one-pass: " << got.error << "\nreference: " << want.error;
  EXPECT_EQ(got.code, want.code);
  if (!got.result || !want.result) {
    EXPECT_EQ(got.error, want.error);
    return false;
  }
  expect_same_analysis(got.result->analysis, want.result->analysis);
  EXPECT_EQ(got.result->cache, want.result->cache);
  EXPECT_EQ(got.result->trace, want.result->trace);
  EXPECT_TRUE(got.result->stages == want.result->stages)
      << got.result->stages.dump() << " vs " << want.result->stages.dump();
  return true;
}

/// analysis_from_json of a result's own text against the tree decode.
void expect_same_result(const std::string& text) {
  std::string got_error;
  const auto got = service::analysis_from_json(text, &got_error);
  const auto doc = Value::parse(text);
  if (!doc) {
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(got_error, "result is not valid JSON");
    return;
  }
  std::string want_error;
  const auto want = reference_analysis(*doc, &want_error);
  ASSERT_EQ(got.has_value(), want.has_value())
      << "one-pass: " << got_error << "\nreference: " << want_error;
  if (!want) {
    EXPECT_EQ(got_error, want_error);
    return;
  }
  expect_same_analysis(*got, *want);
}

// --- Real replies -------------------------------------------------------------

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/fetch-reply-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

/// In-process daemon on a private socket; stops and joins on destruction.
class Daemon {
 public:
  Daemon() {
    service::ServerOptions options;
    options.socket_path = unique_socket_path();
    options.workers = 2;
    server_ = std::make_unique<service::ServiceServer>(options);
    std::string error;
    started_ = server_->start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_->run(); });
    }
  }
  ~Daemon() {
    if (started_) {
      server_->stop();
      thread_.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The raw reply payload to a query for \p path.
  std::string query(const std::string& path) {
    std::string error;
    auto fd = util::unix_connect(server_->socket_path(), &error);
    EXPECT_TRUE(fd.has_value()) << error;
    if (!fd) {
      return {};
    }
    service::Request request;
    request.op = service::Op::kQuery;
    request.path = path;
    EXPECT_TRUE(util::write_frame(
        fd->get(), service::request_json(request).dump(), &error))
        << error;
    std::string reply;
    EXPECT_EQ(util::read_frame(fd->get(), &reply, &error),
              util::FrameStatus::kOk)
        << error;
    return reply;
  }

 private:
  std::unique_ptr<service::ServiceServer> server_;
  std::thread thread_;
  bool started_ = false;
};

/// Queries \p path twice (miss, then hit) and checks both replies.
void check_served(Daemon& daemon, const std::string& path) {
  SCOPED_TRACE(path);
  for (const char* expected : {"miss", "hit"}) {
    const std::string reply = daemon.query(path);
    ASSERT_TRUE(expect_same_reply(reply)) << reply.substr(0, 200);
    EXPECT_EQ(one_pass_reply(reply).result->cache, expected);
    const auto doc = Value::parse(reply);
    ASSERT_TRUE(doc.has_value());
    expect_same_result(doc->get("result")->dump());
  }
}

/// \p reply in the form the daemon once sent: dumped with indentation,
/// every function address zero-padded to 16 hex digits.
std::string pretty_padded(const std::string& reply) {
  const auto doc = Value::parse(reply);
  EXPECT_TRUE(doc.has_value());
  if (!doc) {
    return {};
  }
  Value result = *doc->get("result");
  Value functions = Value::array();
  for (const Value& entry : result.get("functions")->items()) {
    char padded[19];
    std::snprintf(padded, sizeof(padded), "0x%016llx",
                  std::strtoull(entry.items()[0].text().c_str(), nullptr, 16));
    Value pair = Value::array();
    pair.add(Value(padded));
    pair.add(entry.items()[1]);
    functions.add(std::move(pair));
  }
  result.set("functions", std::move(functions));
  Value pretty = *doc;
  pretty.set("result", std::move(result));
  return pretty.dump();
}

TEST(QueryReply, PrettyPaddedRepliesDecodeAsTheCompactOnes) {
  const std::string paths = FETCH_FIXTURE_PATHS;
  const std::string path = paths.substr(0, paths.find('|'));
  Daemon daemon;
  for (const char* expected : {"miss", "hit"}) {
    SCOPED_TRACE(expected);
    const std::string compact = daemon.query(path);
    const std::string pretty = pretty_padded(compact);
    ASSERT_NE(pretty.find("\"0x0000"), std::string::npos);
    ASSERT_NE(pretty.find("\n  "), std::string::npos);
    std::string error;
    const service::QueryReply want =
        service::parse_query_reply(compact, &error);
    ASSERT_TRUE(want.result.has_value()) << error;
    EXPECT_EQ(want.result->cache, expected);
    ASSERT_FALSE(want.result->analysis.functions.empty());
    const service::QueryReply got = service::parse_query_reply(pretty, &error);
    ASSERT_TRUE(got.result.has_value()) << error;
    expect_same_analysis(got.result->analysis, want.result->analysis);
    EXPECT_EQ(got.result->cache, want.result->cache);
    EXPECT_EQ(got.result->trace, want.result->trace);
    EXPECT_TRUE(got.result->stages == want.result->stages);
    EXPECT_TRUE(expect_same_reply(pretty));
  }
}

TEST(QueryReply, SmokeCorpusRepliesDecodeAlike) {
  eval::CorpusOptions options;
  options.scale = synth::Scale::kSmoke;
  options.jobs = 1;
  const eval::Corpus corpus = eval::Corpus::self_built(options);
  ASSERT_GT(corpus.size(), 0u);
  Daemon daemon;
  for (const eval::CorpusEntry& entry : corpus.entries()) {
    const std::string path =
        ::testing::TempDir() + "/reply_" + entry.bin.name + ".bin";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(entry.bin.image.data()),
              static_cast<std::streamsize>(entry.bin.image.size()));
    out.close();
    check_served(daemon, path);
  }
  // An unreadable file: a "none" reply carrying an ok:false result.
  const std::string reply = daemon.query("/nonexistent/reply_test.bin");
  ASSERT_TRUE(expect_same_reply(reply)) << reply;
  EXPECT_EQ(one_pass_reply(reply).result->cache, "none");
}

TEST(QueryReply, FixtureRepliesDecodeAlike) {
  const std::string paths = FETCH_FIXTURE_PATHS;
  Daemon daemon;
  for (std::size_t at = 0; at <= paths.size();) {
    const std::size_t end = std::min(paths.find('|', at), paths.size());
    check_served(daemon, paths.substr(at, end - at));
    at = end + 1;
  }
}

TEST(QueryReply, FuzzSeedsDecodeAlike) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(FETCH_FUZZ_CORPUS_DIR) / "service_frame";
  std::size_t seeds = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    // The fuzz harness reads the whole seed as a reply and as a result;
    // the bytes after a frame header are what a client would decode.
    for (const std::string& payload :
         {bytes, bytes.size() >= 4 ? bytes.substr(4) : std::string()}) {
      (void)expect_same_reply(payload);
      expect_same_result(payload);
    }
    ++seeds;
  }
  EXPECT_GT(seeds, 0u);
}

// --- Targeted edits -----------------------------------------------------------

/// JSON object members as raw text: the key as written between the
/// quotes (escapes allowed), and the value's JSON.
using Members = std::vector<std::pair<std::string, std::string>>;

std::string object(const Members& members, const char* sep = ",") {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    out += (i == 0 ? "" : sep) + std::string("\"") + members[i].first +
           "\":" + members[i].second;
  }
  return out + "}";
}

Members result_members() {
  return {{"path", R"("/srv/bin/tool")"},
          {"ok", "true"},
          {"content_hash", R"("0x00000000deadbeef")"},
          {"truth_source", R"("symtab")"},
          {"truth", "10"},
          {"detected", "9"},
          {"tp", "8"},
          {"fp", "1"},
          {"fn", "2"},
          {"precision", "0.8889"},
          {"recall", "0.8000"},
          {"f1", "0.8421"},
          {"plt_excluded", "3"},
          {"zero_sized", "0"},
          {"ifuncs", "1"},
          {"aliases", "4"},
          {"fde_starts", "7"},
          {"pointer_starts", "2"},
          {"merged_parts", "0"},
          {"invalid_fde_starts", "0"},
          {"functions", R"([["0x401000","fde"],["0x401200","pointer"]])"}};
}

Members reply_members(const std::string& result) {
  return {{"schema", R"("fetch-service-v1")"},
          {"status", R"("ok")"},
          {"op", R"("query")"},
          {"cache", R"("hit")"},
          {"result", result},
          {"trace", R"("0123456789abcdef")"},
          {"stages", "[]"}};
}

/// \p members with the value of \p key replaced (every occurrence).
Members with(Members members, const std::string& key,
             const std::string& value) {
  for (auto& member : members) {
    if (member.first == key) {
      member.second = value;
    }
  }
  return members;
}

Members without(Members members, const std::string& key) {
  std::erase_if(members, [&](const auto& m) { return m.first == key; });
  return members;
}

Members plus(Members members, const std::string& key,
             const std::string& value) {
  members.emplace_back(key, value);
  return members;
}

/// Checks a result variant both ways: inside a reply, and on its own.
void check_result(const Members& result) {
  const std::string text = object(result);
  SCOPED_TRACE(text);
  (void)expect_same_reply(object(reply_members(text)));
  expect_same_result(text);
}

TEST(QueryReply, TargetedResultEdits) {
  const Members base = result_members();
  check_result(base);

  Members reversed(base.rbegin(), base.rend());
  check_result(reversed);

  // Escaped keys and values.
  Members escaped = base;
  escaped[0] = {"p\\u0061th", R"("/srv/a \"quoted\" \\ déjà")"};
  escaped.back().second = R"([["0x40100f","fde"]])";
  check_result(escaped);

  // Repeated members: the last wins, whichever is well-formed.
  check_result(plus(base, "tp", "99"));
  check_result(plus(base, "tp", R"("x")"));
  check_result(plus(with(base, "tp", R"("x")"), "tp", "5"));
  check_result(plus(base, "functions", R"([["0x1","tail-call"]])"));
  check_result(plus(base, "functions", R"([["0x1"]])"));
  check_result(plus(with(base, "functions", "{}"), "functions", "[]"));
  check_result(plus(base, "functions", "null"));
  check_result(plus(base, "ok", "false"));
  check_result(plus(base, "content_hash", R"("0xz")"));

  // Unknown members: skipped when well-formed, rejected when not.
  check_result(plus(base, "extra", R"({"a":[1,{"b":null}],"c":"d"})"));
  check_result(plus(base, "extra", "[1,]"));
  check_result(plus(base, "extra", R"({"a" 1})"));
  check_result(plus(base, "extra", std::string(300, '[') +
                                       std::string(300, ']')));

  // Counts.
  for (const char* count :
       {"1e3", "7.0", "7.9", "0", "-0", "-0.5", "1e-400", "-1e-400",
        "12345678901234", R"("7")", "true", "null"}) {
    check_result(with(base, "tp", count));
  }
  check_result(without(base, "aliases"));

  // Hex strings.
  for (const char* hex :
       {R"("0x0")", R"("0xABCDEF")", R"("0xaBcD")", R"("0xffffffffffffffff")",
        R"("0x1ffffffffffffffff")", R"("0x")", R"("0X10")", R"("10")",
        R"(" 0x10")", R"("0x-1")", R"("0x1g")", "4096"}) {
    check_result(with(base, "content_hash", hex));
    check_result(
        with(base, "functions", std::string("[[") + hex + R"(,"fde"]])"));
  }
  check_result(without(base, "content_hash"));

  // Function entries of the wrong shape.
  for (const char* functions :
       {R"([["0x1","fde","extra"]])", R"([["0x1"]])", "[[]]",
        R"([["0x1",7]])", R"([{"addr":"0x1"}])", R"([["0x1","fde"],5])",
        R"([["0x1","fde"],["bad","fde"],["0x2","fde"]])", R"("0x1")", "[]"}) {
    check_result(with(base, "functions", functions));
  }
  check_result(without(base, "functions"));

  // Entries at the edge of the compact form, ["<hex>","<provenance>"]
  // with no whitespace or escape, which read_function takes in one scan;
  // it must decline every other spelling and read it token by token.
  // Each variant is checked alone and after a compact entry.
  const auto check_entry = [&](const std::string& entry) {
    check_result(with(base, "functions", "[" + entry + "]"));
    check_result(
        with(base, "functions", R"([["0x401000","fde"],)" + entry + "]"));
  };
  const std::string entry = R"(["0x401200","pointer"])";
  for (std::size_t at = 0; at <= entry.size(); ++at) {
    check_entry(entry.substr(0, at));
    for (const char* space : {" ", "\n"}) {
      std::string spaced = entry;
      check_entry(spaced.insert(at, space));
    }
  }
  for (const char* escaped :
       {R"(["0x1\"","fde"])", R"(["0x\"1","fde"])", R"(["0x1","f\"de"])",
        R"(["0x1","fde\""])", R"(["0x1\\","fde"])", R"(["0x1","f\\de"])",
        R"(["0x1","fde\\"])", R"(["\"","\""])", R"(["\u0030x1","fde"])",
        R"(["0x1","fd\u0065"])", R"(["0x1","fde\/"])", R"(["0x1","\q"])"}) {
    check_entry(escaped);
  }
  for (const char* hex : {"0X1", "0x11111111111111111", "0x1111111111111111",
                          "0x", "", "x1", "0x1 ", "0x00000000000000000"}) {
    check_entry(std::string(R"([")") + hex + R"(","fde"])");
  }
  for (const char* shape :
       {R"(["0x1"])", R"(["0x1","fde","x"])", R"(["0x1","fde",])",
        R"(["0x1",])", R"([,"0x1","fde"])", R"(["0x1""fde"])",
        R"(["0x1","fde"]])", R"([1,"fde"])", R"(["0x1",null])",
        R"(["0x1",["fde"]])", R"([["0x1","fde"]])", "[]", R"(["0x1","fde")",
        R"(["0x1","fde"],)", R"("0x1","fde")"}) {
    check_entry(shape);
  }

  // The document cut at every byte of its last entry; at the entry's
  // end, a lone compact entry is the last bytes of the document.
  {
    const std::string text = object(base);
    const std::string reply = object(reply_members(text));
    const std::size_t in_text = text.rfind(entry);
    const std::size_t in_reply = reply.rfind(entry);
    ASSERT_NE(in_text, std::string::npos);
    ASSERT_NE(in_reply, std::string::npos);
    for (std::size_t at = 0; at <= entry.size(); ++at) {
      SCOPED_TRACE(entry.substr(0, at));
      expect_same_result(text.substr(0, in_text + at));
      (void)expect_same_reply(reply.substr(0, in_reply + at));
    }
    const std::string lone = R"({"functions":[)" + entry;
    expect_same_result(lone);
    (void)expect_same_reply(lone);
  }

  // path, ok and the other text members.
  check_result(with(base, "ok", "1"));
  check_result(with(base, "ok", R"("true")"));
  check_result(without(base, "ok"));
  check_result(without(base, "path"));
  check_result(with(base, "path", "42"));
  check_result(with(base, "path", "[1,2]"));
  check_result(with(base, "truth_source", "null"));
  check_result(without(base, "truth_source"));

  // A failed analysis: only path, ok, content_hash and error count.
  const Members failed = {{"path", R"("/x")"},
                          {"ok", "false"},
                          {"content_hash", R"("0x0000000000000000")"},
                          {"error", R"("not an ELF file")"}};
  check_result(failed);
  check_result(without(failed, "error"));
  check_result(with(failed, "error", "3.5"));
  check_result(plus(failed, "functions", R"([["bad"]])"));
  check_result(with(failed, "content_hash", "null"));

  check_result({});
}

TEST(QueryReply, TargetedReplyEdits) {
  const std::string result = object(result_members());
  const Members base = reply_members(result);
  const auto check = [](const std::string& payload) {
    SCOPED_TRACE(payload.substr(0, 300));
    (void)expect_same_reply(payload);
  };
  check(object(base));
  check(object(Members(base.rbegin(), base.rend())));
  check(object(base, " ,\n\t "));
  check(" \r\n" + object(base) + "\n\t ");
  check(object(base) + "x");
  check(object(base) + "{}");
  check(object(base).substr(0, object(base).size() / 2));

  // Envelope members.
  check(object(with(base, "schema", R"("fetch-service-v0")")));
  check(object(with(base, "schema", "1")));
  check(object(without(base, "schema")));
  check(object(with(base, "status", R"("error")")));
  check(object(plus(with(base, "status", R"("error")"), "error",
                    R"("boom")")));
  check(object(plus(plus(with(base, "status", R"("error")"), "error",
                         R"("busy")"),
                    "code", R"("overloaded")")));
  check(object(plus(plus(with(base, "status", R"("error")"), "error", "7"),
                    "code", "7")));
  check(object(plus(with(base, "schema", "null"), "code",
                    R"("overloaded")")));
  check(object(plus(base, "status", R"("error")")));
  check(object(without(base, "status")));
  check(object(without(base, "result")));
  check(object(with(base, "result", "[]")));
  check(object(with(base, "result", R"("x")")));
  check(object(plus(base, "result", object(without(result_members(),
                                                   "tp")))));
  check(object(plus(with(base, "result", "5"), "result", result)));
  check(object(with(base, "cache", "3")));
  check(object(without(base, "cache")));
  check(object(with(base, "trace", "null")));
  check(object(without(base, "trace")));
  check(object(with(base, "stages", R"([{"stage":"detect","us":3456}])")));
  check(object(with(base, "stages", R"({"stage":"detect"})")));
  check(object(plus(base, "stages", "7")));
  check(object(with(base, "stages", "[1,]")));

  // A result error waits behind a status error and a syntax error.
  const std::string broken = object(without(result_members(), "ok"));
  check(object(with(base, "result", broken)));
  check(object(plus(with(base, "result", broken), "status",
                    R"("error")")));
  check(object(plus(with(base, "result", broken), "x", "[")));

  for (const char* document : {"", "null", "[]", "[1]", "\"x\"", "5", "{}",
                               "{\"schema\":\"fetch-service-v1\"}"}) {
    check(document);
  }
  check(std::string(1'000'000, '['));
  check("{\"x\":" + std::string(1'000, '[') + std::string(1'000, ']') + "}");
}

// --- Deliberately stricter ----------------------------------------------------

TEST(QueryReply, CountsNoSizeTHoldsAreRejected) {
  // The tree decode cast any number to std::size_t, which is undefined
  // for these; the one-pass decode calls them missing.
  for (const char* count : {"-1", "-1e300", "1e20", "1e999", "-1e999"}) {
    SCOPED_TRACE(count);
    const std::string text = object(with(result_members(), "tp", count));
    std::string error;
    EXPECT_FALSE(service::analysis_from_json(text, &error).has_value());
    EXPECT_EQ(error, "result lacks a numeric metric member");
    EXPECT_FALSE(service::parse_query_reply(object(reply_members(text)),
                                            &error)
                     .result.has_value());
    EXPECT_EQ(error, "result lacks a numeric metric member");
  }
}

}  // namespace
}  // namespace fetch

#include "exp/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string_view>

#include "synth/corpus.hpp"
#include "util/hash.hpp"
#include "util/json_schema.hpp"

namespace fetch::exp {

namespace {

using util::json::Value;

/// False + *error naming the first member of \p obj whose key is not in
/// \p known. A key the schema does not know (a typo, or an axis since
/// removed) would leave the spec running part of the matrix it
/// describes, or a cell without its gate.
bool only_known_keys(const Value& obj,
                     std::initializer_list<std::string_view> known,
                     const std::string& context, std::string* error) {
  for (const auto& member : obj.members()) {
    if (std::find(known.begin(), known.end(), member.first) == known.end()) {
      *error = context + ": unknown key \"" + member.first + "\"";
      return false;
    }
  }
  return true;
}

std::optional<Strategy> parse_strategy(const Value& obj, std::size_t index,
                                       std::string* error) {
  const std::string context = "strategies[" + std::to_string(index) + "]";
  if (!obj.is_object()) {
    *error = context + ": must be an object";
    return std::nullopt;
  }
  if (!only_known_keys(obj, {"name", "bench", "args", "baseline"}, context,
                       error)) {
    return std::nullopt;
  }
  Strategy strategy;
  const Value* name =
      util::json::require(obj, "name", Value::Kind::kString, error, context);
  if (name == nullptr) {
    return std::nullopt;
  }
  strategy.name = name->text();
  const Value* bench =
      util::json::require(obj, "bench", Value::Kind::kString, error, context);
  if (bench == nullptr) {
    return std::nullopt;
  }
  strategy.bench = bench->text();
  if (const Value* args = util::json::optional(obj, "args", Value::Kind::kArray,
                                               error, context)) {
    for (const Value& arg : args->items()) {
      if (arg.kind() != Value::Kind::kString) {
        *error = context + ": args must be an array of strings";
        return std::nullopt;
      }
      strategy.args.push_back(arg.text());
    }
  } else if (!error->empty()) {
    return std::nullopt;
  }
  if (const Value* baseline = util::json::optional(
          obj, "baseline", Value::Kind::kString, error, context)) {
    strategy.baseline = baseline->text();
  } else if (!error->empty()) {
    return std::nullopt;
  }
  return strategy;
}

}  // namespace

std::vector<std::string> Invocation::bench_args() const {
  std::vector<std::string> args;
  args.emplace_back("--scale");
  args.push_back(scale);
  args.emplace_back("--jobs");
  args.push_back(std::to_string(jobs));
  for (const std::string& extra : extra_args) {
    args.push_back(extra);
  }
  return args;
}

std::string Invocation::render() const {
  std::string line = id + ": " + bench;
  for (const std::string& arg : bench_args()) {
    line += " " + arg;
  }
  return line;
}

std::optional<ExpSpec> ExpSpec::parse(const Value& doc, std::string* error) {
  error->clear();
  if (!util::json::expect_schema(doc, "fetch-exp-v1", error, "spec")) {
    return std::nullopt;
  }
  if (!only_known_keys(doc, {"schema", "name", "strategies", "scales", "jobs"},
                       "spec", error)) {
    return std::nullopt;
  }
  ExpSpec spec;
  const Value* name =
      util::json::require(doc, "name", Value::Kind::kString, error, "spec");
  if (name == nullptr) {
    return std::nullopt;
  }
  spec.name_ = name->text();

  const Value* strategies = util::json::require(
      doc, "strategies", Value::Kind::kArray, error, "spec");
  if (strategies == nullptr) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < strategies->items().size(); ++i) {
    auto strategy = parse_strategy(strategies->items()[i], i, error);
    if (!strategy) {
      return std::nullopt;
    }
    spec.strategies_.push_back(std::move(*strategy));
  }

  const Value* scales =
      util::json::require(doc, "scales", Value::Kind::kArray, error, "spec");
  if (scales == nullptr) {
    return std::nullopt;
  }
  for (const Value& scale : scales->items()) {
    if (scale.kind() != Value::Kind::kString ||
        !synth::parse_scale(scale.text())) {
      *error = "spec: scales entries must be smoke|default|full";
      return std::nullopt;
    }
    spec.scales_.push_back(scale.text());
  }

  const Value* jobs =
      util::json::require(doc, "jobs", Value::Kind::kArray, error, "spec");
  if (jobs == nullptr) {
    return std::nullopt;
  }
  for (const Value& n : jobs->items()) {
    if (n.kind() != Value::Kind::kNumber || n.as_double() < 1.0 ||
        n.as_double() != static_cast<double>(
                             static_cast<std::size_t>(n.as_double()))) {
      *error = "spec: jobs entries must be positive integers";
      return std::nullopt;
    }
    spec.jobs_.push_back(static_cast<std::size_t>(n.as_double()));
  }

  if (spec.strategies_.empty() || spec.scales_.empty() ||
      spec.jobs_.empty()) {
    *error = "spec: every axis needs at least one entry";
    return std::nullopt;
  }
  return spec;
}

std::optional<ExpSpec> ExpSpec::load(const std::string& path,
                                     std::string* error) {
  auto doc = util::json::load_file(path, error);
  if (!doc) {
    return std::nullopt;
  }
  return parse(*doc, error);
}

std::vector<Invocation> ExpSpec::expand() const {
  std::vector<Invocation> out;
  for (const Strategy& strategy : strategies_) {
    for (const std::string& scale : scales_) {
      for (const std::size_t jobs : jobs_) {
        Invocation inv;
        inv.strategy = strategy.name;
        inv.bench = strategy.bench;
        inv.scale = scale;
        inv.jobs = jobs;
        inv.extra_args = strategy.args;
        inv.baseline = strategy.baseline;
        inv.id = strategy.name + "." + scale + ".j" + std::to_string(jobs);
        out.push_back(std::move(inv));
      }
    }
  }
  return out;
}

std::uint64_t ExpSpec::hash() const {
  util::Fnv1a h;
  h.str("fetch-exp-v1");
  h.str(name_);
  h.value(strategies_.size());
  for (const Strategy& strategy : strategies_) {
    h.str(strategy.name);
    h.str(strategy.bench);
    h.value(strategy.args.size());
    for (const std::string& arg : strategy.args) {
      h.str(arg);
    }
    h.str(strategy.baseline);
  }
  h.value(scales_.size());
  for (const std::string& scale : scales_) {
    h.str(scale);
  }
  h.value(jobs_.size());
  for (const std::size_t jobs : jobs_) {
    h.value(jobs);
  }
  return h.digest();
}

std::string ExpSpec::hash_hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

}  // namespace fetch::exp

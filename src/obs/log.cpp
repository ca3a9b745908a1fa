#include "obs/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <chrono>
#include <fstream>
#include <mutex>

#include "util/json.hpp"

namespace fetch::obs {

namespace {

/// Sink state shared by every write(); mutex-serialized so interleaved
/// events from worker threads never shear mid-line.
struct Sinks {
  std::mutex mu;
  std::ofstream file;  ///< JSON-lines sink; closed = stderr only
};

Sinks& sinks() {
  static Sinks s;
  return s;
}

/// Wall-clock timestamp: "2026-08-09T12:34:56.789Z". Milliseconds keep
/// slow-query events orderable without µs-level noise in every line.
std::string timestamp_utc() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  ::gmtime_r(&secs, &tm);
  char date[32];
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S", &tm);
  char millis[8];  // ".999Z"; ms is in (-1000, 1000)
  std::snprintf(millis, sizeof(millis), ".%03dZ", static_cast<int>(ms));
  return std::string(date) + millis;
}

LogLevel initial_level() {
  if (const char* env = std::getenv("FETCH_LOG")) {
    if (const auto level = parse_log_level(env)) {
      return *level;
    }
  }
  return LogLevel::kInfo;
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "trace") {
    return LogLevel::kTrace;
  }
  if (name == "debug") {
    return LogLevel::kDebug;
  }
  if (name == "info") {
    return LogLevel::kInfo;
  }
  if (name == "warn" || name == "warning") {
    return LogLevel::kWarn;
  }
  if (name == "error") {
    return LogLevel::kError;
  }
  if (name == "off" || name == "none") {
    return LogLevel::kOff;
  }
  return std::nullopt;
}

Logger::Logger() : level_(static_cast<std::uint8_t>(initial_level())) {}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

bool Logger::open_file(const std::string& path, std::string* error) {
  Sinks& s = sinks();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.file.close();
  s.file.clear();
  s.file.open(path, std::ios::trunc);
  if (!s.file) {
    *error = "cannot open log file: " + path;
    return false;
  }
  return true;
}

void Logger::close_file() {
  Sinks& s = sinks();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.file.close();
}

void Logger::write(LogLevel level, std::string_view component,
                   std::string_view message,
                   std::initializer_list<LogField> fields) {
  if (!enabled(level)) {
    return;
  }
  const std::string ts = timestamp_utc();

  // Human line for stderr. Values with spaces get quoted so the line
  // stays splittable; the JSON sink is the machine-readable one.
  std::string line = ts;
  line += ' ';
  line += log_level_name(level);
  line += ' ';
  line += component;
  line += ": ";
  line += message;
  for (const LogField& field : fields) {
    line += ' ';
    line += field.key;
    line += '=';
    if (field.value.find(' ') == std::string::npos) {
      line += field.value;
    } else {
      line += '"';
      line += field.value;
      line += '"';
    }
  }
  line += '\n';

  Sinks& s = sinks();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::fputs(line.c_str(), stderr);
  if (s.file.is_open()) {
    // JSON-lines event; util::json handles the escaping, so messages
    // and field values may contain anything.
    util::json::Value event = util::json::Value::object();
    event.set("ts", util::json::Value(ts));
    event.set("level", util::json::Value(log_level_name(level)));
    event.set("component",
              util::json::Value(std::string(component)));
    event.set("message", util::json::Value(std::string(message)));
    if (fields.size() != 0) {
      util::json::Value obj = util::json::Value::object();
      for (const LogField& field : fields) {
        obj.set(field.key, util::json::Value(field.value));
      }
      event.set("fields", std::move(obj));
    }
    s.file << event.dump_compact() << '\n';
    s.file.flush();
  }
}

void log_event(LogLevel level, std::string_view component,
               std::string_view message,
               std::initializer_list<LogField> fields) {
  Logger::instance().write(level, component, message, fields);
}

}  // namespace fetch::obs

/// \file fetch_cli.cpp
/// Command-line front end for the library:
///
///   fetch-cli [opts] detect <elf>   detect function starts (full pipeline)
///   fetch-cli [opts] fde <elf>      list raw FDE PC Begin/Range entries
///   fetch-cli [opts] unwind <elf> <pc>  unwind info (CFA rule, stack
///                                   height) at pc
///   fetch-cli [opts] compare <elf>  run every strategy ladder step +
///                                   tools, concurrently on N workers
///   fetch-cli [opts] audit <elf>    CFI-policy gadget exposure of raw
///                                   FDE starts vs repaired starts
///   fetch-cli [opts] batch <elf>... evaluate many ELFs concurrently
///                                   against their own .symtab/.dynsym
///                                   ground truth (per-file + aggregate
///                                   precision/recall/F1); unreadable or
///                                   malformed inputs become error rows,
///                                   the batch keeps going; repeated
///                                   inputs are deduplicated
///   fetch-cli [opts] serve          run the resident analysis daemon
///                                   (fetch-service-v1 over a Unix
///                                   socket, content-addressed LRU
///                                   result cache)
///   fetch-cli [opts] query <elf>... analyze via a running daemon; output
///                                   is byte-identical to `detect`
///   fetch-cli [opts] shutdown       stop a running daemon gracefully
///
/// Options: --jobs N (default: FETCH_JOBS env, else hardware concurrency).
///
/// Batch-only options: --from-file LIST (newline-separated paths, `#`
/// comments; repeatable), --dir DIR (every ELF-magic regular file in DIR,
/// sorted; repeatable), --json PATH (write a `fetch-batch-v1` document),
/// --csv PATH, --truth auto|dynsym|ehframe|sidecar (ground-truth source;
/// "sidecar" reads `<path>.truth.json` captured by tools/strip_tool).
/// Batch output is byte-identical for any --jobs value.
/// Repeated inputs (positionally or via --from-file/--dir) are scored
/// once; a note about dropped duplicates goes to stderr.
///
/// Service options: --socket PATH (default: FETCH_SOCKET env, else
/// /tmp/fetch-serve.<uid>.sock) for serve/query/shutdown.
/// Serve-only: --cache-capacity N (result-cache entries, default 256),
/// --max-connections N, --queue-depth N, --idle-timeout-ms N,
/// --write-stall-ms N, --slow-query-ms N (warn-log queries at or over
/// the threshold; 0 = off), --daemonize, --pidfile PATH.
/// Client-only (query/shutdown): --retries N (connect retry with
/// jittered exponential backoff), --timeout MS (response deadline),
/// --op ping|stats|metrics|query (query), --format FORMAT (stats:
/// table|json; metrics: json|prom), --trace ID (query: send a trace id,
/// echo the daemon's per-stage timings on stderr). Exit codes: 0 ok,
/// 1 error, 2 usage, 3 daemon unreachable or timed out, 4 daemon
/// overloaded.
///
/// Observability (any command): --log-level trace|debug|info|warn|error|
/// off (default: FETCH_LOG env, else info; human-readable lines on
/// stderr — never stdout), --log-file PATH (JSON-lines event sink).
/// detect/batch also take --metrics-json PATH (dump the process's
/// fetch-metrics-v1 counters/histograms after the run).

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baselines/tools.hpp"
#include "core/detector.hpp"
#include "disasm/code_view.hpp"
#include "ehframe/cfi_eval.hpp"
#include "ehframe/eh_frame.hpp"
#include "elf/elf_file.hpp"
#include "eval/batch.hpp"
#include "eval/gadget.hpp"
#include "eval/session.hpp"
#include "eval/table.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fetch;

/// Renders one analysis exactly the way `detect` always has: the
/// start/provenance table on stdout, the pipeline summary on stderr.
/// `query` renders through the same function, which is what makes served
/// output byte-identical to the one-shot path.
int render_detection(const eval::FileAnalysis& analysis) {
  if (!analysis.row.ok) {
    std::cerr << "error: " << analysis.row.error << "\n";
    return 1;
  }
  std::cout << "# start            provenance\n";
  for (const auto& [addr, provenance] : analysis.functions) {
    std::cout << "0x" << std::hex << std::setw(12) << std::setfill('0')
              << addr << std::dec << "   " << provenance << "\n";
  }
  std::cerr << analysis.functions.size() << " function starts ("
            << analysis.fde_starts << " from FDEs, "
            << analysis.pointer_starts << " from pointers, "
            << analysis.merged_parts << " parts merged, "
            << analysis.invalid_fde_starts
            << " invalid FDE starts removed)\n";
  return 0;
}

int cmd_detect(const std::string& path) {
  const eval::AnalysisSession session;
  return render_detection(session.analyze_file(path));
}

int cmd_fde(const elf::ElfFile& elf) {
  const auto eh = eh::EhFrame::from_elf(elf);
  if (!eh) {
    std::cerr << "no .eh_frame section\n";
    return 1;
  }
  std::cout << "# pc_begin         pc_range  complete_stack_height\n";
  for (const eh::Fde& fde : eh->fdes()) {
    const auto table = eh::evaluate_cfi(eh->cie_for(fde), fde);
    std::cout << "0x" << std::hex << std::setw(12) << std::setfill('0')
              << fde.pc_begin << "   0x" << std::setw(6) << fde.pc_range
              << std::dec << "   "
              << (table && table->complete_stack_height() ? "yes" : "no")
              << "\n";
  }
  std::cerr << eh->fdes().size() << " FDEs, " << eh->cies().size()
            << " CIEs\n";
  return 0;
}

int cmd_unwind(const elf::ElfFile& elf, std::uint64_t pc) {
  const auto eh = eh::EhFrame::from_elf(elf);
  if (!eh) {
    std::cerr << "no .eh_frame section\n";
    return 1;
  }
  const eh::Fde* fde = eh->fde_covering(pc);
  if (fde == nullptr) {
    std::cerr << "no FDE covers 0x" << std::hex << pc << "\n";
    return 1;
  }
  std::cout << "FDE [0x" << std::hex << fde->pc_begin << ", 0x"
            << fde->pc_end() << ")\n";
  const auto table = eh::evaluate_cfi(eh->cie_for(*fde), *fde);
  if (!table) {
    std::cerr << "CFI program malformed\n";
    return 1;
  }
  const eh::CfiRow* row = table->row_at(pc);
  if (row == nullptr) {
    std::cerr << "no unwind row at 0x" << std::hex << pc << "\n";
    return 1;
  }
  std::cout << "CFA: ";
  if (row->cfa.kind == eh::CfaRule::Kind::kRegOffset) {
    std::cout << "r" << std::dec << row->cfa.reg << " + " << row->cfa.offset;
  } else {
    std::cout << "<expression>";
  }
  const auto height = table->stack_height_at(pc);
  if (height) {
    std::cout << "   stack height: " << *height;
  }
  std::cout << "\nsaved registers:";
  for (const auto& [reg, rule] : row->regs) {
    if (rule.kind == eh::RegRule::Kind::kOffsetFromCfa) {
      std::cout << "  r" << reg << "@cfa" << rule.offset;
    }
  }
  std::cout << "\n";
  return 0;
}

int cmd_compare(const elf::ElfFile& elf, std::size_t jobs) {
  core::FunctionDetector detector(elf);

  core::DetectorOptions fde_only;
  fde_only.recursive = false;
  fde_only.pointer_detection = false;
  fde_only.fix_fde_errors = false;
  fde_only.use_entry_point = false;

  core::DetectorOptions rec;
  rec.pointer_detection = false;
  rec.fix_fde_errors = false;

  core::DetectorOptions xref;
  xref.fix_fde_errors = false;

  // All ladder steps and tool emulations run concurrently; the detector's
  // decode cache is shared across the FETCH rows. Rows print in the fixed
  // order below regardless of completion order.
  struct Row {
    std::string name;
    std::function<std::size_t()> run;
  };
  std::vector<Row> rows = {
      {"FDE", [&] { return detector.run(fde_only).functions.size(); }},
      {"FDE+Rec", [&] { return detector.run(rec).functions.size(); }},
      {"FDE+Rec+Xref", [&] { return detector.run(xref).functions.size(); }},
      {"FETCH (full)", [&] { return detector.run({}).functions.size(); }},
  };
  for (const baselines::ToolSpec& tool : baselines::conventional_tools()) {
    rows.push_back({tool.name, [&elf, run = tool.run] {
                      return run(elf).size();
                    }});
  }
  rows.push_back(
      {"GHIDRA-like", [&elf] { return baselines::ghidra_like(elf, {}).size(); }});
  rows.push_back(
      {"ANGR-like", [&elf] { return baselines::angr_like(elf, {}).size(); }});

  std::vector<std::size_t> counts(rows.size());
  util::parallel_for(jobs, rows.size(),
                     [&](std::size_t i) { counts[i] = rows[i].run(); });

  eval::TextTable table({"strategy", "starts"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({rows[i].name, std::to_string(counts[i])});
  }
  table.print(std::cout);
  return 0;
}

int cmd_audit(const elf::ElfFile& elf) {
  core::FunctionDetector detector(elf);
  core::DetectorOptions raw;
  raw.fix_fde_errors = false;
  const auto before = detector.run(raw);
  const auto after = detector.run({});

  // False-start candidates = starts Algorithm 1 removed.
  std::set<std::uint64_t> removed;
  for (const auto& [part, parent] : after.merged_parts) {
    removed.insert(part);
  }
  for (const std::uint64_t s : after.invalid_fde_starts) {
    removed.insert(s);
  }
  const disasm::CodeView code(elf);
  const std::size_t gadgets = eval::count_gadgets_at(code, removed);

  std::cout << "CFI policy audit:\n";
  std::cout << "  targets before repair: " << before.functions.size()
            << "\n";
  std::cout << "  targets after repair:  " << after.functions.size() << "\n";
  std::cout << "  false targets removed: " << removed.size() << "\n";
  std::cout << "  ROP/JOP gadgets no longer whitelisted: " << gadgets
            << "\n";
  return 0;
}

/// Service front-end state collected by the argument loop.
struct ServiceArgs {
  static constexpr std::uint64_t kUnsetMs = ~std::uint64_t{0};

  std::string socket;           ///< --socket PATH ("" = default path)
  std::size_t cache_capacity = 0;  ///< --cache-capacity N (0 = default)

  // serve-only knobs.
  std::size_t max_connections = 0;        ///< --max-connections N
  std::size_t queue_depth = 0;            ///< --queue-depth N
  std::uint64_t idle_timeout_ms = kUnsetMs;   ///< --idle-timeout-ms N
  std::uint64_t write_stall_ms = kUnsetMs;    ///< --write-stall-ms N
  std::uint64_t slow_query_ms = kUnsetMs;     ///< --slow-query-ms N
  bool daemonize = false;                 ///< --daemonize
  std::string pidfile;                    ///< --pidfile PATH

  // query/shutdown-only knobs.
  std::size_t retries = 0;       ///< --retries N (connect attempts - 1)
  std::uint64_t timeout_ms = 0;  ///< --timeout MS (response deadline)
  std::string op;      ///< --op ping|stats|metrics|query (query only)
  std::string format;  ///< --format (stats: table|json; metrics: json|prom)
  std::string trace;   ///< --trace ID (query only)

  [[nodiscard]] bool any() const {
    return !socket.empty() || cache_capacity != 0 || serve_only() ||
           client_only();
  }
  [[nodiscard]] bool serve_only() const {
    return max_connections != 0 || queue_depth != 0 ||
           idle_timeout_ms != kUnsetMs || write_stall_ms != kUnsetMs ||
           slow_query_ms != kUnsetMs || daemonize || !pidfile.empty();
  }
  [[nodiscard]] bool client_only() const {
    return retries != 0 || timeout_ms != 0 || !op.empty() ||
           !format.empty() || !trace.empty();
  }
};

/// Exit codes for the service client commands, distinct so scripts can
/// tell a daemon that is *down* from one that is *shedding load*:
/// 0 ok, 1 error, 2 usage, 3 unreachable/timed out, 4 overloaded.
constexpr int kExitUnreachable = 3;
constexpr int kExitOverloaded = 4;

/// Classifies a failed client call into an exit code. \p client may be
/// null (connect never succeeded).
int client_exit_code(const service::ServiceClient* client,
                     const std::string& error) {
  if (client != nullptr &&
      client->last_error_code() == service::kErrOverloaded) {
    return kExitOverloaded;
  }
  if (client == nullptr || error == "receive timed out" ||
      error == "server closed the connection") {
    return kExitUnreachable;
  }
  return 1;
}

/// Classic double-fork daemonization: detach from the controlling
/// terminal and session, then point stdio at /dev/null. Called after
/// the listener is bound (bind errors still reach the caller's stderr)
/// and before any thread is spawned (threads do not survive fork).
bool daemonize_self(std::string* error) {
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid > 0) {
    ::_exit(0);  // original caller returns immediately
  }
  if (::setsid() < 0) {
    *error = std::string("setsid: ") + std::strerror(errno);
    return false;
  }
  pid = ::fork();  // second fork: never reacquire a controlling terminal
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid > 0) {
    ::_exit(0);
  }
  const int devnull = ::open("/dev/null", O_RDWR);
  if (devnull >= 0) {
    ::dup2(devnull, STDIN_FILENO);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    if (devnull > STDERR_FILENO) {
      ::close(devnull);
    }
  }
  return true;
}

/// Signal → clean daemon shutdown. The handler only stores the signal
/// number (async-signal-safe); a watcher thread notices and calls
/// ServiceServer::stop() from normal context.
std::atomic<int> g_signal{0};

extern "C" void record_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
}

int cmd_serve(std::size_t jobs, const ServiceArgs& service) {
  service::ServerOptions options;
  options.socket_path = service.socket;  // "" → default_socket_path()
  options.workers = jobs;
  if (service.cache_capacity != 0) {
    options.cache_capacity = service.cache_capacity;
  }
  if (service.max_connections != 0) {
    options.max_connections = service.max_connections;
  }
  if (service.queue_depth != 0) {
    options.queue_depth = service.queue_depth;
  }
  if (service.idle_timeout_ms != ServiceArgs::kUnsetMs) {
    options.idle_timeout_ms = service.idle_timeout_ms;
  }
  if (service.write_stall_ms != ServiceArgs::kUnsetMs) {
    options.write_stall_ms = service.write_stall_ms;
  }
  if (service.slow_query_ms != ServiceArgs::kUnsetMs) {
    options.slow_query_ms = service.slow_query_ms;
  }
  service::ServiceServer server(options);
  std::string error;
  if (!server.start(&error)) {
    obs::log_error("serve", "cannot start", {{"error", error}});
    return 1;
  }
  obs::log_info(
      "serve", "listening",
      {{"socket", server.socket_path()},
       {"cache_capacity", std::to_string(server.options().cache_capacity)},
       {"max_connections",
        std::to_string(server.options().max_connections)}});
  if (service.daemonize && !daemonize_self(&error)) {
    obs::log_error("serve", "cannot daemonize", {{"error", error}});
    return 1;
  }
  if (!service.pidfile.empty()) {
    std::ofstream out(service.pidfile, std::ios::trunc);
    out << ::getpid() << "\n";
    if (!out) {
      obs::log_error("serve", "cannot write pidfile",
                     {{"path", service.pidfile}});
      return 1;
    }
  }
  std::signal(SIGINT, record_signal);
  std::signal(SIGTERM, record_signal);
  std::thread watcher([&server] {
    while (!server.stopping()) {
      if (g_signal.load(std::memory_order_relaxed) != 0) {
        server.stop();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  server.run();
  watcher.join();
  if (!service.pidfile.empty()) {
    std::error_code ec;
    std::filesystem::remove(service.pidfile, ec);
  }
  return 0;
}

service::ClientOptions client_options(const ServiceArgs& service) {
  service::ClientOptions options;
  options.retries = service.retries;
  options.timeout_ms = service.timeout_ms;
  return options;
}

/// `query --op stats`: the daemon's cache + robustness counters, one
/// `key: value` line each, or with `--format table` an aligned
/// two-column table of the same lines. The nested "server" object is
/// flattened with a `server.` prefix.
int render_stats(const util::json::Value& stats, bool table) {
  eval::TextTable text_table({"metric", "value"});
  const auto emit = [&](const std::string& key,
                        const util::json::Value& value) {
    if (table) {
      text_table.add_row({key, value.dump()});
    } else {
      std::cout << key << ": " << value.dump() << "\n";
    }
  };
  for (const auto& [key, value] : stats.members()) {
    if (!value.is_object()) {
      emit(key, value);
      continue;
    }
    for (const auto& [sub_key, sub_value] : value.members()) {
      emit(key + "." + sub_key, sub_value);
    }
  }
  if (table) {
    text_table.print(std::cout);
  }
  return 0;
}

int cmd_query(const std::vector<const char*>& args,
              const ServiceArgs& service) {
  std::string error;
  auto client = service::ServiceClient::connect(service.socket, &error,
                                                client_options(service));
  if (!client) {
    std::cerr << "error: " << error << "\n";
    return kExitUnreachable;
  }
  if (service.op == "ping") {
    if (!client->ping(&error)) {
      std::cerr << "error: " << error << "\n";
      return client_exit_code(&*client, error);
    }
    std::cout << "ok\n";
    return 0;
  }
  if (service.op == "stats") {
    const auto stats = client->stats(&error);
    if (!stats) {
      std::cerr << "error: " << error << "\n";
      return client_exit_code(&*client, error);
    }
    if (service.format == "json") {
      std::cout << stats->dump() << "\n";
      return 0;
    }
    return render_stats(*stats, service.format == "table");
  }
  if (service.op == "metrics") {
    const auto metrics = client->metrics(&error);
    if (!metrics) {
      std::cerr << "error: " << error << "\n";
      return client_exit_code(&*client, error);
    }
    if (service.format == "prom") {
      // Round-trip through the typed snapshot: a daemon whose metrics
      // document does not parse as fetch-metrics-v1 is a bug worth a
      // loud error, not garbled exposition output.
      const auto snapshot = obs::Snapshot::from_json(*metrics, &error);
      if (!snapshot) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      std::cout << obs::prometheus_text(*snapshot);
      return 0;
    }
    std::cout << metrics->dump() << "\n";
    return 0;
  }
  int rc = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    // The server resolves paths against ITS working directory, so send
    // absolute paths: `fetch-cli query ./a.out` must mean the caller's
    // file.
    const std::string spelling = args[i];
    std::error_code ec;
    const std::filesystem::path abs = std::filesystem::absolute(spelling, ec);
    const std::string sent = ec ? spelling : abs.string();
    auto result = client->query(sent, &error, service.trace);
    if (!result) {
      std::cerr << "error: " << error << "\n";
      return client_exit_code(&*client, error);
    }
    if (!service.trace.empty()) {
      // Opt-in (--trace): stage timings on stderr, so default query
      // output stays byte-identical to one-shot `detect`.
      std::cerr << "trace " << result->trace << ": cache " << result->cache;
      for (const util::json::Value& stage : result->stages.items()) {
        const util::json::Value* name = stage.get("stage");
        const util::json::Value* us = stage.get("us");
        if (name != nullptr && us != nullptr) {
          std::cerr << " " << name->text() << "="
                    << static_cast<std::uint64_t>(us->as_double()) << "us";
        }
      }
      std::cerr << "\n";
    }
    // Error messages name the absolutized path; restore the caller's
    // spelling so failures too are byte-identical to one-shot `detect`.
    if (!result->analysis.row.ok && sent != spelling) {
      std::string& message = result->analysis.row.error;
      const std::size_t at = message.find(sent);
      if (at != std::string::npos) {
        message.replace(at, sent.size(), spelling);
      }
    }
    rc = std::max(rc, render_detection(result->analysis));
  }
  return rc;
}

int cmd_shutdown(const ServiceArgs& service) {
  std::string error;
  auto client = service::ServiceClient::connect(service.socket, &error,
                                                client_options(service));
  if (!client) {
    std::cerr << "error: " << error << "\n";
    return kExitUnreachable;
  }
  if (!client->shutdown_server(&error)) {
    std::cerr << "error: " << error << "\n";
    return client_exit_code(&*client, error);
  }
  obs::log_info("serve", "shutdown acknowledged");
  return 0;
}

/// Batch front-end state collected by the argument loop.
struct BatchArgs {
  std::vector<std::string> from_files;  ///< --from-file LIST (repeatable)
  std::vector<std::string> dirs;        ///< --dir DIR (repeatable)
  std::string json_path;                ///< --json PATH
  std::string csv_path;                 ///< --csv PATH
  /// --truth MODE: ground-truth source rows are scored against.
  eval::TruthMode truth = eval::TruthMode::kAuto;
  bool truth_set = false;

  [[nodiscard]] bool any() const {
    return !from_files.empty() || !dirs.empty() || !json_path.empty() ||
           !csv_path.empty() || truth_set;
  }
};

/// Writes \p text to \p path, failing loudly (same contract as the bench
/// harness's write_json_report).
bool write_file_or_complain(const std::string& path, const std::string& text,
                            const char* what) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();  // flush now so buffered write errors are observable
  if (out.fail()) {
    std::cerr << "error: cannot write " << what << " file: " << path << "\n";
    return false;
  }
  return true;
}

int cmd_batch(const std::vector<const char*>& args, const BatchArgs& batch,
              std::size_t jobs) {
  // Input order is deliberate and stable: positional paths first, then
  // each --from-file list, then each --dir expansion — the row order of
  // every report.
  std::vector<std::string> paths;
  for (std::size_t i = 1; i < args.size(); ++i) {
    paths.emplace_back(args[i]);
  }
  std::string error;
  for (const std::string& list : batch.from_files) {
    if (!eval::read_path_list(list, &paths, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }
  for (const std::string& dir : batch.dirs) {
    if (!eval::expand_directory(dir, &paths, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
  }
  if (paths.empty()) {
    std::cerr << "error: batch needs at least one input "
                 "(paths, --from-file, or --dir)\n";
    return 2;
  }

  // The same file reachable twice (positionally and via --dir, or through
  // a symlink) must be scored once or every aggregate double-counts it.
  // The note goes to stderr so stdout stays byte-comparable.
  const std::size_t duplicates = eval::dedupe_paths(&paths);
  if (duplicates != 0) {
    std::cerr << "note: skipped " << duplicates
              << " duplicate input path(s)\n";
  }

  eval::BatchOptions options;
  options.jobs = jobs;
  options.truth = batch.truth;
  const eval::BatchReport report = eval::run_batch(paths, options);
  report.print(std::cout);
  if (!batch.json_path.empty() &&
      !write_file_or_complain(batch.json_path, report.json().dump() + "\n",
                              "--json")) {
    return 2;
  }
  if (!batch.csv_path.empty() &&
      !write_file_or_complain(batch.csv_path, report.csv(), "--csv")) {
    return 2;
  }
  // Per-file failures are rows, not fatal — but a batch where *nothing*
  // could be evaluated is an error for scripting purposes.
  return report.error_count() == report.rows().size() ? 1 : 0;
}

/// Dumps the process-wide metrics registry when --metrics-json was
/// given, preserving the command's exit code unless the dump fails.
int finish_with_metrics(const std::string& path, int rc) {
  if (path.empty()) {
    return rc;
  }
  std::string error;
  if (!obs::write_global_metrics_json(path, &error)) {
    std::cerr << "error: " << error << "\n";
    return rc == 0 ? 1 : rc;
  }
  return rc;
}

int usage() {
  std::cerr << "usage: fetch-cli [--jobs N] [--log-level LEVEL] "
               "[--log-file PATH]\n"
               "                 <detect|fde|unwind|compare|audit> <elf> [pc]\n"
               "       fetch-cli [opts] detect [--metrics-json PATH] <elf>\n"
               "       fetch-cli [opts] batch [--from-file LIST] [--dir DIR]\n"
               "                 [--json PATH] [--csv PATH] "
               "[--metrics-json PATH]\n"
               "                 [--truth auto|dynsym|ehframe|sidecar] "
               "[<elf>...]\n"
               "       fetch-cli [opts] serve [--socket PATH] "
               "[--cache-capacity N]\n"
               "                 [--max-connections N] [--queue-depth N]\n"
               "                 [--idle-timeout-ms N] [--write-stall-ms N]\n"
               "                 [--slow-query-ms N] [--daemonize] "
               "[--pidfile PATH]\n"
               "       fetch-cli [opts] query [--socket PATH] [--retries N] "
               "[--timeout MS]\n"
               "                 [--op ping|stats|metrics|query] "
               "[--format FORMAT]\n"
               "                 [--trace ID] [<elf>...]\n"
               "       fetch-cli [opts] shutdown [--socket PATH] "
               "[--retries N] [--timeout MS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 0;  // 0 → FETCH_JOBS env / hardware default
  BatchArgs batch;
  ServiceArgs service;
  std::string log_level;     // --log-level (any command)
  std::string log_file;      // --log-file (any command)
  std::string metrics_json;  // --metrics-json (detect/batch only)
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc || !util::parse_jobs(argv[++i], &jobs)) {
        return usage();
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!util::parse_jobs(arg.substr(7), &jobs)) {
        return usage();
      }
    } else if (arg == "--from-file" && i + 1 < argc) {
      batch.from_files.emplace_back(argv[++i]);
    } else if (arg.rfind("--from-file=", 0) == 0) {
      batch.from_files.emplace_back(arg.substr(12));
    } else if (arg == "--dir" && i + 1 < argc) {
      batch.dirs.emplace_back(argv[++i]);
    } else if (arg.rfind("--dir=", 0) == 0) {
      batch.dirs.emplace_back(arg.substr(6));
    } else if (arg == "--json" && i + 1 < argc) {
      batch.json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      batch.json_path = arg.substr(7);
    } else if (arg == "--csv" && i + 1 < argc) {
      batch.csv_path = argv[++i];
    } else if (arg.rfind("--csv=", 0) == 0) {
      batch.csv_path = arg.substr(6);
    } else if (arg == "--truth" && i + 1 < argc) {
      const auto mode = eval::parse_truth_mode(argv[++i]);
      if (!mode) {
        return usage();
      }
      batch.truth = *mode;
      batch.truth_set = true;
    } else if (arg.rfind("--truth=", 0) == 0) {
      const auto mode = eval::parse_truth_mode(arg.substr(8));
      if (!mode) {
        return usage();
      }
      batch.truth = *mode;
      batch.truth_set = true;
    } else if (arg == "--socket" && i + 1 < argc) {
      service.socket = argv[++i];
    } else if (arg.rfind("--socket=", 0) == 0) {
      service.socket = arg.substr(9);
    } else if (arg == "--cache-capacity" && i + 1 < argc) {
      if (!util::parse_jobs(argv[++i], &service.cache_capacity) ||
          service.cache_capacity == 0) {
        return usage();
      }
    } else if (arg.rfind("--cache-capacity=", 0) == 0) {
      if (!util::parse_jobs(arg.substr(17), &service.cache_capacity) ||
          service.cache_capacity == 0) {
        return usage();
      }
    } else if (arg == "--max-connections" && i + 1 < argc) {
      if (!util::parse_jobs(argv[++i], &service.max_connections) ||
          service.max_connections == 0) {
        return usage();
      }
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      if (!util::parse_jobs(arg.substr(18), &service.max_connections) ||
          service.max_connections == 0) {
        return usage();
      }
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      if (!util::parse_jobs(argv[++i], &service.queue_depth) ||
          service.queue_depth == 0) {
        return usage();
      }
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      if (!util::parse_jobs(arg.substr(14), &service.queue_depth) ||
          service.queue_depth == 0) {
        return usage();
      }
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      std::size_t ms = 0;
      if (!util::parse_jobs(argv[++i], &ms)) {
        return usage();
      }
      service.idle_timeout_ms = ms;  // 0 = disabled
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      std::size_t ms = 0;
      if (!util::parse_jobs(arg.substr(18), &ms)) {
        return usage();
      }
      service.idle_timeout_ms = ms;
    } else if (arg == "--write-stall-ms" && i + 1 < argc) {
      std::size_t ms = 0;
      if (!util::parse_jobs(argv[++i], &ms)) {
        return usage();
      }
      service.write_stall_ms = ms;  // 0 = disabled
    } else if (arg.rfind("--write-stall-ms=", 0) == 0) {
      std::size_t ms = 0;
      if (!util::parse_jobs(arg.substr(17), &ms)) {
        return usage();
      }
      service.write_stall_ms = ms;
    } else if (arg == "--daemonize") {
      service.daemonize = true;
    } else if (arg == "--pidfile" && i + 1 < argc) {
      service.pidfile = argv[++i];
    } else if (arg.rfind("--pidfile=", 0) == 0) {
      service.pidfile = arg.substr(10);
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!util::parse_jobs(argv[++i], &service.retries)) {
        return usage();
      }
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!util::parse_jobs(arg.substr(10), &service.retries)) {
        return usage();
      }
    } else if (arg == "--timeout" && i + 1 < argc) {
      std::size_t ms = 0;
      if (!util::parse_jobs(argv[++i], &ms) || ms == 0) {
        return usage();
      }
      service.timeout_ms = ms;
    } else if (arg.rfind("--timeout=", 0) == 0) {
      std::size_t ms = 0;
      if (!util::parse_jobs(arg.substr(10), &ms) || ms == 0) {
        return usage();
      }
      service.timeout_ms = ms;
    } else if (arg == "--op" && i + 1 < argc) {
      service.op = argv[++i];
    } else if (arg.rfind("--op=", 0) == 0) {
      service.op = arg.substr(5);
    } else if (arg == "--slow-query-ms" && i + 1 < argc) {
      std::size_t ms = 0;
      if (!util::parse_jobs(argv[++i], &ms)) {
        return usage();
      }
      service.slow_query_ms = ms;  // 0 = disabled
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      std::size_t ms = 0;
      if (!util::parse_jobs(arg.substr(16), &ms)) {
        return usage();
      }
      service.slow_query_ms = ms;
    } else if (arg == "--format" && i + 1 < argc) {
      service.format = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      service.format = arg.substr(9);
    } else if (arg == "--trace" && i + 1 < argc) {
      service.trace = argv[++i];
    } else if (arg.rfind("--trace=", 0) == 0) {
      service.trace = arg.substr(8);
    } else if (arg == "--log-level" && i + 1 < argc) {
      log_level = argv[++i];
    } else if (arg.rfind("--log-level=", 0) == 0) {
      log_level = arg.substr(12);
    } else if (arg == "--log-file" && i + 1 < argc) {
      log_file = argv[++i];
    } else if (arg.rfind("--log-file=", 0) == 0) {
      log_file = arg.substr(11);
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json = argv[++i];
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json = arg.substr(15);
    } else if (!arg.empty() && arg.front() == '-') {
      return usage();  // unknown flags must not pass as positionals
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!log_level.empty()) {
    const auto level = obs::parse_log_level(log_level);
    if (!level) {
      return usage();
    }
    obs::Logger::instance().set_level(*level);
  }
  if (!log_file.empty()) {
    std::string error;
    if (!obs::Logger::instance().open_file(log_file, &error)) {
      std::cerr << "fetch-cli: --log-file: " << error << "\n";
      return 2;
    }
  }
  if (args.empty()) {
    return usage();
  }
  const std::string cmd = args[0];
  if (batch.any() && cmd != "batch") {
    return usage();  // batch-only flags on a non-batch command
  }
  if (!metrics_json.empty() && cmd != "detect" && cmd != "batch") {
    return usage();  // --metrics-json dumps the analysis pipeline's
                     // registry; service commands use `--op metrics`
  }
  const bool service_cmd =
      cmd == "serve" || cmd == "query" || cmd == "shutdown";
  if (service.any() && !service_cmd) {
    return usage();  // service-only flags on a non-service command
  }
  if ((service.cache_capacity != 0 || service.serve_only()) &&
      cmd != "serve") {
    return usage();  // daemon knobs only make sense on the daemon
  }
  if (service.client_only() && cmd == "serve") {
    return usage();  // client knobs only make sense on client commands
  }
  if (!service.op.empty() &&
      (cmd != "query" ||
       (service.op != "ping" && service.op != "stats" &&
        service.op != "metrics" && service.op != "query"))) {
    return usage();
  }
  if (!service.format.empty()) {
    // --format binds to a specific op's renderings; anything else is a
    // usage error rather than a silently ignored flag.
    const bool stats_fmt = service.op == "stats" &&
                           (service.format == "table" ||
                            service.format == "json");
    const bool metrics_fmt = service.op == "metrics" &&
                             (service.format == "json" ||
                              service.format == "prom");
    if (cmd != "query" || (!stats_fmt && !metrics_fmt)) {
      return usage();
    }
  }
  if (!service.trace.empty() && (cmd != "query" || !service.op.empty())) {
    return usage();  // --trace rides a path-analyzing query only
  }
  if (cmd == "batch") {
    return finish_with_metrics(metrics_json, cmd_batch(args, batch, jobs));
  }
  if (cmd == "serve") {
    return args.size() == 1 ? cmd_serve(jobs, service) : usage();
  }
  if (cmd == "query") {
    // `--op ping|stats|metrics` take no paths; a path-analyzing query
    // needs ≥ 1.
    const bool pathless = service.op == "ping" || service.op == "stats" ||
                          service.op == "metrics";
    if (pathless) {
      return args.size() == 1 ? cmd_query(args, service) : usage();
    }
    return args.size() >= 2 ? cmd_query(args, service) : usage();
  }
  if (cmd == "shutdown") {
    return args.size() == 1 ? cmd_shutdown(service) : usage();
  }
  if (cmd == "detect") {
    // Session-based so `detect` and served `query` render through the
    // same code path (byte-identical output).
    return args.size() == 2
               ? finish_with_metrics(metrics_json, cmd_detect(args[1]))
               : usage();
  }
  // Name check before the load: an unknown command with a path argument
  // is a usage error, not a "cannot open" error about its argument.
  if (args.size() < 2 || (cmd != "fde" && cmd != "unwind" &&
                          cmd != "compare" && cmd != "audit")) {
    return usage();
  }
  try {
    const elf::ElfFile elf = elf::ElfFile::load(args[1]);
    if (cmd == "fde") {
      return cmd_fde(elf);
    }
    if (cmd == "unwind") {
      if (args.size() < 3) {
        return usage();
      }
      return cmd_unwind(elf, std::strtoull(args[2], nullptr, 0));
    }
    if (cmd == "compare") {
      return cmd_compare(elf, jobs);
    }
    return cmd_audit(elf);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

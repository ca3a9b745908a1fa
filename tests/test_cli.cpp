#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/json.hpp"

namespace fetch {
namespace {

/// End-user smoke tests of the fetch-cli binary (path injected by CMake).

#ifndef FETCH_CLI_PATH
#define FETCH_CLI_PATH "fetch-cli"
#endif

struct CommandResult {
  int status = -1;
  std::string output;
};

/// \p wrapper prefixes the command line (e.g. "timeout 10 ").
CommandResult run_cli(const std::string& args,
                      const std::string& wrapper = "") {
  const std::string cmd =
      wrapper + std::string(FETCH_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> chunk;
  std::size_t n;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    result.output.append(chunk.data(), n);
  }
  const int status = pclose(pipe);
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string write_sample_binary() {
  const auto spec = synth::make_program(
      synth::projects()[0], synth::profile_for("gcc", "O2"), 2121);
  const synth::SynthBinary bin = synth::generate(spec);
  const std::string path = ::testing::TempDir() + "/fetch_cli_sample.bin";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bin.image.data()),
            static_cast<std::streamsize>(bin.image.size()));
  return path;
}

bool cli_available() {
  std::ifstream probe(FETCH_CLI_PATH, std::ios::binary);
  return static_cast<bool>(probe);
}

TEST(Cli, DetectPrintsProvenanceTaggedStarts) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built at " << FETCH_CLI_PATH;
  }
  const std::string path = write_sample_binary();
  const CommandResult r = run_cli("detect " + path);
  EXPECT_NE(r.output.find("provenance"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("   fde"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("function starts"), std::string::npos);
}

TEST(Cli, FdeListsCompleteness) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string path = write_sample_binary();
  const CommandResult r = run_cli("fde " + path);
  EXPECT_NE(r.output.find("pc_begin"), std::string::npos);
  EXPECT_NE(r.output.find("yes"), std::string::npos);
  EXPECT_NE(r.output.find("FDEs"), std::string::npos);
}

TEST(Cli, UnwindReportsStackHeight) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string path = write_sample_binary();
  // 0x401000 is the entry function; its entry row is CFA=rsp+8, height 0.
  const CommandResult r = run_cli("unwind " + path + " 0x401000");
  EXPECT_NE(r.output.find("CFA: r7 + 8"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("stack height: 0"), std::string::npos);
}

TEST(Cli, CompareListsAllStrategies) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string path = write_sample_binary();
  const CommandResult r = run_cli("compare " + path);
  for (const char* name : {"FDE", "FDE+Rec", "FETCH (full)", "DYNINST",
                           "NUCLEUS", "GHIDRA-like", "ANGR-like"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST(Cli, AuditReportsRemovedTargets) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string path = write_sample_binary();
  const CommandResult r = run_cli("audit " + path);
  EXPECT_NE(r.output.find("false targets removed"), std::string::npos);
}

/// Writes a second, distinct sample binary so batch runs see real
/// per-file variation.
std::string write_sample_binary2() {
  const auto spec = synth::make_program(
      synth::projects()[1], synth::profile_for("llvm", "O2"), 4242);
  const synth::SynthBinary bin = synth::generate(spec);
  const std::string path = ::testing::TempDir() + "/fetch_cli_sample2.bin";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bin.image.data()),
            static_cast<std::streamsize>(bin.image.size()));
  return path;
}

std::string write_garbage_file() {
  const std::string path = ::testing::TempDir() + "/fetch_cli_garbage.bin";
  std::ofstream out(path, std::ios::binary);
  out << "definitely not an ELF";
  return path;
}

TEST(Cli, BatchKeepsGoingPastMalformedInputs) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  // Regression (single-file commands exit 1 on the first bad input; batch
  // must instead record an error row and score the rest): garbage first,
  // then a good binary — the run succeeds and reports both.
  const std::string good = write_sample_binary();
  const std::string garbage = write_garbage_file();
  const CommandResult r = run_cli("batch " + garbage + " " + good);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("errors: 1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("error: " + garbage), std::string::npos);
  EXPECT_NE(r.output.find("symtab"), std::string::npos);  // scored row

  // A batch where nothing could be evaluated is still an error overall.
  const CommandResult all_bad = run_cli("batch " + garbage);
  EXPECT_EQ(all_bad.status, 1) << all_bad.output;
}

TEST(Cli, BatchJsonIsByteIdenticalAcrossJobCounts) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string a = write_sample_binary();
  const std::string b = write_sample_binary2();
  const std::string garbage = write_garbage_file();
  const std::string inputs = a + " " + b + " " + garbage + " " + a;
  const std::string json1 = ::testing::TempDir() + "/fetch_cli_batch_j1.json";
  const std::string json4 = ::testing::TempDir() + "/fetch_cli_batch_j4.json";

  const CommandResult r1 =
      run_cli("--jobs 1 batch --json " + json1 + " " + inputs);
  const CommandResult r4 =
      run_cli("--jobs 4 batch --json " + json4 + " " + inputs);
  EXPECT_EQ(r1.status, 0) << r1.output;
  EXPECT_EQ(r4.status, 0) << r4.output;
  EXPECT_EQ(r1.output, r4.output);  // the table too, not just the JSON

  const std::string doc1 = slurp(json1);
  EXPECT_FALSE(doc1.empty());
  EXPECT_EQ(doc1, slurp(json4));
  EXPECT_NE(doc1.find("\"fetch-batch-v1\""), std::string::npos);
}

TEST(Cli, BatchFromFileAndCsv) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string good = write_sample_binary();
  const std::string list = ::testing::TempDir() + "/fetch_cli_batch_list.txt";
  {
    std::ofstream out(list, std::ios::trunc);
    out << "# comment line\n" << good << "\n";
  }
  const std::string csv = ::testing::TempDir() + "/fetch_cli_batch.csv";
  const CommandResult r =
      run_cli("batch --from-file " + list + " --csv " + csv);
  EXPECT_EQ(r.status, 0) << r.output;
  const std::string csv_text = slurp(csv);
  EXPECT_NE(csv_text.find("path,status,truth_source"), std::string::npos);
  EXPECT_NE(csv_text.find(good + ",ok,symtab,"), std::string::npos);

  // No inputs at all is a usage error, as is a batch flag on another
  // command.
  EXPECT_EQ(run_cli("batch").status, 2);
  EXPECT_EQ(run_cli("detect --json x.json " + good).status, 2);
}

TEST(Cli, BatchDeduplicatesRepeatedInputs) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  // The same binary reachable three ways: twice positionally and once via
  // --dir. One scored row, with a stderr note about the dropped repeats.
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/fetch_cli_dedupe_dir";
  fs::create_directories(dir);
  const std::string good = write_sample_binary();
  const std::string copy = dir + "/only_elf.bin";
  fs::copy_file(good, copy, fs::copy_options::overwrite_existing);

  const CommandResult r =
      run_cli("batch " + copy + " " + copy + " --dir " + dir);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("skipped 2 duplicate input path(s)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("files: 1 "), std::string::npos) << r.output;

  // Distinct files are untouched by deduplication.
  const CommandResult two = run_cli("batch " + copy + " " + good);
  EXPECT_EQ(two.status, 0) << two.output;
  EXPECT_EQ(two.output.find("duplicate"), std::string::npos) << two.output;
  EXPECT_NE(two.output.find("files: 2 "), std::string::npos) << two.output;
}

/// Runs a shell command with explicit redirection, returning the exit
/// status (-1 when the shell itself failed).
int run_shell(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, ServedQueryIsByteIdenticalToDetect) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const std::string cli = FETCH_CLI_PATH;
  const std::string sock = "/tmp/fetch-cli-test-" +
                           std::to_string(::getpid()) + ".sock";
  const std::string good = write_sample_binary();
  const std::string dir = ::testing::TempDir();

  // Daemon in the background; wait for its socket to accept a ping
  // (shutdown-less probe: `query` on a file that exists).
  ASSERT_EQ(run_shell(cli + " serve --socket " + sock +
                      " >/dev/null 2>&1 &"),
            0);
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    up = run_shell(cli + " query --socket " + sock + " " + good +
                   " >/dev/null 2>/dev/null") == 0;
    if (!up) {
      usleep(100 * 1000);
    }
  }
  ASSERT_TRUE(up) << "daemon did not come up on " << sock;

  // One-shot vs served: stdout AND stderr must match byte for byte.
  ASSERT_EQ(run_shell(cli + " detect " + good + " >" + dir +
                      "/d.out 2>" + dir + "/d.err"),
            0);
  ASSERT_EQ(run_shell(cli + " query --socket " + sock + " " + good + " >" +
                      dir + "/q.out 2>" + dir + "/q.err"),
            0);
  const std::string detect_out = slurp(dir + "/d.out");
  EXPECT_FALSE(detect_out.empty());
  EXPECT_EQ(detect_out, slurp(dir + "/q.out"));
  EXPECT_EQ(slurp(dir + "/d.err"), slurp(dir + "/q.err"));

  // Warm (cache-hit) pass: still identical.
  ASSERT_EQ(run_shell(cli + " query --socket " + sock + " " + good + " >" +
                      dir + "/q2.out 2>/dev/null"),
            0);
  EXPECT_EQ(detect_out, slurp(dir + "/q2.out"));

  // Failure parity with the one-shot path: bad file → rc 1.
  EXPECT_EQ(run_shell(cli + " query --socket " + sock +
                      " /nonexistent-file >/dev/null 2>/dev/null"),
            1);

  // `--op stats`: the default lines and the table list the same
  // flattened keys in the same order; the raw document parses.
  const CommandResult lines = run_cli("query --socket " + sock + " --op stats");
  const CommandResult table =
      run_cli("query --socket " + sock + " --op stats --format table");
  const CommandResult json =
      run_cli("query --socket " + sock + " --op stats --format json");
  ASSERT_EQ(lines.status, 0) << lines.output;
  ASSERT_EQ(table.status, 0) << table.output;
  ASSERT_EQ(json.status, 0) << json.output;
  std::vector<std::string> line_keys;
  std::istringstream line_in(lines.output);
  for (std::string line; std::getline(line_in, line);) {
    line_keys.push_back(line.substr(0, line.find(": ")));
  }
  std::vector<std::string> table_keys;
  std::istringstream table_in(table.output);
  std::string line;
  std::getline(table_in, line);  // column headers
  std::getline(table_in, line);  // rule
  for (std::string key; table_in >> key;) {
    table_keys.push_back(key);
    std::getline(table_in, line);  // the value
  }
  EXPECT_EQ(line_keys, table_keys);
  EXPECT_NE(std::find(line_keys.begin(), line_keys.end(), "server.accepted"),
            line_keys.end())
      << lines.output;
  const auto doc = util::json::Value::parse(json.output);
  ASSERT_TRUE(doc.has_value()) << json.output;
  EXPECT_NE(doc->get("server"), nullptr) << json.output;

  // Graceful stop; a second shutdown finds nobody listening and exits
  // with the distinct "daemon unreachable" code.
  EXPECT_EQ(run_shell(cli + " shutdown --socket " + sock +
                      " >/dev/null 2>/dev/null"),
            0);
  bool down = false;
  for (int i = 0; i < 100 && !down; ++i) {
    down = run_shell(cli + " shutdown --socket " + sock +
                     " >/dev/null 2>/dev/null") == 3;
    if (!down) {
      usleep(100 * 1000);
    }
  }
  EXPECT_TRUE(down);

  // Service flags stay fenced to service commands.
  EXPECT_EQ(run_cli("detect --socket " + sock + " " + good).status, 2);
  EXPECT_EQ(run_cli("query --cache-capacity 8 " + good).status, 2);
}

#ifndef FETCH_STRIP_TOOL_PATH
#define FETCH_STRIP_TOOL_PATH "strip_tool"
#endif

bool strip_tool_available() {
  std::ifstream probe(FETCH_STRIP_TOOL_PATH, std::ios::binary);
  return static_cast<bool>(probe);
}

CommandResult run_strip_tool(const std::string& args) {
  const std::string cmd =
      std::string(FETCH_STRIP_TOOL_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> chunk;
  std::size_t n;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    result.output.append(chunk.data(), n);
  }
  const int status = pclose(pipe);
  result.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(Cli, StripToolPreservesDetectOutput) {
  if (!cli_available() || !strip_tool_available()) {
    GTEST_SKIP() << "fetch-cli/strip_tool not built";
  }
  const std::string original = write_sample_binary();
  const std::string stripped = ::testing::TempDir() + "/fetch_cli_strip.bin";
  const CommandResult s = run_strip_tool("-o " + stripped + " " + original);
  ASSERT_EQ(s.status, 0) << s.output;
  EXPECT_NE(s.output.find("truth sidecar: " + stripped + ".truth.json"),
            std::string::npos)
      << s.output;
  EXPECT_NE(s.output.find("source symtab"), std::string::npos) << s.output;
  EXPECT_NE(s.output.find("dropped .symtab .strtab"), std::string::npos);

  // Detection consumes .eh_frame, not symbols: the stripped copy's detect
  // report is byte-identical to the original's.
  const CommandResult before = run_cli("detect " + original);
  const CommandResult after = run_cli("detect " + stripped);
  EXPECT_EQ(before.status, 0);
  EXPECT_EQ(after.status, 0);
  EXPECT_EQ(before.output, after.output);

  // Usage and parse failures are distinct exit codes.
  EXPECT_EQ(run_strip_tool("").status, 2);
  EXPECT_EQ(run_strip_tool("-o /tmp/x --no-truth --truth-out y in").status,
            2);
  EXPECT_EQ(run_strip_tool("-o /dev/null /nonexistent-file").status, 1);
}

TEST(Cli, BatchTruthModesOnStrippedFixture) {
  if (!cli_available() || !strip_tool_available()) {
    GTEST_SKIP() << "fetch-cli/strip_tool not built";
  }
  const std::string original = write_sample_binary();
  const std::string stripped =
      ::testing::TempDir() + "/fetch_cli_strip_modes.bin";
  ASSERT_EQ(run_strip_tool("-o " + stripped + " " + original).status, 0);

  // Sidecar truth replays the full pre-strip symbol table: the row is
  // scored (tp > 0) with source "sidecar".
  const std::string csv = ::testing::TempDir() + "/fetch_cli_strip_modes.csv";
  const CommandResult sidecar =
      run_cli("batch --truth sidecar --csv " + csv + " " + stripped);
  EXPECT_EQ(sidecar.status, 0) << sidecar.output;
  EXPECT_NE(sidecar.output.find("sidecar"), std::string::npos)
      << sidecar.output;
  EXPECT_NE(sidecar.output.find("with truth: 1"), std::string::npos);
  EXPECT_NE(slurp(csv).find(stripped + ",ok,sidecar,"), std::string::npos);

  // Dynsym truth on the same file: synth binaries export nothing, so the
  // mode degrades to an unscored "none" row — documented difference, not
  // an error.
  const CommandResult dynsym =
      run_cli("batch --truth dynsym " + stripped);
  EXPECT_EQ(dynsym.status, 0) << dynsym.output;
  EXPECT_NE(dynsym.output.find("none"), std::string::npos) << dynsym.output;
  EXPECT_NE(dynsym.output.find("with truth: 0"), std::string::npos);
}

TEST(Cli, FifoAndDeviceInputsFailPromptly) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  // Opening a FIFO for reading waits for a writer, and /dev/zero never
  // ends. Both must fail at once with the unreadable-file error; the
  // `timeout` wrapper turns a hang into exit 124 instead of a stuck suite.
  const std::string fifo = ::testing::TempDir() + "/fetch_cli_fifo";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {fifo, std::string("/dev/zero")}) {
    const auto start = std::chrono::steady_clock::now();
    const CommandResult r = run_cli("detect " + path, "timeout 10 ");
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5))
        << path;
    EXPECT_EQ(r.status, 1) << path << ": " << r.output;
    EXPECT_NE(r.output.find("ELF: cannot open " + path), std::string::npos)
        << r.output;
  }

  // A batch list naming the FIFO gets an error row for it and scores the
  // rest.
  const std::string good = write_sample_binary();
  const std::string list = ::testing::TempDir() + "/fetch_cli_fifo_list.txt";
  {
    std::ofstream out(list, std::ios::trunc);
    out << fifo << "\n" << good << "\n";
  }
  const CommandResult batch =
      run_cli("batch --from-file " + list, "timeout 10 ");
  EXPECT_EQ(batch.status, 0) << batch.output;
  EXPECT_NE(batch.output.find("errors: 1"), std::string::npos)
      << batch.output;
  EXPECT_NE(batch.output.find("error: " + fifo), std::string::npos)
      << batch.output;
  std::filesystem::remove(fifo);
}

TEST(Cli, BadUsageAndBadFile) {
  if (!cli_available()) {
    GTEST_SKIP() << "fetch-cli not built";
  }
  const CommandResult usage = run_cli("detect");
  EXPECT_NE(usage.output.find("usage"), std::string::npos);
  const CommandResult bad = run_cli("detect /nonexistent-file");
  EXPECT_NE(bad.output.find("error"), std::string::npos);
  // Commands and flags fetch-cli does not know are usage errors, never
  // silently ignored, even on a command line that is otherwise valid: a
  // stale script fails loudly.
  const std::string good = write_sample_binary();
  for (const std::string& args :
       {"--cache-dir D detect " + good, "--scale smoke detect " + good,
        std::string("corpus"), std::string("corpus wild")}) {
    const CommandResult stale = run_cli(args);
    EXPECT_EQ(stale.status, 2) << args;
    EXPECT_NE(stale.output.find("usage"), std::string::npos) << args;
  }
}

}  // namespace
}  // namespace fetch

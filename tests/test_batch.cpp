#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "elf/elf_builder.hpp"
#include "elf/types.hpp"
#include "eval/batch.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"

namespace fetch::eval {
namespace {

/// Unit coverage of the batch evaluation engine: per-file error
/// resilience, jobs-count determinism of every output format, aggregate
/// subsets, and the input-collection helpers.

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A few distinct synthetic binaries (real corpus generator output, each
/// with its own .symtab) written to disk.
std::vector<std::string> sample_binaries(std::size_t count) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < count; ++i) {
    const auto spec =
        synth::make_program(synth::projects()[i % synth::projects().size()],
                            synth::profile_for("gcc", "O2"), 9000 + i);
    const synth::SynthBinary bin = synth::generate(spec);
    const std::string path = temp_path("batch_bin_" + std::to_string(i));
    write_bytes(path, bin.image);
    paths.push_back(path);
  }
  return paths;
}

TEST(Batch, MalformedInputsBecomeErrorRowsNotFailures) {
  const std::vector<std::string> good = sample_binaries(1);
  const std::string garbage = temp_path("batch_garbage.bin");
  write_bytes(garbage, {'n', 'o', 't', ' ', 'e', 'l', 'f'});
  const std::string missing = temp_path("batch_does_not_exist.bin");

  const BatchReport report =
      run_batch({garbage, good[0], missing}, BatchOptions());
  ASSERT_EQ(report.rows().size(), 3u);
  EXPECT_EQ(report.error_count(), 2u);

  // Input order is preserved; the bad rows carry messages, the good row
  // carries metrics.
  EXPECT_FALSE(report.rows()[0].ok);
  EXPECT_NE(report.rows()[0].error.find("ELF"), std::string::npos);
  EXPECT_TRUE(report.rows()[1].ok);
  EXPECT_EQ(report.rows()[1].truth_source, "symtab");
  EXPECT_GT(report.rows()[1].truth, 0u);
  EXPECT_FALSE(report.rows()[2].ok);

  // And the error shapes flow into JSON verbatim.
  const util::json::Value doc = report.json();
  EXPECT_EQ(doc.get("schema")->text(), "fetch-batch-v1");
  ASSERT_NE(doc.get("detector"), nullptr);
  EXPECT_EQ(doc.get("detector")->text(), "fetch-full");  // always full FETCH
  const auto& files = doc.get("files")->items();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].get("status")->text(), "error");
  EXPECT_NE(files[0].get("error"), nullptr);
  EXPECT_EQ(files[1].get("status")->text(), "ok");
  EXPECT_EQ(files[1].get("error"), nullptr);
  EXPECT_EQ(doc.get("aggregate")->get("errors")->as_double(), 2.0);
}

TEST(Batch, OutputsAreByteIdenticalAcrossJobCounts) {
  std::vector<std::string> paths = sample_binaries(5);
  const std::string garbage = temp_path("batch_garbage2.bin");
  write_bytes(garbage, {0x7f, 'N', 'O', 'T'});
  paths.insert(paths.begin() + 2, garbage);  // error row mid-batch

  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions wide;
  wide.jobs = 4;
  const BatchReport a = run_batch(paths, serial);
  const BatchReport b = run_batch(paths, wide);
  EXPECT_EQ(a.json().dump(), b.json().dump());
  EXPECT_EQ(a.csv(), b.csv());
}

TEST(Batch, SymtabTotalsAreASubsetOfTruthTotals) {
  const std::vector<std::string> paths = sample_binaries(3);
  const BatchReport report = run_batch(paths, BatchOptions());
  const BatchTotals all = report.totals_with_truth();
  const BatchTotals symtab = report.totals_symtab();
  EXPECT_EQ(all.files, 3u);
  EXPECT_EQ(symtab.files, 3u);  // synthetic corpus binaries keep .symtab
  EXPECT_LE(symtab.tp, all.tp);
  EXPECT_GT(all.truth, 0u);
  EXPECT_GT(all.recall(), 0.5);
}

TEST(Batch, RowWithoutTruthReportsDetectionOnly) {
  elf::ElfBuilder b;
  b.add_section(".text", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, 0x401000,
                {0x55, 0x48, 0x89, 0xe5, 0xc3}, 16);
  b.set_entry(0x401000);
  b.emit_symtab(false);
  const std::string path = temp_path("batch_stripped.bin");
  write_bytes(path, b.build());

  const BatchReport report = run_batch({path}, BatchOptions());
  ASSERT_EQ(report.rows().size(), 1u);
  const BatchRow& row = report.rows()[0];
  EXPECT_TRUE(row.ok);
  EXPECT_EQ(row.truth_source, "none");
  EXPECT_FALSE(row.has_truth());
  EXPECT_GT(row.detected, 0u);  // the entry point at least
  EXPECT_EQ(row.tp + row.fp + row.fn, 0u);
  EXPECT_EQ(report.totals_with_truth().files, 0u);

  // JSON for a truth-less row must not fabricate match metrics.
  const util::json::Value doc = report.json();
  const util::json::Value& entry = doc.get("files")->items()[0];
  EXPECT_EQ(entry.get("precision"), nullptr);
  EXPECT_NE(entry.get("detected"), nullptr);
}

TEST(Batch, PltStartsAreExcludedFromScoring) {
  // Entry point inside a ".plt" section: detected, but dropped from the
  // truth comparison and counted in plt_excluded instead of fp.
  elf::ElfBuilder b;
  const std::uint16_t text = b.add_section(
      ".text", elf::kShtProgbits, elf::kShfAlloc | elf::kShfExecinstr,
      0x401000, {0x55, 0x48, 0x89, 0xe5, 0xc3}, 16);
  b.add_section(".plt", elf::kShtProgbits,
                elf::kShfAlloc | elf::kShfExecinstr, 0x402000,
                {0xc3, 0xc3, 0xc3, 0xc3}, 16);
  b.add_symbol("f", 0x401000, 5, elf::sym_info(elf::kStbGlobal,
                                               elf::kSttFunc), text);
  b.set_entry(0x402000);  // lands in .plt
  const std::string path = temp_path("batch_plt.bin");
  write_bytes(path, b.build());

  const BatchReport report = run_batch({path}, BatchOptions());
  ASSERT_EQ(report.rows().size(), 1u);
  const BatchRow& row = report.rows()[0];
  ASSERT_TRUE(row.ok);
  EXPECT_EQ(row.plt_excluded, 1u);
  EXPECT_EQ(row.fp, 0u);
}

TEST(BatchInputs, PathListSkipsCommentsAndBlanks) {
  const std::string list = temp_path("batch_list.txt");
  {
    std::ofstream out(list, std::ios::trunc);
    out << "# pinned fleet\n\n  /bin/first  \n/bin/second\r\n"
        << "   # indented comment\n/bin/third\n";
  }
  std::vector<std::string> paths;
  std::string error;
  ASSERT_TRUE(read_path_list(list, &paths, &error));
  EXPECT_EQ(paths,
            (std::vector<std::string>{"/bin/first", "/bin/second",
                                      "/bin/third"}));
  EXPECT_FALSE(read_path_list(list + ".missing", &paths, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(BatchInputs, DirectoryExpansionKeepsOnlyElfMagicSorted) {
  namespace fs = std::filesystem;
  const std::string dir = temp_path("batch_dir");
  fs::create_directories(dir);
  const auto bins = sample_binaries(1);
  fs::copy_file(bins[0], dir + "/b_elf", fs::copy_options::overwrite_existing);
  fs::copy_file(bins[0], dir + "/a_elf", fs::copy_options::overwrite_existing);
  write_bytes(dir + "/script.sh", {'#', '!', '/', 'b'});
  fs::create_directories(dir + "/subdir");

  std::vector<std::string> paths;
  std::string error;
  ASSERT_TRUE(expand_directory(dir, &paths, &error));
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], dir + "/a_elf");
  EXPECT_EQ(paths[1], dir + "/b_elf");
  EXPECT_FALSE(expand_directory(dir + "/script.sh", &paths, &error));
}

TEST(BatchInputs, DedupeDropsRepeatsKeepingFirstOccurrenceOrder) {
  namespace fs = std::filesystem;
  const std::string dir = temp_path("batch_dedupe_dir");
  fs::create_directories(dir);
  const auto bins = sample_binaries(1);
  const std::string elf = dir + "/sample_elf";
  fs::copy_file(bins[0], elf, fs::copy_options::overwrite_existing);

  // The same file four ways: plain, repeated, via a redundant ../ hop,
  // and through a symlink — plus a distinct neighbor that must survive.
  const std::string hop =
      dir + "/../" + fs::path(dir).filename().string() + "/sample_elf";
  const std::string link = dir + "/sample_link";
  std::error_code ec;
  fs::create_symlink(elf, link, ec);
  std::vector<std::string> paths = {elf, bins[0], elf, hop};
  if (!ec) {
    paths.push_back(link);
  }
  const std::size_t expected_dropped = paths.size() - 2;
  EXPECT_EQ(dedupe_paths(&paths), expected_dropped);
  EXPECT_EQ(paths, (std::vector<std::string>{elf, bins[0]}));

  // Nonexistent paths still dedupe by spelling: one error row, not two.
  std::vector<std::string> missing = {"/no/such/file", "/no/such/file",
                                      "/no/other"};
  EXPECT_EQ(dedupe_paths(&missing), 1u);
  EXPECT_EQ(missing,
            (std::vector<std::string>{"/no/such/file", "/no/other"}));
}

TEST(BatchInputs, DedupedBatchScoresEachFileOnce) {
  const auto bins = sample_binaries(1);
  std::vector<std::string> paths = {bins[0], bins[0], bins[0]};
  const std::size_t dropped = dedupe_paths(&paths);
  EXPECT_EQ(dropped, 2u);
  const BatchReport report = run_batch(paths, BatchOptions());
  ASSERT_EQ(report.rows().size(), 1u);
  EXPECT_EQ(report.totals_with_truth().files, 1u);
}

}  // namespace
}  // namespace fetch::eval

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "eval/runner.hpp"
#include "synth/corpus.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"

/// Golden digests of detection output: the start set with provenance,
/// the per-function extents and Algorithm 1's merged parts, folded through
/// FNV-1a. Any engine rewrite that claims to change nothing must leave
/// every digest here unchanged. Set FETCH_GOLDEN_PRINT=1 to print the
/// current digests in table form (only when a change is intended).

namespace fetch {
namespace {

std::uint64_t digest_of(const core::DetectionResult& r, util::Fnv1a& h) {
  h.value(r.functions.size());
  for (const auto& [addr, provenance] : r.functions) {
    h.value(addr);
    h.value(provenance);
  }
  h.value(r.extents.size());
  for (const auto& [entry, extent] : r.extents) {
    h.value(entry);
    h.value(extent.end);
    h.value(extent.instructions);
  }
  h.value(r.merged_parts.size());
  for (const auto& [part, parent] : r.merged_parts) {
    h.value(part);
    h.value(parent);
  }
  return h.digest();
}

bool print_mode() {
  const char* env = std::getenv("FETCH_GOLDEN_PRINT");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

// --- SHA-256 (FIPS 180-4), to key system files by content ----------------

std::string sha256_hex(const std::vector<std::uint8_t>& data) {
  static constexpr std::array<std::uint32_t, 64> k = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  std::vector<std::uint8_t> msg = data;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) {
    msg.push_back(0);
  }
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  auto rotr = [](std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };
  for (std::size_t off = 0; off < msg.size(); off += 64) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{msg[off + 4 * i]} << 24) |
             (std::uint32_t{msg[off + 4 * i + 1]} << 16) |
             (std::uint32_t{msg[off + 4 * i + 2]} << 8) |
             std::uint32_t{msg[off + 4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, hh] = h;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & f) ^ (~e & g)) + k[i] + w[i];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                               ((a & b) ^ (a & c) ^ (b & c));
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    const std::array<std::uint32_t, 8> add = {a, b, c, d, e, f, g, hh};
    for (int i = 0; i < 8; ++i) {
      h[i] += add[i];
    }
  }
  std::string out;
  char buf[9];
  for (const std::uint32_t v : h) {
    std::snprintf(buf, sizeof(buf), "%08x", v);
    out += buf;
  }
  return out;
}

TEST(GoldenDigest, Sha256KnownAnswer) {
  EXPECT_EQ(sha256_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex({'a', 'b', 'c'}),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- Smoke corpus: always present ----------------------------------------

struct CorpusGolden {
  const char* name;
  std::uint64_t digest;
};

/// Per smoke entry: default options (what `detect` runs) chained with the
/// evaluation harness options (conditional no-return callees known).
std::uint64_t corpus_digest(const eval::CorpusEntry& entry) {
  util::Fnv1a h;
  (void)digest_of(entry.detector().run(core::DetectorOptions{}), h);
  return digest_of(entry.detector().run(eval::fetch_options(entry.bin.truth)),
                   h);
}

void check_corpus(const eval::Corpus& corpus,
                  const std::vector<CorpusGolden>& golden) {
  if (!print_mode()) {
    ASSERT_EQ(corpus.size(), golden.size());
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const eval::CorpusEntry& entry = corpus.entries()[i];
    const std::uint64_t digest = corpus_digest(entry);
    if (print_mode()) {
      std::printf("      {\"%s\", 0x%016llxULL},\n", entry.bin.name.c_str(),
                  static_cast<unsigned long long>(digest));
      continue;
    }
    EXPECT_EQ(entry.bin.name, golden[i].name);
    EXPECT_EQ(digest, golden[i].digest) << entry.bin.name;
  }
}

eval::CorpusOptions smoke_options() {
  eval::CorpusOptions options;
  options.scale = synth::Scale::kSmoke;
  options.jobs = 1;
  return options;
}

TEST(GoldenDigest, SmokeSelfBuiltCorpus) {
  check_corpus(eval::Corpus::self_built(smoke_options()),
               {
                   {"coreutils-gcc-O2", 0xa4f8d14218b202a5ULL},
                   {"coreutils-gcc-O3", 0xeaab2acb1c48e861ULL},
                   {"coreutils-gcc-Os", 0x4b91afd3f4524d35ULL},
                   {"coreutils-gcc-Ofast", 0x1b9647a8bc2531d9ULL},
                   {"coreutils-llvm-O2", 0xfecc69cd68724e0dULL},
                   {"coreutils-llvm-O3", 0x90ec4f4c6eafd125ULL},
                   {"coreutils-llvm-Os", 0xbdb2adcd19bbda1dULL},
                   {"coreutils-llvm-Ofast", 0xde3cd706b4089d51ULL},
               });
}

TEST(GoldenDigest, SmokeWildCorpus) {
  check_corpus(eval::Corpus::wild(smoke_options()),
               {
                   {"atom", 0xc9a27ea8e742ad8dULL},
                   {"openshot", 0xa743bd59128c7919ULL},
                   {"mupdf", 0xbe90773013bcc9f1ULL},
                   {"evince", 0xee97e125c077be1dULL},
                   {"qbittorrent", 0x55b6ec52436b3c25ULL},
                   {"eclipse", 0x709c790e9ebf44c1ULL},
                   {"virtualbox", 0x111812f5e6e9cb31ULL},
                   {"gv", 0x2119fc019524d5c5ULL},
               });
}

// --- System ELF files: checked when present with the pinned content ------

struct SystemGolden {
  const char* path;
  const char* sha256;
  std::uint64_t digest;
};

TEST(GoldenDigest, SystemElfFiles) {
  const std::vector<SystemGolden> golden = {
      {"/usr/lib/x86_64-linux-gnu/libasan.so.8.0.0",
       "6ac3f36b3d44aa27a85c73ef1ebc648ed52a9530cc6fbc96cc924b50cc8a3e32",
       0xcc8a56766ac34a7eULL},
      {"/usr/lib/x86_64-linux-gnu/libtsan.so.2.0.0",
       "bedd9bb00eb53710d0281e959762c1eb2843141a3ed2b2bbcf7c6964fcc7c1b0",
       0xa2da19b71b71811dULL},
      {"/usr/lib/x86_64-linux-gnu/liblsan.so.0.0.0",
       "5eb83890f34b2552a2f47df9d3140c8abe8930fda860dabcf4bb144b4d33fde2",
       0xa5e2e7e986667576ULL},
      {"/usr/lib/x86_64-linux-gnu/libubsan.so.1.0.0",
       "f9f47dc4672d943f44d1882142c854a1abaf36490cd118f2b29d1815a3395282",
       0x1d442e6732e23043ULL},
      {"/usr/lib/x86_64-linux-gnu/libsframe.so.0.0.0",
       "577d5c8c26c5208b699a70e8b027e4426003e4e4beeacfcb8bf94ed32efe7241",
       0x9ec8f97013967419ULL},
      {"/usr/lib/x86_64-linux-gnu/libc.so.6",
       "6b4a45352fd0c540a9c7c718f35ce8c8e46a4e482f9d3885a910c32d1a0e1421",
       0x0c8a9bcec8eea427ULL},
      {"/usr/lib/x86_64-linux-gnu/libstdc++.so.6.0.30",
       "e7848e32af4932840ba775169041759a2a8dd5a008af360e5c55bce506eebcf4",
       0xf6a6e600a809a3f4ULL},
      {"/usr/bin/bash",
       "25c34e130c601c5610c131710ce7fca96248d6e56bf99e39a3c74072a98db158",
       0x0f7b8b9edc6c0d5dULL},
  };
  std::size_t checked = 0;
  for (const SystemGolden& g : golden) {
    std::vector<std::uint8_t> bytes;
    if (!util::read_file_bytes(g.path, &bytes) ||
        sha256_hex(bytes) != g.sha256) {
      std::printf("skip %s: absent or different content\n", g.path);
      continue;
    }
    const elf::ElfFile elf(bytes);
    const core::FunctionDetector detector(elf);
    util::Fnv1a h;
    const std::uint64_t digest = digest_of(detector.run(), h);
    if (print_mode()) {
      std::printf("      {\"%s\",\n       \"%s\",\n       0x%016llxULL},\n",
                  g.path, g.sha256, static_cast<unsigned long long>(digest));
      continue;
    }
    EXPECT_EQ(digest, g.digest) << g.path;
    ++checked;
  }
  std::printf("checked %zu of %zu system files\n", checked, golden.size());
}

}  // namespace
}  // namespace fetch

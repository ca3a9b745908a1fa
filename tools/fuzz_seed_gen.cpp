/// \file fuzz_seed_gen.cpp
/// Deterministic generator for the checked-in fuzz seed corpora under
/// tests/fuzz_corpus/. Valid seeds come from the repo's own builders
/// (EhFrameBuilder, ElfBuilder, protocol request_json) so they exercise
/// the same byte layouts the synthesizer emits; malformed seeds are
/// handcrafted regressions for bugs this repo has already fixed:
///
///   ehframe/lying_fde_count.bin    .eh_frame_hdr whose fde_count field
///                                  claims 2^32-1 entries in a 20-byte
///                                  section (the allocation clamp from
///                                  the eh_frame_hdr hardening)
///   service_frame/oversize_header.bin  4-byte frame header advertising
///                                  ~4 GiB, past the kMaxFrameBytes cap
///   service_frame/torn.bin         header promising more payload than
///                                  the stream carries
///   service_frame/deep_nesting.bin a frame of 64 Ki '[': once recursed
///                                  the JSON parser off the daemon's
///                                  stack (now past Reader::kMaxDepth)
///
/// The reply seeds (hit_reply, mixed_hit_reply, miss_reply,
/// pretty_hit_reply, dup_escaped_reply) are unframed query replies for
/// the client's decode, parse_query_reply.
///
/// Usage: fuzz_seed_gen <corpus-root>   (writes <root>/{ehframe,elf,x86,
/// service_frame}/*.bin; existing files are overwritten)

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <fstream>
#include <string>
#include <vector>

#include "ehframe/eh_builder.hpp"
#include "ehframe/eh_frame.hpp"
#include "ehframe/eh_frame_hdr.hpp"
#include "elf/elf_builder.hpp"
#include "elf/types.hpp"
#include "eval/session.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using fetch::eh::CfiOp;

void write_seed(const fs::path& root, const char* group, const char* name,
                const std::vector<std::uint8_t>& bytes) {
  const fs::path dir = root / group;
  fs::create_directories(dir);
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(), bytes.size());
}

std::vector<std::uint8_t> from_string(const std::string& s) {
  return {s.begin(), s.end()};
}

/// 4-byte little-endian frame header + payload, as write_frame sends it.
std::vector<std::uint8_t> framed(std::uint32_t advertised,
                                 const std::string& payload) {
  std::vector<std::uint8_t> out = {
      static_cast<std::uint8_t>(advertised & 0xff),
      static_cast<std::uint8_t>((advertised >> 8) & 0xff),
      static_cast<std::uint8_t>((advertised >> 16) & 0xff),
      static_cast<std::uint8_t>((advertised >> 24) & 0xff),
  };
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void gen_ehframe(const fs::path& root) {
  constexpr std::uint64_t kEhFrameAddr = 0x402000;
  constexpr std::uint64_t kHdrAddr = 0x401000;

  fetch::eh::EhFrameBuilder builder;
  builder.add_fde(0x401000, 0x40,
                  {CfiOp::def_cfa_offset(16), CfiOp::offset(6, 2),
                   CfiOp::advance(4), CfiOp::def_cfa_register(6)});
  builder.add_fde(0x401040, 0x10, {});
  builder.set_personality(0x400800);
  builder.add_fde_with_lsda(0x401050, 0x80,
                            {CfiOp::remember(), CfiOp::advance(8),
                             CfiOp::restore_state()},
                            0x403000);
  const std::vector<std::uint8_t> eh_frame = builder.build(kEhFrameAddr);
  write_seed(root, "ehframe", "valid_eh_frame.bin", eh_frame);

  // Matching binary-search header, parsed from the section we just built.
  const auto parsed = fetch::eh::EhFrame::parse(eh_frame, kEhFrameAddr);
  write_seed(root, "ehframe", "valid_eh_frame_hdr.bin",
             fetch::eh::build_eh_frame_hdr(parsed, kEhFrameAddr, kHdrAddr));

  // Truncation mid-CIE: the length field survives, the body does not.
  std::vector<std::uint8_t> truncated(eh_frame.begin(),
                                      eh_frame.begin() + 11);
  write_seed(root, "ehframe", "truncated_cie.bin", truncated);

  // The empty section: a lone 4-byte zero terminator.
  write_seed(root, "ehframe", "zero_terminator.bin", {0, 0, 0, 0});

  // Regression: .eh_frame_hdr claiming 2^32-1 table entries. The parser
  // must bound fde_count by the bytes actually present instead of
  // allocating for the advertised count.
  const std::vector<std::uint8_t> lying = {
      0x01,                    // version
      0x1b,                    // eh_frame_ptr_enc = pcrel|sdata4
      0x03,                    // fde_count_enc = udata4
      0x3b,                    // table_enc = datarel|sdata4
      0x00, 0x10, 0x00, 0x00,  // eh_frame_ptr
      0xff, 0xff, 0xff, 0xff,  // fde_count = 4294967295
      0x00, 0x00, 0x00, 0x00,  // one lonely table entry: initial_location
      0x10, 0x00, 0x00, 0x00,  //                         fde_address
  };
  write_seed(root, "ehframe", "lying_fde_count.bin", lying);
}

void gen_elf(const fs::path& root) {
  // Prologue + ret, enough for the decoder to find real instructions.
  const std::vector<std::uint8_t> text = {0x55, 0x48, 0x89, 0xe5, 0x90,
                                          0x5d, 0xc3, 0xc3};
  fetch::elf::ElfBuilder builder;
  const std::uint16_t text_idx = builder.add_section(
      ".text", fetch::elf::kShtProgbits,
      fetch::elf::kShfAlloc | fetch::elf::kShfExecinstr, 0x401000, text);
  builder.add_symbol("f", 0x401000, 7, 0x12, text_idx);
  builder.add_symbol("g", 0x401007, 1, 0x12, text_idx);
  builder.set_entry(0x401000);
  const std::vector<std::uint8_t> image = builder.build();
  write_seed(root, "elf", "valid_tiny.bin", image);

  fetch::elf::ElfBuilder stripped;
  const std::uint16_t idx2 = stripped.add_section(
      ".text", fetch::elf::kShtProgbits,
      fetch::elf::kShfAlloc | fetch::elf::kShfExecinstr, 0x401000, text);
  stripped.emit_symtab(false);
  stripped.add_dynamic_symbol("exported", 0x401000, 7, 0x12, idx2);
  stripped.set_entry(0x401000);
  write_seed(root, "elf", "stripped_dynsym.bin", stripped.build());

  write_seed(root, "elf", "truncated_ehdr.bin",
             {image.begin(), image.begin() + 32});

  // Valid image whose e_shoff points past the end of the file.
  std::vector<std::uint8_t> bad_shoff = image;
  for (std::size_t i = 0; i < 8; ++i) {
    bad_shoff[0x28 + i] = 0xff;  // e_shoff at offset 0x28 in Elf64_Ehdr
  }
  write_seed(root, "elf", "bad_shoff.bin", bad_shoff);

  std::vector<std::uint8_t> magic_only(64, 0);
  magic_only[0] = 0x7f;
  magic_only[1] = 'E';
  magic_only[2] = 'L';
  magic_only[3] = 'F';
  magic_only[4] = 2;  // ELFCLASS64
  magic_only[5] = 1;  // little-endian
  write_seed(root, "elf", "magic_only.bin", magic_only);
}

void gen_x86(const fs::path& root) {
  // A realistic prologue/body/epilogue stream: push rbp; mov rbp,rsp;
  // sub rsp,0x20; mov eax,[rbp-4]; call rel32; jne rel8; leave; ret.
  write_seed(root, "x86", "straight_line.bin",
             {0x55, 0x48, 0x89, 0xe5, 0x48, 0x83, 0xec, 0x20, 0x8b,
              0x45, 0xfc, 0xe8, 0x10, 0x00, 0x00, 0x00, 0x75, 0x02,
              0xc9, 0xc3, 0x0f, 0x1f, 0x40, 0x00});

  // Legacy prefix soup in front of an add — exercises the 15-byte cap.
  write_seed(root, "x86", "prefix_soup.bin",
             {0x66, 0x67, 0xf0, 0xf2, 0xf3, 0x2e, 0x3e, 0x26, 0x64, 0x65,
              0x66, 0x67, 0xf0, 0xf2, 0x01, 0xc0});

  // VEX2, VEX3, EVEX, and the 0F38/0F3A escape maps.
  write_seed(root, "x86", "vex_escapes.bin",
             {0xc5, 0xf8, 0x77,                          // vzeroupper
              0xc4, 0xe2, 0x79, 0x18, 0x05, 0x00, 0x00, 0x00, 0x00,
              0x62, 0xf1, 0x7c, 0x48, 0x58, 0xc1,       // EVEX vaddps
              0x0f, 0x38, 0x00, 0xc1,                   // pshufb
              0x0f, 0x3a, 0x0f, 0xc1, 0x04});           // palignr

  // Opcodes that need a ModRM byte the stream does not carry.
  write_seed(root, "x86", "truncated_modrm.bin", {0xff});
  write_seed(root, "x86", "truncated_rex_mov.bin", {0x48, 0x8b});

  std::vector<std::uint8_t> all_bytes(256);
  for (std::size_t i = 0; i < all_bytes.size(); ++i) {
    all_bytes[i] = static_cast<std::uint8_t>(i);
  }
  write_seed(root, "x86", "all_bytes.bin", all_bytes);
}

void gen_service_frame(const fs::path& root) {
  using fetch::service::Op;
  using fetch::service::Request;
  using fetch::util::json::Value;

  const auto framed_request = [](const Request& request) {
    const std::string payload =
        fetch::service::request_json(request).dump_compact();
    return framed(static_cast<std::uint32_t>(payload.size()), payload);
  };
  write_seed(root, "service_frame", "ping.bin",
             framed_request({Op::kPing, "", ""}));
  write_seed(root, "service_frame", "query.bin",
             framed_request({Op::kQuery, "/usr/bin/true", ""}));
  write_seed(root, "service_frame", "stats.bin",
             framed_request({Op::kStats, "", ""}));
  write_seed(root, "service_frame", "shutdown.bin",
             framed_request({Op::kShutdown, "", ""}));

  // Regression: header advertising ~4 GiB — must trip the kMaxFrameBytes
  // cap, not drive a 4 GiB allocation.
  write_seed(root, "service_frame", "oversize_header.bin",
             framed(0xffffffffu, "x"));

  // Header promising 100 payload bytes over a 10-byte stream.
  write_seed(root, "service_frame", "torn.bin", framed(100, "0123456789"));

  write_seed(root, "service_frame", "malformed_json.bin",
             framed(9, "{not json"));
  write_seed(root, "service_frame", "wrong_schema.bin",
             framed(38, R"({"schema":"fetch-service-v0","op":"x"})"));

  // Regression: nesting far past Reader::kMaxDepth, which the recursive
  // parser once followed until the stack ran out.
  constexpr std::uint32_t kDeep = 64 * 1024;
  write_seed(root, "service_frame", "deep_nesting.bin",
             framed(kDeep, std::string(kDeep, '[')));

  // Query replies as the daemon sends them (payload only): a hit, and a
  // miss with its stage timings.
  fetch::eval::FileAnalysis fa;
  fa.row.path = "/usr/bin/true";
  fa.row.ok = true;
  fa.row.truth_source = "symtab";
  fa.row.truth = 3;
  fa.row.detected = 3;
  fa.row.tp = 2;
  fa.row.fp = 1;
  fa.row.fn = 1;
  fa.row.plt_excluded = 1;
  fa.content_hash = 0x00000000deadbeefULL;
  fa.fde_starts = 3;
  fa.pointer_starts = 1;
  fa.merged_parts = 1;
  fa.functions = {{0x401000, "fde"},
                  {0x401020, "call-target"},
                  {0x401200, "pointer"},
                  {0x401400, "tail-call"}};
  const std::string body = fetch::service::encode_result_body(fa);
  const auto reply = [&](const char* cache, const Value& stages) {
    return from_string(fetch::service::query_frame(cache, fa.row.path, body,
                                                   "0123456789abcdef", stages)
                           .substr(4));
  };
  const std::vector<std::uint8_t> hit = reply("hit", Value::array());
  write_seed(root, "service_frame", "hit_reply.bin", hit);

  // The hit reply with compact entries, which the client reads in one
  // scan each, between entries it must read token by token: a spaced
  // one, an escaped one and (last, so the others decode first) a 3-item
  // one.
  std::string mixed(hit.begin(), hit.end());
  const std::size_t list = mixed.find(R"("functions":)") + 12;
  mixed.replace(list, mixed.find("]]", list) + 2 - list,
                R"([["0x401000","fde"],[ "0x401020" ,"call-target"],)"
                R"(["0x401200","po\u0069nter\""],["0x401300","fde"],)"
                R"(["0x401400","tail-call","x"]])");
  write_seed(root, "service_frame", "mixed_hit_reply.bin", from_string(mixed));
  Value stages = Value::array();
  for (const auto& [stage, us] :
       {std::pair{"elf_parse", 12u}, {"detect", 3456u}, {"score", 78u}}) {
    Value entry = Value::object();
    entry.set("stage", Value(stage));
    entry.set("us", Value::number(static_cast<std::uint64_t>(us)));
    stages.add(std::move(entry));
  }
  write_seed(root, "service_frame", "miss_reply.bin", reply("miss", stages));

  // The hit reply in the form the daemon once sent: the response tree
  // dumped with indentation, addresses zero-padded to 16 digits. Readers
  // of fetch-service-v1 still take it.
  Value functions = Value::array();
  for (const auto& [addr, provenance] : fa.functions) {
    char padded[19];
    std::snprintf(padded, sizeof(padded), "0x%016llx",
                  static_cast<unsigned long long>(addr));
    Value entry = Value::array();
    entry.add(Value(padded));
    entry.add(Value(provenance));
    functions.add(std::move(entry));
  }
  Value result = fetch::service::analysis_json(fa);
  result.set("functions", std::move(functions));
  Value pretty = fetch::service::ok_response(Op::kQuery);
  pretty.set("cache", Value("hit"));
  pretty.set("result", std::move(result));
  pretty.set("trace", Value("0123456789abcdef"));
  pretty.set("stages", Value::array());
  write_seed(root, "service_frame", "pretty_hit_reply.bin",
             from_string(pretty.dump()));

  // Repeated members (the last one counts) and escaped keys and values.
  write_seed(root, "service_frame", "dup_escaped_reply.bin",
             from_string(
                 R"({"schema":"fetch-service-v1","status":"error",)"
                 R"("status":"ok","op":"query","cache":"hit",)"
                 R"("result":{"p\u0061th":"/a \"b\" \\c\u00e9","ok":true,)"
                 R"("content_hash":"0x0DEADBEEF","truth_source":"symtab",)"
                 R"("truth":1,"detected":1,"tp":1,"fp":0,"fn":0,"tp":"1",)"
                 R"("plt_excluded":0,"zero_sized":0,"ifuncs":0,"aliases":0,)"
                 R"("fde_starts":1,"pointer_starts":0,"merged_parts":0,)"
                 R"("invalid_fde_starts":0,"functions":[["0x1"]],"tp":1e0,)"
                 R"("functions":[["0x401000","fde"]]},)"
                 R"("tr\u0061ce":"t\n","stages":[],"stages":{}})"));

  // A shaped-but-hostile analysis document for analysis_from_json.
  const std::string doc =
      R"({"schema":"fetch-analysis-v1","path":"/x","ok":true,)"
      R"("content_hash":"00000000deadbeef","functions":[)"
      R"({"addr":"0x401000","provenance":"fde"}],)"
      R"("counters":{"fde_starts":1,"pointer_starts":0,)"
      R"("merged_parts":0,"invalid_fde_starts":0}})";
  write_seed(root, "service_frame", "analysis_doc.bin",
             from_string(doc));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  gen_ehframe(root);
  gen_elf(root);
  gen_x86(root);
  gen_service_frame(root);
  return 0;
}

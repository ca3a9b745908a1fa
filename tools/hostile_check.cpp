/// \file hostile_check.cpp
/// Adversarial-input gate: feed every fuzz-corpus seed plus a set of
/// structure-aware ELF mutants (truncations, lying section headers, a
/// lying .eh_frame_hdr fde_count, overlapping FDEs, garbage unwind data,
/// repeated and aliased .text headers, bodies that span a 2 MB code run)
/// through the full analysis pipeline and the live service socket, and
/// FAIL on any crash, hang, unbounded allocation, or wrong-success
/// outcome. CI runs this per push (the `stripped-and-hostile` job) and
/// archives the `fetch-hostile-v1` JSON artifact.
///
///   hostile_check [--corpus DIR] [--socket PATH] [--json PATH]
///                 [--max-rss-mb N] [--skip-service] [--clients N]
///
/// `--clients N` runs the fault-injection *client* phase against an
/// in-process daemon configured like the overload acceptance scenario
/// (4 workers, 64-connection limit, bounded queue, short idle and
/// write-stall deadlines): N adversarial connections split across idle
/// campers, slow-loris writers, half-open floods, mid-frame
/// disconnectors, read-side stalls, and clients that keep querying a
/// FIFO and /dev/zero, while a healthy probe client must keep getting
/// answers (ok or `overloaded`) within its deadline. Every FIFO or
/// device query must get its `none` error reply (or `overloaded`)
/// within the same deadline.
/// The phase FAILs unless the daemon evicts the idlers and stalled
/// readers (counters prove it) and rejects an accept-time connection
/// flood over the limit. `--corpus` is optional when `--clients` is
/// given; with both, all phases run.
///
/// Outcome taxonomy (see DESIGN.md, "Stripped & hostile evaluation"):
///   - non-ELF bytes MUST produce an error row (ok == false); an ok row
///     for garbage is a wrong-success violation,
///   - well-formed ELF containers with hostile metadata may produce an
///     error row OR a degraded ok row — either is acceptable, crashing
///     or throwing is not (AnalysisSession::analyze_image never throws),
///   - the service must answer every hostile frame with an error (or
///     close the torn connection) and still answer a fresh ping after
///     every single replay,
///   - peak RSS stays under --max-rss-mb (default 2048): a 4-byte
///     header must not buy a gigabyte allocation,
///   - no input's analysis takes longer than kMaxAnalysisMs of wall time
///     (each input's time is in the JSON report's `analysis_ms`).

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

// Clang spells sanitizer detection __has_feature; GCC defines
// __SANITIZE_THREAD__ instead. Normalize so both can be tested in one
// preprocessor expression.
#if defined(__has_feature)
#define FETCH_HAS_FEATURE(x) __has_feature(x)
#else
#define FETCH_HAS_FEATURE(x) 0
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ehframe/eh_builder.hpp"
#include "ehframe/eh_frame.hpp"
#include "ehframe/eh_frame_hdr.hpp"
#include "elf/elf_builder.hpp"
#include "elf/elf_file.hpp"
#include "eval/session.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "synth/codegen.hpp"
#include "synth/corpus.hpp"
#include "util/framing.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "x86/assembler.hpp"

namespace {

using namespace fetch;

struct HostileInput {
  std::string label;
  std::vector<std::uint8_t> bytes;
  bool elf_shaped = false;  ///< carries the ELF64 magic (see below)
};

/// No input's in-process analysis may take longer, in wall time. Under
/// ASan+UBSan on a 4-vCPU VM the slowest input other than the repeated-
/// header mutants takes ~6.4 ms (`mutant/lying_fde_count`), and
/// `mutant/overlapping_text_5000` ~15 ms: 15x and 6x headroom. A library
/// that decodes every alias of `mutant/aliased_text_5000` takes 0.8-1 s in
/// a Release build. `mutant/bodies_spanning_2mb` takes 14-21 ms in Release
/// and 51-70 ms under ASan+UBSan; a library that sweeps every body's whole
/// span to emit it sorted takes 99-140 ms in Release.
constexpr double kMaxAnalysisMs = 100;

int usage() {
  std::cerr << "usage: hostile_check [--corpus DIR] [--socket PATH]\n"
               "                     [--json PATH] [--metrics-json PATH]\n"
               "                     [--max-rss-mb N] [--skip-service]\n"
               "                     [--clients N]\n"
               "       (at least one of --corpus / --clients)\n";
  return 2;
}

/// Whether the pipeline is allowed to report success for these bytes:
/// anything that does not even start with the ELF64 magic must come back
/// as an error row.
bool elf_shaped(const std::vector<std::uint8_t>& bytes) {
  return bytes.size() >= 5 && bytes[0] == 0x7f && bytes[1] == 'E' &&
         bytes[2] == 'L' && bytes[3] == 'F' && bytes[4] == 2 /*ELFCLASS64*/;
}

// Little-endian patch helpers for the mutant builders. Mutants are
// hostile *by construction*; this is the one place in the tree where
// writing raw offsets is the point (tools/ sits outside the
// trust-boundary lint on purpose).
void patch_u16(std::vector<std::uint8_t>* b, std::size_t off,
               std::uint16_t v) {
  if (off + 2 <= b->size()) {
    (*b)[off] = static_cast<std::uint8_t>(v);
    (*b)[off + 1] = static_cast<std::uint8_t>(v >> 8);
  }
}
void patch_u32(std::vector<std::uint8_t>* b, std::size_t off,
               std::uint32_t v) {
  for (std::size_t i = 0; i < 4 && off + i < b->size(); ++i) {
    (*b)[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
void patch_u64(std::vector<std::uint8_t>* b, std::size_t off,
               std::uint64_t v) {
  for (std::size_t i = 0; i < 8 && off + i < b->size(); ++i) {
    (*b)[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}
/// The \p n-byte little-endian field at \p off of the pristine base.
std::uint64_t read_le(const std::vector<std::uint8_t>& b, std::size_t off,
                      std::size_t n) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + off, n);
  return v;
}

/// Finds the file offset of section \p name via a (trusted) parse of the
/// pristine base image. Returns {offset, size}; {0, 0} when absent.
std::pair<std::uint64_t, std::uint64_t> section_span(const elf::ElfFile& elf,
                                                     std::string_view name) {
  for (const elf::Section& s : elf.sections()) {
    if (s.name == name) {
      return {s.offset, s.size};
    }
  }
  return {0, 0};
}

/// Structure-aware mutants derived from one well-formed synthetic binary.
std::vector<HostileInput> make_mutants() {
  std::vector<HostileInput> out;
  // A realistic base: one small self-built corpus program, stripped like
  // the evaluation corpus.
  synth::ProgramSpec spec = synth::make_program(
      synth::projects()[1], synth::profile_for("gcc", "O2"), 0x4057u);
  spec.stripped = true;
  const std::vector<std::uint8_t> base = synth::generate(spec).image;
  const elf::ElfFile parsed({base.data(), base.size()});
  const auto [eh_off, eh_size] = section_span(parsed, ".eh_frame");
  const auto [hdr_off, hdr_size] = section_span(parsed, ".eh_frame_hdr");

  auto add = [&out](std::string label, std::vector<std::uint8_t> bytes) {
    out.push_back({std::move(label), std::move(bytes)});
  };

  // Whole-file truncations: mid-Ehdr, mid-image, one byte short.
  add("mutant/trunc_ehdr", {base.begin(), base.begin() + 32});
  add("mutant/trunc_half",
      {base.begin(), base.begin() + static_cast<std::ptrdiff_t>(
                                        base.size() / 2)});
  add("mutant/trunc_tail", {base.begin(), base.end() - 1});

  // Lying Ehdr fields.
  std::vector<std::uint8_t> m = base;
  patch_u64(&m, 0x28, 0xfffffffffffff000ULL);  // e_shoff into the void
  add("mutant/bad_shoff", std::move(m));
  m = base;
  patch_u16(&m, 0x3c, 0xffff);  // e_shnum: 65535 headers
  add("mutant/huge_shnum", std::move(m));
  m = base;
  patch_u16(&m, 0x3a, 0);  // e_shentsize zero
  add("mutant/zero_shentsize", std::move(m));

  // Truncated .eh_frame: cut the file in the middle of the CFI bytes.
  if (eh_off != 0 && eh_size > 8) {
    add("mutant/eh_frame_cut",
        {base.begin(),
         base.begin() + static_cast<std::ptrdiff_t>(eh_off + eh_size / 2)});
    // Garbage .eh_frame: size preserved, content replaced.
    m = base;
    std::uint32_t x = 0x9e3779b9;
    for (std::uint64_t i = 0; i < eh_size; ++i) {
      x = x * 1664525u + 1013904223u;
      m[eh_off + i] = static_cast<std::uint8_t>(x >> 24);
    }
    add("mutant/eh_frame_garbage", std::move(m));
  }

  // Lying .eh_frame_hdr: fde_count claims 2^32-1 entries (the header
  // layout is version/encodings (4) + eh_frame_ptr (4) + fde_count (4)).
  if (hdr_off != 0 && hdr_size >= 12) {
    m = base;
    patch_u32(&m, hdr_off + 8, 0xffffffffu);
    add("mutant/lying_fde_count", std::move(m));
  }

  const std::uint64_t shoff = read_le(base, 0x28, 8);
  const std::uint64_t shentsize = read_le(base, 0x3a, 2);
  const std::uint64_t shnum = read_le(base, 0x3c, 2);

  // Section header that lies about .eh_frame's size: extend sh_size far
  // past end-of-file. Locate the matching header by its sh_offset.
  if (eh_off != 0) {
    m = base;
    for (std::uint64_t i = 0; i < shnum; ++i) {
      const std::size_t off = shoff + i * shentsize;
      if (read_le(base, off + 0x18, 8) == eh_off) {
        patch_u64(&m, off + 0x20, 0x7fffffffffffULL);  // sh_size lie
        break;
      }
    }
    add("mutant/eh_frame_size_lie", std::move(m));
  }

  // .text's header appended N more times to a copy of the section-header
  // table moved to the end of the file, copy i with sh_addr addr(i).
  const auto table = base.begin() + shoff;
  const elf::Section* text_sec = parsed.section(".text");
  const std::uint64_t text = text_sec - parsed.sections().data();
  auto text_copies = [&](std::uint64_t copies, auto addr) {
    std::vector<std::uint8_t> out = base;
    out.resize((out.size() + 7) / 8 * 8);
    patch_u64(&out, 0x28, out.size());
    patch_u16(&out, 0x3c, static_cast<std::uint16_t>(shnum + copies));
    out.insert(out.end(), table, table + shnum * shentsize);
    for (std::uint64_t i = 0; i < copies; ++i) {
      const std::size_t at = out.size();
      out.insert(out.end(), table + text * shentsize,
                 table + (text + 1) * shentsize);
      patch_u64(&out, at + 0x10, addr(i));
    }
    return out;
  };
  // At .text's own address: N + 1 headers cover the same code bytes, which
  // must cost what one header costs.
  for (const std::uint64_t copies : {600, 5000}) {
    add("mutant/overlapping_text_" + std::to_string(copies),
        text_copies(copies, [&](std::uint64_t) { return text_sec->addr; }));
  }
  // At distinct addresses far above the image: N aliases of the same file
  // bytes, code larger than the file itself, which must be refused before
  // it is decoded.
  const std::uint64_t stride = (text_sec->size + 0xfff) & ~0xfffULL;
  add("mutant/aliased_text_5000", text_copies(5000, [&](std::uint64_t i) {
        return 0x40000000 + i * stride;
      }));

  // Overlapping FDEs: a fresh tiny ELF whose .eh_frame carries two FDEs
  // over intersecting PC ranges (no compiler emits this; Algorithm 1's
  // range logic must survive it).
  {
    const std::uint64_t text_addr = 0x401000;
    const std::uint64_t hdr_addr = 0x4ff000;
    const std::uint64_t frame_addr = 0x500000;
    std::vector<std::uint8_t> text(64, 0x90);  // nop sled
    text.back() = 0xc3;                        // ret
    eh::EhFrameBuilder ehb;
    ehb.add_fde(text_addr, 48, {});
    ehb.add_fde(text_addr + 16, 48, {});  // overlaps the first
    std::vector<std::uint8_t> eh_bytes = ehb.build(frame_addr);
    const eh::EhFrame overlap_eh =
        eh::EhFrame::parse({eh_bytes.data(), eh_bytes.size()}, frame_addr);
    std::vector<std::uint8_t> hdr_bytes =
        eh::build_eh_frame_hdr(overlap_eh, frame_addr, hdr_addr);
    elf::ElfBuilder builder;
    builder.add_section(".text", elf::kShtProgbits,
                        elf::kShfAlloc | elf::kShfExecinstr, text_addr,
                        std::move(text), 16);
    builder.add_section(".eh_frame_hdr", elf::kShtProgbits, elf::kShfAlloc,
                        hdr_addr, std::move(hdr_bytes), 4);
    builder.add_section(".eh_frame", elf::kShtProgbits, elf::kShfAlloc,
                        frame_addr, std::move(eh_bytes), 8);
    builder.emit_symtab(false);
    builder.set_entry(text_addr);
    add("mutant/overlapping_fdes", builder.build());
  }

  // Every function body spans one 2 MB code run: the entry calls 3,072
  // functions, each of which jumps to one shared tail at the run's end.
  // Emitting a body's instructions in address order must cost what the
  // body holds, never its span.
  {
    constexpr std::uint64_t text_addr = 0x401000;
    constexpr std::size_t functions = 3072;
    constexpr std::size_t run_bytes = std::size_t{2} << 20;
    x86::Assembler a(text_addr);
    const x86::Label tail = a.label_at(text_addr + run_bytes - 1);
    std::vector<x86::Label> fns(functions);
    for (x86::Label& f : fns) {
      f = a.label();
      a.call(f);
    }
    a.ret();
    for (const x86::Label f : fns) {
      a.bind(f);
      a.jmp(tail);
    }
    std::vector<std::uint8_t> text = a.finish();
    text.resize(run_bytes, 0xcc);  // int3 up to the tail
    text.back() = 0xc3;            // the tail: ret
    elf::ElfBuilder builder;
    builder.add_section(".text", elf::kShtProgbits,
                        elf::kShfAlloc | elf::kShfExecinstr, text_addr,
                        std::move(text), 16);
    builder.emit_symtab(false);
    builder.set_entry(text_addr);
    add("mutant/bodies_spanning_2mb", builder.build());
  }

  for (HostileInput& input : out) {
    input.elf_shaped = elf_shaped(input.bytes);
  }
  return out;
}

/// Sends raw bytes, half-closes, and reads at most one reply frame. A
/// missing reply (torn frame → server closes silently) is fine; a reply
/// that is not a fetch-service-v1 status document is a violation.
void replay_against_service(const std::string& socket_path,
                            const HostileInput& input,
                            bool framed,  ///< wrap bytes in a valid frame
                            std::size_t* replies, std::size_t* error_replies,
                            std::vector<std::string>* violations) {
  const std::string label =
      input.label + (framed ? " (framed payload)" : " (raw stream)");
  std::string error;
  const std::optional<util::Fd> fd = util::unix_connect(socket_path, &error);
  if (!fd) {
    violations->push_back(label + ": cannot connect: " + error);
    return;
  }
  std::vector<std::uint8_t> wire;
  if (framed) {
    const auto len = static_cast<std::uint32_t>(input.bytes.size());
    wire = {static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
            static_cast<std::uint8_t>(len >> 16),
            static_cast<std::uint8_t>(len >> 24)};
  }
  wire.insert(wire.end(), input.bytes.begin(), input.bytes.end());
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd->get(), wire.data() + sent,
                             wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;  // server already dropped us — acceptable for hostile bytes
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd->get(), SHUT_WR);
  if (util::poll_readable(fd->get(), 2000) <= 0) {
    violations->push_back(label + ": no response and no hangup within 2s");
    return;
  }
  std::string payload;
  const util::FrameStatus status =
      util::read_frame(fd->get(), &payload, &error);
  if (status != util::FrameStatus::kOk) {
    return;  // clean close / torn reply: server just dropped the peer
  }
  ++*replies;
  const std::optional<util::json::Value> doc =
      util::json::Value::parse(payload);
  const util::json::Value* field =
      doc && doc->is_object() ? doc->get("status") : nullptr;
  if (field == nullptr) {
    violations->push_back(label + ": reply is not a status document");
    return;
  }
  if (field->text() == "error") {
    ++*error_replies;
  } else if (framed) {
    // Framed replays carry raw corpus/mutant bytes as the payload; none
    // of them is a valid request, so an ok reply means the server
    // accepted garbage.
    violations->push_back(label + ": ok reply for a hostile payload");
  }
}

// --- Fault-injection clients -------------------------------------------------

/// Wire bytes of one framed fetch-service-v1 request.
std::vector<std::uint8_t> frame_request(const service::Request& request) {
  const std::string payload = service::request_json(request).dump();
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> wire;
  wire.reserve(payload.size() + 4);
  for (std::size_t k = 0; k < 4; ++k) {
    wire.push_back(static_cast<std::uint8_t>(len >> (8 * k)));
  }
  for (const char c : payload) {
    wire.push_back(static_cast<std::uint8_t>(c));
  }
  return wire;
}

/// Non-blocking-ish send that gives up when \p stop is raised or the
/// peer vanishes — an adversarial client thread must never wedge the
/// harness itself.
void send_until_stopped(int fd, const std::uint8_t* data, std::size_t len,
                        const std::atomic<bool>& stop) {
  std::size_t sent = 0;
  while (sent < len && !stop.load(std::memory_order_relaxed)) {
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      (void)util::poll_writable(fd, 100);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return;  // peer gone (evicted) — expected for hostile clients
  }
}

/// Blocks until the peer hangs up (or \p stop). Returns true on EOF —
/// i.e. the server actively evicted this connection.
bool wait_for_eviction(int fd, const std::atomic<bool>& stop) {
  std::uint8_t scratch[256];
  for (;;) {
    if (stop.load(std::memory_order_relaxed)) {
      return false;
    }
    if (util::poll_readable(fd, 100) <= 0) {
      continue;
    }
    const ssize_t n = ::recv(fd, scratch, sizeof(scratch), MSG_DONTWAIT);
    if (n == 0) {
      return true;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // reset counts as eviction
    }
  }
}

/// The overload acceptance scenario: an in-process daemon with the
/// ISSUE's shape (4 workers, 64 connections, bounded queue, short
/// deadlines) under \p clients adversarial connections, probed by a
/// healthy client throughout. Appends human-readable violations;
/// returns the server's metrics for the report.
obs::Snapshot run_client_phase(std::size_t clients,
                               const std::string& socket_path,
                               std::vector<std::string>* violations,
                               std::size_t* probe_answers,
                               std::size_t* probe_overloaded,
                               std::size_t* device_answers) {
  constexpr std::uint64_t kIdleMs = 1'500;
  constexpr std::uint64_t kStallMs = 1'500;
  // ThreadSanitizer slows this CPU-bound pipeline by roughly an order
  // of magnitude; stretch the probe's patience (never the server's
  // eviction deadlines) so the gate still asserts liveness, just on a
  // slower clock.
#if defined(__SANITIZE_THREAD__) || FETCH_HAS_FEATURE(thread_sanitizer)
  constexpr std::uint64_t kProbeDeadlineMs = 30'000;
  constexpr std::uint64_t kProbeWindowMs = 12'000;
#else
  constexpr std::uint64_t kProbeDeadlineMs = 3'000;
  constexpr std::uint64_t kProbeWindowMs = 4'500;
#endif
  constexpr std::size_t kMaxConnections = 64;

  // One real binary for queries (multi-KiB responses: enough volume for
  // the read-stall cohort to wedge its write buffer).
  const std::string sample_path = "/tmp/fetch-hostile-client." +
                                  std::to_string(::getpid()) + ".bin";
  {
    const synth::ProgramSpec spec = synth::make_program(
        synth::projects()[0], synth::profile_for("gcc", "O2"), 0xc11e57u);
    const std::vector<std::uint8_t> image = synth::generate(spec).image;
    std::ofstream out(sample_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }

  // A FIFO's open waits for a writer and /dev/zero never ends: the
  // inputs that could pin a worker before any analysis starts.
  const std::string fifo_path = "/tmp/fetch-hostile-client." +
                                std::to_string(::getpid()) + ".fifo";
  ::unlink(fifo_path.c_str());
  if (::mkfifo(fifo_path.c_str(), 0600) != 0) {
    violations->push_back("clients: cannot create " + fifo_path);
  }
  const std::string device_paths[2] = {fifo_path, "/dev/zero"};

  service::ServerOptions options;
  options.socket_path = socket_path;
  options.workers = 4;
  options.max_connections = kMaxConnections;
  options.queue_depth = 8;
  options.idle_timeout_ms = kIdleMs;
  options.write_stall_ms = kStallMs;
  service::ServiceServer server(options);
  std::string error;
  if (!server.start(&error)) {
    violations->push_back("clients: cannot start service: " + error);
    ::unlink(sample_path.c_str());
    ::unlink(fifo_path.c_str());
    return {};
  }
  std::thread runner([&server] { server.run(); });

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> evicted{0};
  std::atomic<std::size_t> device_replies[2] = {};  // per device_paths
  std::mutex device_mutex;
  std::vector<std::string> device_faults;  // guarded by device_mutex
  std::vector<std::thread> hostiles;
  const std::vector<std::uint8_t> query_wire =
      frame_request({service::Op::kQuery, sample_path, {}});
  const std::vector<std::uint8_t> stats_wire =
      frame_request({service::Op::kStats, {}, {}});

  // Six cohorts, round-robin. Every cohort models one way a client can
  // hold resources without doing useful work.
  for (std::size_t i = 0; i < clients; ++i) {
    switch (i % 6) {
      case 0:  // idle camper: connect, never send a byte
        hostiles.emplace_back([&] {
          std::string cerr2;
          const auto fd = util::unix_connect(socket_path, &cerr2);
          if (fd && wait_for_eviction(fd->get(), stop)) {
            evicted.fetch_add(1, std::memory_order_relaxed);
          }
        });
        break;
      case 1:  // slow loris: trickle a valid frame one byte at a time
        hostiles.emplace_back([&] {
          std::string cerr2;
          const auto fd = util::unix_connect(socket_path, &cerr2);
          if (!fd) {
            return;
          }
          for (std::size_t k = 0;
               k < query_wire.size() && !stop.load(std::memory_order_relaxed);
               ++k) {
            const ssize_t n = ::send(fd->get(), query_wire.data() + k, 1,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n <= 0) {
              evicted.fetch_add(1, std::memory_order_relaxed);
              return;  // server hung up on the trickler
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        });
        break;
      case 2:  // half-open flood: connect, half-close, camp
        hostiles.emplace_back([&] {
          std::string cerr2;
          const auto fd = util::unix_connect(socket_path, &cerr2);
          if (!fd) {
            return;
          }
          ::shutdown(fd->get(), SHUT_WR);
          if (wait_for_eviction(fd->get(), stop)) {
            evicted.fetch_add(1, std::memory_order_relaxed);
          }
        });
        break;
      case 3:  // mid-frame disconnect churn
        hostiles.emplace_back([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            std::string cerr2;
            const auto fd = util::unix_connect(socket_path, &cerr2);
            if (fd) {
              // Half a header, then vanish.
              send_until_stopped(fd->get(), query_wire.data(), 2, stop);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        });
        break;
      case 4:  // read-side stall: pipeline inline ops, never read
        hostiles.emplace_back([&] {
          std::string cerr2;
          const auto fd = util::unix_connect(socket_path, &cerr2);
          if (!fd) {
            return;
          }
          // Stats replies are produced inline (no queue to shed them), so
          // a pipelined burst piles hundreds of KiB of unread output onto
          // this connection — more than its socket buffer holds — and the
          // flush must hit EAGAIN and arm the write-stall deadline.
          for (std::size_t k = 0;
               k < 1'200 && !stop.load(std::memory_order_relaxed); ++k) {
            send_until_stopped(fd->get(), stats_wire.data(),
                               stats_wire.size(), stop);
          }
          // Hold the connection open without ever reading: the unread
          // responses pin the server's outbuf until its write-stall
          // clock evicts us (service_write_stall_timeouts_total is the
          // authoritative witness; unread data masks the EOF here).
          while (!stop.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        });
        break;
      default:  // device querier: a FIFO and /dev/zero, in turn
        hostiles.emplace_back([&, i] {
          for (std::size_t k = i / 6; !stop.load(std::memory_order_relaxed);
               ++k) {
            const std::string& path = device_paths[k % 2];
            const auto t0 = std::chrono::steady_clock::now();
            service::ClientOptions copts;
            copts.timeout_ms = kProbeDeadlineMs;
            copts.retries = 2;
            std::string derr;
            auto client =
                service::ServiceClient::connect(socket_path, &derr, copts);
            const auto reply =
                client ? client->query(path, &derr) : std::nullopt;
            const auto elapsed_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            std::string fault;
            if (reply && (reply->cache != "none" || reply->analysis.row.ok)) {
              fault = "cache \"" + reply->cache + "\"";
            } else if (!reply &&
                       (!client || client->last_error_code() !=
                                       service::kErrOverloaded)) {
              fault = "failed (" + derr + ")";
            } else if (elapsed_ms >
                       static_cast<long long>(kProbeDeadlineMs + 500)) {
              fault = "took " + std::to_string(elapsed_ms) + " ms";
            }
            if (!fault.empty()) {
              const std::lock_guard<std::mutex> lock(device_mutex);
              device_faults.push_back("clients: query for " + path + " " +
                                      fault);
              return;
            }
            device_replies[k % 2].fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        });
        break;
    }
  }

  // Healthy probe: one query every ~100 ms for long enough to span the
  // idle/stall evictions. Every probe must complete — ok or an honest
  // `overloaded` — within its deadline; silence is the one outcome the
  // rebuilt server must never produce.
  const auto probe_until =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(kProbeWindowMs);
  while (std::chrono::steady_clock::now() < probe_until) {
    const auto t0 = std::chrono::steady_clock::now();
    service::ClientOptions copts;
    copts.timeout_ms = kProbeDeadlineMs;
    copts.retries = 2;
    std::string perr;
    auto client = service::ServiceClient::connect(socket_path, &perr, copts);
    if (!client) {
      violations->push_back("clients: healthy probe cannot connect: " + perr);
      break;
    }
    const auto result = client->query(sample_path, &perr);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (result) {
      ++*probe_answers;
    } else if (client->last_error_code() == service::kErrOverloaded) {
      ++*probe_answers;
      ++*probe_overloaded;
    } else {
      violations->push_back("clients: healthy probe failed (" + perr + ")");
      break;
    }
    if (elapsed_ms > static_cast<long long>(kProbeDeadlineMs + 500)) {
      violations->push_back("clients: probe took " +
                            std::to_string(elapsed_ms) + " ms (deadline " +
                            std::to_string(kProbeDeadlineMs) + " ms)");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : hostiles) {
    t.join();
  }
  violations->insert(violations->end(), device_faults.begin(),
                     device_faults.end());
  *device_answers = device_replies[0] + device_replies[1];
  if (clients > 5 && (device_replies[0] == 0 || device_replies[1] == 0)) {
    violations->push_back(
        "clients: the FIFO and /dev/zero were not both answered");
  }

  // Accept-time rejection: a burst past the connection limit must be
  // answered with `overloaded` frames (or an immediate hangup), never
  // left hanging in the backlog.
  {
    std::vector<util::Fd> flood;
    std::size_t refused = 0;
    for (std::size_t i = 0; i < kMaxConnections + 16; ++i) {
      std::string cerr2;
      auto fd = util::unix_connect(socket_path, &cerr2);
      if (!fd) {
        ++refused;  // kernel backlog full also counts as rejection
        continue;
      }
      flood.push_back(std::move(*fd));
    }
    std::size_t rejected_replies = 0;
    for (util::Fd& fd : flood) {
      if (util::poll_readable(fd.get(), 200) <= 0) {
        continue;
      }
      std::string payload;
      std::string ferr;
      if (util::read_frame(fd.get(), &payload, &ferr) ==
          util::FrameStatus::kOk) {
        const auto doc = util::json::Value::parse(payload);
        if (doc && service::response_error_code(*doc) ==
                       service::kErrOverloaded) {
          ++rejected_replies;
        }
      }
    }
    if (rejected_replies + refused == 0) {
      violations->push_back(
          "clients: no connection in an over-limit flood was rejected");
    }
  }

  const obs::Snapshot metrics = server.metrics();
  const auto& counters = metrics.counters();
  if (counters.at("service_idle_timeouts_total") == 0) {
    violations->push_back("clients: no idle camper was ever evicted");
  }
  if (counters.at("service_write_stall_timeouts_total") == 0) {
    violations->push_back("clients: no stalled reader was ever evicted");
  }
  if (counters.at("service_rejected_connections_total") == 0) {
    violations->push_back(
        "clients: rejected_connections stayed 0 despite the over-limit "
        "flood");
  }
  if (evicted.load(std::memory_order_relaxed) == 0) {
    violations->push_back(
        "clients: no adversarial client observed a server-side hangup");
  }

  server.stop();
  runner.join();
  ::unlink(socket_path.c_str());
  ::unlink(sample_path.c_str());
  ::unlink(fifo_path.c_str());
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir;
  std::string socket_path;
  std::string json_path;
  std::string metrics_json_path;
  std::size_t max_rss_mb = 2048;
  bool skip_service = false;
  std::size_t clients = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--corpus" && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = arg.substr(9);
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json_path = argv[++i];
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json_path = arg.substr(15);
    } else if (arg == "--max-rss-mb" && i + 1 < argc) {
      max_rss_mb = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--skip-service") {
      skip_service = true;
    } else if (arg == "--clients" && i + 1 < argc) {
      clients = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = static_cast<std::size_t>(
          std::stoul(std::string(arg.substr(10))));
    } else {
      return usage();
    }
  }
  if (corpus_dir.empty() && clients == 0) {
    return usage();
  }
  if (socket_path.empty()) {
    socket_path =
        "/tmp/fetch-hostile." + std::to_string(::getpid()) + ".sock";
  }

  // --- Collect inputs: every corpus seed + the structure-aware mutants.
  // A --clients-only run skips the byte-replay phases entirely.
  std::vector<HostileInput> inputs;
  if (!corpus_dir.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<std::string> files;
    for (fs::recursive_directory_iterator it(corpus_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file()) {
        files.push_back(it->path().string());
      }
    }
    if (ec || files.empty()) {
      std::cerr << "error: no corpus files under " << corpus_dir << "\n";
      return 2;
    }
    std::sort(files.begin(), files.end());
    for (const std::string& path : files) {
      HostileInput input;
      input.label = fs::path(path).parent_path().filename().string() + "/" +
                    fs::path(path).filename().string();
      if (!util::read_file_bytes(path, &input.bytes)) {
        std::cerr << "error: cannot read corpus file: " << path << "\n";
        return 2;
      }
      input.elf_shaped = elf_shaped(input.bytes);
      inputs.push_back(std::move(input));
    }
  }
  if (!corpus_dir.empty()) {
    for (HostileInput& mutant : make_mutants()) {
      inputs.push_back(std::move(mutant));
    }
  }

  std::vector<std::string> violations;
  std::size_t session_ok = 0;
  std::size_t session_error = 0;

  // --- Phase 1: the full pipeline, in-process, each input's time bounded.
  const eval::AnalysisSession session;
  util::json::Value analysis_ms = util::json::Value::object();
  for (const HostileInput& input : inputs) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      const eval::FileAnalysis analysis = session.analyze_image(
          {input.bytes.data(), input.bytes.size()}, input.label,
          eval::AnalysisSession::Detail::kFull);
      if (analysis.row.ok) {
        ++session_ok;
        if (!input.elf_shaped) {
          violations.push_back(input.label +
                               ": ok row for non-ELF bytes (wrong-success)");
        }
      } else {
        ++session_error;
      }
    } catch (const std::exception& e) {
      violations.push_back(input.label + ": analyze_image threw: " + e.what());
    } catch (...) {
      violations.push_back(input.label + ": analyze_image threw");
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    analysis_ms.set(input.label, util::json::Value::number(ms));
    if (ms > kMaxAnalysisMs) {
      violations.push_back(input.label + ": analysis took " +
                           std::to_string(ms) + " ms");
    }
  }

  // --- Phase 2: the live service socket.
  std::size_t service_replies = 0;
  std::size_t service_error_replies = 0;
  std::size_t pings = 0;
  if (!skip_service && !inputs.empty()) {
    service::ServerOptions options;
    options.socket_path = socket_path;
    options.workers = 2;
    service::ServiceServer server(options);
    std::string error;
    if (!server.start(&error)) {
      std::cerr << "error: cannot start service: " << error << "\n";
      return 2;
    }
    std::thread runner([&server] { server.run(); });
    for (const HostileInput& input : inputs) {
      // A corpus seed that IS a well-formed shutdown frame would stop the
      // server mid-gate; skip its raw replay (the framed replay wraps the
      // whole frame as a payload, which is malformed JSON — safe).
      bool is_shutdown_frame = false;
      if (input.bytes.size() >= 4) {
        std::uint32_t adv = 0;
        for (std::size_t k = 0; k < 4; ++k) {
          adv |= static_cast<std::uint32_t>(input.bytes[k]) << (8 * k);
        }
        if (adv + 4 == input.bytes.size()) {
          const std::string payload(input.bytes.begin() + 4,
                                    input.bytes.end());
          std::string parse_error;
          const auto request = service::parse_request(payload, &parse_error);
          is_shutdown_frame = request && request->op == service::Op::kShutdown;
        }
      }
      if (!is_shutdown_frame) {
        replay_against_service(socket_path, input, /*framed=*/false,
                               &service_replies, &service_error_replies,
                               &violations);
      }
      replay_against_service(socket_path, input, /*framed=*/true,
                             &service_replies, &service_error_replies,
                             &violations);
      // Liveness: the daemon must answer a fresh ping after every replay.
      std::optional<service::ServiceClient> client =
          service::ServiceClient::connect(socket_path, &error);
      if (!client || !client->ping(&error)) {
        violations.push_back(input.label + ": ping after replay failed: " +
                             error);
        break;  // the daemon is gone; every further replay would repeat this
      }
      ++pings;
    }
    server.stop();
    runner.join();
    ::unlink(socket_path.c_str());
  }

  // --- Phase 3: adversarial clients against an overload-shaped daemon.
  obs::Snapshot client_metrics;
  std::size_t probe_answers = 0;
  std::size_t probe_overloaded = 0;
  std::size_t device_answers = 0;
  if (clients != 0) {
    client_metrics =
        run_client_phase(clients, socket_path, &violations, &probe_answers,
                         &probe_overloaded, &device_answers);
  }

  // --- Memory bound.
  struct rusage usage_info {};
  ::getrusage(RUSAGE_SELF, &usage_info);
  const auto max_rss_kb = static_cast<std::size_t>(usage_info.ru_maxrss);
  if (max_rss_kb > max_rss_mb * 1024) {
    violations.push_back("peak RSS " + std::to_string(max_rss_kb / 1024) +
                         " MiB exceeds the " + std::to_string(max_rss_mb) +
                         " MiB bound");
  }

  // --- Report.
  std::cout << "hostile check: " << inputs.size() << " inputs, "
            << session_error << " error rows, " << session_ok
            << " degraded-ok rows";
  if (!skip_service) {
    std::cout << ", " << service_replies << " service replies ("
              << service_error_replies << " errors), " << pings
              << " live pings";
  }
  if (clients != 0) {
    const auto& client_counters = client_metrics.counters();
    std::cout << ", " << clients << " hostile clients (" << probe_answers
              << " probe answers, " << probe_overloaded << " overloaded, "
              << device_answers << " FIFO/device answers, "
              << client_counters.at("service_idle_timeouts_total")
              << " idle evictions, "
              << client_counters.at("service_write_stall_timeouts_total")
              << " stall evictions, "
              << client_counters.at("service_rejected_connections_total")
              << " rejected)";
  }
  std::cout << ", peak RSS " << max_rss_kb / 1024 << " MiB\n";
  for (const std::string& v : violations) {
    std::cout << "VIOLATION: " << v << "\n";
  }

  if (!json_path.empty()) {
    util::json::Value doc = util::json::Value::object();
    doc.set("schema", util::json::Value("fetch-hostile-v1"));
    doc.set("inputs", util::json::Value::number(
                          static_cast<std::uint64_t>(inputs.size())));
    util::json::Value session_doc = util::json::Value::object();
    session_doc.set("error_rows", util::json::Value::number(
                                      static_cast<std::uint64_t>(
                                          session_error)));
    session_doc.set("ok_rows", util::json::Value::number(
                                   static_cast<std::uint64_t>(session_ok)));
    doc.set("session", std::move(session_doc));
    util::json::Value service_doc = util::json::Value::object();
    service_doc.set("replies", util::json::Value::number(
                                   static_cast<std::uint64_t>(
                                       service_replies)));
    service_doc.set("error_replies",
                    util::json::Value::number(static_cast<std::uint64_t>(
                        service_error_replies)));
    service_doc.set("pings", util::json::Value::number(
                                 static_cast<std::uint64_t>(pings)));
    doc.set("service", std::move(service_doc));
    if (clients != 0) {
      util::json::Value clients_doc = util::json::Value::object();
      clients_doc.set("hostile", util::json::Value::number(
                                     static_cast<std::uint64_t>(clients)));
      clients_doc.set("probe_answers",
                      util::json::Value::number(
                          static_cast<std::uint64_t>(probe_answers)));
      clients_doc.set("probe_overloaded",
                      util::json::Value::number(
                          static_cast<std::uint64_t>(probe_overloaded)));
      clients_doc.set("device_answers",
                      util::json::Value::number(
                          static_cast<std::uint64_t>(device_answers)));
      clients_doc.set("server",
                      *service::stats_view(client_metrics).get("server"));
      doc.set("clients", std::move(clients_doc));
    }
    doc.set("analysis_ms", std::move(analysis_ms));
    doc.set("max_rss_kb", util::json::Value::number(
                              static_cast<std::uint64_t>(max_rss_kb)));
    util::json::Value list = util::json::Value::array();
    for (const std::string& v : violations) {
      list.add(util::json::Value(v));
    }
    doc.set("violations", std::move(list));
    doc.set("verdict",
            util::json::Value(violations.empty() ? "PASS" : "FAIL"));
    std::ofstream out(json_path, std::ios::trunc);
    out << doc.dump() << "\n";
    out.close();
    if (out.fail()) {
      std::cerr << "error: cannot write --json file: " << json_path << "\n";
      return 2;
    }
    std::cerr << "json report: " << json_path << "\n";
  }

  if (!metrics_json_path.empty()) {
    // What the pipeline actually did under attack (error counters,
    // cache churn, stage latency) — archived next to the verdict JSON.
    std::string error;
    if (!obs::write_global_metrics_json(metrics_json_path, &error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    std::cerr << "metrics snapshot: " << metrics_json_path << "\n";
  }

  std::cout << (violations.empty() ? "hostile check: PASS\n"
                                   : "hostile check: FAIL\n");
  return violations.empty() ? 0 : 1;
}

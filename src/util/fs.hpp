#pragma once

/// \file fs.hpp
/// File access shared by every binary that reads an input file:
/// MappedFile, a read-only mapping that never blocks on a FIFO or a
/// device, and read_file_bytes, the whole-file loader built on it.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
// <cstdlib>, <filesystem> and <fstream> are not used here. Dropping them
// changed the code GCC 12 emits for ServiceServer::read_ready, the
// daemon's per-request read loop, and perfbench's service_warm
// latency_ms_p50 rose 8-15% (30 alternating pairs on a 4-vCPU VM).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fetch::util {

/// Read-only memory-mapped view of a regular file. The analysis daemon
/// hashes and parses multi-MiB binaries per query; mmap lets it do that
/// straight from the page cache instead of copying every byte into a
/// heap vector first (no double-buffering on the service read path).
/// A regular file mmap cannot serve is read into memory through the same
/// descriptor instead. Move-only; unmaps and closes on destruction.
/// map() returns nullopt for anything that is not an openable, readable
/// regular file: the open does not block, so a FIFO or a device never
/// waits for a writer or streams forever, and no byte of one is read.
///
/// The descriptor stays open for the mapping's lifetime, so a caller can
/// compare the file's identity before and after reading it: status() is
/// the fstat map() took, restat() a fresh fstat of the same open file.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { reset(); }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        addr_(std::exchange(other.addr_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        copy_(std::move(other.copy_)),
        status_(other.status_) {}
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
      addr_ = std::exchange(other.addr_, nullptr);
      size_ = std::exchange(other.size_, 0);
      copy_ = std::move(other.copy_);
      status_ = other.status_;
    }
    return *this;
  }

  [[nodiscard]] static std::optional<MappedFile> map(const std::string& path) {
    MappedFile out;
    // O_NONBLOCK keeps the open of a FIFO from waiting for a writer; reads
    // of a regular file ignore it.
    out.fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (out.fd_ < 0 || ::fstat(out.fd_, &out.status_) != 0 ||
        !S_ISREG(out.status_.st_mode)) {
      return std::nullopt;
    }
    const auto size = static_cast<std::size_t>(out.status_.st_size);
    if (size == 0) {
      return out;
    }
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, out.fd_, 0);
    if (addr != MAP_FAILED) {
      out.addr_ = addr;
      out.size_ = size;
      return out;
    }
    out.copy_.resize(size);
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(out.fd_, &out.copy_[done], size - done,
                                static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return std::nullopt;
      }
      if (n == 0) {
        break;  // truncated since the fstat
      }
      done += static_cast<std::size_t>(n);
    }
    out.copy_.resize(done);
    return out;
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    if (addr_ == nullptr) {
      return copy_;
    }
    return {static_cast<const std::uint8_t*>(addr_), size_};
  }

  /// The fstat map() took of the open file, before any byte was read.
  [[nodiscard]] const struct stat& status() const { return status_; }

  /// fstat of the open file now. false when fstat fails.
  [[nodiscard]] bool restat(struct stat* out) const {
    return ::fstat(fd_, out) == 0;
  }

 private:
  void reset() {
    if (addr_ != nullptr) {
      ::munmap(addr_, size_);
      addr_ = nullptr;
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    size_ = 0;
  }

  int fd_ = -1;
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> copy_;  ///< the bytes, when mmap failed
  struct stat status_ {};
};

/// Reads a whole file into \p out — the shared loader for every "slurp
/// the binary" site (ElfFile::load, AnalysisSession, the tools). It opens
/// through MappedFile::map, so it shares that one file-open rule: a FIFO
/// or a device fails at once instead of blocking or streaming forever.
/// Returns false when the path is not a readable regular file.
inline bool read_file_bytes(const std::string& path,
                            std::vector<std::uint8_t>* out) {
  const std::optional<MappedFile> file = MappedFile::map(path);
  if (!file) {
    return false;
  }
  out->assign(file->bytes().begin(), file->bytes().end());
  return true;
}

}  // namespace fetch::util

#include "util/journal.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TR_JOURNAL_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tr::util::journal {

namespace {

constexpr char kMagic[4] = {'T', 'R', 'J', 'L'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void fail(const std::string& what) {
  throw Error("journal: " + what + ": " + std::strerror(errno),
              ErrorCode::resource);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

const char* entry_status_name(EntryStatus status) noexcept {
  switch (status) {
    case EntryStatus::ok:
      return "ok";
    case EntryStatus::missing:
      return "missing";
    case EntryStatus::io_error:
      return "io_error";
    case EntryStatus::truncated_header:
      return "truncated_header";
    case EntryStatus::bad_magic:
      return "bad_magic";
    case EntryStatus::bad_version:
      return "bad_version";
    case EntryStatus::truncated_payload:
      return "truncated_payload";
    case EntryStatus::trailing_bytes:
      return "trailing_bytes";
    case EntryStatus::bad_checksum:
      return "bad_checksum";
  }
  return "io_error";
}

ReadResult read_entry(const std::string& path) {
  ReadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    // Absence is the common crash-window case (the rename never
    // happened); anything else is an I/O problem worth distinguishing.
    std::error_code ec;
    result.status = std::filesystem::exists(path, ec)
                        ? EntryStatus::io_error
                        : EntryStatus::missing;
    return result;
  }

  std::string bytes;
  {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
      result.status = EntryStatus::io_error;
      return result;
    }
    bytes = std::move(buffer).str();
  }

  if (bytes.size() < kHeaderBytes) {
    result.status = EntryStatus::truncated_header;
    return result;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    result.status = EntryStatus::bad_magic;
    return result;
  }
  const std::uint32_t version = get_u32(bytes.data() + 4);
  if (version > kFrameVersion) {
    result.status = EntryStatus::bad_version;
    return result;
  }
  const std::uint64_t declared = get_u64(bytes.data() + 8);
  const std::uint64_t checksum = get_u64(bytes.data() + 16);
  const std::uint64_t actual = bytes.size() - kHeaderBytes;
  if (actual < declared) {
    result.status = EntryStatus::truncated_payload;
    return result;
  }
  if (actual > declared) {
    result.status = EntryStatus::trailing_bytes;
    return result;
  }
  const std::string_view payload(bytes.data() + kHeaderBytes,
                                 static_cast<std::size_t>(declared));
  if (fnv1a64(payload) != checksum) {
    result.status = EntryStatus::bad_checksum;
    return result;
  }
  result.status = EntryStatus::ok;
  result.payload.assign(payload);
  return result;
}

#ifdef TR_JOURNAL_POSIX

void write_entry(const std::string& dir, const std::string& name,
                 std::string_view payload) {
  require(name.find('/') == std::string::npos, "journal: entry name '", name,
          "' must not contain '/'");

  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, sizeof(kMagic));
  put_u32(frame, kFrameVersion);
  put_u64(frame, payload.size());
  put_u64(frame, fnv1a64(payload));
  frame.append(payload);

  // The temp name carries the pid so two processes journaling into the
  // same directory (user error, but survivable) cannot tear each
  // other's in-flight writes; the final rename still serialises them.
  const std::string temp_path =
      dir + "/." + name + ".tmp." + std::to_string(::getpid());
  const std::string final_path = dir + "/" + name;

  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) fail("cannot create temp entry '" + temp_path + "'");

  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(temp_path.c_str());
      errno = saved;
      fail("write to '" + temp_path + "' failed");
    }
    written += static_cast<std::size_t>(n);
  }

  // Data must be stable before any name points at it; fsync before
  // rename is the whole crash-consistency argument.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(temp_path.c_str());
    errno = saved;
    fail("fsync of '" + temp_path + "' failed");
  }
  if (::close(fd) != 0) {
    const int saved = errno;
    ::unlink(temp_path.c_str());
    errno = saved;
    fail("close of '" + temp_path + "' failed");
  }
  if (::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(temp_path.c_str());
    errno = saved;
    fail("rename to '" + final_path + "' failed");
  }
  sync_directory(dir);
}

void sync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("cannot open directory '" + dir + "'");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("fsync of directory '" + dir + "' failed");
  }
  ::close(fd);
}

#else  // !TR_JOURNAL_POSIX

// Portability fallback (the server subsystem is UNIX-only, but the
// journal is part of the core library): plain buffered writes without
// durability barriers. Crash-atomicity degrades to the checksum — a
// torn entry is still *detected*, it just becomes more likely.
void write_entry(const std::string& dir, const std::string& name,
                 std::string_view payload) {
  require(name.find('/') == std::string::npos, "journal: entry name '", name,
          "' must not contain '/'");
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, sizeof(kMagic));
  put_u32(frame, kFrameVersion);
  put_u64(frame, payload.size());
  put_u64(frame, fnv1a64(payload));
  frame.append(payload);
  const std::string final_path = dir + "/" + name;
  std::ofstream out(final_path, std::ios::binary | std::ios::trunc);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.close();
  if (!out.good()) {
    throw Error("journal: write to '" + final_path + "' failed",
                ErrorCode::resource);
  }
}

void sync_directory(const std::string&) {}

#endif  // TR_JOURNAL_POSIX

}  // namespace tr::util::journal

#include "util/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/metrics.h"

namespace util {

namespace {

constexpr const char* kMagic = "ahs.snapshot.v1";

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw SnapshotError(what + " '" + path + "': " + std::strerror(errno));
}

/// fsyncs the directory containing `path` so the rename itself is durable.
void sync_parent_dir(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort — some filesystems refuse dir opens
  ::fsync(fd);
  ::close(fd);
}

void count_snapshot(const char* name) {
  if (MetricsRegistry* reg = MetricsRegistry::global())
    reg->counter(name).inc();
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create temp file", tmp);

  const char* data = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("write failed for", tmp);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("fsync failed for", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("rename failed onto", path);
  }
  sync_parent_dir(path);
  count_snapshot("util.snapshot.atomic_writes");
}

bool read_file(const std::string& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream os;
  os << in.rdbuf();
  if (in.bad()) throw SnapshotError("read failed for '" + path + "'");
  *content = os.str();
  return true;
}

void write_snapshot(const std::string& path, const SnapshotHeader& header,
                    const std::string& payload) {
  std::ostringstream os;
  os << kMagic << " " << header.kind << "\n"
     << "fingerprint " << header.fingerprint << " seed " << header.seed
     << " options " << header.option_hash << "\n"
     << payload;
  atomic_write_file(path, os.str());
  count_snapshot("util.snapshot.writes");
}

bool read_snapshot(const std::string& path, const SnapshotHeader& expect,
                   std::string* payload) {
  std::string content;
  if (!read_file(path, &content)) return false;

  std::istringstream is(content);
  std::string magic, kind;
  if (!(is >> magic >> kind))
    throw SnapshotError("snapshot '" + path + "' is corrupt (no header)");
  if (magic != kMagic)
    throw SnapshotError("snapshot '" + path + "' has unsupported format '" +
                        magic + "' (expected " + kMagic + ")");
  if (kind != expect.kind)
    throw SnapshotError("snapshot '" + path + "' holds a '" + kind +
                        "' checkpoint, not '" + expect.kind + "'");

  std::string key;
  SnapshotHeader got;
  std::uint64_t fp = 0, seed = 0, opts = 0;
  if (!(is >> key >> fp) || key != "fingerprint" || !(is >> key >> seed) ||
      key != "seed" || !(is >> key >> opts) || key != "options")
    throw SnapshotError("snapshot '" + path + "' is corrupt (bad header)");

  // Reject mismatches loudly: resuming a checkpoint of a different model,
  // seed, or option set would silently blend two different experiments.
  if (fp != expect.fingerprint)
    throw SnapshotError(
        "snapshot '" + path +
        "' was written for a different model structure (fingerprint " +
        std::to_string(fp) + ", expected " +
        std::to_string(expect.fingerprint) +
        ") — delete it or rerun with the original parameters");
  if (seed != expect.seed)
    throw SnapshotError("snapshot '" + path +
                        "' was written under seed " + std::to_string(seed) +
                        ", expected " + std::to_string(expect.seed));
  if (opts != expect.option_hash)
    throw SnapshotError(
        "snapshot '" + path +
        "' was written under different estimation options — delete it or "
        "rerun with the original options");

  // Payload starts after the second newline.
  std::size_t pos = content.find('\n');
  if (pos != std::string::npos) pos = content.find('\n', pos + 1);
  *payload =
      pos == std::string::npos ? std::string() : content.substr(pos + 1);
  count_snapshot("util.snapshot.reads");
  return true;
}

std::string encode_double(double v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(v)));
  return std::string(buf);
}

double decode_double(const std::string& token) {
  if (token.size() != 16 ||
      token.find_first_not_of("0123456789abcdef") != std::string::npos)
    throw SnapshotError("malformed double token '" + token + "'");
  std::uint64_t bits = 0;
  for (char c : token)
    bits = (bits << 4) |
           static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  return std::bit_cast<double>(bits);
}

TokenReader::TokenReader(const std::string& payload) {
  std::istringstream is(payload);
  std::string tok;
  while (is >> tok) tokens_.push_back(std::move(tok));
}

const std::string& TokenReader::next_token() {
  if (pos_ >= tokens_.size())
    throw SnapshotError("snapshot payload truncated");
  return tokens_[pos_++];
}

std::uint64_t TokenReader::next_u64() {
  const std::string& tok = next_token();
  std::uint64_t v = 0;
  for (char c : tok) {
    if (c < '0' || c > '9')
      throw SnapshotError("malformed integer token '" + tok + "'");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

double TokenReader::next_f64() { return decode_double(next_token()); }

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t value) {
  // FNV-1a over the value's bytes, seeded by h.
  if (h == 0) h = 14695981039346656037ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_mix(std::uint64_t h, double value) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t hash_mix(std::uint64_t h, const std::string& value) {
  if (h == 0) h = 14695981039346656037ull;
  for (unsigned char c : value) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return hash_mix(h, static_cast<std::uint64_t>(value.size()));
}

}  // namespace util

// Crash-safe file persistence for checkpoints and results.
//
// Long estimation runs (the paper's §4.1 protocol reaches millions of
// replications at low λ) must survive crashes, OOM kills, and Ctrl-C.  The
// primitives here are the storage half of that story:
//
//  * atomic_write_file — the classic write-temp + fsync + rename + fsync-dir
//    sequence: readers see either the complete old content or the complete
//    new content, never a truncation, even if the writer dies mid-call.
//  * FileLock — an advisory whole-file lock (POSIX flock) so concurrent
//    processes serialize read-modify-write cycles on shared files
//    (results/bench_timings.json is the motivating case).
//  * Snapshot envelope — a versioned header carrying the model's structural
//    fingerprint, the RNG seed, and a hash of the estimation options.  A
//    checkpoint that does not match the run it is resumed into is
//    *rejected* with SnapshotError — never silently merged — so editing a
//    parameter and rerunning with --resume cannot corrupt an estimate.
//  * Bitwise double tokens — doubles cross the file boundary as hex bit
//    patterns, so a restored accumulator is bit-for-bit the accumulator
//    that was saved (the foundation of the resume-identity guarantee in
//    docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace util {

/// Thrown when a snapshot file is corrupt, has an unknown version, or does
/// not match the run it is being resumed into (fingerprint/seed/options).
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Durably replaces `path` with `content`: writes `path.tmp.<pid>`, fsyncs
/// it, renames it over `path`, and fsyncs the directory.  A reader (or a
/// crash) can never observe a partial file.  Throws SnapshotError on I/O
/// failure; the temp file is cleaned up on every failure path.
void atomic_write_file(const std::string& path, const std::string& content);

/// Reads a whole file; returns false when it does not exist.  Throws
/// SnapshotError on read failure.
bool read_file(const std::string& path, std::string* content);

/// Advisory exclusive lock on `path` (created empty if absent), held for
/// the object's lifetime.  Blocks until acquired.  Advisory: only
/// cooperating FileLock users are serialized — which is exactly the
/// concurrent-bench-process case.  Not copyable or movable.
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

/// Identity of a checkpoint: what it is a checkpoint *of*.  All four fields
/// must match on resume; `kind` separates the layered formats ("transient",
/// "sweep-point", ...) so a file can never be parsed as the wrong payload.
struct SnapshotHeader {
  std::string kind;
  std::uint64_t fingerprint = 0;  ///< Parameters::structural_fingerprint
  std::uint64_t seed = 0;         ///< master RNG seed of the run
  std::uint64_t option_hash = 0;  ///< hash of every result-determining knob
};

/// Atomically writes `header` + `payload` to `path` (format version
/// "ahs.snapshot.v1", see docs/ROBUSTNESS.md).
void write_snapshot(const std::string& path, const SnapshotHeader& header,
                    const std::string& payload);

/// Loads the snapshot at `path`.  Returns false when the file does not
/// exist (nothing to resume).  Throws SnapshotError when the file is
/// corrupt, carries an unknown version, or its header differs from
/// `expect` in any field — a stale or mismatched checkpoint must never be
/// silently merged into a fresh run.
bool read_snapshot(const std::string& path, const SnapshotHeader& expect,
                   std::string* payload);

// ---- bitwise-exact payload tokens -------------------------------------
// Payloads are whitespace-separated tokens.  Doubles are serialized as the
// hex of their IEEE-754 bit pattern: decode(encode(x)) is bit-identical
// for every value including -0.0, infinities, NaNs, and denormals.

std::string encode_double(double v);
double decode_double(const std::string& token);

/// Sequential token reader over a payload string.  Throws SnapshotError on
/// exhaustion or malformed tokens (a truncated payload is corruption).
class TokenReader {
 public:
  explicit TokenReader(const std::string& payload);

  std::uint64_t next_u64();
  double next_f64();
  bool done() const { return pos_ >= tokens_.size(); }
  /// Tokens not yet read: the bound for a decoded count, checked before
  /// anything is sized by it.
  std::size_t remaining() const { return tokens_.size() - pos_; }

 private:
  const std::string& next_token();
  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
};

/// FNV-1a–style accumulation used to build option hashes: fold `value`
/// into `h`.  Deterministic across platforms/runs.
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t value);
std::uint64_t hash_mix(std::uint64_t h, double value);
std::uint64_t hash_mix(std::uint64_t h, const std::string& value);

}  // namespace util

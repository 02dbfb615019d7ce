// Crash-safe persistence primitives (util/snapshot): atomic replacement,
// the versioned snapshot envelope's reject-don't-merge contract, and
// bitwise double tokens.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "ahs/sweep.h"
#include "util/snapshot.h"
#include "util/stats.h"

namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on teardown.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ahs_snapshot_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(SnapshotTest, AtomicWriteCreatesAndReplaces) {
  const std::string p = path("f.txt");
  util::atomic_write_file(p, "first");
  std::string got;
  ASSERT_TRUE(util::read_file(p, &got));
  EXPECT_EQ(got, "first");
  util::atomic_write_file(p, "second, longer than the first content");
  ASSERT_TRUE(util::read_file(p, &got));
  EXPECT_EQ(got, "second, longer than the first content");
  // No temp litter left behind.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(SnapshotTest, ReadFileMissingReturnsFalse) {
  std::string got = "sentinel";
  EXPECT_FALSE(util::read_file(path("nope"), &got));
}

TEST_F(SnapshotTest, ConcurrentReadersNeverSeeTorn) {
  // A writer flips the file between two 64 KiB contents while readers poll;
  // every observed read must be one complete version, never a mix or a
  // truncation.  This is the property the old bench-timings merge violated.
  const std::string p = path("flip.txt");
  const std::string a(64 * 1024, 'a');
  const std::string b(64 * 1024, 'b');
  util::atomic_write_file(p, a);

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i)
      util::atomic_write_file(p, (i % 2) ? a : b);
    done.store(true);
  });
  std::thread reader([&] {
    std::string got;
    while (!done.load()) {
      if (!util::read_file(p, &got)) continue;
      if (got != a && got != b) torn.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST_F(SnapshotTest, SnapshotRoundTrip) {
  const util::SnapshotHeader h{"transient", 0xdeadbeefu, 42, 0x1234u};
  const std::string payload = "17 42\n" + util::encode_double(0.5) + "\n";
  util::write_snapshot(path("s"), h, payload);
  std::string got;
  ASSERT_TRUE(util::read_snapshot(path("s"), h, &got));
  EXPECT_EQ(got, payload);
}

TEST_F(SnapshotTest, SnapshotMissingReturnsFalse) {
  std::string got;
  EXPECT_FALSE(util::read_snapshot(path("absent"), {"transient", 1, 2, 3},
                                   &got));
}

TEST_F(SnapshotTest, SnapshotRejectsEveryIdentityMismatch) {
  // The reject-don't-merge contract: a checkpoint resumed into a run whose
  // kind, model fingerprint, seed, or options differ must throw, in every
  // single-field case.
  const util::SnapshotHeader h{"transient", 10, 20, 30};
  util::write_snapshot(path("s"), h, "payload\n");
  std::string got;
  EXPECT_THROW(
      util::read_snapshot(path("s"), {"sweep-point", 10, 20, 30}, &got),
      util::SnapshotError);
  EXPECT_THROW(util::read_snapshot(path("s"), {"transient", 11, 20, 30}, &got),
               util::SnapshotError);
  EXPECT_THROW(util::read_snapshot(path("s"), {"transient", 10, 21, 30}, &got),
               util::SnapshotError);
  EXPECT_THROW(util::read_snapshot(path("s"), {"transient", 10, 20, 31}, &got),
               util::SnapshotError);
  // And the exact identity still reads fine afterwards.
  EXPECT_TRUE(util::read_snapshot(path("s"), h, &got));
}

TEST_F(SnapshotTest, SnapshotRejectsCorruptAndUnknownVersion) {
  std::string got;
  util::atomic_write_file(path("garbage"), "not a snapshot at all\n");
  EXPECT_THROW(
      util::read_snapshot(path("garbage"), {"transient", 0, 0, 0}, &got),
      util::SnapshotError);
  util::atomic_write_file(path("future"),
                          "ahs.snapshot.v999 transient\n"
                          "fingerprint 0 seed 0 options 0\n");
  EXPECT_THROW(
      util::read_snapshot(path("future"), {"transient", 0, 0, 0}, &got),
      util::SnapshotError);
  // Header line present but truncated before the payload identity.
  util::atomic_write_file(path("trunc"), "ahs.snapshot.v1 transient\n");
  EXPECT_THROW(
      util::read_snapshot(path("trunc"), {"transient", 0, 0, 0}, &got),
      util::SnapshotError);
}

TEST(SnapshotTokens, DoubleRoundTripIsBitwise) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      1.0 / 3.0,
      -2.5e-300,
      denormal,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double v : values) {
    const double back = util::decode_double(util::encode_double(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << "value " << v;
  }
}

TEST(SnapshotTokens, TokenReaderThrowsOnTruncation) {
  util::TokenReader reader("7 " + util::encode_double(1.5));
  EXPECT_EQ(reader.next_u64(), 7u);
  EXPECT_EQ(reader.next_f64(), 1.5);
  EXPECT_TRUE(reader.done());
  EXPECT_THROW(reader.next_u64(), util::SnapshotError);
  util::TokenReader bad("zzz");
  EXPECT_THROW(bad.next_u64(), util::SnapshotError);
}

TEST(SnapshotTokens, DecodedCountsAreBoundedByTheTokensLeft) {
  util::TokenReader reader("3 1 2 3");
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_EQ(reader.next_u64(), 3u);
  EXPECT_EQ(reader.remaining(), 3u);

  ahs::UnsafetyCurve c;
  c.times = {2.0, 6.0};
  c.unsafety = {1e-9, 3e-9};
  c.half_width = {0.0, 0.0};
  c.solver_iterations = 42;
  const std::string payload = ahs::encode_curve(c);
  EXPECT_EQ(ahs::decode_curve(payload).unsafety, c.unsafety);
  // A count the payload cannot hold is a snapshot error, raised before
  // anything is sized by it.
  EXPECT_THROW(ahs::decode_curve("18446744073709551615\n"),
               util::SnapshotError);
  EXPECT_THROW(ahs::decode_curve("4" + payload.substr(1)),
               util::SnapshotError);
}

TEST(SnapshotTokens, HashMixIsOrderAndValueSensitive) {
  const std::uint64_t a = util::hash_mix(util::hash_mix(0, 1.0), 2.0);
  const std::uint64_t b = util::hash_mix(util::hash_mix(0, 2.0), 1.0);
  EXPECT_NE(a, b);
  EXPECT_NE(util::hash_mix(0, std::string("incremental")),
            util::hash_mix(0, std::string("full_rescan")));
  // 0.0 and -0.0 have different bit patterns and must hash apart — option
  // hashes are bitwise identities, not numeric ones.
  EXPECT_NE(util::hash_mix(0, 0.0), util::hash_mix(0, -0.0));
}

TEST(SnapshotTokens, RunningStatStateRoundTripsBitwise) {
  util::RunningStat stat;
  for (int i = 0; i < 1000; ++i) stat.push(std::sin(0.1 * i) * 1e-3);
  const util::RunningStat::State saved = stat.save();
  util::RunningStat restored;
  restored.restore(saved);
  const util::RunningStat::State again = restored.save();
  EXPECT_EQ(again.n, saved.n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.mean),
            std::bit_cast<std::uint64_t>(saved.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.m2),
            std::bit_cast<std::uint64_t>(saved.m2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.min),
            std::bit_cast<std::uint64_t>(saved.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.max),
            std::bit_cast<std::uint64_t>(saved.max));
  // A restored accumulator keeps accumulating identically.
  util::RunningStat fresh = stat;
  restored.push(0.25);
  fresh.push(0.25);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.save().m2),
            std::bit_cast<std::uint64_t>(fresh.save().m2));
}

}  // namespace

#include "util/fileio.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace g6 {
namespace {

namespace fs = std::filesystem;

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs each test as its own process in
    // parallel, and a shared directory lets one test's TearDown delete
    // another's files mid-test.
    dir_ = fs::temp_directory_path() /
           (std::string("g6_fileio_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  fs::path dir_;
};

TEST_F(FileIoTest, WritesCompleteContentAndNoTemporaryRemains) {
  const std::string p = path("out.txt");
  write_file_atomic(p, [](std::ostream& os) { os << "hello\nworld\n"; });
  EXPECT_EQ(slurp(p), "hello\nworld\n");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(FileIoTest, OverwriteReplacesAtomically) {
  const std::string p = path("out.txt");
  write_file_atomic(p, [](std::ostream& os) { os << "v1"; });
  write_file_atomic(p, [](std::ostream& os) { os << "v2 longer"; });
  EXPECT_EQ(slurp(p), "v2 longer");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(FileIoTest, WriterExceptionLeavesTargetUntouched) {
  // Crash-during-write semantics: the previous complete version survives
  // and no half-written temporary litters the directory.
  const std::string p = path("out.txt");
  write_file_atomic(p, [](std::ostream& os) { os << "previous"; });
  EXPECT_THROW(write_file_atomic(p,
                                 [](std::ostream& os) {
                                   os << "partial garbage";
                                   throw std::runtime_error("simulated crash");
                                 }),
               std::runtime_error);
  EXPECT_EQ(slurp(p), "previous");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(FileIoTest, UnwritableDirectoryThrowsIoError) {
  EXPECT_THROW(
      write_file_atomic((dir_ / "missing" / "out.txt").string(),
                        [](std::ostream& os) { os << "x"; }),
      IoError);
}

TEST_F(FileIoTest, IoErrorIsARuntimeError) {
  // Drivers catch std::exception at top level; IoError must be visible.
  EXPECT_THROW(throw IoError("disk on fire"), std::runtime_error);
}

TEST_F(FileIoTest, DurableVariantWritesCompleteContent) {
  const std::string p = path("durable.txt");
  write_file_atomic_durable(p, [](std::ostream& os) { os << "fsync me\n"; });
  EXPECT_EQ(slurp(p), "fsync me\n");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(FileIoTest, DurableVariantReplacesAndFailsCleanly) {
  const std::string p = path("durable.txt");
  write_file_atomic_durable(p, [](std::ostream& os) { os << "v1"; });
  write_file_atomic_durable(p, [](std::ostream& os) { os << "v2"; });
  EXPECT_EQ(slurp(p), "v2");
  EXPECT_THROW(
      write_file_atomic_durable((dir_ / "missing" / "x").string(),
                                [](std::ostream& os) { os << "x"; }),
      IoError);
}

TEST_F(FileIoTest, AppendLogAppendsOneLinePerRecord) {
  const std::string p = path("log.wal");
  {
    AppendLog log(p, /*truncate=*/true);
    log.append("first");
    log.append("second");
  }
  EXPECT_EQ(slurp(p), "first\nsecond\n");
}

TEST_F(FileIoTest, AppendLogReopenWithoutTruncateContinues) {
  const std::string p = path("log.wal");
  {
    AppendLog log(p, /*truncate=*/true);
    log.append("one");
  }
  {
    AppendLog log(p, /*truncate=*/false);
    log.append("two");
  }
  EXPECT_EQ(slurp(p), "one\ntwo\n");
}

TEST_F(FileIoTest, AppendLogTruncateStartsFresh) {
  const std::string p = path("log.wal");
  { AppendLog log(p, /*truncate=*/true); }
  {
    AppendLog log2(p, /*truncate=*/true);
    log2.append("only");
  }
  EXPECT_EQ(slurp(p), "only\n");
}

TEST_F(FileIoTest, TruncateDropsATornTailBeforeAppendingAgain) {
  const std::string p = path("log.wal");
  {
    AppendLog log(p, /*truncate=*/true);
    log.append("whole");
  }
  {
    std::ofstream os(p, std::ios::app | std::ios::binary);
    os << "tor";  // a crash mid-append
  }
  truncate_file_durable(p, 6);
  {
    AppendLog log(p, /*truncate=*/false);
    log.append("next");
  }
  EXPECT_EQ(slurp(p), "whole\nnext\n");
  EXPECT_THROW(truncate_file_durable(path("missing.wal"), 0), IoError);
}

TEST_F(FileIoTest, AppendLogRejectsEmbeddedNewline) {
  AppendLog log(path("log.wal"), /*truncate=*/true);
  EXPECT_THROW(log.append("two\nlines"), std::exception);
}

TEST_F(FileIoTest, AppendLogMoveTransfersOwnership) {
  const std::string p = path("log.wal");
  AppendLog a(p, /*truncate=*/true);
  AppendLog b(std::move(a));
  EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move) move contract under test
  EXPECT_TRUE(b.is_open());
  b.append("via b");
  b.close();
  EXPECT_EQ(slurp(p), "via b\n");
}

TEST_F(FileIoTest, AppendLogMissingDirectoryThrows) {
  EXPECT_THROW(AppendLog((dir_ / "missing" / "log.wal").string(), true),
               IoError);
}

}  // namespace
}  // namespace g6

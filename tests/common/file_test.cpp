#include "common/file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

namespace rtft {
namespace {

TEST(WriteFile, RoundTripsAndReportsErrors) {
  const std::string path = ::testing::TempDir() + "/rtft_file_test.txt";
  write_file(path, "hello\n");
  EXPECT_EQ(read_file(path), "hello\n");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/nonexistent-dir/x/y.txt", "a"),
               std::runtime_error);
}

TEST(WriteFile, AFullDiskFailsSmallAndLargeWrites) {
  // /dev/full opens and fails every write with ENOSPC. A small write
  // waits in the stdio buffer until the close, which must report it.
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) GTEST_SKIP() << "no /dev/full on this host";
  std::fclose(probe);
  EXPECT_THROW(write_file("/dev/full", "x"), std::runtime_error);
  EXPECT_THROW(write_file("/dev/full", std::string(1 << 20, 'x')),
               std::runtime_error);
}

TEST(ReadFile, AMissingFileThrowsNamingThePath) {
  const std::string path = ::testing::TempDir() + "/rtft_no_such_file.txt";
  std::remove(path.c_str());
  try {
    (void)read_file(path);
    ADD_FAILURE() << "read a file that does not exist";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + path + "'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rtft

#include "util/fileio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace g6 {

namespace {

[[noreturn]] void throw_errno(const std::string& stage,
                              const std::string& path) {
  throw IoError(stage + " failed for " + path + ": " +
                std::strerror(errno));
}

/// write(2) the whole buffer, retrying on short writes and EINTR.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

/// fsync the directory containing `path` so the rename itself is durable.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("open(dir)", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno("fsync(dir)", dir);
}

}  // namespace

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  G6_REQUIRE_MSG(!path.empty(), "write_file_atomic: empty path");
  const std::string tmp = path + ".tmp";
  {
    // g6lint: allow-next-line(durable-writes) -- this IS the implementation
    std::ofstream os(tmp, std::ios::out | std::ios::trunc);
    if (!os) throw IoError("cannot open " + tmp + " for writing");
    try {
      writer(os);
    } catch (...) {
      os.close();
      std::remove(tmp.c_str());
      throw;
    }
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      throw IoError("write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("rename failed: " + tmp + " -> " + path);
  }
}

void write_file_atomic_durable(
    const std::string& path,
    const std::function<void(std::ostream&)>& writer) {
  G6_REQUIRE_MSG(!path.empty(), "write_file_atomic_durable: empty path");
  std::ostringstream content;
  writer(content);
  if (!content) throw IoError("serialization failed for " + path);
  const std::string body = content.str();

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", tmp);
  try {
    write_all(fd, body.data(), body.size(), tmp);
    if (::fsync(fd) != 0) throw_errno("fsync", tmp);
  } catch (...) {
    ::close(fd);
    std::remove(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    throw_errno("close", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("rename failed: " + tmp + " -> " + path);
  }
  fsync_parent_dir(path);
}

void truncate_file_durable(const std::string& path, std::uint64_t length) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) throw_errno("open", path);
  if (::ftruncate(fd, static_cast<off_t>(length)) != 0 || ::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("ftruncate+fsync", path);
  }
  if (::close(fd) != 0) throw_errno("close", path);
}

AppendLog::AppendLog(const std::string& path, bool truncate) : path_(path) {
  G6_REQUIRE_MSG(!path.empty(), "AppendLog: empty path");
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("open", path);
  // Make the (possibly fresh) file itself durable before the first
  // append: a journal that vanishes with its directory entry on crash
  // would defeat the write-ahead contract.
  fsync_parent_dir(path);
}

AppendLog::~AppendLog() { close(); }

AppendLog::AppendLog(AppendLog&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

AppendLog& AppendLog::operator=(AppendLog&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

void AppendLog::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void AppendLog::append(std::string_view line) {
  G6_REQUIRE_MSG(is_open(), "AppendLog::append on a closed log");
  G6_REQUIRE_MSG(line.find('\n') == std::string_view::npos,
                 "AppendLog records are single lines");
  std::string rec;
  rec.reserve(line.size() + 1);
  rec.append(line);
  rec.push_back('\n');
  // One write() call per record: POSIX O_APPEND writes are atomic with
  // respect to concurrent appenders, and a crash tears at most this
  // record's tail, never an earlier one.
  write_all(fd_, rec.data(), rec.size(), path_);
  if (::fsync(fd_) != 0) throw_errno("fsync", path_);
}

}  // namespace g6

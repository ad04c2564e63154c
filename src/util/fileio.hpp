#pragma once
// Crash-safe file output: write-then-rename, durable (fsync'd) variants,
// and an append-only log for write-ahead journaling.
//
// Every durable artifact the toolchain produces (snapshots, metrics JSON,
// trace JSON, calibration caches, checkpoints, serve journals) goes
// through this header — never a bare std::ofstream (g6lint
// `durable-writes`) — so a crash, including one induced by the fault
// subsystem or a kill -9 in the recovery tests, can never leave a
// truncated or half-written file behind: readers see either the previous
// complete version or the new complete version. Stream errors are checked
// after every stage and reported as IoError instead of being silently
// swallowed.
//
// Three durability grades:
//
//   write_file_atomic          atomic visibility (write-then-rename); the
//                              content may still sit in the page cache
//                              when the process dies. Right for exports
//                              that are re-creatable (metrics, traces).
//   write_file_atomic_durable  atomic AND fsync'd (file before rename,
//                              directory after), so the new version
//                              survives power loss. Right for checkpoints.
//   AppendLog                  append-only records, each append written
//                              then fsync'd before returning — the
//                              write-ahead contract of the serve journal:
//                              once append() returns, the record survives
//                              any crash; a torn write can only be the
//                              final record.

#include <cstdint>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace g6 {

/// A file operation failed (open, write, flush, fsync, or rename).
/// Carries the path and the failing stage in the message.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Write `path` atomically: `writer` streams the full content into a
/// sibling temporary file, which is then renamed over `path` (atomic on
/// POSIX for same-directory renames). On any failure the temporary is
/// removed and IoError is thrown; `path` is left untouched.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// write_file_atomic plus durability: the temporary is fsync'd before the
/// rename and the containing directory after it, so once this returns the
/// new version survives a crash or power loss. Use for state that a
/// recovery path will depend on (checkpoints); plain write_file_atomic is
/// enough for re-creatable exports.
void write_file_atomic_durable(
    const std::string& path,
    const std::function<void(std::ostream&)>& writer);

/// Cut `path` to its first `length` bytes and fsync it: how a reader
/// drops the torn tail of an append-only log before appending to it
/// again (O_APPEND would otherwise glue the next record onto the
/// fragment). Throws IoError on failure.
void truncate_file_durable(const std::string& path, std::uint64_t length);

/// Append-only log with per-append durability: each append(line) writes
/// `line` plus a trailing newline and fsyncs before returning. This is
/// the primitive under the serve write-ahead journal — a record is
/// *logged* only when append() has returned, and a crash mid-append can
/// tear at most the final line (readers must tolerate a trailing
/// fragment, and nothing else).
class AppendLog {
 public:
  AppendLog() = default;
  /// Open `path` for appending; `truncate` starts a fresh log. Throws
  /// IoError when the file cannot be opened.
  AppendLog(const std::string& path, bool truncate);
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;
  AppendLog(AppendLog&& other) noexcept;
  AppendLog& operator=(AppendLog&& other) noexcept;

  /// Durably append one record (`line` must not contain '\n'; a newline
  /// is added). Throws IoError on write or fsync failure.
  void append(std::string_view line);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace g6

#ifndef PAPYRUS_STORAGE_LOG_H_
#define PAPYRUS_STORAGE_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace papyrus::storage {

// --- checksummed line framing --------------------------------------------
// Every durable line in the tree is framed the same way:
// `<body> !<16-hex FNV-1a of body>`. The session WAL, the generation
// manifest, the snapshot section formats, the job-queue journal and the
// artifact-store journal all frame through these two helpers.

/// `body` + " !<hex>". `body` must not contain '\n'.
std::string ChecksumLine(std::string_view body);

/// Splits a framed line into its body, verifying the checksum. A
/// checksum of any width verifies (older journals wrote it unpadded).
Result<std::string> CheckChecksummedLine(std::string_view line);

/// What a scan kept of a (possibly damaged) log.
struct LogScan {
  int64_t end = 0;            // byte offset just past the valid prefix
  int64_t dropped_bytes = 0;  // bytes after it: torn, corrupt or refused
};

/// One checksummed, append-only line log: the durability primitive under
/// the session WAL, the job-queue journal and the artifact-store journal.
///
/// Recovery keeps the longest valid prefix: the first line that was cut
/// mid-write, fails its checksum, or is refused by the reader's visitor
/// ends the replay, and Open cuts that tail off so later appends extend a
/// valid log.
///
/// Append only buffers. Write hands the buffer to the kernel in one
/// write; Sync fsyncs. The owner picks the policy: the WAL syncs once per
/// group commit, while the queue and artifact-store journals write every
/// record at once and never sync — they survive process death, not power
/// loss. Reset is the second half of checkpoint-and-reset: once the
/// owner's checkpoint covering the log is durable, the log file is
/// atomically replaced by an empty one (or one holding just a header).
///
/// Thread contract: no internal locking; the owner serializes access.
class Log {
 public:
  /// Sees each verified body in file order; returning false refuses the
  /// line, which ends the valid prefix there.
  using Visitor = std::function<bool(const std::string& body)>;

  /// A visitor that accepts every line and appends its body to `bodies`,
  /// for owners that apply records under their own locks afterwards.
  static Visitor Collect(std::vector<std::string>* bodies);

  /// Scans `path` from byte `offset` without modifying it. A missing file
  /// scans as empty.
  static LogScan Read(const std::string& path, int64_t offset,
                      const Visitor& visit);

  /// Reads a checkpoint file: one unframed `header` line, then framed
  /// lines, longest valid prefix. A missing file reads as empty; a wrong
  /// header is InvalidArgument.
  static Status ReadCheckpoint(const std::string& path,
                               std::string_view header,
                               const Visitor& visit);

  Log() = default;
  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// Opens `path` for appending after its first `valid_end` bytes (a
  /// scan's `end`), cutting off any torn tail beyond them. A missing or
  /// empty file is created empty, or atomically holding the framed
  /// `header` line when one is given. Does not sync.
  Status Open(const std::string& path, int64_t valid_end,
              std::string_view header = {});

  bool is_open() const { return fd_ >= 0; }
  void Close();

  /// Buffers one framed line.
  void Append(std::string_view body);

  /// Writes everything buffered in one write (no fsync). Returns the
  /// bytes written.
  Result<int64_t> Write();

  /// fsyncs the file.
  Status Sync();

  /// Atomically replaces the file with an empty log, or one holding only
  /// the framed `header` line, and discards anything buffered. The log
  /// stays open at the new end.
  Status Reset(std::string_view header = {});

  /// File length as this log last wrote or opened it.
  int64_t end() const { return end_; }

 private:
  std::string path_;
  int fd_ = -1;
  int64_t end_ = 0;
  std::string buffer_;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_LOG_H_

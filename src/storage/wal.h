#ifndef PAPYRUS_STORAGE_WAL_H_
#define PAPYRUS_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "storage/log.h"

namespace papyrus::storage {

// --- write-ahead log ------------------------------------------------------

/// One journaled mutation: an opaque single-line body under a
/// monotonically increasing sequence number. Bodies are written by the
/// session glue (src/core) and carry their own scope tag ("oct ...",
/// "thr ...", "cput ...", "state ...").
struct WalRecord {
  uint64_t seq = 0;
  std::string body;
};

/// What scanning a (possibly damaged) log recovered.
struct WalReplay {
  std::vector<WalRecord> records;  // longest valid prefix, seq ascending
  uint64_t base_seq = 0;           // header base: seqs <= base are gone
  uint64_t next_seq = 1;           // 1 + last valid seq
  uint64_t valid_bytes = 0;        // prefix length that survived
  int64_t dropped_bytes = 0;       // torn/corrupt tail bytes discarded
  bool truncated = false;          // tail damage was detected
};

/// The session write-ahead log, a storage::Log with sequence numbers.
///
/// Layout: one `papyrus-wal 1 <base_seq>` header line, then one
/// `w <seq> <body>` line per record, every line checksum-framed. Recovery
/// keeps the longest valid prefix: the first line whose checksum fails,
/// whose sequence regresses, or that is cut mid-line ends the replay, and
/// Open truncates the torn tail (and fsyncs the cut) so new appends
/// extend a valid log.
///
/// Journal-before-effect: callers append the records of a task's
/// mutations and Commit() before acknowledging the task anywhere outside
/// the session (queue completion, shared-store publication). Appends only
/// buffer; Commit writes the whole batch with a single fsync — the group
/// commit that replaces one whole-snapshot rewrite per task.
///
/// Thread contract: owned and driven by the session's engine thread; no
/// internal locking.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Scans `path` without opening it for writing. A missing file is an
  /// empty replay. Never modifies the file.
  static Result<WalReplay> Scan(const std::string& path);

  /// Opens `path` for appending: scans it, truncates any torn tail, and
  /// positions at the end. Creates the file (base 0) when missing.
  Result<WalReplay> Open(const std::string& path);

  bool is_open() const { return log_.is_open(); }

  /// Buffers one record; returns its sequence number. Bodies must be
  /// single-line.
  uint64_t Append(std::string_view body);

  /// Writes everything buffered since the last Commit and fsyncs once.
  /// No-op (no write, no sync) when nothing is buffered. Returns the
  /// number of bytes made durable.
  Result<int64_t> Commit();

  /// Atomically replaces the log with a fresh header carrying
  /// `base_seq`: records with seq <= base_seq now live in a snapshot
  /// generation. Discards anything buffered. The log stays open.
  Status Reset(uint64_t base_seq);

  void Close() { log_.Close(); }

  uint64_t next_seq() const { return next_seq_; }
  size_t buffered_records() const { return buffered_count_; }

  /// Lifetime totals (the glue layer mirrors them into papyrus.wal.*).
  struct Stats {
    int64_t records_appended = 0;
    int64_t commits = 0;
    int64_t syncs = 0;
    int64_t bytes_written = 0;
    int64_t resets = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Log log_;
  uint64_t next_seq_ = 1;
  size_t buffered_count_ = 0;
  Stats stats_;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_WAL_H_

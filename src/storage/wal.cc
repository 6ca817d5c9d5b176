#include "storage/wal.h"

#include "base/macros.h"
#include "base/strings.h"

namespace papyrus::storage {

namespace {

std::string HeaderBody(uint64_t base_seq) {
  return "papyrus-wal 1 " + std::to_string(base_seq);
}

}  // namespace

Result<WalReplay> WriteAheadLog::Scan(const std::string& path) {
  WalReplay replay;
  bool saw_header = false;
  uint64_t last_seq = 0;
  LogScan scan = Log::Read(path, 0, [&](const std::string& body) {
    std::vector<std::string> f = SplitWhitespace(body);
    if (!saw_header) {
      if (f.size() != 3 || f[0] != "papyrus-wal" || f[1] != "1" ||
          !ParseUint64(f[2], &replay.base_seq)) {
        return false;
      }
      last_seq = replay.base_seq;
      saw_header = true;
      return true;
    }
    uint64_t seq = 0;
    if (f.size() < 2 || f[0] != "w" || !ParseUint64(f[1], &seq) ||
        seq <= last_seq) {
      return false;
    }
    // The body is everything after "w <seq> ".
    size_t body_at = body.find(' ', body.find(' ') + 1);
    WalRecord rec;
    rec.seq = seq;
    if (body_at != std::string::npos) rec.body = body.substr(body_at + 1);
    replay.records.push_back(std::move(rec));
    last_seq = seq;
    return true;
  });
  // A torn or foreign header is unreachable by crashes (headers land
  // whole via atomic rename) and is rejected rather than treated as empty.
  if (!saw_header && scan.dropped_bytes > 0) {
    return Status::InvalidArgument("not a papyrus-wal file: " + path);
  }
  replay.valid_bytes = static_cast<uint64_t>(scan.end);
  replay.dropped_bytes = scan.dropped_bytes;
  replay.truncated = scan.dropped_bytes > 0;
  replay.next_seq = last_seq + 1;
  return replay;
}

Result<WalReplay> WriteAheadLog::Open(const std::string& path) {
  PAPYRUS_ASSIGN_OR_RETURN(WalReplay replay, Scan(path));
  PAPYRUS_RETURN_IF_ERROR(log_.Open(
      path, static_cast<int64_t>(replay.valid_bytes), HeaderBody(0)));
  // The cut itself must be durable before new records follow it.
  if (replay.truncated) PAPYRUS_RETURN_IF_ERROR(log_.Sync());
  replay.valid_bytes = static_cast<uint64_t>(log_.end());
  next_seq_ = replay.next_seq;
  buffered_count_ = 0;
  return replay;
}

uint64_t WriteAheadLog::Append(std::string_view body) {
  uint64_t seq = next_seq_++;
  std::string line = "w " + std::to_string(seq) + " ";
  line.append(body.data(), body.size());
  log_.Append(line);
  ++buffered_count_;
  ++stats_.records_appended;
  return seq;
}

Result<int64_t> WriteAheadLog::Commit() {
  if (buffered_count_ == 0) return static_cast<int64_t>(0);
  PAPYRUS_ASSIGN_OR_RETURN(int64_t bytes, log_.Write());
  PAPYRUS_RETURN_IF_ERROR(log_.Sync());
  stats_.bytes_written += bytes;
  ++stats_.commits;
  ++stats_.syncs;
  buffered_count_ = 0;
  return bytes;
}

Status WriteAheadLog::Reset(uint64_t base_seq) {
  if (!log_.is_open()) return Status::FailedPrecondition("wal not open");
  PAPYRUS_RETURN_IF_ERROR(log_.Reset(HeaderBody(base_seq)));
  buffered_count_ = 0;
  next_seq_ = base_seq + 1;
  ++stats_.resets;
  return Status::OK();
}

}  // namespace papyrus::storage

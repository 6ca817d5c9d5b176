#include "storage/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>

#include "base/macros.h"
#include "base/strings.h"
#include "storage/atomic_file.h"

namespace papyrus::storage {

std::string ChecksumLine(std::string_view body) {
  std::string out(body);
  out += " !";
  out += FormatHex(Fnv1a(body));
  return out;
}

Result<std::string> CheckChecksummedLine(std::string_view line) {
  size_t sp = line.rfind(' ');
  if (sp == std::string_view::npos || sp + 2 >= line.size() ||
      line[sp + 1] != '!') {
    return Status::InvalidArgument("line missing checksum");
  }
  uint64_t want = 0;
  if (!ParseHex(line.substr(sp + 2), &want)) {
    return Status::InvalidArgument("bad checksum field");
  }
  std::string body(line.substr(0, sp));
  if (Fnv1a(body) != want) {
    return Status::InvalidArgument("checksum mismatch");
  }
  return body;
}

Log::Visitor Log::Collect(std::vector<std::string>* bodies) {
  return [bodies](const std::string& body) {
    bodies->push_back(body);
    return true;
  };
}

LogScan Log::Read(const std::string& path, int64_t offset,
                  const Visitor& visit) {
  LogScan scan;
  scan.end = offset;
  std::ifstream in(path, std::ios::binary);
  if (!in) return scan;  // missing log = empty log
  if (offset > 0) in.seekg(offset);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // cut mid-write: the torn tail
    auto body =
        CheckChecksummedLine(std::string_view(text).substr(pos, nl - pos));
    if (!body.ok() || !visit(*body)) break;
    pos = nl + 1;
  }
  scan.end = offset + static_cast<int64_t>(pos);
  scan.dropped_bytes = static_cast<int64_t>(text.size() - pos);
  return scan;
}

Status Log::ReadCheckpoint(const std::string& path, std::string_view header,
                           const Visitor& visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::OK();  // no checkpoint yet
  std::string first;
  if (!std::getline(in, first) || first != header) {
    return Status::InvalidArgument("bad checkpoint header in " + path);
  }
  (void)Read(path, static_cast<int64_t>(first.size()) + 1, visit);
  return Status::OK();
}

Log::~Log() { Close(); }

Status Log::Open(const std::string& path, int64_t valid_end,
                 std::string_view header) {
  Close();
  path_ = path;
  buffer_.clear();
  // A missing or empty log gets its header atomically, so a crash can
  // never leave a headerless one.
  struct stat st;
  bool empty = ::stat(path_.c_str(), &st) != 0 || st.st_size == 0;
  if (empty && !header.empty()) return Reset(header);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) return Status::Internal("cannot open log " + path_);
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) {
    Close();
    return Status::Internal("cannot seek log " + path_);
  }
  if (size > valid_end) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      Close();
      return Status::Internal("cannot truncate torn log tail: " + path_);
    }
    size = static_cast<off_t>(valid_end);
  }
  end_ = static_cast<int64_t>(size);
  return Status::OK();
}

void Log::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Log::Append(std::string_view body) {
  buffer_ += ChecksumLine(body);
  buffer_ += '\n';
}

Result<int64_t> Log::Write() {
  if (fd_ < 0) return Status::FailedPrecondition("log not open: " + path_);
  size_t off = 0;
  while (off < buffer_.size()) {
    ssize_t n = ::write(fd_, buffer_.data() + off, buffer_.size() - off);
    if (n < 0) return Status::Internal("log write failed: " + path_);
    off += static_cast<size_t>(n);
  }
  int64_t bytes = static_cast<int64_t>(buffer_.size());
  end_ += bytes;
  buffer_.clear();
  return bytes;
}

Status Log::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("log not open: " + path_);
  if (::fsync(fd_) != 0) {
    return Status::Internal("log fsync failed: " + path_);
  }
  return Status::OK();
}

Status Log::Reset(std::string_view header) {
  if (path_.empty()) return Status::FailedPrecondition("log never opened");
  Close();
  buffer_.clear();
  const std::string content =
      header.empty() ? "" : ChecksumLine(header) + "\n";
  PAPYRUS_RETURN_IF_ERROR(AtomicWriteFile(path_, content));
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) return Status::Internal("cannot reopen log " + path_);
  end_ = static_cast<int64_t>(content.size());
  return Status::OK();
}

}  // namespace papyrus::storage

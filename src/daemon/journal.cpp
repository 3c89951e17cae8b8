#include "daemon/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/binio.hpp"
#include "common/framing.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"
#include "obs/host_clock.hpp"

namespace bgp::daemon {

namespace {

/// Why replay stops at a frame, by FrameStatus.
constexpr const char* kFrameProblem[] = {
    "", "torn frame header", "bad frame length", "torn frame",
    "frame checksum mismatch"};

}  // namespace

json::Value JournalRecord::to_json() const {
  json::Value v = json::Value::object();
  v.set("op", json::Value(op));
  v.set("session", json::Value(session));
  v.set("body", body);
  return v;
}

JournalRecord JournalRecord::from_json(const json::Value& v) {
  JournalRecord rec;
  const json::Value* op = v.get("op");
  const json::Value* session = v.get("session");
  if (!op || !session) {
    throw json::JsonError("journal record missing op/session");
  }
  rec.op = op->as_string();
  rec.session = session->as_string();
  if (const json::Value* body = v.get("body")) rec.body = *body;
  return rec;
}

std::vector<std::byte> encode_journal_frame(const JournalRecord& rec) {
  const std::string payload = rec.to_json().dump();
  std::vector<std::byte> frame(kFrameHeaderBytes + payload.size());
  encode_frame(std::as_bytes(std::span(payload)), frame.data());
  return frame;
}

JournalReplay replay_journal(const std::filesystem::path& path) {
  JournalReplay out;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return out;

  const std::vector<std::byte> bytes = read_file_bytes(path);
  if (bytes.empty()) {
    // Created but never got its header (crash between open and write):
    // an empty journal.
    return out;
  }
  // A file shorter than the magic is ours only if it is a prefix of it.
  if (std::memcmp(bytes.data(), kJournalMagic,
                  std::min(bytes.size(), sizeof(kJournalMagic))) != 0) {
    throw JournalError(
        strfmt("%s is not a bgpcd journal (bad magic)", path.c_str()));
  }
  if (bytes.size() < kJournalHeaderBytes) {
    // Magic prefix but torn header: treat as an empty journal whose tail
    // (the partial header) is dropped; the writer rebuilds the header.
    out.dropped_bytes = bytes.size();
    out.tail_error = "torn header";
    return out;
  }
  u32 version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kJournalMagic), sizeof(version));
  if (version != kJournalVersion) {
    throw JournalError(strfmt("journal %s has unsupported version %u",
                              path.c_str(), version));
  }

  std::size_t off = kJournalHeaderBytes;
  while (off < bytes.size()) {
    const Frame f =
        decode_frame(std::span(bytes).subspan(off), kJournalMaxRecordBytes);
    // An empty payload is never a record: zeroed space past a crash.
    const FrameStatus status = f.len == 0 && f.status == FrameStatus::kOk
                                   ? FrameStatus::kTooLong
                                   : f.status;
    if (status != FrameStatus::kOk) {
      out.tail_error =
          strfmt("%s at offset %zu (length %u, %zu byte(s) left)",
                 kFrameProblem[static_cast<int>(status)], off, f.len,
                 bytes.size() - off);
      break;
    }
    try {
      const std::string_view text{
          reinterpret_cast<const char*>(f.payload.data()), f.payload.size()};
      out.records.push_back(JournalRecord::from_json(json::Value::parse(text)));
    } catch (const json::JsonError& e) {
      // A CRC-valid frame with unparseable JSON can only be corruption that
      // happens to collide — treat like any other bad tail.
      out.tail_error =
          strfmt("unparseable record at offset %zu: %s", off, e.what());
      break;
    }
    off += kFrameHeaderBytes + f.len;
  }
  out.valid_bytes = off;
  out.dropped_bytes = bytes.size() - off;
  return out;
}

JournalWriter::JournalWriter(std::filesystem::path path,
                             fault::DaemonFaultInjector* faults)
    : path_(std::move(path)), faults_(faults) {
  recovered_ = replay_journal(path_);  // throws JournalError on foreign files

  const auto fail = [this](const char* what, int err) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    throw JournalWriteError(
        strfmt("cannot %s journal %s: %s", what, path_.c_str(),
               ::strerror(err)));
  };
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("open", errno);
  // Drop any torn tail so post-crash appends land on a frame boundary; the
  // header counts as valid bytes 0 only when the file was empty/torn.
  if (::ftruncate(fd_, static_cast<off_t>(recovered_.valid_bytes)) != 0) {
    fail("truncate", errno);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) fail("seek", errno);
  if (recovered_.valid_bytes < kJournalHeaderBytes) {
    BinaryWriter header;
    header.put_bytes(std::as_bytes(std::span(kJournalMagic)));
    header.put<u32>(kJournalVersion);
    if (const int err = write_all(fd_, header.buffer())) {
      fail("write header of", err);
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

u64 JournalWriter::appended() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

void JournalWriter::append(const JournalRecord& rec) {
  const std::vector<std::byte> frame = encode_journal_frame(rec);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) throw JournalWriteError("journal is closed");

  if (faults_) {
    using JF = fault::DaemonFaultInjector::JournalFault;
    const JF f = faults_->next_journal_append();
    switch (f.kind) {
      case JF::Kind::kNone:
        break;
      case JF::Kind::kEintr:
        // A real EINTR is retried inside write_all; the injected one just
        // exercises that the caller-visible behavior is "append succeeded".
        break;
      case JF::Kind::kTorn: {
        // Persist only a prefix of the frame, exactly what a crash mid-
        // append leaves behind, then report the append as failed.
        const std::size_t keep =
            std::min<std::size_t>(f.keep_bytes, frame.size());
        (void)write_all(fd_, std::span(frame).first(keep));
        throw JournalWriteError("injected torn journal append");
      }
      case JF::Kind::kError:
        throw JournalWriteError(
            f.persistent ? "injected journal write failure (ENOSPC, "
                           "persistent)"
                         : "injected journal write failure (ENOSPC)");
    }
  }

  obs::HostTimer timer;
  const int err = write_all(fd_, frame);
  timer.observe(t_write_);
  if (err != 0) {
    throw JournalWriteError(strfmt("journal append failed: %s",
                                   ::strerror(err)));
  }
  // Write-ahead only means anything if the record is durable before the
  // action it journals; fdatasync (not fsync — the length change rides
  // with the data on ext4/xfs) is the cheapest call with that property.
  timer.restart();
  const int sync_rc = ::fdatasync(fd_);
  timer.observe(t_fsync_);
  if (sync_rc != 0 && errno != EINVAL && errno != EROFS) {
    // EINVAL: fd doesn't support sync (some tmpfs variants) — the write
    // itself succeeded and there is nothing more durable available.
    throw JournalWriteError(strfmt("journal fdatasync failed: %s",
                                   ::strerror(errno)));
  }
  ++appended_;
}

}  // namespace bgp::daemon

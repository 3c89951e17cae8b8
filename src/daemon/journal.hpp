// Write-ahead session journal: the daemon's crash-safe memory of every
// session lifecycle transition. The Service appends one record per
// transition (admit/start/checkpoint/finish/kill/abort) *before* acting on
// it; a restarted daemon replays the journal to re-list finished sessions
// and to find orphans — sessions that were in flight when the process died —
// whose last BGPSNAP checkpoint it salvages into minable dumps.
//
// On-disk layout (single file, append-only):
//
//   header   magic "BGPJRNL\0" + u32 version
//   frame[]  u32 payload_len (> 0) | u32 CRC32 of payload | payload
//            (the length-prefixed frame of common/framing.hpp)
//
// where each payload is one compact JSON object ({"op","session","body"}).
// A crash can tear the final frame (short write) or leave garbage past the
// last fsync — replay walks frames until the first one whose length or CRC
// fails, keeps everything before it, and reports the dropped tail. The
// writer truncates the torn tail on reopen so post-crash appends always
// land on a frame boundary and stay readable.
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "daemon/json.hpp"

namespace bgp::fault {
class DaemonFaultInjector;
}

namespace bgp::obs {
class Histogram;
}

namespace bgp::daemon {

inline constexpr char kJournalMagic[8] = {'B', 'G', 'P', 'J', 'R', 'N', 'L',
                                          '\0'};
inline constexpr u32 kJournalVersion = 1;
/// magic + version.
inline constexpr std::size_t kJournalHeaderBytes = 12;
/// Upper bound on one record's payload; a larger length field means the
/// frame is garbage, not a huge record.
inline constexpr std::size_t kJournalMaxRecordBytes = 1 * MiB;

/// Journal ops, in lifecycle order. `kAbort` is written by *recovery* when
/// it orphans an in-flight session (never by a live run).
namespace journal_op {
inline constexpr const char* kAdmit = "admit";
inline constexpr const char* kStart = "start";
inline constexpr const char* kCheckpoint = "checkpoint";
inline constexpr const char* kFinish = "finish";
inline constexpr const char* kKill = "kill";
inline constexpr const char* kAbort = "abort";
}  // namespace journal_op

struct JournalRecord {
  std::string op;
  std::string session;
  json::Value body;  ///< op-specific payload (object or null)

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static JournalRecord from_json(const json::Value& v);
};

/// The journal file is unusable (foreign magic, unsupported version).
struct JournalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An append could not be persisted (ENOSPC, I/O error, injected fault).
/// The daemon reacts by entering read-only mode, not by crashing.
struct JournalWriteError : JournalError {
  using JournalError::JournalError;
};

/// Result of walking a journal file.
struct JournalReplay {
  std::vector<JournalRecord> records;
  /// Bytes of header + intact frames (the truncation point for a writer).
  std::size_t valid_bytes = 0;
  /// Torn/corrupt tail bytes discarded past valid_bytes.
  std::size_t dropped_bytes = 0;
  /// Why the walk stopped early; empty on a clean end-of-file.
  std::string tail_error;
};

/// Replay a journal. A missing file is an empty journal; a file with a
/// foreign magic or unsupported version throws JournalError (never
/// clobber something that isn't ours), and so does a file shorter than
/// the magic that is not a prefix of it. Torn tails are tolerated and
/// reported, never fatal.
[[nodiscard]] JournalReplay replay_journal(const std::filesystem::path& path);

/// Appending writer. Construction replays any existing journal (exposed
/// via recovered()) and truncates a torn tail so the file ends on a frame
/// boundary. Appends are serialized internally and written as one
/// contiguous frame; on failure the frame is considered not written (a
/// partial frame is exactly what replay tolerates).
class JournalWriter {
 public:
  explicit JournalWriter(std::filesystem::path path,
                         fault::DaemonFaultInjector* faults = nullptr);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Throws JournalWriteError if the record could not be fully persisted.
  /// The frame is written and then fdatasync'd — "persisted" means the
  /// kernel has accepted it for durable storage, not just buffered it.
  void append(const JournalRecord& rec);

  /// Attach host-latency histograms (frame write / fdatasync phases).
  /// Either may be null; observations are in host seconds and bill no
  /// simulated cycles.
  void set_host_timers(obs::Histogram* write_seconds,
                       obs::Histogram* fsync_seconds) noexcept {
    t_write_ = write_seconds;
    t_fsync_ = fsync_seconds;
  }

  [[nodiscard]] const JournalReplay& recovered() const noexcept {
    return recovered_;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] u64 appended() const noexcept;

 private:
  std::filesystem::path path_;
  fault::DaemonFaultInjector* faults_ = nullptr;
  int fd_ = -1;
  JournalReplay recovered_;
  u64 appended_ = 0;
  obs::Histogram* t_write_ = nullptr;
  obs::Histogram* t_fsync_ = nullptr;
  mutable std::mutex mu_;
};

/// Serialize one frame (length + CRC + payload) — exposed for tests that
/// hand-craft journals and corrupt their tails.
[[nodiscard]] std::vector<std::byte> encode_journal_frame(
    const JournalRecord& rec);

}  // namespace bgp::daemon

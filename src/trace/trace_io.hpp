// Streaming reader/writer for the sectioned trace format (traceformat.hpp).
//
// TraceWriter appends to a `.bgpt.partial` file as the ring buffer drains
// and seals it — footer plus atomic rename to `.bgpt` — on clean close, so
// a node that dies mid-run leaves a partial file whose complete chunks are
// still minable. TraceReader walks a sealed or partial file one interval at
// a time, holding at most one chunk in memory, verifying each section's
// CRC; a footer-less tail truncates cleanly instead of erroring.
#pragma once

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "common/binio.hpp"
#include "common/framing.hpp"
#include "trace/traceformat.hpp"

namespace bgp::trace {

class TraceWriter {
 public:
  /// Records buffered before a chunk is committed to disk.
  static constexpr std::size_t kDefaultChunkRecords = 64;

  /// Opens `<base>.bgpt.partial` and writes the header immediately. `base`
  /// is the trace path without either suffix. `chunk_records` is clamped
  /// to 1..kMaxChunkRecords.
  TraceWriter(std::filesystem::path base, TraceMeta meta,
              std::size_t chunk_records = kDefaultChunkRecords);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Buffer one interval record; commits a chunk when the buffer fills.
  void append(const IntervalRecord& record);

  /// Commit buffered records as one chunk (no-op when nothing is buffered).
  void flush();

  /// Flush, write the footer, close and rename `.partial` → `.bgpt`.
  /// Returns the sealed path. The writer is unusable afterwards.
  std::filesystem::path finalize(const TraceTotals& totals);

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] const std::filesystem::path& partial_path() const noexcept {
    return partial_path_;
  }
  [[nodiscard]] const std::filesystem::path& final_path() const noexcept {
    return final_path_;
  }
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] u64 intervals_written() const noexcept {
    return intervals_written_;
  }

 private:
  /// Seal `w`'s section begun at `mark` with its CRC, write and flush it.
  void write_section(BinaryWriter& w, std::size_t mark);
  void put_record(BinaryWriter& w, const IntervalRecord& record) const;

  TraceMeta meta_;
  std::size_t chunk_records_;
  std::filesystem::path partial_path_;
  std::filesystem::path final_path_;
  std::ofstream out_;
  std::vector<IntervalRecord> pending_;
  u64 intervals_written_ = 0;
  bool finalized_ = false;
};

class TraceReader {
 public:
  /// Opens a sealed `.bgpt` or a crashed `.bgpt.partial` and parses the
  /// header (throws BinIoError when the header is damaged — a trace whose
  /// identity cannot be established is unusable).
  explicit TraceReader(const std::filesystem::path& path);

  /// Next interval record, or nullopt at end of trace. Reads at most one
  /// chunk ahead. Throws BinIoError on a corrupt (CRC-mismatched) chunk;
  /// a truncated tail ends the trace cleanly instead.
  std::optional<IntervalRecord> next();

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  /// True once the footer was seen (clean close); totals() is set then.
  [[nodiscard]] bool sealed() const noexcept { return totals_.has_value(); }
  [[nodiscard]] const std::optional<TraceTotals>& totals() const noexcept {
    return totals_;
  }
  /// True when the file ended without a footer (node death / crash): the
  /// complete chunks were returned and the torn tail was discarded.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  [[nodiscard]] u64 records_read() const noexcept { return records_read_; }

 private:
  /// Load the next chunk into chunk_ (or set totals_/truncated_ and leave
  /// it empty). Returns true when records are available.
  bool load_chunk();

  std::filesystem::path path_;
  SectionFileReader in_;
  TraceMeta meta_;
  std::vector<IntervalRecord> chunk_;
  std::size_t chunk_pos_ = 0;
  std::optional<TraceTotals> totals_;
  bool truncated_ = false;
  bool done_ = false;
  u64 records_read_ = 0;
};

}  // namespace bgp::trace

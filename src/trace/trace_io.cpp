#include "trace/trace_io.hpp"

#include <algorithm>
#include <utility>

#include "common/framing.hpp"
#include "common/strfmt.hpp"

namespace bgp::trace {

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(std::filesystem::path base, TraceMeta meta,
                         std::size_t chunk_records)
    : meta_(std::move(meta)),
      chunk_records_(std::clamp<std::size_t>(chunk_records, 1,
                                             kMaxChunkRecords)),
      partial_path_(base.string() + kPartialSuffix),
      final_path_(base.string() + kTraceSuffix) {
  out_.open(partial_path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw BinIoError(
        strfmt("cannot open trace file %s", partial_path_.string().c_str()));
  }
  BinaryWriter w;
  w.put<u32>(kTraceMagic);
  w.put<u32>(kTraceVersion);
  const std::size_t header_begin = w.size();
  w.put<u32>(meta_.node_id);
  w.put<u32>(meta_.card_id);
  w.put<u32>(meta_.counter_mode);
  w.put_string(meta_.app_name);
  w.put<u64>(meta_.interval_cycles);
  w.put<u32>(meta_.pacer_event);
  w.put<u32>(static_cast<u32>(meta_.events.size()));
  for (const isa::EventId ev : meta_.events) w.put<u16>(ev);
  write_section(w, header_begin);
}

TraceWriter::~TraceWriter() {
  // Not finalized: leave the .partial behind, complete chunks intact —
  // exactly what a dead node's trace should look like.
  if (!finalized_ && out_.is_open()) {
    try {
      flush();
    } catch (...) {
      // A failing disk (or a record the format cannot express) must not
      // escalate to std::terminate during unwinding; the trace simply ends
      // at the last committed chunk, like any other crash.
    }
    out_.close();
  }
}

void TraceWriter::put_record(BinaryWriter& w,
                             const IntervalRecord& record) const {
  w.put<u64>(record.index);
  w.put<u32>(record.spanned);
  w.put<u64>(record.t_begin);
  w.put<u64>(record.t_end);
  if (record.values.size() != meta_.events.size()) {
    throw BinIoError(
        strfmt("interval record has %zu values for %zu traced events",
               record.values.size(), meta_.events.size()));
  }
  for (const u64 v : record.values) w.put<u64>(v);
}

void TraceWriter::append(const IntervalRecord& record) {
  if (finalized_) {
    throw BinIoError("append to finalized trace");
  }
  pending_.push_back(record);
  if (pending_.size() >= chunk_records_) flush();
}

void TraceWriter::flush() {
  if (pending_.empty()) return;
  BinaryWriter w;
  w.put<u32>(static_cast<u32>(pending_.size()));
  for (const IntervalRecord& r : pending_) put_record(w, r);
  write_section(w, 0);
  intervals_written_ += pending_.size();
  pending_.clear();
}

std::filesystem::path TraceWriter::finalize(const TraceTotals& totals) {
  if (finalized_) return final_path_;
  flush();
  BinaryWriter w;
  w.put<u32>(0);  // sentinel: no more chunks
  w.put<u64>(totals.intervals);
  w.put<u64>(totals.dropped);
  w.put<u64>(totals.samples);
  w.put<u64>(totals.overhead_cycles);
  write_section(w, 0);
  out_.close();
  if (!out_) {
    throw BinIoError(
        strfmt("error closing trace %s", partial_path_.string().c_str()));
  }
  std::error_code ec;
  std::filesystem::rename(partial_path_, final_path_, ec);
  if (ec) {
    throw BinIoError(strfmt("cannot seal trace %s: %s",
                            final_path_.string().c_str(),
                            ec.message().c_str()));
  }
  finalized_ = true;
  return final_path_;
}

void TraceWriter::write_section(BinaryWriter& w, std::size_t mark) {
  put_section_crc(w, mark);
  out_.write(reinterpret_cast<const char*>(w.buffer().data()),
             static_cast<std::streamsize>(w.size()));
  // Flushed section by section, even though the stream stays open: a node
  // that dies mid-run leaves a .partial whose every section is on disk.
  out_.flush();
  if (!out_) {
    throw BinIoError(
        strfmt("short write to trace %s", partial_path_.string().c_str()));
  }
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::filesystem::path& path)
    : path_(path), in_(path, "trace " + path.string()) {
  const auto take = [this](std::size_t n) {
    std::optional<BinaryReader> r = in_.take(n);
    if (!r) {
      throw BinIoError(
          strfmt("trace %s: truncated header", path_.string().c_str()));
    }
    return *r;
  };

  BinaryReader r = take(2 * sizeof(u32));
  if (r.get<u32>() != kTraceMagic) {
    throw BinIoError(
        strfmt("%s is not a BGPT trace (bad magic)", path_.string().c_str()));
  }
  const u32 version = r.get<u32>();
  if (version != kTraceVersion) {
    throw BinIoError(strfmt("trace %s: unsupported version %u",
                            path_.string().c_str(), version));
  }

  // Everything after magic+version is covered by the header CRC.
  in_.begin_section();
  r = take(4 * sizeof(u32));
  meta_.node_id = r.get<u32>();
  meta_.card_id = r.get<u32>();
  meta_.counter_mode = r.get<u32>();
  const u32 name_len = r.get<u32>();
  r = take(name_len);
  const auto name = r.window(0, name_len);
  meta_.app_name.assign(reinterpret_cast<const char*>(name.data()),
                        name.size());
  r = take(sizeof(u64) + 2 * sizeof(u32));
  meta_.interval_cycles = r.get<u64>();
  meta_.pacer_event = r.get<u32>();
  const u32 event_count = r.get<u32>();
  if (event_count == 0 || event_count > isa::kNumCounterModes * 256u) {
    throw BinIoError(strfmt("trace %s: implausible event count %u",
                            path_.string().c_str(), event_count));
  }
  r = take(event_count * sizeof(u16));
  meta_.events.reserve(event_count);
  for (u32 i = 0; i < event_count; ++i) meta_.events.push_back(r.get<u16>());
  if (!in_.check_section_crc("header")) {
    throw BinIoError(
        strfmt("trace %s: truncated header", path_.string().c_str()));
  }
}

bool TraceReader::load_chunk() {
  chunk_.clear();
  chunk_pos_ = 0;
  if (done_) return false;

  // A section cut short anywhere (count, body or CRC) is the torn tail of
  // a dying node: discard it and end cleanly.
  const auto end_truncated = [this] {
    truncated_ = true;
    done_ = true;
    return false;
  };
  std::optional<BinaryReader> r = in_.take(sizeof(u32));
  if (!r) return end_truncated();
  const u32 count = r->get<u32>();

  if (count == 0) {
    // Footer: totals, CRC over sentinel and totals.
    r = in_.take(4 * sizeof(u64));
    if (!r || !in_.check_section_crc("footer")) return end_truncated();
    TraceTotals& totals = totals_.emplace();
    totals.intervals = r->get<u64>();
    totals.dropped = r->get<u64>();
    totals.samples = r->get<u64>();
    totals.overhead_cycles = r->get<u64>();
    done_ = true;
    return false;
  }

  // No writer commits a chunk this large: the count itself is corrupt.
  if (count > kMaxChunkRecords) {
    throw BinIoError(strfmt("trace %s: implausible chunk of %u records",
                            path_.string().c_str(), count));
  }
  // The body can never be longer than the file: a count past the end reads
  // as a torn chunk before anything is allocated for it.
  const std::size_t record_bytes = sizeof(u64) + sizeof(u32) +
                                   2 * sizeof(u64) +
                                   meta_.events.size() * sizeof(u64);
  r = in_.take(static_cast<std::size_t>(count) * record_bytes);
  if (!r || !in_.check_section_crc("chunk")) return end_truncated();
  chunk_.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    IntervalRecord rec;
    rec.index = r->get<u64>();
    rec.spanned = r->get<u32>();
    rec.t_begin = r->get<u64>();
    rec.t_end = r->get<u64>();
    rec.values.resize(meta_.events.size());
    for (u64& v : rec.values) v = r->get<u64>();
    chunk_.push_back(std::move(rec));
  }
  return true;
}

std::optional<IntervalRecord> TraceReader::next() {
  if (chunk_pos_ >= chunk_.size() && !load_chunk()) {
    return std::nullopt;
  }
  ++records_read_;
  return std::move(chunk_[chunk_pos_++]);
}

}  // namespace bgp::trace

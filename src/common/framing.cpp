#include "common/framing.hpp"

#include <cstring>
#include <utility>

#include "common/crc.hpp"
#include "common/strfmt.hpp"

namespace bgp {

namespace {

[[noreturn]] void throw_mismatch(std::string_view section, u64 begin,
                                 u64 end, u32 stored, u32 computed) {
  throw BinIoError(strfmt(
      "%.*s CRC mismatch over bytes %llu..%llu (stored %08X, computed %08X)",
      static_cast<int>(section.size()), section.data(),
      static_cast<unsigned long long>(begin),
      static_cast<unsigned long long>(end), stored, computed));
}

}  // namespace

void put_section_crc(BinaryWriter& w, std::size_t mark) {
  w.put<u32>(crc32(std::span(w.buffer()).subspan(mark)));
}

void check_section_crc(BinaryReader& r, std::size_t mark,
                       std::string_view section) {
  const u32 computed = crc32(r.window(mark, r.position()));
  const std::size_t crc_at = r.position();
  const u32 stored = r.get<u32>();
  if (stored != computed) {
    throw_mismatch(section, mark, crc_at, stored, computed);
  }
}

SectionFileReader::SectionFileReader(const std::filesystem::path& path,
                                     std::string label)
    : in_(path, std::ios::binary | std::ios::ate), label_(std::move(label)) {
  if (!in_) throw BinIoError("cannot open " + label_);
  size_ = static_cast<u64>(in_.tellg());
  in_.seekg(0);
}

void SectionFileReader::begin_section() noexcept {
  section_begin_ = pos_;
  crc_ = 0;
}

std::optional<BinaryReader> SectionFileReader::take(std::size_t n) {
  if (n > size_ - pos_) return std::nullopt;
  buf_.resize(n);
  in_.read(reinterpret_cast<char*>(buf_.data()),
           static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_.gcount()) != n) {
    pos_ = size_;  // the file shrank: the rest reads as a torn tail
    return std::nullopt;
  }
  pos_ += n;
  crc_ = crc32(buf_, crc_);
  return BinaryReader(buf_);
}

bool SectionFileReader::check_section_crc(std::string_view section) {
  u32 stored = 0;
  if (size_ - pos_ < sizeof(stored) ||
      !in_.read(reinterpret_cast<char*>(&stored), sizeof(stored))) {
    pos_ = size_;
    return false;
  }
  const u64 crc_at = pos_;
  pos_ += sizeof(stored);
  if (stored != crc_) {
    throw_mismatch(label_ + ": " + std::string(section), section_begin_,
                   crc_at, stored, crc_);
  }
  begin_section();
  return true;
}

void encode_frame(std::span<const std::byte> payload, std::byte* out) noexcept {
  const u32 len = static_cast<u32>(payload.size());
  const u32 crc = crc32(payload);
  std::memcpy(out, &len, sizeof(len));
  std::memcpy(out + sizeof(len), &crc, sizeof(crc));
  if (!payload.empty()) {
    std::memcpy(out + kFrameHeaderBytes, payload.data(), payload.size());
  }
}

Frame decode_frame(std::span<const std::byte> bytes,
                   std::size_t max_len) noexcept {
  Frame f;
  if (bytes.size() < kFrameHeaderBytes) return f;
  u32 crc = 0;
  std::memcpy(&f.len, bytes.data(), sizeof(f.len));
  std::memcpy(&crc, bytes.data() + sizeof(f.len), sizeof(crc));
  const auto payload = bytes.subspan(kFrameHeaderBytes);
  if (f.len > max_len) {
    f.status = FrameStatus::kTooLong;
  } else if (f.len > payload.size()) {
    f.status = FrameStatus::kTorn;
  } else if (crc32(payload.first(f.len)) != crc) {
    f.status = FrameStatus::kBadCrc;
  } else {
    f.status = FrameStatus::kOk;
    f.payload = payload.first(f.len);
  }
  return f;
}

}  // namespace bgp

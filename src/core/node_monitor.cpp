#include "core/node_monitor.hpp"

#include <stdexcept>

#include "common/binio.hpp"
#include "common/framing.hpp"
#include "common/strfmt.hpp"
#include "fault/fault.hpp"

namespace bgp::pc {

NodeMonitor::NodeMonitor(sys::Node& node, const Options& options)
    : node_(node),
      options_(options),
      sets_(options.max_sets),
      active_(options.max_sets) {
  for (unsigned s = 0; s < options.max_sets; ++s) {
    sets_[s].set_id = s;
  }
}

void NodeMonitor::initialize() {
  if (initialized_) return;
  mode_ = node_.even_card() ? options_.mode_even_cards
                            : options_.mode_odd_cards;
  auto& upc = node_.upc();
  upc.set_mode(mode_);
  upc.reset_config();
  for (unsigned c = 0; c < upc::UpcUnit::kNumCounters; ++c) {
    upc::CounterConfig cfg;
    cfg.signal = upc::SignalMode::kEdgeRise;
    cfg.enabled = true;
    upc.configure(static_cast<u8>(c), cfg);
  }
  upc.reset_counters();
  if (options_.fault != nullptr) {
    // Injected hardware defect: the victim counters are 32-bit wide and
    // preloaded just below the wrap boundary, so mid-run they overflow and
    // the dump carries a wildly implausible delta for sanity to catch.
    for (const auto& w : options_.fault->counter_wraps(node_.id())) {
      if (w.counter >= upc::UpcUnit::kNumCounters) continue;
      upc.set_counter_width(static_cast<u8>(w.counter), 32);
      upc.write(static_cast<u8>(w.counter), w.preload);
    }
  }
  initialized_ = true;
}

void NodeMonitor::start(unsigned set, cycles_t now) {
  if (!initialized_) {
    throw std::logic_error("BGP_Start before BGP_Initialize");
  }
  if (set >= sets_.size()) {
    throw std::out_of_range(strfmt("set %u out of range", set));
  }
  ActiveSet& act = active_[set];
  if (act.active_starts == 0) {
    act.start_snapshot = node_.upc().snapshot();
    if (sets_[set].pairs == 0 && sets_[set].first_start_cycle == 0) {
      sets_[set].first_start_cycle = now;
    }
    if (unit_users_ == 0) {
      node_.upc().start();
    }
    ++unit_users_;
  }
  ++act.active_starts;
}

void NodeMonitor::stop(unsigned set, cycles_t now) {
  if (set >= sets_.size()) {
    throw std::out_of_range(strfmt("set %u out of range", set));
  }
  ActiveSet& act = active_[set];
  if (act.active_starts == 0) {
    throw std::logic_error(strfmt("BGP_Stop(%u) without matching start", set));
  }
  if (--act.active_starts > 0) return;

  const auto snap = node_.upc().snapshot();
  SetDump& rec = sets_[set];
  for (unsigned c = 0; c < isa::kCountersPerUnit; ++c) {
    rec.deltas[c] += snap[c] - act.start_snapshot[c];
  }
  ++rec.pairs;
  rec.last_stop_cycle = now;
  if (--unit_users_ == 0) {
    node_.upc().stop();
  }
}

void NodeMonitor::force_stop_all(cycles_t now) {
  for (unsigned s = 0; s < active_.size(); ++s) {
    if (active_[s].active_starts == 0) continue;
    // Collapse nested starts to one so a single stop() folds the delta.
    active_[s].active_starts = 1;
    stop(s, now);
  }
}

NodeDump NodeMonitor::finalize() {
  NodeDump dump;
  dump.node_id = node_.id();
  dump.card_id = node_.card_id();
  dump.counter_mode = mode_;
  dump.app_name = options_.app_name;
  for (const SetDump& s : sets_) {
    if (s.pairs > 0) dump.sets.push_back(s);
  }
  return dump;
}

namespace {

/// Serialized size of one set record, excluding the v2 CRC word.
constexpr std::size_t kSetRecordBytes =
    sizeof(u32) * 2 + sizeof(u64) * 2 + sizeof(u64) * isa::kCountersPerUnit;

}  // namespace

std::vector<std::byte> NodeMonitor::serialize(const NodeDump& dump,
                                              u32 version) {
  // A recovery log needs the v3 section; fault-free dumps stay at the
  // caller's version so their bytes are unchanged from pre-FT builds.
  if (!dump.recovery.empty() && version == kDumpVersion) {
    version = kDumpVersionFt;
  }
  if (version != kDumpVersionLegacy && version != kDumpVersion &&
      version != kDumpVersionFt) {
    throw BinIoError(strfmt("cannot write BGPC dump version %u", version));
  }
  if (!dump.recovery.empty() && version < kDumpVersionFt) {
    throw BinIoError(
        strfmt("dump version %u cannot carry %zu recovery event(s)", version,
               dump.recovery.size()));
  }
  BinaryWriter w;
  w.put<u32>(kDumpMagic);
  w.put<u32>(version);
  const std::size_t header_begin = w.size();
  w.put<u32>(dump.node_id);
  w.put<u32>(dump.card_id);
  w.put<u32>(dump.counter_mode);
  w.put_string(dump.app_name);
  w.put<u32>(static_cast<u32>(dump.sets.size()));
  if (version >= 2) put_section_crc(w, header_begin);
  for (const SetDump& s : dump.sets) {
    const std::size_t set_begin = w.size();
    w.put<u32>(s.set_id);
    w.put<u32>(s.pairs);
    w.put<u64>(s.first_start_cycle);
    w.put<u64>(s.last_stop_cycle);
    for (u64 d : s.deltas) w.put<u64>(d);
    if (version >= 2) put_section_crc(w, set_begin);
  }
  if (version >= kDumpVersionFt) {
    const std::size_t rec_begin = w.size();
    w.put<u32>(static_cast<u32>(dump.recovery.size()));
    for (const ft::RecoveryEvent& e : dump.recovery) {
      w.put<u32>(static_cast<u32>(e.kind));
      w.put<u32>(e.node);
      w.put<u32>(e.rank);
      w.put<u64>(e.cycle);
      w.put<u64>(e.cost);
      w.put<u64>(e.aux);
    }
    put_section_crc(w, rec_begin);
  }
  return w.buffer();
}

NodeDump NodeMonitor::parse(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  if (r.get<u32>() != kDumpMagic) {
    throw BinIoError("not a BGPC dump (bad magic)");
  }
  const u32 version = r.get<u32>();
  if (version != kDumpVersionLegacy && version != kDumpVersion &&
      version != kDumpVersionFt) {
    throw BinIoError(strfmt("unsupported BGPC dump version %u", version));
  }
  const bool checksummed = version >= 2;

  NodeDump dump;
  const std::size_t header_begin = r.position();
  dump.node_id = r.get<u32>();
  dump.card_id = r.get<u32>();
  dump.counter_mode = r.get<u32>();
  if (dump.counter_mode >= isa::kNumCounterModes) {
    throw BinIoError("corrupt dump: counter mode out of range");
  }
  dump.app_name = r.get_string();
  const u32 nsets = r.get<u32>();
  if (checksummed) check_section_crc(r, header_begin, "header");

  const std::size_t per_set =
      kSetRecordBytes + (checksummed ? sizeof(u32) : 0);
  r.need(u64{nsets} * per_set, "corrupt dump: sets");
  dump.sets.resize(nsets);
  for (std::size_t i = 0; i < nsets; ++i) {
    SetDump& s = dump.sets[i];
    const std::size_t set_begin = r.position();
    s.set_id = r.get<u32>();
    s.pairs = r.get<u32>();
    s.first_start_cycle = r.get<u64>();
    s.last_stop_cycle = r.get<u64>();
    for (u64& d : s.deltas) d = r.get<u64>();
    if (checksummed) check_section_crc(r, set_begin, strfmt("set %zu", i));
  }
  if (version >= kDumpVersionFt) {
    constexpr std::size_t kRecoveryRecordBytes =
        sizeof(u32) * 3 + sizeof(u64) * 3;
    const std::size_t rec_begin = r.position();
    const u32 nrec = r.get<u32>();
    r.need(u64{nrec} * kRecoveryRecordBytes + sizeof(u32),
           "corrupt dump: recovery events");
    dump.recovery.resize(nrec);
    for (ft::RecoveryEvent& e : dump.recovery) {
      const u32 kind = r.get<u32>();
      if (kind > static_cast<u32>(ft::RecoveryKind::kShrink)) {
        throw BinIoError(
            strfmt("corrupt dump: unknown recovery event kind %u", kind));
      }
      e.kind = static_cast<ft::RecoveryKind>(kind);
      e.node = r.get<u32>();
      e.rank = r.get<u32>();
      e.cycle = r.get<u64>();
      e.cost = r.get<u64>();
      e.aux = r.get<u64>();
    }
    check_section_crc(r, rec_begin, "recovery");
  }
  if (!r.at_end()) {
    throw BinIoError("corrupt dump: trailing bytes");
  }
  return dump;
}

}  // namespace bgp::pc

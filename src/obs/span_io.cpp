#include "obs/span_io.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/strfmt.hpp"
#include "obs/obs.hpp"

namespace bgp::obs {

namespace {

/// Span names are single tokens in the file format.
std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return out.empty() ? std::string("_") : out;
}

[[noreturn]] void malformed(const std::filesystem::path& path,
                            const char* what) {
  throw std::runtime_error(
      strfmt("%s: malformed span file (%s)", path.string().c_str(), what));
}

}  // namespace

std::filesystem::path span_file_path(const std::filesystem::path& dir,
                                     std::string_view app, unsigned node) {
  return dir / strfmt("%s.node%04u.bgps", std::string(app).c_str(), node);
}

void write_span_file(const std::filesystem::path& path, std::string_view app,
                     unsigned node, std::span<const SpanRec> spans,
                     std::span<const InstantRec> instants, u64 dropped) {
  std::string text =
      strfmt("bgpspans %u %s node=%u spans=%zu instants=%zu dropped=%llu\n",
             kSpanFormatVersion, sanitize(app).c_str(), node, spans.size(),
             instants.size(), static_cast<unsigned long long>(dropped));
  for (const SpanRec& s : spans) {
    text += strfmt("S %s %s %u %u %llu %llu %llu %llu\n",
                   sanitize(s.name).c_str(),
                   std::string(to_string(s.cat)).c_str(), s.core, s.depth,
                   static_cast<unsigned long long>(s.begin_cycles),
                   static_cast<unsigned long long>(s.end_cycles),
                   static_cast<unsigned long long>(s.begin_host_ns),
                   static_cast<unsigned long long>(s.end_host_ns));
  }
  for (const InstantRec& i : instants) {
    text += strfmt("I %s %s %u %llu %llu\n", sanitize(i.name).c_str(),
                   std::string(to_string(i.cat)).c_str(), i.core,
                   static_cast<unsigned long long>(i.cycles),
                   static_cast<unsigned long long>(i.host_ns));
  }
  write_file_bytes(path, std::as_bytes(std::span(text)));
}

void write_span_file(const std::filesystem::path& path, std::string_view app,
                     unsigned node, const FlightRecorder& fr) {
  u64 dropped = 0;
  for (unsigned c = 0; c < fr.cores_per_node(); ++c) {
    dropped += fr.rank(node, c).spans_dropped() +
               fr.rank(node, c).instants_dropped();
  }
  const auto spans = fr.node_spans(node);
  const auto instants = fr.node_instants(node);
  write_span_file(path, app, node, spans, instants, dropped);
}

SpanFile load_span_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(
        strfmt("cannot open %s", path.string().c_str()));
  }
  SpanFile out;
  std::string line;
  if (!std::getline(in, line)) malformed(path, "empty file");
  {
    std::istringstream hdr(line);
    std::string magic;
    unsigned version = 0;
    std::string node_kv, spans_kv, instants_kv, dropped_kv;
    hdr >> magic >> version >> out.app >> node_kv >> spans_kv >> instants_kv >>
        dropped_kv;
    if (!hdr || magic != "bgpspans") malformed(path, "bad header");
    if (version != kSpanFormatVersion) malformed(path, "unknown version");
    if (node_kv.rfind("node=", 0) != 0 || dropped_kv.rfind("dropped=", 0) != 0) {
      malformed(path, "bad header fields");
    }
    out.node = static_cast<unsigned>(std::stoul(node_kv.substr(5)));
    out.dropped = std::stoull(dropped_kv.substr(8));
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream rec(line);
    std::string tag, name, cat_text;
    rec >> tag >> name >> cat_text;
    SpanCat cat;
    if (!rec || !parse_span_cat(cat_text, cat)) malformed(path, "bad record");
    if (tag == "S") {
      SpanRec s;
      s.name = name;
      s.cat = cat;
      s.node = out.node;
      unsigned long long bc = 0, ec = 0, bns = 0, ens = 0;
      rec >> s.core >> s.depth >> bc >> ec >> bns >> ens;
      if (!rec) malformed(path, "bad span record");
      s.begin_cycles = bc;
      s.end_cycles = ec;
      s.begin_host_ns = bns;
      s.end_host_ns = ens;
      out.spans.push_back(std::move(s));
    } else if (tag == "I") {
      InstantRec i;
      i.name = name;
      i.cat = cat;
      i.node = out.node;
      unsigned long long c = 0, ns = 0;
      rec >> i.core >> c >> ns;
      if (!rec) malformed(path, "bad instant record");
      i.cycles = c;
      i.host_ns = ns;
      out.instants.push_back(std::move(i));
    } else {
      malformed(path, "unknown record tag");
    }
  }
  return out;
}

SpanSet load_span_dir(const std::filesystem::path& dir, std::string_view app) {
  std::vector<std::filesystem::path> paths;
  const std::string prefix = std::string(app) + ".node";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string fname = entry.path().filename().string();
    if (entry.path().extension() == ".bgps" && fname.rfind(prefix, 0) == 0) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  SpanSet out;
  for (const auto& path : paths) {
    SpanFile file = load_span_file(path);
    out.nodes.push_back(file.node);
    out.dropped += file.dropped;
    out.spans.insert(out.spans.end(),
                     std::make_move_iterator(file.spans.begin()),
                     std::make_move_iterator(file.spans.end()));
    out.instants.insert(out.instants.end(),
                        std::make_move_iterator(file.instants.begin()),
                        std::make_move_iterator(file.instants.end()));
  }
  std::sort(out.nodes.begin(), out.nodes.end());
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     if (a.begin_cycles != b.begin_cycles) {
                       return a.begin_cycles < b.begin_cycles;
                     }
                     return a.depth < b.depth;
                   });
  std::stable_sort(out.instants.begin(), out.instants.end(),
                   [](const InstantRec& a, const InstantRec& b) {
                     if (a.node != b.node) return a.node < b.node;
                     if (a.core != b.core) return a.core < b.core;
                     return a.cycles < b.cycles;
                   });
  return out;
}

std::vector<ProfileRow> self_profile(std::span<const SpanRec> spans) {
  std::map<std::string, ProfileRow> by_name;
  for (const SpanRec& s : spans) {
    ProfileRow& row = by_name[s.name];
    if (row.calls == 0) {
      row.name = s.name;
      row.cat = s.cat;
    }
    ++row.calls;
    row.cycles +=
        s.end_cycles > s.begin_cycles ? s.end_cycles - s.begin_cycles : 0;
    row.host_ns +=
        s.end_host_ns > s.begin_host_ns ? s.end_host_ns - s.begin_host_ns : 0;
  }
  std::vector<ProfileRow> rows;
  rows.reserve(by_name.size());
  for (auto& [_, row] : by_name) rows.push_back(std::move(row));
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ProfileRow& a, const ProfileRow& b) {
                     if (a.cycles != b.cycles) return a.cycles > b.cycles;
                     return a.name < b.name;
                   });
  return rows;
}

}  // namespace bgp::obs

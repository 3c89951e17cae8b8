// End-to-end daemon scenario, in-process: four concurrent sessions over the
// control socket, one killed mid-run, one live-attached through its
// snapshot file while it runs, /metrics scraped over real HTTP throughout,
// then a graceful drain that exits clean with every surviving dump sealed.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "daemon/attach.hpp"
#include "daemon/daemon.hpp"
#include "daemon/snapfile.hpp"
#include "obs/promtext.hpp"

namespace fs = std::filesystem;

namespace bgp::daemon {
namespace {

fs::path test_dir() {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir =
      fs::temp_directory_path() / (std::string("bgpcd_itg_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:`port`; returns the body and
/// stores the status line + headers in `head`.
std::string http_get(unsigned short port, const std::string& path,
                     std::string* head = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect to port " << port;
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string all;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) all.append(buf, size_t(n));
  ::close(fd);
  const std::size_t split = all.find("\r\n\r\n");
  EXPECT_NE(split, std::string::npos) << "no header/body split in: " << all;
  if (head != nullptr) *head = all.substr(0, split);
  return split == std::string::npos ? "" : all.substr(split + 4);
}

json::Value submit(const fs::path& sock, const std::string& job_json) {
  json::Value req = json::Value::object();
  req.set("cmd", json::Value("submit"));
  req.set("job", json::Value::parse(job_json));
  return control_request(sock, req);
}

json::Value command(const fs::path& sock, const char* cmd,
                    const std::string& session = "") {
  json::Value req = json::Value::object();
  req.set("cmd", json::Value(cmd));
  if (!session.empty()) req.set("session", json::Value(session));
  return control_request(sock, req);
}

std::string session_state(const fs::path& sock, const std::string& name) {
  const json::Value resp = command(sock, "status", name);
  if (!resp.get("ok")->as_bool()) return "<" + std::string("not_found") + ">";
  return resp.get("session")->get("state")->as_string();
}

std::string wait_terminal(const fs::path& sock, const std::string& name) {
  for (int i = 0; i < 60'000; ++i) {
    const std::string st = session_state(sock, name);
    if (st != "queued" && st != "running") return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << name << " never reached a terminal state";
  return "timeout";
}

TEST(DaemonIntegration, FourSessionsKillAttachScrapeDrain) {
  const fs::path dir = test_dir();
  DaemonConfig cfg;
  cfg.service.work_dir = dir;
  cfg.service.quotas.max_sessions = 4;
  Daemon d(cfg);
  const fs::path sock = d.socket_path();
  const unsigned short port = d.http_port();
  ASSERT_NE(port, 0);

  // Liveness before anything runs.
  EXPECT_EQ(http_get(port, "/healthz"), "ok\n");
  const json::Value pong = command(sock, "ping");
  EXPECT_TRUE(pong.get("ok")->as_bool());
  EXPECT_FALSE(pong.get("draining")->as_bool());

  // Four concurrent sessions: two slow class-W runs (the kill victim and
  // the live-attach target) and two quick verifiable EP runs.
  const json::Value victim = submit(
      sock,
      R"({"session":"victim","bench":"CG","class":"W","nodes":4,"trace":true})");
  ASSERT_TRUE(victim.get("ok")->as_bool()) << victim.dump();
  const json::Value attachee = submit(
      sock,
      R"({"session":"attachee","bench":"CG","class":"W","nodes":2,)"
      R"("snapshot_period_cycles":50000})");
  ASSERT_TRUE(attachee.get("ok")->as_bool()) << attachee.dump();
  for (const char* job :
       {R"({"session":"quick1","bench":"EP","class":"S","nodes":2})",
        R"({"session":"quick2","bench":"EP","class":"S","nodes":2})"}) {
    const json::Value resp = submit(sock, job);
    ASSERT_TRUE(resp.get("ok")->as_bool()) << resp.dump();
  }

  // All four were admitted microseconds ago and are live: a fifth submit
  // must bounce with a structured quota error and touch nothing.
  const json::Value over = submit(sock, R"({"bench":"EP","class":"S"})");
  EXPECT_FALSE(over.get("ok")->as_bool());
  EXPECT_EQ(over.get("error")->get("code")->as_string(),
            "over_quota_sessions");

  // Scrape /metrics over real HTTP while everything runs.
  {
    std::string head;
    const std::string body = http_get(port, "/metrics", &head);
    EXPECT_NE(head.find("200"), std::string::npos);
    EXPECT_NE(head.find("version=0.0.4"), std::string::npos);
    const auto samples = obs::parse_prometheus(body);  // throws if malformed
    EXPECT_EQ(samples.at("bgpcd_sessions_admitted_total"), 4.0);
    EXPECT_EQ(
        samples.at("bgpcd_sessions_rejected_total{reason=\"over_quota_"
                   "sessions\"}"),
        1.0);
  }
  // /sessions lists all four.
  {
    const json::Value sessions =
        json::Value::parse(http_get(port, "/sessions"));
    EXPECT_EQ(sessions.items().size(), 4u);
  }

  // Live attach: wait for the attachee's snapshot file, then watch it until
  // a mid-run (counting) publication lands.
  const fs::path snap_path = attachee.get("snapshot")->as_string();
  bool saw_live = false;
  for (int i = 0; i < 60'000 && !saw_live; ++i) {
    if (fs::exists(snap_path)) {
      AttachView view = attach_file(snap_path);
      EXPECT_EQ(view.session, "attachee");
      EXPECT_EQ(view.app, "CG");
      for (const NodeSnapshot& snap : view.nodes) {
        if (snap.state == SnapState::kCounting && snap.published_cycle > 0) {
          saw_live = true;
          // A mid-run snapshot carries real counter content.
          u64 total = 0;
          for (const u64 c : snap.counters) total += c;
          EXPECT_GT(total, 0u);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(saw_live) << "never observed a live mid-run snapshot";

  // Mid-flight means every victim node is counting: a kill that lands
  // before some node's rank initialized leaves that node no dump or trace
  // to seal, which a loaded host makes likely.
  const fs::path victim_snap = victim.get("snapshot")->as_string();
  bool victim_live = false;
  for (int i = 0; i < 60'000 && !victim_live; ++i) {
    if (fs::exists(victim_snap)) {
      const AttachView view = attach_file(victim_snap);
      unsigned counting = 0;
      for (const NodeSnapshot& snap : view.nodes) {
        if (snap.state == SnapState::kCounting && snap.published_cycle > 0) {
          ++counting;
        }
      }
      victim_live = counting == 4;
    }
    if (!victim_live) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(victim_live) << "victim never had all four nodes counting";

  // Kill the victim mid-flight; it checkpoints and seals.
  const json::Value killed = command(sock, "kill", "victim");
  ASSERT_TRUE(killed.get("ok")->as_bool()) << killed.dump();
  EXPECT_EQ(wait_terminal(sock, "victim"), "killed");

  // The quick sessions finish verified, unaffected by the kill next door.
  for (const char* name : {"quick1", "quick2"}) {
    EXPECT_EQ(wait_terminal(sock, name), "finished");
    const json::Value st = command(sock, "status", name);
    EXPECT_TRUE(st.get("session")->get("verified")->as_bool());
    EXPECT_EQ(st.get("session")->get("dump_files")->as_u64(), 2u);
  }

  // Shorten the drain: stop the attachee too (checkpoints like the victim).
  ASSERT_TRUE(command(sock, "kill", "attachee").get("ok")->as_bool());
  EXPECT_EQ(wait_terminal(sock, "attachee"), "killed");

  // Host self-characterization: after this workload, every host-latency
  // histogram family on /metrics has a non-zero _count and a computable
  // p99. (The extra scrape first guarantees at least one completed
  // /metrics request has been observed into the scrape family.)
  std::string final_metrics;
  {
    (void)http_get(port, "/metrics");
    const std::string body = http_get(port, "/metrics");
    final_metrics = body;
    const auto hists = obs::parse_prometheus_histograms(body);
    const char* keys[] = {
        "bgpcd_control_request_seconds{phase=\"parse\"}",
        "bgpcd_control_request_seconds{phase=\"dispatch\"}",
        "bgpcd_control_request_seconds{phase=\"respond\"}",
        "bgpcd_journal_append_seconds{phase=\"write\"}",
        "bgpcd_journal_append_seconds{phase=\"fsync\"}",
        "bgpcd_snapshot_publish_seconds",
        "bgpcd_session_queue_wait_seconds",
        "bgpcd_http_request_seconds{path=\"/metrics\"}",
    };
    for (const char* key : keys) {
      ASSERT_TRUE(hists.count(key)) << key << " missing from:\n" << body;
      EXPECT_GT(hists.at(key).count, 0u) << key;
      EXPECT_FALSE(std::isnan(obs::histogram_quantile(hists.at(key), 0.99)))
          << key;
    }
    const auto samples = obs::parse_prometheus(body);
    EXPECT_GE(samples.at("bgpcd_uptime_seconds"), 0.0);
    bool build_info = false;
    for (const auto& [key, value] : samples) {
      if (key.rfind("bgpcd_build_info{", 0) == 0) {
        build_info = true;
        EXPECT_EQ(value, 1.0);
        EXPECT_NE(key.find("version="), std::string::npos);
        EXPECT_NE(key.find("compiler="), std::string::npos);
      }
    }
    EXPECT_TRUE(build_info) << body;
  }

  // Drain: admissions close immediately, the surfaces stay up until
  // run_until_drained() finishes the shutdown.
  ASSERT_TRUE(command(sock, "drain").get("ok")->as_bool());
  EXPECT_EQ(http_get(port, "/healthz"), "draining\n");
  const json::Value refused = submit(sock, R"({"bench":"EP","class":"S"})");
  EXPECT_FALSE(refused.get("ok")->as_bool());
  EXPECT_EQ(refused.get("error")->get("code")->as_string(), "draining");

  EXPECT_EQ(d.run_until_drained(), 0u);  // nothing failed: clean exit

  // Post-mortem on disk: every session left sealed, non-empty artifacts.
  for (const char* name : {"victim", "attachee", "quick1", "quick2"}) {
    unsigned dumps = 0;
    for (const auto& entry : fs::directory_iterator(dir / name)) {
      if (entry.path().extension() == ".bgpc") {
        ++dumps;
        EXPECT_GT(fs::file_size(entry.path()), 0u);
      }
    }
    EXPECT_GT(dumps, 0u) << name;
  }
  // The victim traced: its seal must have produced .bgpt files.
  unsigned traces = 0;
  for (const auto& entry : fs::directory_iterator(dir / "victim")) {
    if (entry.path().extension() == ".bgpt") ++traces;
  }
  EXPECT_EQ(traces, 4u);
  // Final snapshots readable for everyone.
  for (const char* name : {"victim", "attachee", "quick1", "quick2"}) {
    AttachView view = attach_file(dir / name / "counters.bgpsnap");
    EXPECT_TRUE(view.unreadable.empty());
    EXPECT_TRUE(view.final_only) << name;
  }

  // CI artifact export: the post-workload /metrics scrape and the complete
  // host event log, uploaded from the daemon lane.
  if (const char* dest = std::getenv("BGPC_DAEMON_ARTIFACT_DIR")) {
    fs::create_directories(dest);
    std::ofstream(fs::path(dest) / "final_metrics.prom") << final_metrics;
    if (fs::exists(dir / "events.jsonl")) {
      fs::copy_file(dir / "events.jsonl", fs::path(dest) / "events.jsonl",
                    fs::copy_options::overwrite_existing);
    }
  }
}

TEST(DaemonIntegration, HostEventsCarryCorrelationIdsEndToEnd) {
  const fs::path dir = test_dir();
  DaemonConfig cfg;
  cfg.service.work_dir = dir;
  Daemon d(cfg);
  const fs::path sock = d.socket_path();
  const unsigned short port = d.http_port();

  const json::Value resp =
      submit(sock, R"({"session":"traced","bench":"EP","class":"S","nodes":2})");
  ASSERT_TRUE(resp.get("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(wait_terminal(sock, "traced"), "finished");

  // /debug/events serves the live flight ring as NDJSON: every line is a
  // well-formed event with the fixed schema prefix, and the session
  // lifecycle (admit -> start -> finish) is all there.
  std::string head;
  const std::string ndjson = http_get(port, "/debug/events", &head);
  EXPECT_NE(head.find("application/x-ndjson"), std::string::npos) << head;
  std::string admit_req;
  std::map<std::string, int> seen;
  std::istringstream in(ndjson);
  for (std::string line; std::getline(in, line);) {
    ASSERT_FALSE(line.empty());
    const json::Value ev = json::Value::parse(line);  // throws if torn
    ASSERT_NE(ev.get("ts_ns"), nullptr) << line;
    ASSERT_NE(ev.get("level"), nullptr) << line;
    ASSERT_NE(ev.get("event"), nullptr) << line;
    const std::string& name = ev.get("event")->as_string();
    ++seen[name];
    if (name == "session_admit") {
      ASSERT_NE(ev.get("req"), nullptr) << line;
      admit_req = ev.get("req")->as_string();
      EXPECT_EQ(ev.get("session")->as_string(), "traced");
    }
  }
  EXPECT_GE(seen["daemon_start"], 1);
  EXPECT_GE(seen["session_admit"], 1);
  EXPECT_GE(seen["session_start"], 1);
  EXPECT_GE(seen["session_finish"], 1);

  // The correlation ID minted by the control server ("rNNNNNN") threads
  // through: the admit event, the control_request event for the submit,
  // and the journal's admit record all carry the same id — one grep
  // reconstructs the request's whole path through the daemon.
  ASSERT_FALSE(admit_req.empty());
  EXPECT_EQ(admit_req[0], 'r');
  std::map<std::string, int> req_events;
  {
    std::ifstream events(dir / "events.jsonl");
    ASSERT_TRUE(events.is_open());
    for (std::string line; std::getline(events, line);) {
      const json::Value ev = json::Value::parse(line);
      const json::Value* req = ev.get("req");
      if (req != nullptr && req->as_string() == admit_req) {
        ++req_events[ev.get("event")->as_string()];
      }
    }
  }
  EXPECT_GE(req_events["session_admit"], 1);
  EXPECT_GE(req_events["control_request"], 1);
  {
    std::ifstream journal(dir / "bgpcd.journal", std::ios::binary);
    ASSERT_TRUE(journal.is_open());
    std::stringstream buf;
    buf << journal.rdbuf();
    EXPECT_NE(buf.str().find("\"req\":\"" + admit_req + "\""),
              std::string::npos)
        << "journal admit record lost the correlation id";
  }

  d.begin_drain();
  EXPECT_EQ(d.run_until_drained(), 0u);
}

TEST(DaemonIntegration, ControlProtocolErrorsAreStructured) {
  DaemonConfig cfg;
  cfg.service.work_dir = test_dir();
  Daemon d(cfg);
  const fs::path sock = d.socket_path();

  {  // not JSON at all → bad_request, connection survives per line
    const json::Value resp =
        control_request(sock, json::Value::parse(R"({"cmd":"status"})"));
    EXPECT_FALSE(resp.get("ok")->as_bool());
    EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_request");
  }
  {  // unknown session
    const json::Value resp = command(sock, "status", "ghost");
    EXPECT_EQ(resp.get("error")->get("code")->as_string(), "not_found");
  }
  {  // unknown command
    const json::Value resp = command(sock, "reboot");
    EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_request");
  }
  {  // malformed job spec: named key in the detail
    const json::Value resp = submit(sock, R"({"bench":"nope"})");
    EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_request");
    EXPECT_NE(resp.get("error")->get("detail")->as_string().find("bench"),
              std::string::npos);
  }
  d.begin_drain();
  EXPECT_EQ(d.run_until_drained(), 0u);
}

}  // namespace
}  // namespace bgp::daemon

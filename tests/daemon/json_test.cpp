// The control-protocol JSON value: parse/dump round trips, strict error
// reporting, and the JobSpec wire form (unknown keys and bad values are
// structured errors, never silent defaults).
#include <gtest/gtest.h>

#include "daemon/jobspec.hpp"
#include "daemon/json.hpp"

namespace bgp::daemon {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::Value::parse("null").is_null());
  EXPECT_TRUE(json::Value::parse("true").as_bool());
  EXPECT_FALSE(json::Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json::Value::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(json::Value::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
  EXPECT_EQ(json::Value::parse("18014398509481984").as_u64(),
            u64{18014398509481984});
}

TEST(Json, ParsesNestedStructures) {
  const json::Value v =
      json::Value::parse(R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_TRUE(a->items()[2].get("b")->as_bool());
  EXPECT_TRUE(v.get("c")->get("d")->is_null());
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Json, DumpRoundTripsAndKeepsMemberOrder) {
  const char* text = R"({"z":1,"a":[true,null,"x"],"m":{"k":2.5}})";
  const json::Value v = json::Value::parse(text);
  EXPECT_EQ(v.dump(), text);  // insertion order, compact integers
  const json::Value again = json::Value::parse(v.dump());
  EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, EscapesControlCharactersOnDump) {
  json::Value v = json::Value::object();
  v.set("s", json::Value(std::string("a\tb\x01" "c")));
  EXPECT_EQ(v.dump(), "{\"s\":\"a\\tb\\u0001c\"}");
  EXPECT_EQ(json::Value::parse(v.dump()).get("s")->as_string(),
            "a\tb\x01" "c");
}

TEST(Json, DecodesUnicodeEscapes) {
  EXPECT_EQ(json::Value::parse("\"\\u00e9\\u20ac\"").as_string(),
            "\xc3\xa9\xe2\x82\xac");  // é €
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  try {
    (void)json::Value::parse("{\"a\": tru}");
    FAIL() << "expected JsonError";
  } catch (const json::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW((void)json::Value::parse(""), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("{\"a\":1} junk"), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("[1,]"), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("\"unterminated"), json::JsonError);
}

TEST(Json, TypeMismatchesThrow) {
  const json::Value v = json::Value::parse("{\"n\":-1}");
  EXPECT_THROW((void)v.get("n")->as_u64(), json::JsonError);
  EXPECT_THROW((void)v.get("n")->as_string(), json::JsonError);
  EXPECT_THROW((void)v.get("n")->as_bool(), json::JsonError);
  EXPECT_THROW((void)json::Value::parse("1.5").as_u64(), json::JsonError);
}

TEST(JobSpec, RoundTripsThroughJson) {
  JobSpec spec;
  spec.session = "night-run.7";
  spec.bench = nas::Benchmark::kLU;
  spec.cls = nas::ProblemClass::kW;
  spec.nodes = 8;
  spec.mode = sys::OpMode::kDual;
  spec.ranks = 12;
  spec.deaths = 2;
  spec.fault_seed = 99;
  spec.ftp.enabled = true;
  spec.trace = true;
  spec.interval_cycles = 5000;
  spec.obs = true;
  spec.snapshot_period_cycles = 100'000;

  const JobSpec back = JobSpec::from_json(spec.to_json());
  EXPECT_EQ(back.session, spec.session);
  EXPECT_EQ(back.bench, spec.bench);
  EXPECT_EQ(back.cls, spec.cls);
  EXPECT_EQ(back.nodes, spec.nodes);
  EXPECT_EQ(back.mode, spec.mode);
  EXPECT_EQ(back.ranks, spec.ranks);
  EXPECT_EQ(back.deaths, spec.deaths);
  EXPECT_EQ(back.fault_seed, spec.fault_seed);
  EXPECT_EQ(back.ftp.enabled, spec.ftp.enabled);
  EXPECT_EQ(back.trace, spec.trace);
  EXPECT_EQ(back.interval_cycles, spec.interval_cycles);
  EXPECT_EQ(back.obs, spec.obs);
  ASSERT_TRUE(back.snapshot_period_cycles.has_value());
  EXPECT_EQ(*back.snapshot_period_cycles, *spec.snapshot_period_cycles);
}

TEST(JobSpec, RejectsUnknownKeysAndBadValues) {
  const auto parse = [](const char* text) {
    return JobSpec::from_json(json::Value::parse(text));
  };
  EXPECT_THROW((void)parse(R"({"bennch":"CG"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"bench":"XX"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"nodes":0})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"sched":"turbo"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"session":".hidden"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"session":"a/b"})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"interval_cycles":0})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"preset":"nope"})"), json::JsonError);
  // Ranks beyond the partition's capacity (4 nodes VNM = 16).
  EXPECT_THROW((void)parse(R"({"nodes":4,"ranks":17})"), json::JsonError);
  EXPECT_THROW((void)parse(R"(["not","an","object"])"), json::JsonError);
}

// Journals written before the dispatcher became one loop carry "sched"
// (and sometimes "jobs"): both keys are still validated, then ignored.
TEST(JobSpec, RetiredSchedulerKeysParseToTheSameRun) {
  const auto parse = [](const char* text) {
    return JobSpec::from_json(json::Value::parse(text));
  };
  const JobSpec with = parse(
      R"({"bench":"MG","nodes":8,"sched":"parallel","jobs":4,"deaths":2})");
  const JobSpec without = parse(R"({"bench":"MG","nodes":8,"deaths":2})");
  EXPECT_EQ(with.to_json().dump(), without.to_json().dump());

  const nas::RunConfig a = with.run_config("dir");
  const nas::RunConfig b = without.run_config("dir");
  EXPECT_EQ(a.bench, b.bench);
  EXPECT_EQ(a.machine.num_nodes, b.machine.num_nodes);
  EXPECT_EQ(a.machine.sched, b.machine.sched);
  EXPECT_EQ(a.machine.jobs, b.machine.jobs);
  EXPECT_EQ(a.fault.events().size(), b.fault.events().size());

  EXPECT_NO_THROW((void)parse(R"({"sched":"serial"})"));
  EXPECT_THROW((void)parse(R"({"jobs":-1})"), json::JsonError);
  EXPECT_THROW((void)parse(R"({"jobs":"4"})"), json::JsonError);
}

TEST(JobSpec, EffectiveRanksFollowsModeAndOverride) {
  JobSpec spec;
  spec.nodes = 4;
  spec.mode = sys::OpMode::kVnm;
  EXPECT_EQ(spec.effective_ranks(), 16u);
  spec.mode = sys::OpMode::kSmp1;
  EXPECT_EQ(spec.effective_ranks(), 4u);
  spec.ranks = 3;
  EXPECT_EQ(spec.effective_ranks(), 3u);
}

TEST(JobSpec, ResidentEstimateScalesWithPartition) {
  JobSpec small, big;
  small.nodes = 2;
  big.nodes = 32;
  EXPECT_LT(estimate_resident_bytes(small), estimate_resident_bytes(big));
  EXPECT_GT(estimate_resident_bytes(small), 0u);
}

TEST(JobSpec, SessionNameValidation) {
  EXPECT_TRUE(valid_session_name("run-1.A_b"));
  EXPECT_FALSE(valid_session_name(""));
  EXPECT_FALSE(valid_session_name(".dot"));
  EXPECT_FALSE(valid_session_name("a b"));
  EXPECT_FALSE(valid_session_name("a/b"));
  EXPECT_FALSE(valid_session_name(std::string(65, 'x')));
}

}  // namespace
}  // namespace bgp::daemon

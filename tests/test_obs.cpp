// Unit tests for the observability layer: registry instruments under
// concurrency, histogram percentiles, tracer buffering and overflow, the
// disabled-path no-ops, JSON helpers, and the pluggable log sink.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace swallow::obs {
namespace {

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Registry registry;
  Counter& counter = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::jthread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      for (int j = 0; j < kPerThread; ++j) counter.add();
    });
  threads.clear();  // join
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  // Same name resolves to the same instrument.
  EXPECT_EQ(registry.counter("hits").value(), kThreads * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  Registry registry;
  registry.gauge("temp").set(1.5);
  registry.gauge("temp").set(-3.25);
  EXPECT_DOUBLE_EQ(registry.gauge("temp").value(), -3.25);
}

TEST(Histogram, PercentilesNearestRank) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.sum(), 5050);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50);
  EXPECT_DOUBLE_EQ(h.percentile(95), 95);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1);
}

TEST(Histogram, EmptyIsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.max(), 0);
}

TEST(Histogram, ConcurrentRecords) {
  Registry registry;
  Histogram& h = registry.histogram("lat");
  std::vector<std::jthread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&] {
      for (int j = 0; j < 5000; ++j) h.record(j);
    });
  threads.clear();
  EXPECT_EQ(h.count(), 20000u);
}

TEST(Registry, JsonExportRoundTrips) {
  Registry registry;
  registry.counter("events").add(7);
  registry.gauge("load").set(0.5);
  registry.histogram("lat").record(10);
  registry.histogram("lat").record(20);

  const JsonValue doc = parse_json(registry.to_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("events")->number, 7);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("load")->number, 0.5);
  const JsonValue* lat = doc.find("histograms")->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->find("count")->number, 2);
  EXPECT_DOUBLE_EQ(lat->find("p50")->number, 10);
  EXPECT_DOUBLE_EQ(lat->find("max")->number, 20);
}

TEST(Tracer, RecordsAndSnapshots) {
  Tracer tracer;
  emit_instant(&tracer, 5.0, "hello", "test",
               Args().add("k", std::int64_t(1)).str());
  ASSERT_EQ(tracer.size(), 1u);
  const TraceEvent ev = tracer.events().front();
  EXPECT_EQ(ev.name, "hello");
  EXPECT_EQ(ev.ph, 'i');
  EXPECT_DOUBLE_EQ(ev.ts, 5.0);
  EXPECT_EQ(ev.args, "{\"k\":1}");
}

TEST(Tracer, OverflowDropsAndCounts) {
  Tracer tracer(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) emit_instant(&tracer, i, "e", "test");
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(Tracer, NullSinkPathIsANoOp) {
  emit_instant(nullptr, 0, "ignored", "test");
  ProfileScope scope(nullptr, "ignored");  // must not crash or allocate
}

TEST(ProfileScope, EmitsMatchedPairAndHistogram) {
  Tracer tracer;
  { ProfileScope scope(&tracer, "work", "test"); }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'B');
  EXPECT_EQ(events[1].ph, 'E');
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[1].ts, events[0].ts);
  EXPECT_EQ(tracer.registry().histogram("prof.work").count(), 1u);
}

TEST(ProfileScope, HistogramOnlyModeEmitsNoEvents) {
  Tracer tracer;
  { ProfileScope scope(&tracer, "quiet", "test", /*emit_events=*/false); }
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.registry().histogram("prof.quiet").count(), 1u);
}

TEST(Tracer, JsonlLinesParse) {
  Tracer tracer;
  emit_instant(&tracer, 1, "a", "test");
  emit_instant(&tracer, 2, "b", "test", Args().add("x", 3.5).str());
  std::ostringstream oss;
  tracer.write_jsonl(oss);
  std::istringstream iss(oss.str());
  std::string line;
  int lines = 0;
  while (std::getline(iss, line)) {
    const JsonValue ev = parse_json(line);
    ASSERT_TRUE(ev.is_object());
    EXPECT_NE(ev.find("name"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST(Args, BuildsJsonObjects) {
  EXPECT_EQ(Args().str(), "");
  const std::string json = Args()
                               .add("a", std::int64_t(-2))
                               .add("b", true)
                               .add("c", std::string_view("x\"y"))
                               .add("d", 1.5)
                               .str();
  const JsonValue doc = parse_json(json);
  EXPECT_DOUBLE_EQ(doc.find("a")->number, -2);
  EXPECT_TRUE(doc.find("b")->boolean);
  EXPECT_EQ(doc.find("c")->string, "x\"y");
  EXPECT_DOUBLE_EQ(doc.find("d")->number, 1.5);
}

TEST(Json, EscapeAndNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(3), "3");
  EXPECT_EQ(json_number(-0.5), "-0.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("tru"), std::runtime_error);
}

TEST(GlobalSink, SetAndClear) {
  Tracer tracer;
  set_global_sink(&tracer);
  EXPECT_EQ(global_sink(), &tracer);
  set_global_sink(nullptr);
  EXPECT_EQ(global_sink(), nullptr);
}

TEST(ThreadTid, DistinctPerThread) {
  const std::uint32_t mine = current_thread_tid();
  EXPECT_EQ(current_thread_tid(), mine);  // stable within a thread
  std::uint32_t other = 0;
  std::jthread([&] { other = current_thread_tid(); }).join();
  EXPECT_NE(other, mine);
}

TEST(LogSink, CapturesAndRestores) {
  std::vector<std::pair<common::LogLevel, std::string>> captured;
  common::set_log_sink([&](common::LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  const common::LogLevel before = common::log_level();
  common::set_log_level(common::LogLevel::kDebug);
  common::log_warn("problem ", 42);
  common::log_debug("detail");
  common::set_log_level(before);
  common::set_log_sink({});

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, common::LogLevel::kWarn);
  EXPECT_EQ(captured[0].second, "problem 42");
  EXPECT_EQ(captured[1].second, "detail");
}

TEST(LogSink, TracerOverflowDiagnosticsFlowThroughIt) {
  std::vector<std::string> warnings;
  common::set_log_sink([&](common::LogLevel level, const std::string& msg) {
    if (level == common::LogLevel::kWarn) warnings.push_back(msg);
  });
  Tracer tracer(/*max_events=*/1);
  emit_instant(&tracer, 0, "a", "test");
  emit_instant(&tracer, 1, "b", "test");  // dropped
  std::ostringstream oss;
  tracer.write_chrome_trace(oss);
  common::set_log_sink({});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("dropped"), std::string::npos);
}

TEST(LogLevel, ParsesNames) {
  EXPECT_EQ(common::parse_log_level("debug"), common::LogLevel::kDebug);
  EXPECT_EQ(common::parse_log_level("INFO"), common::LogLevel::kInfo);
  EXPECT_EQ(common::parse_log_level("warning"), common::LogLevel::kWarn);
  EXPECT_THROW(common::parse_log_level("loud"), std::invalid_argument);
}

TEST(Flags, SpaceSeparatedValuesAndLogLevel) {
  const char* argv[] = {"prog", "--trace-out", "out.json", "--log-level=info",
                        "--flag"};
  const common::Flags flags(5, argv, {"trace-out", "log-level", "flag"});
  EXPECT_EQ(flags.get("trace-out", ""), "out.json");
  EXPECT_EQ(flags.get("log-level", ""), "info");
  EXPECT_TRUE(flags.get_bool("flag", false));

  const common::LogLevel before = common::log_level();
  common::apply_log_level_flag(flags);
  EXPECT_EQ(common::log_level(), common::LogLevel::kInfo);
  common::set_log_level(before);
}

}  // namespace
}  // namespace swallow::obs

#include "common/trace_event.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

namespace mcsim {
namespace {

TEST(TraceEventSink, DisabledByDefaultAndDropsEvents) {
  TraceEventSink s;
  EXPECT_FALSE(s.enabled());
  s.complete(TraceEventSink::name_id("x"), 0, 10, 20);
  s.instant(TraceEventSink::name_id("y"), 0, 15);
  s.counter(TraceEventSink::name_id("z"), 0, 15, 3);
  EXPECT_EQ(s.event_count(), 0u);
}

TEST(TraceEventSink, NameIdsInternStably) {
  const TraceEventSink::NameId a = TraceEventSink::name_id("ev-intern-a");
  const TraceEventSink::NameId b = TraceEventSink::name_id("ev-intern-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, TraceEventSink::name_id("ev-intern-a"));
  EXPECT_EQ(TraceEventSink::name_of(a), "ev-intern-a");
}

TEST(TraceEventSink, EmptySpansAreDropped) {
  TraceEventSink s;
  s.enable();
  s.complete(TraceEventSink::name_id("x"), 0, 10, 10);  // zero-length
  s.complete(TraceEventSink::name_id("x"), 0, 10, 5);   // inverted
  EXPECT_EQ(s.event_count(), 0u);
  s.complete(TraceEventSink::name_id("x"), 0, 10, 11);
  EXPECT_EQ(s.event_count(), 1u);
}

TEST(TraceEventSink, ToJsonSortsByStartAndPutsMetadataFirst) {
  TraceEventSink s;
  s.enable();
  s.set_track(0, "core0");
  s.set_track(1, "cache0");
  // Recorded in close order (30 first), must export in start order.
  s.complete(TraceEventSink::name_id("late"), 0, 30, 40);
  s.complete(TraceEventSink::name_id("early"), 1, 5, 50);
  s.instant(TraceEventSink::name_id("mark"), 0, 12);

  Json j = s.to_json();
  ASSERT_TRUE(j.contains("traceEvents"));
  const Json& ev = j["traceEvents"];
  ASSERT_EQ(ev.size(), 5u);  // 2 metadata + 3 timeline

  EXPECT_EQ(ev[0]["ph"].as_string(), "M");
  EXPECT_EQ(ev[1]["ph"].as_string(), "M");
  EXPECT_EQ(ev[0]["args"]["name"].as_string(), "core0");

  EXPECT_EQ(ev[2]["name"].as_string(), "early");
  EXPECT_EQ(ev[2]["ph"].as_string(), "X");
  EXPECT_EQ(ev[2]["ts"].as_uint(), 5u);
  EXPECT_EQ(ev[2]["dur"].as_uint(), 45u);
  EXPECT_EQ(ev[3]["name"].as_string(), "mark");
  EXPECT_EQ(ev[3]["ph"].as_string(), "i");
  EXPECT_EQ(ev[4]["name"].as_string(), "late");

  // Monotonic start timestamps across the timeline section.
  std::uint64_t prev = 0;
  for (std::size_t i = 2; i < ev.size(); ++i) {
    EXPECT_GE(ev[i]["ts"].as_uint(), prev);
    prev = ev[i]["ts"].as_uint();
  }
}

TEST(TraceEventSink, WriteRoundTripsThroughParser) {
  TraceEventSink s;
  s.enable();
  s.set_track(0, "core0");
  s.complete(TraceEventSink::name_id("miss"), 0, 100, 180);
  s.instant(TraceEventSink::name_id("squash"), 0, 150);

  const std::string path = "trace_event_test.json";
  ASSERT_TRUE(s.write(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  std::string err;
  Json j = Json::parse(buf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(j.contains("traceEvents"));

  std::uint64_t timeline = 0;
  for (std::size_t i = 0; i < j["traceEvents"].size(); ++i) {
    const Json& e = j["traceEvents"][i];
    // Every record carries the fields Perfetto's legacy loader needs.
    for (const char* key : {"ph", "name", "pid", "tid"}) {
      EXPECT_TRUE(e.contains(key)) << "missing key " << key;
    }
    if (e["ph"].as_string() != "M") ++timeline;
  }
  EXPECT_EQ(timeline, s.event_count());
}

TEST(TraceEventSink, ClearDropsEventsButKeepsTrackNames) {
  TraceEventSink s;
  s.enable();
  s.set_track(0, "core0");
  s.instant(TraceEventSink::name_id("x"), 0, 1);
  s.clear();
  EXPECT_EQ(s.event_count(), 0u);
  // Track metadata survives a clear: the next export is still labelled.
  Json j = s.to_json();
  const Json& ev = j["traceEvents"];
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0]["ph"].as_string(), "M");
}

TEST(TraceEventSink, TypedEventFieldsReachBothRenderers) {
  using Sink = TraceEventSink;
  const Sink::NameId why = Sink::name_id("ev-typed why");
  const Sink::NameId insert =
      Sink::declare("ev-typed:insert", "slb", "insert seq={seq} addr={addr} acq={acq}");
  const Sink::NameId squash = Sink::declare("ev-typed:squash", "squash", "{why:name} seq={seq}");
  const Sink::NameId store = Sink::declare("ev-typed:store", "sb", "complete seq={seq}");
  const Sink::NameId plain = Sink::name_id("ev-typed plain");
  // Re-declaring with the same template is idempotent; a different
  // template, or a name already interned untyped, is an error.
  EXPECT_EQ(Sink::declare("ev-typed:store", "sb", "complete seq={seq}"), store);
  EXPECT_THROW(Sink::declare("ev-typed:store", "sb", "done seq={seq}"), std::logic_error);
  EXPECT_THROW(Sink::declare("ev-typed plain", "x", "y"), std::logic_error);
  EXPECT_THROW(Sink::declare("ev-typed:bad", "x", "{a} {b} {c} {d} {e}"), std::logic_error);

  Sink s;
  s.enable();
  s.instant(insert, 0, 3, {4, 20528, 1});
  s.complete(store, 0, 5, 9, {2});
  s.instant(squash, 0, 7, {why, 4});
  s.instant(plain, 0, 8);
  s.instant(insert, 1, 8, {5, 64, 0});  // another track

  // Chrome: every typed event carries its fields as args, in
  // declaration order; untyped events carry none.
  Json j = s.to_json();
  const Json& ev = j["traceEvents"];
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0]["name"].as_string(), "ev-typed:insert");
  EXPECT_EQ(ev[0]["ph"].as_string(), "i");
  EXPECT_EQ(ev[0]["args"]["seq"].as_uint(), 4u);
  EXPECT_EQ(ev[0]["args"]["addr"].as_uint(), 20528u);
  EXPECT_EQ(ev[0]["args"]["acq"].as_uint(), 1u);
  EXPECT_EQ(ev[1]["name"].as_string(), "ev-typed:store");
  EXPECT_EQ(ev[1]["ph"].as_string(), "X");
  EXPECT_EQ(ev[1]["dur"].as_uint(), 4u);
  EXPECT_EQ(ev[1]["args"]["seq"].as_uint(), 2u);
  EXPECT_EQ(ev[2]["args"]["why"].as_string(), "ev-typed why");
  EXPECT_EQ(ev[2]["args"]["seq"].as_uint(), 4u);
  EXPECT_EQ(ev[3]["name"].as_string(), "ev-typed plain");
  EXPECT_FALSE(ev[3].contains("args"));

  // Text: the same fields through the templates, one line per typed
  // event on the track in record order; a complete event is stamped
  // with its end cycle.
  EXPECT_EQ(s.to_text(0),
            "       3  slb        insert seq=4 addr=20528 acq=1\n"
            "       9  sb         complete seq=2\n"
            "       7  squash     ev-typed why seq=4\n");
  EXPECT_EQ(s.to_text(0, {"squash", "slb"}),
            "       3  slb        insert seq=4 addr=20528 acq=1\n"
            "       7  squash     ev-typed why seq=4\n");
  EXPECT_EQ(s.to_text(1), "       8  slb        insert seq=5 addr=64 acq=0\n");
}

}  // namespace
}  // namespace mcsim

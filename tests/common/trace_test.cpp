// The Figure-5 text stream: typed events recorded into TraceEventSink
// and rendered by to_text(), the lines bench/fig5_trace prints.
#include "common/trace_event.hpp"

#include <gtest/gtest.h>

namespace mcsim {
namespace {

using Sink = TraceEventSink;

TEST(Trace, DisabledByDefaultAndDropsEvents) {
  Sink s;
  EXPECT_FALSE(s.enabled());
  s.instant(Sink::declare("text-test:hello", "x", "hello n={n}"), 0, 1, {1});
  EXPECT_EQ(s.event_count(), 0u);
  EXPECT_EQ(s.to_text(0), "");
}

TEST(Trace, RecordsWhenEnabled) {
  const Sink::NameId insert = Sink::declare("text-test:insert", "slb", "insert seq={seq}");
  const Sink::NameId issue = Sink::declare("text-test:issue", "sb", "issue seq={seq}");
  Sink s;
  s.enable();
  s.instant(insert, 1, 5, {3});
  s.instant(issue, 0, 6, {4});
  EXPECT_EQ(s.event_count(), 2u);
  EXPECT_EQ(s.to_text(1), "       5  slb        insert seq=3\n");
  EXPECT_EQ(s.to_text(0), "       6  sb         issue seq=4\n");
}

TEST(Trace, DeclaredNamesInternToStableIds) {
  const Sink::NameId a = Sink::declare("text-test:a", "cat", "a");
  const Sink::NameId b = Sink::declare("text-test:b", "cat", "b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Sink::declare("text-test:a", "cat", "a"));  // idempotent
  EXPECT_EQ(a, Sink::name_id("text-test:a"));
  EXPECT_EQ(Sink::name_of(a), "text-test:a");
  EXPECT_EQ(Sink::name_of(b), "text-test:b");
}

TEST(Trace, CategoriesSelectLines) {
  const Sink::NameId one = Sink::declare("text-test:cat-a1", "a", "{n}");
  const Sink::NameId two = Sink::declare("text-test:cat-b", "b", "{n}");
  Sink s;
  s.enable();
  s.instant(one, 0, 1, {1});
  s.instant(two, 0, 2, {2});
  s.instant(one, 0, 3, {3});
  EXPECT_EQ(s.to_text(0, {"a"}),
            "       1  a          1\n"
            "       3  a          3\n");
  EXPECT_EQ(s.to_text(0, {"zzz"}), "");
}

TEST(Trace, ClearEmpties) {
  Sink s;
  s.enable();
  s.instant(Sink::declare("text-test:clear", "a", "n={n}"), 0, 1, {7});
  s.clear();
  EXPECT_EQ(s.event_count(), 0u);
  EXPECT_EQ(s.to_text(0), "");
}

TEST(Trace, DisableStopsRecordingButKeepsHistory) {
  const Sink::NameId ev = Sink::declare("text-test:keep", "a", "{n}");
  Sink s;
  s.enable();
  s.instant(ev, 0, 1, {1});
  s.enable(false);
  s.instant(ev, 0, 2, {2});
  EXPECT_EQ(s.event_count(), 1u);
  EXPECT_EQ(s.to_text(0), "       1  a          1\n");
}

}  // namespace
}  // namespace mcsim

// The simulator's one event recorder: an opt-in timeline of duration,
// instant and counter events with two renderers over the same events,
// Chrome trace JSON (to_json: Perfetto or chrome://tracing, "Load
// legacy trace") and the Figure-5 text walkthrough (to_text).
//
// Recording is allocation-light by construction: event names are
// interned process-wide into 16-bit ids (cold, at static init or first
// use), a stored event is a fixed-size record of integers with no
// strings, and every emission site is guarded by enabled() so a
// disabled sink costs one branch. Strings are only materialised by the
// renderers.
//
// Typed events: a name interned with declare() also carries a text
// category and a line template whose placeholders name the event's
// integer fields. Those fields are the event's Chrome "args" and fill
// its to_text() line.
//
// Track convention (set up by Machine): tid 0..P-1 are cores, P..2P-1
// their private caches, 2P the directory, 2P+1 onward one track per
// interconnect link (ring/mesh only). Cycles are written 1:1 as
// microseconds — Perfetto has no "cycles" unit, and 1 cycle == 1 us
// keeps the timeline readable and exact.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace mcsim {

class TraceEventSink {
 public:
  using NameId = std::uint16_t;
  /// Integer fields of one event, in the order its declare() template
  /// names them; unused trailing slots stay zero.
  using Fields = std::array<std::uint64_t, 4>;

  /// Intern an event name process-wide (thread-safe, cold). Ids are
  /// stable for the process lifetime, so call sites cache them in
  /// static locals.
  static NameId name_id(std::string_view name);
  static std::string name_of(NameId id);

  /// Intern `name` as a typed event. `category` heads its to_text()
  /// line and `text` is the rest of that line: each `{key}`
  /// placeholder stands for the next field, printed as an integer, and
  /// `{key:name}` for a field holding a NameId, printed as that name.
  /// The keys are the field names in the Chrome "args". Declaring a
  /// name again returns its id if the category and template match, and
  /// throws std::logic_error otherwise (also for a name already
  /// interned untyped).
  static NameId declare(std::string_view name, std::string_view category,
                        std::string_view text);

  void enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Name a track (Chrome "thread"); shown as the row label.
  void set_track(std::uint16_t track, std::string name);

  /// Complete ("X") event spanning [start, end] cycles. No-op when
  /// disabled or when the span is empty.
  void complete(NameId name, std::uint16_t track, Cycle start, Cycle end,
                const Fields& fields = {}) {
    if (!enabled_ || end <= start) return;
    events_.push_back(Event{start, end - start, fields, name, track, kPhaseComplete});
  }
  /// Instant ("i") event at `ts` cycles.
  void instant(NameId name, std::uint16_t track, Cycle ts, const Fields& fields = {}) {
    if (!enabled_) return;
    events_.push_back(Event{ts, 0, fields, name, track, kPhaseInstant});
  }
  /// Counter ("C") sample: the named counter track on `track` takes
  /// `value` at `ts`. Perfetto renders these as stepped area charts —
  /// the profiler uses them for pending-prefetch and fan-out series.
  /// The value rides in the Event's `dur` field (unused for "C").
  void counter(NameId name, std::uint16_t track, Cycle ts, std::uint64_t value) {
    if (!enabled_) return;
    events_.push_back(Event{ts, value, {}, name, track, kPhaseCounter});
  }

  /// Recorded timeline events (excludes track-name metadata).
  std::size_t event_count() const { return events_.size(); }

  /// Chrome trace JSON: {"traceEvents": [...]} — metadata first, then
  /// timeline events sorted by start timestamp. Typed events carry
  /// their fields in "args".
  Json to_json() const;

  /// Text rendering of the typed events on `track` whose category is
  /// in `categories` (every category when empty), in record order, one
  /// line each: cycle, category, then the name's template filled in.
  /// A complete event's line is stamped with its end cycle, the
  /// instant it was recorded.
  std::string to_text(std::uint16_t track, const std::vector<std::string>& categories = {}) const;

  /// Serialize to_json() to `path`. Returns false on I/O failure.
  bool write(const std::string& path) const;

  void clear() { events_.clear(); }

 private:
  static constexpr std::uint8_t kPhaseComplete = 0;
  static constexpr std::uint8_t kPhaseInstant = 1;
  static constexpr std::uint8_t kPhaseCounter = 2;

  struct Event {
    Cycle ts;
    Cycle dur;  ///< duration ("X") or counter value ("C")
    Fields fields;
    NameId name;
    std::uint16_t track;
    std::uint8_t phase;
  };

  bool enabled_ = false;
  std::vector<Event> events_;
  std::vector<std::string> track_names_;  ///< indexed by track id; may have gaps
};

}  // namespace mcsim

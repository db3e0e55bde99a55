#include "common/trace_event.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace mcsim {

namespace {

/// One "{key}" or "{key:name}" placeholder of a declare() template and
/// the literal text before it.
struct Placeholder {
  std::string literal;
  std::string key;
  bool is_name = false;
};

struct NameEntry {
  std::string name;
  bool typed = false;
  std::string category;
  std::string text;  ///< the declare() template as given
  std::vector<Placeholder> fields;
  std::string tail;  ///< literal text after the last placeholder
};

// Entries are never changed after creation and a deque never moves
// them, so a reference taken under the lock stays valid unlocked.
struct NameTable {
  std::mutex mu;
  std::deque<NameEntry> entries;
  std::unordered_map<std::string, TraceEventSink::NameId> ids;
};

NameTable& names() {
  static NameTable t;
  return t;
}

const NameEntry* entry(TraceEventSink::NameId id) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mu);
  return id < t.entries.size() ? &t.entries[id] : nullptr;
}

// Caller holds the table lock.
TraceEventSink::NameId add_entry(NameTable& t, NameEntry e) {
  const auto id = static_cast<TraceEventSink::NameId>(t.entries.size());
  t.ids.emplace(e.name, id);
  t.entries.push_back(std::move(e));
  return id;
}

NameEntry parse_declaration(std::string_view name, std::string_view category,
                            std::string_view text) {
  NameEntry e{std::string(name), true, std::string(category), std::string(text), {}, {}};
  std::string literal;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '{') {
      literal += text[i];
      continue;
    }
    const std::size_t close = text.find('}', i);
    if (close == std::string_view::npos)
      throw std::logic_error("trace event '" + e.name + "': unterminated placeholder");
    std::string_view key = text.substr(i + 1, close - i - 1);
    const bool is_name = key.size() > 5 && key.substr(key.size() - 5) == ":name";
    if (is_name) key.remove_suffix(5);
    e.fields.push_back(Placeholder{std::move(literal), std::string(key), is_name});
    literal.clear();
    i = close;
  }
  if (e.fields.size() > std::tuple_size_v<TraceEventSink::Fields>)
    throw std::logic_error("trace event '" + e.name + "': too many fields");
  e.tail = std::move(literal);
  return e;
}

}  // namespace

TraceEventSink::NameId TraceEventSink::name_id(std::string_view name) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(std::string(name));
  if (it != t.ids.end()) return it->second;
  return add_entry(t, NameEntry{std::string(name), false, {}, {}, {}, {}});
}

TraceEventSink::NameId TraceEventSink::declare(std::string_view name, std::string_view category,
                                               std::string_view text) {
  NameEntry e = parse_declaration(name, category, text);
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(e.name);
  if (it == t.ids.end()) return add_entry(t, std::move(e));
  const NameEntry& old = t.entries[it->second];
  if (!old.typed || old.category != e.category || old.text != e.text)
    throw std::logic_error("trace event '" + e.name + "' declared twice differently");
  return it->second;
}

std::string TraceEventSink::name_of(NameId id) {
  const NameEntry* e = entry(id);
  return e != nullptr ? e->name : std::string("<invalid>");
}

void TraceEventSink::set_track(std::uint16_t track, std::string name) {
  if (track >= track_names_.size()) track_names_.resize(track + 1);
  track_names_[track] = std::move(name);
}

Json TraceEventSink::to_json() const {
  Json root = Json::object();
  Json arr = Json::array();

  // Track-name metadata first, one Chrome "thread_name" record per track.
  for (std::uint16_t t = 0; t < track_names_.size(); ++t) {
    if (track_names_[t].empty()) continue;
    Json m = Json::object();
    m.set("ph", Json::string("M"));
    m.set("name", Json::string("thread_name"));
    m.set("pid", Json::number(std::uint64_t{0}));
    m.set("tid", Json::number(static_cast<std::uint64_t>(t)));
    Json args = Json::object();
    args.set("name", Json::string(track_names_[t]));
    m.set("args", std::move(args));
    arr.push_back(std::move(m));
  }

  // Timeline events sorted by start: complete events are recorded when
  // the span CLOSES, so record order is end-time order; viewers and our
  // validation both want start-time order.
  std::vector<const Event*> sorted;
  sorted.reserve(events_.size());
  for (const Event& e : events_) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event* a, const Event* b) { return a->ts < b->ts; });

  for (const Event* e : sorted) {
    const NameEntry* name = entry(e->name);
    Json j = Json::object();
    j.set("name", Json::string(name != nullptr ? name->name : std::string("<invalid>")));
    j.set("cat", Json::string("sim"));
    Json args = Json::object();
    if (e->phase == kPhaseComplete) {
      j.set("ph", Json::string("X"));
      j.set("ts", Json::number(static_cast<std::uint64_t>(e->ts)));
      j.set("dur", Json::number(static_cast<std::uint64_t>(e->dur)));
    } else if (e->phase == kPhaseCounter) {
      j.set("ph", Json::string("C"));
      j.set("ts", Json::number(static_cast<std::uint64_t>(e->ts)));
      args.set("value", Json::number(static_cast<std::uint64_t>(e->dur)));
    } else {
      j.set("ph", Json::string("i"));
      j.set("ts", Json::number(static_cast<std::uint64_t>(e->ts)));
      j.set("s", Json::string("t"));  // instant scope: thread
    }
    if (name != nullptr) {
      for (std::size_t f = 0; f < name->fields.size(); ++f) {
        const Placeholder& p = name->fields[f];
        const std::uint64_t v = e->fields[f];
        args.set(p.key, p.is_name ? Json::string(name_of(static_cast<NameId>(v)))
                                  : Json::number(v));
      }
    }
    if (args.size() > 0) j.set("args", std::move(args));
    j.set("pid", Json::number(std::uint64_t{0}));
    j.set("tid", Json::number(static_cast<std::uint64_t>(e->track)));
    arr.push_back(std::move(j));
  }

  root.set("traceEvents", std::move(arr));
  root.set("displayTimeUnit", Json::string("ms"));
  return root;
}

std::string TraceEventSink::to_text(std::uint16_t track,
                                    const std::vector<std::string>& categories) const {
  std::string out;
  for (const Event& e : events_) {
    if (e.track != track) continue;
    const NameEntry* name = entry(e.name);
    if (name == nullptr || !name->typed) continue;
    if (!categories.empty() &&
        std::find(categories.begin(), categories.end(), name->category) == categories.end())
      continue;
    const Cycle at = e.phase == kPhaseComplete ? e.ts + e.dur : e.ts;
    char head[64];
    std::snprintf(head, sizeof head, "  %6llu  %-10s ", static_cast<unsigned long long>(at),
                  name->category.c_str());
    out += head;
    for (std::size_t f = 0; f < name->fields.size(); ++f) {
      const Placeholder& p = name->fields[f];
      out += p.literal;
      out += p.is_name ? name_of(static_cast<NameId>(e.fields[f])) : std::to_string(e.fields[f]);
    }
    out += name->tail;
    out += '\n';
  }
  return out;
}

bool TraceEventSink::write(const std::string& path) const {
  std::string text = to_json().dump();
  text += '\n';
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

}  // namespace mcsim

#include "sim/options.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace mcsim {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The numeric memory-system flags; mem_flags() writes them in this
/// order, after the three named ones.
struct NumericMemFlag {
  const char* name;
  std::uint32_t MemConfig::*field;
};
constexpr NumericMemFlag kNumericMemFlags[] = {
    {"--link-bw", &MemConfig::link_bw},
    {"--link-queue", &MemConfig::link_queue},
    {"--dir-ptrs", &MemConfig::dir_pointers},
    {"--dir-cluster", &MemConfig::dir_cluster},
    {"--dir-banks", &MemConfig::dir_banks},
};

}  // namespace

bool parse_u64(const std::string& s, std::uint64_t& out) {
  // strtoull alone would skip blanks and wrap a leading '-'.
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_u32(const std::string& s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool apply_mem_flag(const std::string& arg, MemConfig& mem, std::string& err) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) return false;
  const std::string name = arg.substr(0, eq);
  const std::string v = arg.substr(eq + 1);
  const char* expected = nullptr;  // set when `v` is malformed
  if (name == "--protocol") {
    if (v == "inv") mem.coherence = CoherenceKind::kInvalidation;
    else if (v == "upd") mem.coherence = CoherenceKind::kUpdate;
    else expected = "inv|upd";
  } else if (name == "--topology") {
    if (v == "crossbar") mem.topology = Topology::kCrossbar;
    else if (v == "ring") mem.topology = Topology::kRing;
    else if (v == "mesh2d") mem.topology = Topology::kMesh2D;
    else expected = "crossbar|ring|mesh2d";
  } else if (name == "--dir-scheme") {
    if (v == "fullmap") mem.dir_scheme = DirScheme::kFullMap;
    else if (v == "limptr") mem.dir_scheme = DirScheme::kLimitedPtr;
    else if (v == "coarse") mem.dir_scheme = DirScheme::kCoarseVector;
    else expected = "fullmap|limptr|coarse";
  } else {
    const NumericMemFlag* f = nullptr;
    for (const NumericMemFlag& x : kNumericMemFlags) {
      if (name == x.name) f = &x;
    }
    if (f == nullptr) return false;
    if (!parse_u32(v, mem.*f->field)) expected = "an unsigned integer";
  }
  if (expected != nullptr) err = "bad " + arg + ": expected " + expected;
  return true;
}

std::string mem_flags(const MemConfig& mem) {
  const MemConfig def;
  std::string out;
  auto add = [&](bool differs, const std::string& flag) {
    if (differs) out += (out.empty() ? "" : " ") + flag;
  };
  add(mem.coherence != def.coherence,
      std::string("--protocol=") + (mem.coherence == CoherenceKind::kUpdate ? "upd" : "inv"));
  add(mem.topology != def.topology, std::string("--topology=") + to_string(mem.topology));
  add(mem.dir_scheme != def.dir_scheme,
      std::string("--dir-scheme=") + to_string(mem.dir_scheme));
  for (const NumericMemFlag& f : kNumericMemFlags) {
    add(mem.*f.field != def.*f.field,
        std::string(f.name) + "=" + std::to_string(mem.*f.field));
  }
  return out;
}

OptionsResult parse_options(int argc, const char* const* argv) {
  OptionsResult r;
  std::uint32_t procs = 1;
  ConsistencyModel model = ConsistencyModel::kSC;
  bool ideal = false;
  std::uint32_t miss = 100;
  r.config = SystemConfig::realistic(1, model);

  auto fail = [&](const std::string& msg) {
    r.error = msg;
    return r;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      r.show_help = true;
    } else if (starts_with(arg, "--model=")) {
      std::string v = arg.substr(8);
      if (v == "SC" || v == "sc") model = ConsistencyModel::kSC;
      else if (v == "PC" || v == "pc") model = ConsistencyModel::kPC;
      else if (v == "WC" || v == "wc") model = ConsistencyModel::kWC;
      else if (v == "RC" || v == "rc") model = ConsistencyModel::kRC;
      else return fail("unknown model: " + v);
    } else if (starts_with(arg, "--procs=")) {
      if (!parse_u32(arg.substr(8), procs)) return fail("bad --procs");
    } else if (arg == "--spec") {
      r.config.core.speculative_loads = true;
    } else if (arg == "--no-spec") {
      r.config.core.speculative_loads = false;
    } else if (arg == "--prefetch") {
      r.config.core.prefetch = PrefetchMode::kNonBinding;
    } else if (starts_with(arg, "--prefetch=")) {
      std::string v = arg.substr(11);
      if (v == "off") r.config.core.prefetch = PrefetchMode::kOff;
      else if (v == "nonbinding") r.config.core.prefetch = PrefetchMode::kNonBinding;
      else if (v == "binding") r.config.core.prefetch = PrefetchMode::kBinding;
      else return fail("unknown prefetch mode: " + v);
    } else if (starts_with(arg, "--miss=")) {
      if (!parse_u32(arg.substr(7), miss) || miss < 4) return fail("bad --miss");
    } else if (apply_mem_flag(arg, r.config.mem, r.error)) {
      if (!r.ok()) return r;
    } else if (arg == "--fastforward") {
      r.config.fastforward = true;
    } else if (arg == "--no-fastforward") {
      r.config.fastforward = false;
    } else if (arg == "--profile") {
      r.config.profile = true;
    } else if (starts_with(arg, "--profile-top-lines=")) {
      if (!parse_u32(arg.substr(20), r.config.profile_top_lines))
        return fail("bad --profile-top-lines");
      r.config.profile = true;  // asking for the table implies profiling
    } else if (arg == "--ideal") {
      ideal = true;
    } else if (arg == "--realistic") {
      ideal = false;
    } else if (starts_with(arg, "--rob=")) {
      if (!parse_u32(arg.substr(6), r.config.core.rob_entries)) return fail("bad --rob");
    } else if (starts_with(arg, "--mshrs=")) {
      if (!parse_u32(arg.substr(8), r.config.cache.mshrs)) return fail("bad --mshrs");
    } else if (starts_with(arg, "--max-cycles=")) {
      if (!parse_u64(arg.substr(13), r.config.max_cycles)) return fail("bad --max-cycles");
    } else if (starts_with(arg, "--trace-out=")) {
      r.trace_out = arg.substr(12);
      if (r.trace_out.empty()) return fail("bad --trace-out: empty path");
    } else if (starts_with(arg, "--trace-dir=")) {
      r.trace_dir = arg.substr(12);
      if (r.trace_dir.empty()) return fail("bad --trace-dir: empty path");
    } else if (starts_with(arg, "--trace=")) {
      std::string v = arg.substr(8);
      if (v.empty()) return fail("bad --trace: empty path");
      r.trace_in.push_back(std::move(v));
    } else if (starts_with(arg, "--")) {
      return fail("unknown flag: " + arg);
    } else {
      r.positional.push_back(arg);
    }
  }

  r.config.num_procs = procs;
  r.config.model = model;
  r.config.core.ideal_frontend = ideal;
  r.config.with_clean_miss_latency(miss);
  std::string err = r.config.validate();
  if (!err.empty()) return fail("invalid configuration: " + err);
  return r;
}

std::string options_help() {
  return
      "  --model=SC|PC|WC|RC      consistency model (default SC)\n"
      "  --procs=N                processor count (default 1)\n"
      "  --spec / --no-spec       speculative loads (paper <section> 4)\n"
      "  --prefetch[=off|nonbinding|binding]  hardware prefetch (paper <section> 3)\n"
      "  --miss=N                 clean-miss latency in cycles (default 100)\n"
      "  --protocol=inv|upd       coherence protocol (default inv)\n"
      "  --topology=crossbar|ring|mesh2d  interconnect (default crossbar:\n"
      "                           fixed latency; ring/mesh2d route hop-by-hop\n"
      "                           with link contention and back-pressure)\n"
      "  --link-bw=N              ring/mesh: messages per link per cycle\n"
      "                           (default 1, 0 = unlimited)\n"
      "  --link-queue=N           ring/mesh: per-link FIFO depth (default 8)\n"
      "  --dir-scheme=fullmap|limptr|coarse  directory sharer encoding\n"
      "                           (default fullmap: exact bit per processor;\n"
      "                           limptr: Dir_i_B pointers, broadcast on\n"
      "                           overflow; coarse: one bit per cluster)\n"
      "  --dir-ptrs=N             limptr: pointers per entry (default 4)\n"
      "  --dir-cluster=N          coarse: processors per bit (default 4)\n"
      "  --dir-banks=N            directory banks; lines hash across banks,\n"
      "                           each bank is its own home node on\n"
      "                           ring/mesh (default 1)\n"
      "  --ideal / --realistic    front-end model (default realistic)\n"
      "  --no-fastforward         tick every cycle instead of skipping\n"
      "                           quiescent spans (debugging; results are\n"
      "                           cycle-identical either way)\n"
      "  --rob=N --mshrs=N        capacity knobs\n"
      "  --profile                technique-efficacy profiler: per-prefetch\n"
      "                           outcome attribution, rollback causes, and\n"
      "                           the per-line sharing ledger\n"
      "  --profile-top-lines=N    rows in the contended-lines table\n"
      "                           (default 8; implies --profile)\n"
      "  --max-cycles=N           deadlock watchdog\n"
      "  --trace-out=PATH         write a Chrome trace-event timeline (open in\n"
      "                           Perfetto / chrome://tracing; 1 cycle = 1 us)\n"
      "  --trace=FILE             run a memory-op trace workload (text .mct or\n"
      "                           binary .mctb; repeatable, one cell per file)\n"
      "  --trace-dir=DIR          run every *.mct / *.mctb trace under DIR\n"
      "environment:\n"
      "  MCSIM_JOBS=N             worker threads for experiment sweeps\n"
      "  MCSIM_AUDIT=1            lockstep-audit every run against the naive\n"
      "                           loop (0, empty or unset: off)\n";
}

}  // namespace mcsim

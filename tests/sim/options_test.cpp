#include "sim/options.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace mcsim {
namespace {

OptionsResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, DefaultsAreScRealistic) {
  OptionsResult r = parse({});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.model, ConsistencyModel::kSC);
  EXPECT_EQ(r.config.num_procs, 1u);
  EXPECT_FALSE(r.config.core.ideal_frontend);
  EXPECT_FALSE(r.config.core.speculative_loads);
  EXPECT_EQ(r.config.core.prefetch, PrefetchMode::kOff);
  EXPECT_EQ(r.config.clean_miss_latency(), 100u);
}

TEST(Options, FullConfiguration) {
  OptionsResult r = parse({"--model=RC", "--procs=4", "--spec", "--prefetch",
                           "--miss=200", "--protocol=upd", "--ideal", "--rob=128",
                           "--mshrs=8", "--max-cycles=5000"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.model, ConsistencyModel::kRC);
  EXPECT_EQ(r.config.num_procs, 4u);
  EXPECT_TRUE(r.config.core.speculative_loads);
  EXPECT_EQ(r.config.core.prefetch, PrefetchMode::kNonBinding);
  EXPECT_EQ(r.config.clean_miss_latency(), 200u);
  EXPECT_EQ(r.config.mem.coherence, CoherenceKind::kUpdate);
  EXPECT_TRUE(r.config.core.ideal_frontend);
  EXPECT_EQ(r.config.core.rob_entries, 128u);
  EXPECT_EQ(r.config.cache.mshrs, 8u);
  EXPECT_EQ(r.config.max_cycles, 5000u);
}

TEST(Options, PrefetchModes) {
  EXPECT_EQ(parse({"--prefetch=off"}).config.core.prefetch, PrefetchMode::kOff);
  EXPECT_EQ(parse({"--prefetch=binding"}).config.core.prefetch, PrefetchMode::kBinding);
  EXPECT_EQ(parse({"--prefetch=nonbinding"}).config.core.prefetch,
            PrefetchMode::kNonBinding);
  EXPECT_FALSE(parse({"--prefetch=bogus"}).ok());
}

TEST(Options, TopologyFlagSelectsInterconnect) {
  OptionsResult r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.config.mem.topology, Topology::kCrossbar);  // paper default
  EXPECT_EQ(r.config.mem.link_bw, 1u);
  EXPECT_EQ(r.config.mem.link_queue, 8u);

  r = parse({"--topology=mesh2d", "--link-bw=2", "--link-queue=4"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.mem.topology, Topology::kMesh2D);
  EXPECT_EQ(r.config.mem.link_bw, 2u);
  EXPECT_EQ(r.config.mem.link_queue, 4u);

  EXPECT_EQ(parse({"--topology=ring"}).config.mem.topology, Topology::kRing);
  EXPECT_EQ(parse({"--topology=crossbar"}).config.mem.topology,
            Topology::kCrossbar);
  EXPECT_FALSE(parse({"--topology=torus"}).ok());
  // validate() rejects a routed topology with no queue space.
  EXPECT_FALSE(parse({"--topology=ring", "--link-queue=0"}).ok());
  // ...but the crossbar ignores the link knobs entirely.
  EXPECT_TRUE(parse({"--topology=crossbar", "--link-queue=0"}).ok());
}

TEST(Options, LaterFlagsWin) {
  OptionsResult r = parse({"--spec", "--no-spec", "--model=PC", "--model=WC"});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.config.core.speculative_loads);
  EXPECT_EQ(r.config.model, ConsistencyModel::kWC);
}

TEST(Options, PositionalArgumentsPassThrough) {
  OptionsResult r = parse({"12", "--model=RC", "workload.s"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.positional.size(), 2u);
  EXPECT_EQ(r.positional[0], "12");
  EXPECT_EQ(r.positional[1], "workload.s");
}

TEST(Options, ErrorsAreReported) {
  EXPECT_FALSE(parse({"--model=XX"}).ok());
  EXPECT_FALSE(parse({"--procs=abc"}).ok());
  EXPECT_FALSE(parse({"--bogus"}).ok());
  EXPECT_FALSE(parse({"--miss=1"}).ok());  // too small to split into legs
}

TEST(Options, HelpFlag) {
  EXPECT_TRUE(parse({"--help"}).show_help);
  EXPECT_TRUE(parse({"-h"}).show_help);
  EXPECT_NE(options_help().find("--model"), std::string::npos);
}

TEST(Options, HexValuesAccepted) {
  OptionsResult r = parse({"--rob=0x40"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.config.core.rob_entries, 64u);
}

TEST(Options, TraceOutCapturesPath) {
  EXPECT_EQ(parse({}).trace_out, "");
  OptionsResult r = parse({"--trace-out=out/trace.json"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.trace_out, "out/trace.json");
  EXPECT_FALSE(parse({"--trace-out="}).ok());
}

TEST(Options, HelpDocumentsTraceAndEnvironment) {
  std::string help = options_help();
  EXPECT_NE(help.find("--trace-out"), std::string::npos);
  EXPECT_NE(help.find("MCSIM_JOBS"), std::string::npos);
  EXPECT_NE(help.find("MCSIM_AUDIT=1"), std::string::npos);
}

TEST(Options, DirectorySchemeAndBankingFlags) {
  OptionsResult r = parse({"--dir-scheme=coarse", "--dir-cluster=8", "--dir-banks=4"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.mem.dir_scheme, DirScheme::kCoarseVector);
  EXPECT_EQ(r.config.mem.dir_cluster, 8u);
  EXPECT_EQ(r.config.mem.dir_banks, 4u);
  r = parse({"--dir-scheme=limptr", "--dir-ptrs=2"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.mem.dir_scheme, DirScheme::kLimitedPtr);
  EXPECT_EQ(r.config.mem.dir_pointers, 2u);
  EXPECT_EQ(parse({}).config.mem.dir_scheme, DirScheme::kFullMap);
  EXPECT_EQ(parse({}).config.mem.dir_banks, 1u);
  // Bad values are named in the error, and validate() guards the
  // scheme-specific knobs.
  OptionsResult bad = parse({"--dir-scheme=hierarchical"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("fullmap|limptr|coarse"), std::string::npos);
  EXPECT_FALSE(parse({"--dir-scheme=limptr", "--dir-ptrs=0"}).ok());
  EXPECT_FALSE(parse({"--dir-scheme=coarse", "--dir-cluster=0"}).ok());
  EXPECT_FALSE(parse({"--dir-banks=0"}).ok());
  EXPECT_NE(options_help().find("--dir-scheme"), std::string::npos);
  EXPECT_NE(options_help().find("--dir-banks"), std::string::npos);
}

TEST(Options, ProcessorCountsBeyondSixtyFourAreAccepted) {
  // The historical uint64_t sharer mask capped machines at 64
  // processors; the SharerSet directory lifts that to kMaxProcs.
  for (std::uint32_t procs : {64u, 128u, 256u}) {
    const std::string flag = "--procs=" + std::to_string(procs);
    OptionsResult r = parse({flag.c_str()});
    ASSERT_TRUE(r.ok()) << procs << ": " << r.error;
    EXPECT_EQ(r.config.num_procs, procs);
  }
  // ...but not past the trace-format ceiling, with a message that says
  // where the wall is.
  OptionsResult huge = parse({"--procs=5000"});
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.error.find("4096"), std::string::npos) << huge.error;
}

TEST(Options, ApplyMemFlagSetsEveryMemorySystemField) {
  MemConfig mem;
  std::string err;
  for (const char* flag :
       {"--protocol=upd", "--topology=ring", "--link-bw=3", "--link-queue=5",
        "--dir-scheme=limptr", "--dir-ptrs=2", "--dir-cluster=8", "--dir-banks=4"}) {
    EXPECT_TRUE(apply_mem_flag(flag, mem, err)) << flag;
    EXPECT_EQ(err, "") << flag;
  }
  EXPECT_EQ(mem.coherence, CoherenceKind::kUpdate);
  EXPECT_EQ(mem.topology, Topology::kRing);
  EXPECT_EQ(mem.link_bw, 3u);
  EXPECT_EQ(mem.link_queue, 5u);
  EXPECT_EQ(mem.dir_scheme, DirScheme::kLimitedPtr);
  EXPECT_EQ(mem.dir_pointers, 2u);
  EXPECT_EQ(mem.dir_cluster, 8u);
  EXPECT_EQ(mem.dir_banks, 4u);
  // Other flags are not memory-system flags.
  for (const char* flag : {"--procs=4", "--spec", "--topology", "mesh2d"})
    EXPECT_FALSE(apply_mem_flag(flag, mem, err)) << flag;
  EXPECT_EQ(err, "");
}

TEST(Options, ApplyMemFlagRejectsMalformedValues) {
  for (const char* flag : {"--link-bw=fast", "--dir-banks=", "--topology=torus",
                           "--link-queue=-1", "--dir-ptrs=4x", "--dir-cluster=4294967296",
                           "--protocol=mesi", "--dir-scheme=exact"}) {
    MemConfig mem;
    std::string err;
    EXPECT_TRUE(apply_mem_flag(flag, mem, err)) << flag;
    EXPECT_EQ(err.rfind(std::string("bad ") + flag + ": expected ", 0), 0u) << err;
    EXPECT_EQ(mem, MemConfig{}) << flag << " changed the config";
  }
  OptionsResult r = parse({"--link-bw=fast"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--link-bw=fast"), std::string::npos) << r.error;
}

TEST(Options, MemFlagsInvertsApplyMemFlag) {
  EXPECT_EQ(mem_flags(MemConfig{}), "");
  MemConfig mesh;
  mesh.topology = Topology::kMesh2D;
  EXPECT_EQ(mem_flags(mesh), "--topology=mesh2d");
  MemConfig coarse;
  coarse.dir_scheme = DirScheme::kCoarseVector;
  coarse.dir_banks = 2;
  EXPECT_EQ(mem_flags(coarse), "--dir-scheme=coarse --dir-banks=2");
  MemConfig all;
  all.coherence = CoherenceKind::kUpdate;
  all.topology = Topology::kRing;
  all.link_bw = 0;
  all.link_queue = 2;
  all.dir_scheme = DirScheme::kLimitedPtr;
  all.dir_pointers = 1;
  all.dir_cluster = 16;
  all.dir_banks = 8;
  for (const MemConfig& m : {MemConfig{}, mesh, coarse, all}) {
    MemConfig back;
    std::string err;
    std::istringstream flags(mem_flags(m));
    for (std::string flag; flags >> flag;) {
      EXPECT_TRUE(apply_mem_flag(flag, back, err)) << flag;
      EXPECT_EQ(err, "") << flag;
    }
    EXPECT_EQ(back, m) << mem_flags(m);
  }
}

TEST(Options, StrictUnsignedParsers) {
  std::uint32_t u32 = 7;
  std::uint64_t u64 = 7;
  EXPECT_TRUE(parse_u32("0x10", u32));
  EXPECT_EQ(u32, 16u);
  EXPECT_TRUE(parse_u64("18446744073709551615", u64));
  EXPECT_EQ(u64, UINT64_MAX);
  for (const char* bad : {"", "abc", "-1", " 1", "+1", "1 ", "12abc", "4294967296"})
    EXPECT_FALSE(parse_u32(bad, u32)) << bad;
  EXPECT_EQ(u32, 16u) << "a failed parse must leave the output alone";
  EXPECT_FALSE(parse_u64("18446744073709551616", u64));
  EXPECT_FALSE(parse_u64("-1", u64));
}

}  // namespace
}  // namespace mcsim

// The Figure 5 walkthrough as a checked test: the §4.2/§4.3 detection
// and correction mechanism must produce the paper's event kinds in
// order, and the architectural result must reflect the NEW value of D.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

namespace mcsim {
namespace {

constexpr Addr kA = 0x2000, kB = 0x3010, kC = 0x4020, kD = 0x5030, kEBase = 0x6040;
constexpr Word kDOld = 5, kDNew = 2;

Program p0_program() {
  ProgramBuilder b;
  b.data(kD, kDOld);
  b.data(kEBase + 4 * kDOld, 555);
  b.data(kEBase + 4 * kDNew, 222);
  b.load(1, ProgramBuilder::abs(kA));
  b.store(0, ProgramBuilder::abs(kB));
  b.store(0, ProgramBuilder::abs(kC));
  b.load(2, ProgramBuilder::abs(kD));
  b.load(3, ProgramBuilder::indexed(kEBase, 2, 2));
  b.halt();
  return b.build();
}

Program p1_program(int delay) {
  ProgramBuilder b;
  for (int i = 0; i < delay; ++i) b.addi(1, 1, 1);
  b.addi(4, 1, static_cast<std::int64_t>(kD) - delay);
  b.li(2, kDNew);
  b.store(2, ProgramBuilder::based(4));
  b.halt();
  return b.build();
}

TEST(Fig5Scenario, DetectionAndCorrectionSequence) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.rob_entries = 128;

  Machine m(cfg, {p0_program(), p1_program(55)});
  m.preload_shared(0, kD);      // "read D (hit)"
  m.preload_exclusive(1, kC);   // store C's ownership arrives last
  m.trace_events().enable();
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);

  // Correction mechanism end to end: E[new D], not E[old D].
  EXPECT_EQ(m.core(0).reg(2), kDNew);
  EXPECT_EQ(m.core(0).reg(3), 222u);
  EXPECT_EQ(m.core(0).stats().get("squashes"), 1u);

  // Event-kind sequence on P0's track (paper events 1, 5, 6, 7/9 in
  // order): speculative inserts for A, D, E[old D]; the invalidation
  // for D; the squash; the re-insert of D; the re-insert of E at the
  // NEW address. Read from the Chrome renderer's instants and args.
  const Json trace = m.trace_events().to_json();
  const Json& ev = trace["traceEvents"];
  std::vector<std::uint64_t> slb_addrs;
  bool saw_inval_d = false, saw_squash = false;
  std::uint64_t inval_cycle = 0, squash_cycle = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const Json& e = ev[i];
    if (e["ph"].as_string() != "i" || e["tid"].as_uint() != 0) continue;
    const std::string name = e["name"].as_string();
    if (name == "coherence:invalidate" && e["args"]["line"].as_uint() == kD) {
      saw_inval_d = true;
      inval_cycle = e["ts"].as_uint();
    }
    if (name == "squash") {
      saw_squash = true;
      squash_cycle = e["ts"].as_uint();
      EXPECT_TRUE(saw_inval_d) << "squash must be caused by the invalidation";
      EXPECT_EQ(e["args"]["why"].as_string(), "speculative load value invalidated");
    }
    if (name == "slb:insert") slb_addrs.push_back(e["args"]["addr"].as_uint());
  }
  EXPECT_TRUE(saw_inval_d);
  EXPECT_TRUE(saw_squash);
  EXPECT_EQ(inval_cycle, squash_cycle) << "detection acts immediately";

  // Five speculative-load inserts: A, D, E[old], then D and E[new] again.
  ASSERT_EQ(slb_addrs.size(), 5u);
  EXPECT_EQ(slb_addrs[0], kA);
  EXPECT_EQ(slb_addrs[1], kD);
  EXPECT_EQ(slb_addrs[2], kEBase + 4 * kDOld);
  EXPECT_EQ(slb_addrs[3], kD);                  // reissued after the squash
  EXPECT_EQ(slb_addrs[4], kEBase + 4 * kDNew);  // new address!
}

TEST(Fig5Scenario, LateInvalidationIsArchitecturallyLegal) {
  // If P1 writes D only after P0's run would retire everything, P0
  // keeps E[old D] — that is a sequentially consistent outcome too
  // (P0's execution wholly precedes P1's store).
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.rob_entries = 512;
  Machine m(cfg, {p0_program(), p1_program(400)});
  m.preload_shared(0, kD);
  m.preload_exclusive(1, kC);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(3), 555u);
  EXPECT_EQ(m.core(0).stats().get("squashes"), 0u);
}

}  // namespace
}  // namespace mcsim

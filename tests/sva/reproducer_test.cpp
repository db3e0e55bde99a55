// Reproducer files must round-trip: the assembler-format rendering of a
// litmus program re-assembles into the same instructions, and the `;;`
// metadata carries every knob needed to replay the failing cell.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "isa/builder.hpp"
#include "sva/litmus_gen.hpp"
#include "sva/reproducer.hpp"

namespace mcsim {
namespace {

using sva::generate_litmus;
using sva::parse_reproducer;
using sva::program_to_asm;
using sva::Reproducer;
using sva::to_reproducer_text;

void expect_same_program(const Program& a, const Program& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t pc = 0; pc < a.size(); ++pc) {
    const Instruction &x = a.at(pc), &y = b.at(pc);
    EXPECT_EQ(x.op, y.op) << "pc " << pc;
    EXPECT_EQ(x.rd, y.rd) << "pc " << pc;
    EXPECT_EQ(x.rs1, y.rs1) << "pc " << pc;
    EXPECT_EQ(x.rs2, y.rs2) << "pc " << pc;
    EXPECT_EQ(x.imm, y.imm) << "pc " << pc;
    EXPECT_EQ(x.sync, y.sync) << "pc " << pc;
    EXPECT_EQ(x.rmw, y.rmw) << "pc " << pc;
    EXPECT_EQ(x.mem.base, y.mem.base) << "pc " << pc;
    EXPECT_EQ(x.mem.index, y.mem.index) << "pc " << pc;
    EXPECT_EQ(x.mem.disp, y.mem.disp) << "pc " << pc;
  }
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i].addr, b.data()[i].addr);
    EXPECT_EQ(a.data()[i].value, b.data()[i].value);
  }
}

TEST(Reproducer, GeneratedLitmusRoundTrips) {
  for (std::uint64_t seed : {3ull, 19ull, 123456789ull}) {
    Reproducer r;
    r.litmus = generate_litmus(sva::LitmusGenConfig{}, seed);
    r.cell.model = ConsistencyModel::kWC;
    r.cell.tech = {PrefetchMode::kNonBinding, true};
    r.note = "checker-violation: something ran backwards";
    const std::string text = to_reproducer_text(r);
    EXPECT_EQ(text.find(";; mem"), std::string::npos) << "default memory system written";
    Reproducer back = parse_reproducer(text);
    EXPECT_EQ(back.litmus.seed, seed);
    EXPECT_EQ(back.cell.model, r.cell.model);
    EXPECT_EQ(back.cell.tech.prefetch, r.cell.tech.prefetch);
    EXPECT_EQ(back.cell.tech.speculative_loads, r.cell.tech.speculative_loads);
    EXPECT_EQ(back.note, r.note);
    EXPECT_EQ(back.litmus.addrs, r.litmus.addrs);
    EXPECT_EQ(back.litmus.preload_shared, r.litmus.preload_shared);
    ASSERT_EQ(back.litmus.programs.size(), r.litmus.programs.size());
    for (std::size_t t = 0; t < r.litmus.programs.size(); ++t)
      expect_same_program(r.litmus.programs[t], back.litmus.programs[t]);
  }
}

TEST(Reproducer, BranchyProgramRoundTripsThroughLabels) {
  // disassemble() output is for humans; program_to_asm must emit real
  // labels so forward branches survive the trip.
  ProgramBuilder b;
  b.li(1, 3);
  b.label("top");
  b.beq(1, 0, "done");
  b.addi(1, 1, -1);
  b.store(1, ProgramBuilder::abs(0x40));
  b.jmp("top");
  b.label("done");
  b.halt();
  b.data(0x40, 9);
  Program p = b.build();
  Reproducer r;
  r.litmus.programs = {p};
  r.litmus.addrs = {0x40};
  Reproducer back = parse_reproducer(to_reproducer_text(r));
  ASSERT_EQ(back.litmus.programs.size(), 1u);
  expect_same_program(p, back.litmus.programs[0]);
}

TEST(Reproducer, SyncAndRmwFlavorsSurvive) {
  ProgramBuilder b;
  b.load_acq(1, ProgramBuilder::abs(0x10));
  b.store_rel(1, ProgramBuilder::abs(0x14));
  b.tas(2, ProgramBuilder::abs(0x18), SyncKind::kAcquire);
  b.fetch_add(3, ProgramBuilder::abs(0x10), 1);
  b.swap(4, ProgramBuilder::abs(0x14), 2);
  b.cas(5, ProgramBuilder::abs(0x18), 1, 2);
  b.halt();
  Program p = b.build();
  Reproducer r;
  r.litmus.programs = {p};
  Reproducer back = parse_reproducer(to_reproducer_text(r));
  expect_same_program(p, back.litmus.programs[0]);
}

TEST(Reproducer, MalformedInputThrows) {
  EXPECT_THROW(parse_reproducer(""), std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; model XX\n;; thread 0\n  halt\n"),
               std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; thread 1\n  halt\n"), std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; thread 0\n  not-an-instruction r1\n"),
               std::runtime_error);
}

TEST(Reproducer, MemorySystemRoundTrips) {
  Reproducer mesh;
  mesh.litmus = generate_litmus(sva::LitmusGenConfig{}, 7);
  mesh.cell.model = ConsistencyModel::kRC;
  mesh.cell.tech = {PrefetchMode::kNonBinding, true};
  mesh.cell.mem.topology = Topology::kMesh2D;
  Reproducer coarse = mesh;
  coarse.cell.mem = MemConfig{};
  coarse.cell.mem.dir_scheme = DirScheme::kCoarseVector;
  coarse.cell.mem.dir_banks = 2;
  coarse.cell.mem.dir_pointers = 2;
  coarse.cell.mem.dir_cluster = 8;
  for (const Reproducer& r : {mesh, coarse}) {
    const std::string text = to_reproducer_text(r);
    EXPECT_NE(text.find(";; mem --"), std::string::npos) << text;
    Reproducer back = parse_reproducer(text);
    EXPECT_EQ(back.cell.mem, r.cell.mem) << text;
    EXPECT_EQ(back.cell.label(), r.cell.label());
  }
  EXPECT_EQ(parse_reproducer(to_reproducer_text(mesh)).cell.label(), "RC/both@mesh2d");
  EXPECT_EQ(parse_reproducer(to_reproducer_text(coarse)).cell.label(), "RC/both#coarsex2");
}

TEST(Reproducer, MalformedMemLineThrowsNamingItsLine) {
  const std::string text = ";; model SC\n;; mem --link-bw=x\n;; thread 0\n  halt\n";
  try {
    parse_reproducer(text);
    FAIL() << "a malformed ;; mem line was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("--link-bw=x"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parse_reproducer(";; mem --rob=4\n;; thread 0\n  halt\n"), std::runtime_error);
}

TEST(Reproducer, WriteAndLoadFile) {
  Reproducer r;
  r.litmus = generate_litmus(sva::LitmusGenConfig{}, 5);
  r.cell.model = ConsistencyModel::kRC;
  const std::string path = ::testing::TempDir() + "/mcsim_repro_test.litmus";
  ASSERT_TRUE(sva::write_reproducer(path, r));
  Reproducer back = sva::load_reproducer(path);
  EXPECT_EQ(back.cell.model, ConsistencyModel::kRC);
  EXPECT_EQ(back.litmus.programs.size(), r.litmus.programs.size());
  std::remove(path.c_str());
  EXPECT_THROW(sva::load_reproducer(path), std::runtime_error);
}

}  // namespace
}  // namespace mcsim

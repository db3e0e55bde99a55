#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace mcsim {

Machine::Machine(const SystemConfig& cfg, std::vector<Program> programs)
    : cfg_(cfg),
      programs_(std::move(programs)),
      net_(cfg.num_procs + std::max<std::uint32_t>(cfg.mem.dir_banks, 1),
           cfg.mem.net_latency, cfg.mem.deliver_bw, cfg.mem.topology,
           cfg.mem.link_bw, cfg.mem.link_queue),
      dir_(cfg.num_procs, cfg.cache, cfg.mem, net_),
      drain_cycle_(cfg.num_procs, 0),
      drained_(cfg.num_procs, false),
      undrained_cores_(cfg.num_procs),
      charged_until_(cfg.num_procs, 0),
      watch_line_(cfg.num_procs, kNoWatch),
      classifier_addr_(cfg.num_procs, 0),
      classifier_probe_valid_(cfg.num_procs, false) {
  std::string err = cfg_.validate();
  if (!err.empty()) throw std::invalid_argument("invalid SystemConfig: " + err);
  if (programs_.size() != cfg_.num_procs)
    throw std::invalid_argument("need exactly one program per processor");

  for (const Program& p : programs_) {
    for (const DataInit& d : p.data()) dir_.memory().write(d.addr, d.value);
  }
  caches_.reserve(cfg_.num_procs);
  cores_.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    caches_.push_back(
        std::make_unique<CoherentCache>(p, cfg_.cache, cfg_.mem, net_, cfg_.num_procs));
    caches_.back()->set_quiescence_counter(&busy_caches_);
  }
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    cores_.push_back(std::make_unique<Core>(p, cfg_, programs_[p], *caches_[p], events_));
  }
  if (cfg_.profile) {
    for (auto& c : caches_) c->set_profiling(true);
    dir_.set_profiling(true);
  }

  // Trace-event tracks: tid 0..P-1 cores, P..2P-1 caches, then one
  // track per directory bank at 2P..2P+B-1 (the single-bank machine
  // keeps the historical "directory" name).
  const std::uint16_t procs = static_cast<std::uint16_t>(cfg_.num_procs);
  for (std::uint16_t p = 0; p < procs; ++p) {
    events_.set_track(p, "core" + std::to_string(p));
    events_.set_track(static_cast<std::uint16_t>(procs + p),
                      "cache" + std::to_string(p));
    caches_[p]->set_event_sink(&events_, static_cast<std::uint16_t>(procs + p));
  }
  const std::uint32_t banks = dir_.num_banks();
  for (std::uint32_t b = 0; b < banks; ++b) {
    events_.set_track(static_cast<std::uint16_t>(2 * procs + b),
                      banks == 1 ? std::string("directory") : "dir" + std::to_string(b));
  }
  dir_.set_event_sink(&events_, static_cast<std::uint16_t>(2 * procs));
  // Ring/mesh link tracks follow the directory banks (2P+B ..); the
  // crossbar has no links, so this only registers tracks for routed
  // topologies.
  net_.set_event_sink(&events_, static_cast<std::uint16_t>(2 * procs + banks));

  // Stall attribution: the LSU can tell an outstanding miss apart from
  // everything else, but only the directory knows whether the line is
  // additionally held up by a pending coherence transaction. The probe
  // address is recorded so the active-set scheduler knows which line a
  // sleeping core's classification depends on (set_core_watch).
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    cores_[p]->lsu().set_mem_classifier([this, p](Addr a) {
      classifier_addr_[p] = a;
      classifier_probe_valid_[p] = true;
      return dir_.line_busy(a) ? StallCause::kDirPending : StallCause::kCacheMiss;
    });
  }

  // Active-set scheduler hooks; both no-op until init_scheduler()
  // marks the scheduler live (so the naive loop, manual step() use,
  // and the audit's shadow machine never pay more than the is-live
  // branch).
  net_.set_delivery_hook([this](EndpointId ep) { on_delivery(ep); });
  dir_.set_busy_hook([this](Addr line) { on_dir_busy_flip(line); });
}

void Machine::step() {
  net_.deliver(cycle_);
  dir_.tick(cycle_);
  for (auto& c : caches_) c->tick(cycle_);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    cores_[p]->tick(cycle_);
    if (!drained_[p] && cores_[p]->drained()) {
      drained_[p] = true;
      drain_cycle_[p] = cycle_;
      --undrained_cores_;
    }
  }
  ++cycle_;
}

bool Machine::done() const {
  const bool fast =
      undrained_cores_ == 0 && busy_caches_ == 0 && net_.idle() && dir_.idle();
  // Audit sampling: the full scan is O(P), and done() is called once
  // per live cycle — auditing every call made P=256 runs quadratic-ish.
  // Every 1024th call keeps the counters honest; run() adds one
  // unconditional scan at the end of every run.
  if (audit_ && (done_calls_++ & 1023u) == 0)
    assert(fast == done_scan() && "O(1) done() diverged from the full scan");
  return fast;
}

bool Machine::done_scan() const {
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    if (!drained_[p]) return false;
  }
  if (!net_.idle() || !dir_.idle()) return false;
  for (const auto& c : caches_) {
    if (!c->idle()) return false;
  }
  return true;
}

Cycle Machine::next_event_cycle() const {
  Cycle ne = net_.next_event(cycle_);
  if (ne <= cycle_) return ne;
  Cycle t = dir_.next_event(cycle_);
  if (t < ne) ne = t;
  // Hierarchical probe: a cache with no MSHRs, pending responses, or
  // deferred fills answers kCycleNever exactly, so when the O(1) busy
  // counter says every cache is idle the whole sweep is skipped — at
  // P=256 the common quiescent probe drops the O(P) cache scan for a
  // counter check. (Cores cannot be skipped the same way: a core that
  // just drained still reports its final tick as progress, and must
  // tick once more before it may be treated as frozen.)
  if (busy_caches_ != 0) {
    for (const auto& c : caches_) {
      t = c->next_event(cycle_);
      if (t < ne) ne = t;
      if (ne <= cycle_) return ne;
    }
  }
  for (const auto& c : cores_) {
    t = c->next_event(cycle_);
    if (t < ne) ne = t;
    if (ne <= cycle_) return ne;
  }
  return ne;
}

void Machine::init_scheduler() {
  const std::uint32_t banks = dir_.num_banks();
  sched_.reset(1 + banks + 2ull * cfg_.num_procs);
  sched_live_ = true;
  watchers_.clear();
  // Arm for whatever state the machine is in (fresh, or mid-flight
  // after manual step() calls): the network from its own earliest
  // deliverable, endpoints with inboxed traffic immediately, caches
  // from their next_event, every core live (its progress flag starts
  // armed, and a core that just ticked under step() must be re-proven
  // quiescent by one live tick before it may sleep).
  sched_.arm(net_comp(), net_.deliver_next_event(cycle_));
  for (std::uint32_t b = 0; b < banks; ++b) {
    if (!net_.inbox_empty(static_cast<EndpointId>(cfg_.num_procs + b)))
      sched_.arm(bank_comp(b), cycle_);
  }
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    Cycle cache_at = caches_[p]->next_event(cycle_);
    if (!net_.inbox_empty(p) || cache_at < cycle_) cache_at = cycle_;
    sched_.arm(cache_comp(p), cache_at);
    sched_.arm(core_comp(p), cycle_);
    charged_until_[p] = cycle_;
    watch_line_[p] = kNoWatch;
  }
}

void Machine::step_active() {
  const Cycle c = cycle_;
  const std::uint32_t banks = dir_.num_banks();
  // Pop order within a cycle is (cycle, id), and ids are assigned in
  // stage order, so the components that do tick run in exactly the
  // naive loop's sequence; everything unarmed is a proven no-op.
  while (!sched_.empty() && sched_.next_cycle() <= c) {
    assert(sched_.next_cycle() == c && "a scheduled wakeup was missed");
    const Scheduler::CompId id = sched_.pop();
    if (id == net_comp()) {
      net_.deliver(c);  // the delivery hook arms receiving banks/caches at c
    } else if (id <= banks) {
      dir_.bank(id - 1).tick(c);  // busy-flip hook flushes watching cores
    } else if (id <= banks + cfg_.num_procs) {
      const ProcId p = static_cast<ProcId>(id - 1 - banks);
      // Flush the deferred span BEFORE the cache mutates state the
      // flush's stall classification reads, and before observer
      // callbacks (invalidation squashes) mutate the core.
      flush_core_charges(p);
      caches_[p]->tick(c);
      // A cache that acted means its core must tick live this cycle
      // (fills queue responses, invalidations squash — the naive loop
      // ticked it too); tick_core_live then re-arms the cache.
      sched_.arm(core_comp(p), c);
    } else {
      tick_core_live(static_cast<ProcId>(id - 1 - banks - cfg_.num_procs));
    }
  }
  // Every message sent this cycle (by any ticked component) is inside
  // the network now, so one re-arm at the end of the cycle covers all
  // of them.
  sched_.arm(net_comp(), net_.deliver_next_event(c + 1));
  ++cycle_;
}

void Machine::tick_core_live(ProcId p) {
  const Cycle c = cycle_;
  flush_core_charges(p);
  classifier_probe_valid_[p] = false;  // only this tick's probe counts
  cores_[p]->tick(c);
  charged_until_[p] = c + 1;
  if (!drained_[p] && cores_[p]->drained()) {
    drained_[p] = true;
    drain_cycle_[p] = c;
    --undrained_cores_;
  }
  const Cycle ne = cores_[p]->next_event(c);
  if (ne <= c) {
    // Progress: the pipeline is live, tick again next cycle.
    sched_.arm(core_comp(p), c + 1);
    set_core_watch(p, kNoWatch);
  } else {
    // Frozen. Timed local events (store-to-load forwarding) arm the
    // core directly; external wake-ups arrive via this cache's or a
    // bank's tick, which re-arm it. If the frozen stall classification
    // read the directory's busy bit, watch that line so the deferred
    // charge is segmented at every flip (kCacheMiss <-> kDirPending).
    sched_.arm(core_comp(p), ne);  // kCycleNever leaves it unarmed
    set_core_watch(p, classifier_probe_valid_[p]
                          ? caches_[p]->line_of(classifier_addr_[p])
                          : kNoWatch);
  }
  // Re-arm the cache after the core tick: a hit probe just queued a
  // response maturing next cycle, and the core's issue may have left a
  // deferred fill to retry. Arming from full component state makes the
  // overwrite-arm always safe.
  Cycle cache_at = caches_[p]->next_event(c + 1);
  if (cache_at < c + 1) cache_at = c + 1;
  sched_.arm(cache_comp(p), cache_at);
}

void Machine::flush_core_charges(ProcId p) {
  if (!sched_live_) return;
  const Cycle upto = cycle_;
  const Cycle from = charged_until_[p];
  if (from >= upto) return;
  // The core has been frozen since `from`, so each naive tick in the
  // span would have charged the same cause as one classification now:
  // every flush runs before the state that classification reads can
  // change (the cache stage flushes before it mutates, a watched
  // busy-bit flip flushes before the flip, a live tick flushes first).
  // The naive ticks did one more thing, which is inert: a rejected
  // probe stamps the cache port with its cycle. Every stamp would lie
  // in [from, upto), and port_free(t) is true for every t after the
  // stamp, so no read at cycle >= upto could tell it apart from the
  // older stamp kept here; classify_*() never reads the port at all.
  cores_[p]->charge_frozen_span(from, static_cast<std::uint64_t>(upto - from));
  charged_until_[p] = upto;
}

void Machine::flush_all_core_charges() {
  for (ProcId p = 0; p < cfg_.num_procs; ++p) flush_core_charges(p);
}

void Machine::on_delivery(EndpointId ep) {
  if (!sched_live_) return;
  if (ep < cfg_.num_procs) {
    sched_.arm(cache_comp(static_cast<ProcId>(ep)), cycle_);
  } else {
    sched_.arm(bank_comp(ep - cfg_.num_procs), cycle_);
  }
}

void Machine::on_dir_busy_flip(Addr line) {
  if (!sched_live_) return;
  const auto it = watchers_.find(line);
  if (it == watchers_.end()) return;
  // The hook fires BEFORE the flip, so the flushed span is classified
  // with the pre-flip busy bit — the same state every naive core tick
  // in that span saw (banks tick before cores; the flip cycle itself
  // is charged later, with post-flip state, by the next flush).
  for (ProcId p : it->second) flush_core_charges(p);
}

void Machine::set_core_watch(ProcId p, Addr line) {
  Addr& cur = watch_line_[p];
  if (cur == line) return;
  if (cur != kNoWatch) {
    const auto it = watchers_.find(cur);
    assert(it != watchers_.end());
    auto& v = it->second;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == p) {
        v[i] = v.back();
        v.pop_back();
        break;
      }
    }
    if (v.empty()) watchers_.erase(it);
  }
  cur = line;
  if (line != kNoWatch) watchers_[line].push_back(p);
}

std::string Machine::audit_fingerprint() const {
  std::ostringstream os;
  os << "cycle=" << cycle_ << '\n';
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    os << "core" << p << " retired=" << cores_[p]->instructions_retired()
       << " halted=" << cores_[p]->halted() << " drained=" << (drained_[p] ? 1 : 0)
       << " drain_cycle=" << drain_cycle_[p] << " regs=";
    for (RegId r = 0; r < kNumArchRegs; ++r) os << cores_[p]->reg(r) << ',';
    os << '\n';
  }
  if (cfg_.profile) {
    // Profiler counters already flow in via stats_report(); the ledger
    // and the unresolved-prefetch tag counts are the profiler state
    // outside any StatSet, so fingerprint them explicitly.
    for (ProcId p = 0; p < cfg_.num_procs; ++p)
      os << "cache" << p << ".pf_pending " << caches_[p]->profile_pending() << '\n';
    os << dir_.ledger().fingerprint();
  }
  os << stats_report();
  return os.str();
}

RunResult Machine::run() {
  // Lockstep audit (MCSIM_AUDIT=1): run a naive-loop twin from the same
  // initial state and assert bit-identical architectural state + stats
  // at every jump target. The twin has fastforward forced off, so it
  // never recurses.
  std::unique_ptr<Machine> shadow;
  if (audit_ && cfg_.fastforward) {
    SystemConfig shadow_cfg = cfg_;
    shadow_cfg.fastforward = false;
    shadow = std::make_unique<Machine>(shadow_cfg, programs_);
    for (const PreloadRecord& rec : preload_log_) {
      if (rec.shared) {
        shadow->preload_shared(rec.proc, rec.addr);
      } else {
        shadow->preload_exclusive(rec.proc, rec.addr);
      }
    }
  }
  auto audit_check = [&]() {
    if (shadow == nullptr) return;
    while (shadow->cycle_ < cycle_) shadow->step();
    const std::string mine = audit_fingerprint();
    const std::string ref = shadow->audit_fingerprint();
    if (mine != ref) {
      std::cerr << "MCSIM_AUDIT divergence at cycle " << cycle_
                << "\n--- fast-forward ---\n"
                << mine << "--- naive ---\n"
                << ref;
      assert(false && "fast-forward diverged from the naive loop");
    }
  };
  if (cfg_.fastforward) {
    // Active-set loop: the heap top is the O(1) answer to "earliest
    // cycle anything can act" — a jump past quiescent cycles costs
    // nothing at all (sleeping cores' charges stay deferred until
    // their wake or the end of the run), and a live cycle ticks only
    // the armed components.
    init_scheduler();
    while (!done() && cycle_ < cfg_.max_cycles) {
      const Cycle ne = sched_.next_cycle();
      if (ne > cycle_) {
        cycle_ = ne < cfg_.max_cycles ? ne : cfg_.max_cycles;
        if (shadow != nullptr) {
          flush_all_core_charges();
          audit_check();
        }
      } else {
        step_active();
      }
    }
    flush_all_core_charges();
    sched_live_ = false;
  } else {
    while (!done() && cycle_ < cfg_.max_cycles) step();
  }
  if (audit_) {
    audit_check();
    assert(done() == done_scan() && "O(1) done() diverged at end of run");
  }
  RunResult r;
  r.deadlocked = !done();
  r.drain_cycle = drain_cycle_;
  r.ticks = cycle_;
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    cores_[p]->flush_stall_episode(cycle_);
    r.retired.push_back(cores_[p]->instructions_retired());
    r.stall.push_back(cores_[p]->stall_cycles());
    if (drain_cycle_[p] > r.cycles) r.cycles = drain_cycle_[p];
  }
  if (r.deadlocked) r.cycles = cycle_;
  return r;
}

namespace {
std::vector<Word> line_from_memory(const FlatMemory& mem, Addr line, std::uint32_t bytes) {
  std::vector<Word> data(bytes / kWordBytes);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = mem.read(line + i * kWordBytes);
  return data;
}
}  // namespace

void Machine::preload_shared(ProcId p, Addr a) {
  preload_log_.push_back(PreloadRecord{true, p, a});
  Addr line = caches_.at(p)->line_of(a);
  caches_[p]->preload_line(line, LineState::kShared,
                           line_from_memory(dir_.memory(), line, cfg_.cache.line_bytes));
  dir_.preload(line, Directory::State::kShared, p);
}

void Machine::preload_exclusive(ProcId p, Addr a) {
  preload_log_.push_back(PreloadRecord{false, p, a});
  Addr line = caches_.at(p)->line_of(a);
  caches_[p]->preload_line(line, LineState::kExclusive,
                           line_from_memory(dir_.memory(), line, cfg_.cache.line_bytes));
  dir_.preload(line, Directory::State::kDirty, p);
}

Word Machine::read_word(Addr a) const {
  for (const auto& c : caches_) {
    if (c->line_state(a) == LineState::kExclusive) return *c->peek_word(a);
  }
  return dir_.memory().read(a);
}

std::string Machine::stats_report() const {
  std::ostringstream os;
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    os << cores_[p]->stats().report();
    const StallBreakdown& stall = cores_[p]->stall_cycles();
    for (std::size_t c = 0; c < kNumStallCauses; ++c) {
      if (stall[c] == 0) continue;
      os << "core" << p << ".stall." << to_string(static_cast<StallCause>(c)) << ' '
         << stall[c] << '\n';
    }
    os << cores_[p]->lsu().stats().report();
    os << caches_[p]->stats().report();
  }
  for (std::uint32_t b = 0; b < dir_.num_banks(); ++b)
    os << dir_.bank(b).stats().report();
  os << net_.stats().report();
  return os.str();
}

Json Machine::post_mortem() const {
  Json out = Json::object();
  out.set("cycle", Json::number(static_cast<std::uint64_t>(cycle_)));
  Json cores = Json::array();
  for (ProcId p = 0; p < cfg_.num_procs; ++p) cores.push_back(cores_[p]->snapshot_json());
  out.set("cores", std::move(cores));
  Json caches = Json::array();
  for (ProcId p = 0; p < cfg_.num_procs; ++p) caches.push_back(caches_[p]->snapshot_json());
  out.set("caches", std::move(caches));
  out.set("network", net_.snapshot_json());
  out.set("directory", dir_.snapshot_json());
  if (cfg_.profile)
    out.set("contended_lines", dir_.contended_lines_json(cfg_.profile_top_lines));
  return out;
}

std::vector<std::vector<AccessRecord>> Machine::access_logs() const {
  std::vector<std::vector<AccessRecord>> logs;
  logs.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) logs.push_back(cores_[p]->lsu().access_log());
  return logs;
}

}  // namespace mcsim

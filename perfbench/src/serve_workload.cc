// The serving workloads: one client thread issuing a seeded stream of
// line-protocol commands to a ServeDriver that runs on a 1-worker local
// Scheduler (closed loop: the next command is sent when the reply is in).
// Each workload is served by a single backend: serve_lookup by the FO
// rewriting, serve_churn by the Datalog fixpoint.

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"
#include "common/scheduler.h"
#include "datalog/fo_rewriter.h"
#include "datalog/rewriter.h"
#include "fragments/fragments.h"
#include "logic/parser.h"
#include "logic/term_store.h"
#include "query/cq.h"
#include "reasoner/bouquet.h"
#include "reasoner/certain.h"
#include "serve/driver.h"
#include "serve/plan.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {

using namespace gfomq;
using namespace gfomq::serve;

namespace {

constexpr int kSessions = 4;

struct DataRel {
  const char* name;
  int arity;
  int weight;  // relative frequency among generated facts
};

struct ServeSpec {
  const char* name;
  const char* ontology;
  const char* query;
  std::vector<DataRel> rels;
  PlanBackend backend;  // the single backend the planner should pick
  int constants;        // per-session constant pool c0..c{n-1}
  int base_target;      // facts per session the deltas balance around
  double delta_share;   // share of commands that are assert/retract
  int warmup;           // untimed commands after set-up
  int rate;             // timed commands per second of --seconds
  int max_checks;       // answers checked per run, spread over the stream
  int setups;           // set-ups per run, spread over the timed loop
  uint64_t salt;
};

const std::vector<ServeSpec>& Specs() {
  static const std::vector<ServeSpec> specs = {
      {"serve_lookup",
       "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x)); "
       "forall x, y (S(x,y) -> B(y));",
       "q(x) :- B(x)",
       {{"R", 2, 1}, {"S", 2, 1}, {"A", 1, 1}},
       PlanBackend::kFoRewrite,
       120, 240, 0.15, 10000, 42000, 20, 15, 0x1001},
      {"serve_churn",
       "forall x . (A0(x) -> A1(x)); "
       "forall x, y (R(x,y) -> (A1(x) -> A1(y)));",
       "q(x) :- A1(x)",
       {{"R", 2, 3}, {"A0", 1, 1}},
       PlanBackend::kDatalogRewrite,
       32, 96, 0.75, 1000, 1000, 40, 64, 0x2002},
  };
  return specs;
}

const ServeSpec* FindSpec(const std::string& name) {
  for (const ServeSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The seeded command stream.

enum class Kind { kAssert, kRetract, kAnswer };

struct Cmd {
  Kind kind = Kind::kAnswer;
  int session = 0;
  int rel = 0;               // index into ServeSpec::rels
  std::array<int, 2> args{};  // constant indices
  bool fresh = false;        // answers: a delta landed since the last one
  uint64_t index = 0;        // position in the stream (seed lines first)
};

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kAssert:
      return "assert";
    case Kind::kRetract:
      return "retract";
    case Kind::kAnswer:
      return "answers";
  }
  return "?";
}

std::string ConstName(int c) {
  std::string name = "c";
  name += std::to_string(c);
  return name;
}

std::string FactText(const ServeSpec& spec, const Cmd& c) {
  const DataRel& r = spec.rels[static_cast<size_t>(c.rel)];
  std::string out = std::string(r.name) + "(" + ConstName(c.args[0]);
  if (r.arity == 2) out += "," + ConstName(c.args[1]);
  return out + ")";
}

std::string LineOf(const ServeSpec& spec, const Cmd& c) {
  std::string line = std::string(KindName(c.kind)) + " s" +
                     std::to_string(c.session) + " ";
  return line +
         (c.kind == Kind::kAnswer ? std::string("q") : FactText(spec, c));
}

/// Generates the command stream and keeps a model of every session's base,
/// so retractions hit present facts, asserts hit absent ones, the base
/// stays near its target size, and the checker knows each base exactly.
class TraceGen {
 public:
  struct Base {
    std::vector<uint64_t> facts;  // packed (rel, a0, a1)
    std::unordered_map<uint64_t, size_t> pos;
    std::vector<int> constants;   // in first-seen order (the session domain)
    std::vector<bool> seen;
    bool dirty = true;            // first answer is always computed
  };

  TraceGen(const ServeSpec& spec, uint64_t seed)
      : spec_(spec),
        rng_(seed * 0x9E3779B97F4A7C15ULL ^ spec.salt),
        bases_(static_cast<size_t>(kSessions)) {
    for (Base& b : bases_) {
      b.seen.assign(static_cast<size_t>(spec.constants), false);
    }
  }

  /// The set-up facts: base_target asserts per session.
  std::vector<Cmd> SeedCommands() {
    std::vector<Cmd> out;
    for (int s = 0; s < kSessions; ++s) {
      for (int i = 0; i < spec_.base_target; ++i) out.push_back(Assert(s));
    }
    return out;
  }

  Cmd Next() {
    int s = static_cast<int>(rng_.Below(static_cast<uint64_t>(kSessions)));
    Base& b = bases_[static_cast<size_t>(s)];
    if (static_cast<double>(rng_.Below(1000000)) <
        spec_.delta_share * 1000000.0) {
      double size = static_cast<double>(b.facts.size());
      double target = static_cast<double>(spec_.base_target);
      double p_assert =
          std::clamp(0.5 + 0.5 * (target - size) / target, 0.1, 0.9);
      bool assert_it = b.facts.empty() ||
                       static_cast<double>(rng_.Below(1000000)) <
                           p_assert * 1000000.0;
      return assert_it ? Assert(s) : Retract(s);
    }
    Cmd c;
    c.kind = Kind::kAnswer;
    c.session = s;
    c.fresh = b.dirty;
    c.index = next_index_++;
    b.dirty = false;
    return c;
  }

  const Base& base(int s) const { return bases_[static_cast<size_t>(s)]; }

  static uint64_t Pack(int rel, int a0, int a1) {
    return (static_cast<uint64_t>(rel) << 40) |
           (static_cast<uint64_t>(a0) << 20) | static_cast<uint64_t>(a1);
  }
  static Cmd Unpack(uint64_t key) {
    Cmd c;
    c.rel = static_cast<int>(key >> 40);
    c.args = {static_cast<int>((key >> 20) & 0xFFFFF),
              static_cast<int>(key & 0xFFFFF)};
    return c;
  }

 private:
  Cmd Assert(int s) {
    Base& b = bases_[static_cast<size_t>(s)];
    uint64_t key = 0;
    Cmd c;
    do {
      c.rel = PickRel();
      const uint64_t n = static_cast<uint64_t>(spec_.constants);
      c.args[0] = static_cast<int>(rng_.Below(n));
      c.args[1] = spec_.rels[static_cast<size_t>(c.rel)].arity == 2
                      ? static_cast<int>(rng_.Below(n))
                      : 0;
      key = Pack(c.rel, c.args[0], c.args[1]);
    } while (b.pos.count(key) != 0);
    b.pos[key] = b.facts.size();
    b.facts.push_back(key);
    int arity = spec_.rels[static_cast<size_t>(c.rel)].arity;
    for (int i = 0; i < arity; ++i) {
      int a = c.args[static_cast<size_t>(i)];
      if (!b.seen[static_cast<size_t>(a)]) {
        b.seen[static_cast<size_t>(a)] = true;
        b.constants.push_back(a);
      }
    }
    b.dirty = true;
    c.kind = Kind::kAssert;
    c.session = s;
    c.index = next_index_++;
    return c;
  }

  int PickRel() {
    int total = 0;
    for (const DataRel& r : spec_.rels) total += r.weight;
    int pick = static_cast<int>(rng_.Below(static_cast<uint64_t>(total)));
    for (size_t i = 0; i < spec_.rels.size(); ++i) {
      pick -= spec_.rels[i].weight;
      if (pick < 0) return static_cast<int>(i);
    }
    return 0;
  }

  Cmd Retract(int s) {
    Base& b = bases_[static_cast<size_t>(s)];
    size_t victim = static_cast<size_t>(rng_.Below(b.facts.size()));
    uint64_t key = b.facts[victim];
    b.facts[victim] = b.facts.back();
    b.pos[b.facts[victim]] = victim;
    b.facts.pop_back();
    b.pos.erase(key);
    b.dirty = true;
    Cmd c = Unpack(key);
    c.kind = Kind::kRetract;
    c.session = s;
    c.index = next_index_++;
    return c;
  }

  const ServeSpec& spec_;
  Rng rng_;
  std::vector<Base> bases_;
  uint64_t next_index_ = 0;
};

// ---------------------------------------------------------------------------
// Output check: certain answers from a fresh solver on the session's base.

struct Sample {
  Cmd cmd;
  std::vector<uint64_t> facts;
  std::vector<int> constants;
  std::string reply;
};

std::set<std::string> ReplyTuples(const std::string& reply) {
  std::set<std::string> out;
  std::istringstream in(reply);
  std::string tok;
  while (in >> tok) {
    if (!tok.empty() && tok.front() == '(') out.insert(tok);
  }
  return out;
}

class Checker {
 public:
  explicit Checker(const ServeSpec& spec) : spec_(spec), sym_(MakeSymbols()) {
    auto onto = ParseOntology(spec.ontology, sym_);
    auto q = ParseUcq(spec.query, sym_);
    if (!onto.ok() || !q.ok()) return;
    for (const DataRel& r : spec.rels) {
      rel_ids_.push_back(sym_->Rel(r.name, r.arity));
    }
    auto solver = CertainAnswerSolver::Create(*onto);
    if (!solver.ok()) return;
    solver_ = std::make_unique<CertainAnswerSolver>(std::move(*solver));
    query_ = std::make_unique<Ucq>(std::move(*q));
  }

  /// "" when the reply equals the reference; else a description.
  std::string Check(const Sample& s) {
    if (!solver_) return "reference solver could not be built";
    Instance db(sym_);
    std::vector<ElemId> elem(static_cast<size_t>(spec_.constants), 0);
    for (int c : s.constants) {
      elem[static_cast<size_t>(c)] = db.AddConstant(ConstName(c));
    }
    for (uint64_t key : s.facts) {
      Cmd f = TraceGen::Unpack(key);
      int arity = spec_.rels[static_cast<size_t>(f.rel)].arity;
      std::vector<ElemId> args;
      for (int i = 0; i < arity; ++i) {
        int c = f.args[static_cast<size_t>(i)];
        args.push_back(elem[static_cast<size_t>(c)]);
      }
      db.AddFact(rel_ids_[static_cast<size_t>(f.rel)], std::move(args));
    }
    // Tuples in the driver's reply format: "(c1,c2)".
    auto texts = [&db](const auto& tuples) {
      std::set<std::string> out;
      for (const std::vector<ElemId>& tuple : tuples) {
        std::string t = "(";
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i) t += ",";
          t += db.ElemName(tuple[i]);
        }
        out.insert(t + ")");
      }
      return out;
    };
    std::vector<std::vector<ElemId>> unknown;
    std::set<std::string> want =
        texts(solver_->CertainAnswers(db, *query_, &unknown));
    std::set<std::string> got = ReplyTuples(s.reply);
    if (!unknown.empty()) ++undecided_;
    if (got == want) return "";
    // Tuples the reference could not decide are not held against the reply.
    std::set<std::string> undecided = texts(unknown);
    for (const std::string& t : got) {
      if (want.count(t) == 0 && undecided.count(t) == 0) {
        return "answer " + t + " is not certain";
      }
    }
    for (const std::string& t : want) {
      if (got.count(t) == 0) return "certain answer " + t + " missing";
    }
    return "";
  }

  uint64_t undecided() const { return undecided_; }

 private:
  const ServeSpec& spec_;
  SymbolsPtr sym_;
  std::vector<uint32_t> rel_ids_;
  std::unique_ptr<CertainAnswerSolver> solver_;
  std::unique_ptr<Ucq> query_;
  uint64_t undecided_ = 0;
};

/// The checked answers: the stream of `total` commands (warm-up plus timed)
/// is cut into `strata` equal parts, and in each the first answer at or
/// after a seeded position is checked, so the sample covers the whole run
/// and the seed fixes it.
class CheckPicker {
 public:
  CheckPicker(uint64_t seed, uint64_t total, int strata)
      : seed_(seed), total_(total), strata_(static_cast<uint64_t>(strata)) {
    Enter(0);
  }
  /// Whether the command at stream position `pos` (counted from 0, one
  /// call per command in order) is checked.
  bool Pick(uint64_t pos, bool is_answer) {
    while (stratum_ < strata_ && pos >= End(stratum_)) Enter(stratum_ + 1);
    if (stratum_ >= strata_ || pos < pick_ || !is_answer) return false;
    Enter(stratum_ + 1);
    return true;
  }

 private:
  uint64_t End(uint64_t k) const { return total_ * (k + 1) / strata_; }
  void Enter(uint64_t k) {
    stratum_ = k;
    if (k >= strata_) return;
    uint64_t start = total_ * k / strata_;
    uint64_t h = (seed_ + 0x632BE59BD9B4E019ULL) * 0x9E3779B97F4A7C15ULL ^
                 (k * 0xBF58476D1CE4E5B9ULL);
    h ^= h >> 31;
    pick_ = start + h % std::max<uint64_t>(1, End(k) - start);
  }

  uint64_t seed_;
  uint64_t total_;
  uint64_t strata_;
  uint64_t stratum_ = 0;
  uint64_t pick_ = 0;
};

// ---------------------------------------------------------------------------
// The untraced driver pass.

PlanOptions MakePlanOptions(Scheduler* sched) {
  PlanOptions plan;
  plan.engine.bouquet.max_outdegree = kBouquetOutdegree;
  plan.engine.scheduler = sched;
  return plan;
}

struct Setup {
  std::unique_ptr<ServeDriver> driver;
  double seconds = 0;
};

Setup SetUp(const ServeSpec& spec, const std::vector<Cmd>& seeds,
            Scheduler* sched, RunResult* result) {
  Clock::time_point t0 = Clock::now();
  DriverOptions options;
  options.plan = MakePlanOptions(sched);
  options.scheduler = sched;
  Setup setup;
  setup.driver = std::make_unique<ServeDriver>(options);
  std::vector<std::string> lines = {std::string("ontology O ") + spec.ontology};
  for (int s = 0; s < kSessions; ++s) {
    lines.push_back("session s" + std::to_string(s) + " O");
    lines.push_back("query s" + std::to_string(s) + " q " + spec.query);
  }
  for (const Cmd& c : seeds) lines.push_back(LineOf(spec, c));
  for (const std::string& line : lines) {
    std::string reply = setup.driver->HandleLine(line);
    ++result->attempted;
    if (reply.rfind("ok", 0) != 0 || reply == "ok absent") {
      result->Fail("set-up `" + line + "` -> " + reply);
    }
  }
  setup.seconds = MicrosSince(t0) / 1e6;
  return setup;
}

// Latency samples kept per command class; a run times up to ~100k fresh
// answers, so percentiles come from a seeded reservoir of this size.
constexpr size_t kReservoir = 16384;

struct PassStats {
  explicit PassStats(uint64_t seed)
      : fresh(kReservoir, seed ^ 0xF1),
        cached(kReservoir, seed ^ 0xC2),
        update(kReservoir, seed ^ 0xD3) {}
  LatencySample fresh, cached, update;  // HandleLine latencies (µs)
  double exec_us = 0;                   // time inside HandleLine
  uint64_t commands = 0;
  uint64_t warmup_commands = 0;
  std::vector<Sample> samples;
};

/// Runs the warm-up and then the timed closed loop on `driver`, checking
/// every reply's status and collecting the seeded answer sample. The timed
/// loop issues spec.rate × `seconds` commands (fixed work, so the sample
/// and the memory footprint do not depend on the host's speed), cut short
/// only if it runs past 4 × `seconds`. `between` is called `interleave`
/// times at evenly spaced points of the timed loop, outside its timing.
PassStats DrivePass(const ServeSpec& spec, uint64_t seed, TraceGen* gen,
                    ServeDriver* driver, double seconds, RunResult* result,
                    int interleave = 0,
                    const std::function<void()>& between = nullptr) {
  PassStats pass(seed);
  const uint64_t target = static_cast<uint64_t>(spec.rate * seconds);
  CheckPicker picker(seed, static_cast<uint64_t>(spec.warmup) + target,
                     spec.max_checks);
  uint64_t generated = 0;
  // The base a sampled answer must reflect is snapshotted when the command
  // is generated, since generation runs a chunk ahead of execution.
  std::vector<Sample> pending;
  auto next = [&]() {
    Cmd c = gen->Next();
    if (picker.Pick(generated++, c.kind == Kind::kAnswer)) {
      const TraceGen::Base& b = gen->base(c.session);
      pending.push_back(Sample{c, b.facts, b.constants, ""});
    }
    return c;
  };
  auto run = [&](const Cmd& c, bool timed) {
    std::string line = LineOf(spec, c);
    Clock::time_point t0 = Clock::now();
    std::string reply = driver->HandleLine(line);
    double us = MicrosSince(t0);
    ++result->attempted;
    bool ok = c.kind == Kind::kAnswer ? reply.rfind("ok answers", 0) == 0
                                      : reply == "ok";
    if (!ok) result->Fail("command " + std::to_string(c.index) + " `" + line +
                          "` -> " + reply);
    if (!pending.empty() && pending.front().cmd.index == c.index) {
      pending.front().reply = reply;
      pass.samples.push_back(std::move(pending.front()));
      pending.erase(pending.begin());
    }
    if (!timed) return;
    pass.exec_us += us;
    ++pass.commands;
    if (c.kind != Kind::kAnswer) {
      pass.update.Add(us);
    } else {
      (c.fresh ? pass.fresh : pass.cached).Add(us);
    }
  };
  for (int i = 0; i < spec.warmup; ++i) run(next(), false);
  pass.warmup_commands = static_cast<uint64_t>(spec.warmup);
  std::vector<Cmd> chunk;
  int interleaved = 0;
  Clock::time_point start = Clock::now();
  while (pass.commands < target) {
    // Chunks are 64 commands; the call lands at the chunk boundary that
    // first reaches its share of `target`.
    while (interleaved < interleave &&
           pass.commands * static_cast<uint64_t>(interleave + 1) >=
               target * static_cast<uint64_t>(interleaved + 1)) {
      between();
      ++interleaved;
    }
    if (MicrosSince(start) > 4 * seconds * 1e6) {
      std::fprintf(stderr,
                   "perfbench: %s stopped after %llu of %llu commands "
                   "(time cap)\n",
                   spec.name, static_cast<unsigned long long>(pass.commands),
                   static_cast<unsigned long long>(target));
      break;
    }
    chunk.clear();
    for (uint64_t i = 0; i < 64 && pass.commands + i < target; ++i) {
      chunk.push_back(next());
    }
    for (const Cmd& c : chunk) run(c, true);
  }
  return pass;
}

void CheckSamples(const ServeSpec& spec, const PassStats& pass,
                  RunResult* result) {
  Clock::time_point t0 = Clock::now();
  Checker checker(spec);
  for (const Sample& s : pass.samples) {
    std::string why = checker.Check(s);
    if (!why.empty()) {
      result->Fail("command " + std::to_string(s.cmd.index) + " `" +
                   LineOf(spec, s.cmd) + "`: " + why + " (reply: " +
                   s.reply.substr(0, 200) + ")");
    }
  }
  std::fprintf(stderr,
               "perfbench: %s checked %zu sampled answers (commands %llu to "
               "%llu) against a fresh solver in %.2f s (%llu with undecided "
               "tuples)\n",
               spec.name, pass.samples.size(),
               static_cast<unsigned long long>(
                   pass.samples.empty() ? 0 : pass.samples.front().cmd.index),
               static_cast<unsigned long long>(
                   pass.samples.empty() ? 0 : pass.samples.back().cmd.index),
               MicrosSince(t0) / 1e6,
               static_cast<unsigned long long>(checker.undecided()));
}

// ---------------------------------------------------------------------------
// The traced replay on benchmark-owned Sessions.

// Counter slots recorded as deltas at every replayed Session call.
enum Slot {
  kFullEvaluations,
  kIncrementalRefreshes,
  kDredRounds,
  kOverdeleted,
  kRederived,
  kAnswerCacheHits,
  kNoopDeltas,
  kFoEvaluations,
  kTableauSteps,
  kBranchesOpened,
  kGuardMatchProbes,
  kCowCopies,
  kCacheHits,
  kCacheMisses,
  kCacheEvictions,
  kNumSlots
};

const char* const kSlotNames[kNumSlots] = {
    "full_evaluations",   "incremental_refreshes", "dred_rounds",
    "overdeleted_facts",  "rederived_facts",       "answer_cache_hits",
    "noop_deltas",        "fo_evaluations",        "tableau_steps",
    "branches_opened",    "guard_match_probes",    "cow_copies",
    "cache_hits",         "cache_misses",          "cache_evictions"};

using Counters = std::array<int64_t, kNumSlots>;

Counters Snapshot(const Session& session, bool solver_too) {
  Counters c{};
  const SessionStats& s = session.stats();
  c[kFullEvaluations] = static_cast<int64_t>(s.full_evaluations);
  c[kIncrementalRefreshes] = static_cast<int64_t>(s.incremental_refreshes);
  c[kDredRounds] = static_cast<int64_t>(s.dred_rounds);
  c[kOverdeleted] = static_cast<int64_t>(s.overdeleted_facts);
  c[kRederived] = static_cast<int64_t>(s.rederived_facts);
  c[kAnswerCacheHits] = static_cast<int64_t>(s.answer_cache_hits);
  c[kNoopDeltas] = static_cast<int64_t>(s.noop_deltas);
  c[kFoEvaluations] = static_cast<int64_t>(s.fo_evaluations);
  if (solver_too) {
    CertainAnswerSolver& solver = session.plan()->solver();
    TableauStats t = solver.tableau_stats();
    ConsistencyCacheStats cache = solver.cache_stats();
    c[kTableauSteps] = static_cast<int64_t>(t.steps);
    c[kBranchesOpened] = static_cast<int64_t>(t.branches_opened);
    c[kGuardMatchProbes] = static_cast<int64_t>(t.guard_match_probes);
    c[kCowCopies] = static_cast<int64_t>(t.cow_copies);
    c[kCacheHits] = static_cast<int64_t>(cache.hits);
    c[kCacheMisses] = static_cast<int64_t>(cache.misses);
    c[kCacheEvictions] = static_cast<int64_t>(cache.evictions);
  }
  return c;
}

struct ReplayStats {
  double exec_us = 0;  // time inside the replayed Session calls' loop
  Counters totals{};
  uint64_t fresh_answers = 0;
  double plan_compile_ms = 0;
  double query_compile_ms = 0;
  double parse_ontology_us = 0;
  double parse_ucq_us = 0;
  uint64_t errors = 0;
};

/// Replays set-up plus the first `count` stream commands on Sessions the
/// benchmark owns. Every Session call runs in a span when `tracer` is on.
ReplayStats Replay(const ServeSpec& spec, uint64_t seed, size_t count,
                   Scheduler* sched, Tracer* tracer) {
  ReplayStats out;
  SymbolsPtr sym = MakeSymbols();
  PlanCache cache(MakePlanOptions(sched));
  Clock::time_point t0 = Clock::now();
  Result<Ontology> onto = [&] {
    ScopedSpan span(tracer, "logic.parse_ontology", -1);
    return ParseOntology(spec.ontology, sym);
  }();
  out.parse_ontology_us = MicrosSince(t0);
  if (!onto.ok()) {
    ++out.errors;
    return out;
  }
  t0 = Clock::now();
  Result<std::shared_ptr<OmqPlan>> plan = [&] {
    ScopedSpan span(tracer, "serve.plan.compile", -1);
    return cache.GetOrCompile(*onto);
  }();
  out.plan_compile_ms = MicrosSince(t0) / 1000.0;
  if (!plan.ok()) {
    ++out.errors;
    return out;
  }
  t0 = Clock::now();
  Result<Ucq> q = [&] {
    ScopedSpan span(tracer, "logic.parse_ucq", -1);
    return ParseUcq(spec.query, sym);
  }();
  out.parse_ucq_us = MicrosSince(t0);
  if (!q.ok()) {
    ++out.errors;
    return out;
  }
  t0 = Clock::now();
  Result<std::shared_ptr<const CompiledQuery>> compiled = [&] {
    ScopedSpan span(tracer, "serve.plan.query_compile", -1);
    return (*plan)->CompileQuery(*q);
  }();
  out.query_compile_ms = MicrosSince(t0) / 1000.0;
  if (!compiled.ok()) {
    ++out.errors;
    return out;
  }

  std::vector<uint32_t> rel_ids;
  for (const DataRel& r : spec.rels) {
    rel_ids.push_back(sym->Rel(r.name, r.arity));
  }
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < kSessions; ++s) {
    Result<std::shared_ptr<OmqPlan>> p = cache.GetOrCompile(*onto);
    if (!p.ok()) {
      ++out.errors;
      return out;
    }
    sessions.push_back(std::make_unique<Session>(*p));
    if (!sessions.back()->RegisterQuery("q", *q).ok()) ++out.errors;
  }
  // The solver's tableau and cache counters move only on a tableau-served
  // query (a planner flip would show there).
  bool solver_counters = (*compiled)->backend == PlanBackend::kTableau;
  auto apply = [&](const Cmd& c, bool timed) {
    Session& session = *sessions[static_cast<size_t>(c.session)];
    Fact f{0, {}};
    if (c.kind != Kind::kAnswer) {
      f.rel = rel_ids[static_cast<size_t>(c.rel)];
      int arity = spec.rels[static_cast<size_t>(c.rel)].arity;
      for (int i = 0; i < arity; ++i) {
        f.args.push_back(
            session.AddConstant(ConstName(c.args[static_cast<size_t>(i)])));
      }
    }
    const char* name = c.kind == Kind::kAnswer
                           ? (c.fresh ? "serve.session.answers"
                                      : "serve.session.answers_cached")
                       : c.kind == Kind::kAssert ? "serve.session.assert"
                                                 : "serve.session.retract";
    bool counters = tracer != nullptr && timed;
    Counters before{};
    if (counters) {
      before = Snapshot(session, solver_counters && c.kind == Kind::kAnswer);
    }
    Clock::time_point start = Clock::now();
    bool ok = true;
    {
      ScopedSpan span(timed ? tracer : nullptr, name,
                      static_cast<int64_t>(c.index));
      if (c.kind == Kind::kAnswer) {
        ok = session.Answers("q").ok();
      } else if (c.kind == Kind::kAssert) {
        Result<bool> r = session.Assert(f);
        ok = r.ok() && *r;
      } else {
        Result<bool> r = session.Retract(f);
        ok = r.ok() && *r;
      }
    }
    if (timed) out.exec_us += MicrosSince(start);
    if (!ok) ++out.errors;
    if (counters) {
      Counters after =
          Snapshot(session, solver_counters && c.kind == Kind::kAnswer);
      for (size_t i = 0; i < kNumSlots; ++i) {
        out.totals[i] += after[i] - before[i];
      }
    }
    if (timed && c.kind == Kind::kAnswer && c.fresh) ++out.fresh_answers;
  };
  TraceGen gen(spec, seed);
  for (const Cmd& c : gen.SeedCommands()) apply(c, false);
  for (int i = 0; i < spec.warmup; ++i) apply(gen.Next(), false);
  std::vector<Cmd> chunk;
  for (size_t done = 0; done < count;) {
    chunk.clear();
    for (size_t i = 0; i < 64 && done + i < count; ++i) {
      chunk.push_back(gen.Next());
    }
    for (const Cmd& c : chunk) apply(c, true);
    done += chunk.size();
  }
  return out;
}

/// Per-layer metrics of the traced run (see NOTES.md for the map).
void TracedRun(const ServeSpec& spec, const RunArgs& args, Scheduler* sched,
               RunResult* result) {
  TermStoreStats terms0 = FormulaStoreStats();
  TraceGen gen(spec, args.seed);
  std::vector<Cmd> seeds = gen.SeedCommands();
  Setup setup = SetUp(spec, seeds, sched, result);
  SchedulerStats sched0 = sched->stats();
  PassStats pass = DrivePass(spec, args.seed, &gen, setup.driver.get(),
                             std::max(1.0, args.seconds / 2), result);
  SchedulerStats sched1 = sched->stats();
  PlanCacheStats plan_cache = setup.driver->plans().stats();
  PlannerStats planner = setup.driver->plans().PlannerTotals();
  setup.driver.reset();
  CheckSamples(spec, pass, result);

  // The same stream replayed on benchmark-owned sessions: untraced for the
  // overhead baseline, then traced.
  ReplayStats plain = Replay(spec, args.seed, pass.commands, sched, nullptr);
  Tracer tracer;
  ReplayStats traced = Replay(spec, args.seed, pass.commands, sched, &tracer);
  if (plain.errors + traced.errors > 0) {
    result->Fail("replayed Session calls failed: " +
                 std::to_string(plain.errors + traced.errors));
  }

  // Layer functions the driver calls inside registration, timed directly.
  SymbolsPtr sym = MakeSymbols();
  Result<Ontology> onto = ParseOntology(spec.ontology, sym);
  Result<Ucq> q = ParseUcq(spec.query, sym);
  double fragments_us = 0, decide_ms = 0, rewrite_ms = 0, unfold_ms = 0;
  MetaDecision md;
  if (onto.ok() && q.ok()) {
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&tracer, "fragments.classify", -1);
      ClassifyOntology(*onto);
    }
    fragments_us = MicrosSince(t0);
    auto solver = CertainAnswerSolver::Create(*onto);
    if (solver.ok()) {
      BouquetOptions bouquet;
      bouquet.max_outdegree = kBouquetOutdegree;
      bouquet.scheduler = sched;
      t0 = Clock::now();
      {
        ScopedSpan span(&tracer, "reasoner.bouquet.decide", -1);
        md = DecidePtimeByBouquets(*solver, sym, onto->Signature(), bouquet);
      }
      decide_ms = MicrosSince(t0) / 1000.0;
    }
    t0 = Clock::now();
    Result<RewriteResult> rw = [&] {
      ScopedSpan span(&tracer, "datalog.rewrite", -1);
      return RewriteToDatalog(*onto, *q, RewriterOptions{});
    }();
    rewrite_ms = MicrosSince(t0) / 1000.0;
    if (rw.ok()) {
      std::set<uint32_t> edb;
      for (uint32_t r : onto->Signature()) edb.insert(r);
      for (const Cq& d : q->disjuncts) {
        for (const CqAtom& a : d.atoms) edb.insert(a.rel);
      }
      t0 = Clock::now();
      {
        ScopedSpan span(&tracer, "datalog.fo_unfold", -1);
        RewriteToUcq(rw->program,
                     std::vector<uint32_t>(edb.begin(), edb.end()),
                     RewriterOptions{}.fo);
      }
      unfold_ms = MicrosSince(t0) / 1000.0;
    }
  }
  TermStoreStats terms1 = FormulaStoreStats();

  Metrics& m = result->metrics;
  InitLayerMetrics(&m);
  auto us = [](std::vector<double> v, double q) {
    return Percentile(std::move(v), q);
  };
  std::vector<double> s_fresh = tracer.Durations("serve.session.answers");
  std::vector<double> s_cached =
      tracer.Durations("serve.session.answers_cached");
  std::vector<double> s_update = tracer.Durations("serve.session.assert");
  for (double d : tracer.Durations("serve.session.retract")) {
    s_update.push_back(d);
  }
  SetLayer(&m, "serve.client.answer_p50_us", pass.fresh.Percentile(0.5));
  SetLayer(&m, "serve.client.answer_p99_us", pass.fresh.Percentile(0.99));
  SetLayer(&m, "serve.client.cached_answer_p50_us",
           pass.cached.Percentile(0.5));
  SetLayer(&m, "serve.client.update_p50_us", pass.update.Percentile(0.5));
  SetLayer(&m, "serve.driver.self_answer_p50_us",
           pass.fresh.Percentile(0.5) - us(s_fresh, 0.5));
  SetLayer(&m, "serve.driver.self_cached_answer_p50_us",
           pass.cached.Percentile(0.5) - us(s_cached, 0.5));
  SetLayer(&m, "serve.driver.self_update_p50_us",
           pass.update.Percentile(0.5) - us(s_update, 0.5));
  SetLayer(&m, "serve.session.answer_p50_us", us(s_fresh, 0.5));
  SetLayer(&m, "serve.session.answer_p99_us", us(s_fresh, 0.99));
  SetLayer(&m, "serve.session.cached_answer_p50_us", us(s_cached, 0.5));
  SetLayer(&m, "serve.session.update_p50_us", us(s_update, 0.5));
  const Counters& t = traced.totals;
  auto total = [&t](Slot slot) { return static_cast<double>(t[slot]); };
  const double fresh =
      static_cast<double>(std::max<uint64_t>(1, traced.fresh_answers));
  SetLayer(&m, "serve.session.answer_cache_hits", total(kAnswerCacheHits));
  SetLayer(&m, "serve.session.noop_deltas", total(kNoopDeltas));
  SetLayer(&m, "serve.plan.compile_ms", traced.plan_compile_ms);
  SetLayer(&m, "serve.plan.query_compile_ms", traced.query_compile_ms);
  SetLayer(&m, "serve.plan_cache.hit_rate", plan_cache.HitRate());
  const std::pair<const char*, PlanBackend> chosen[] = {
      {"serve.planner.chosen_fo", PlanBackend::kFoRewrite},
      {"serve.planner.chosen_datalog", PlanBackend::kDatalogRewrite},
      {"serve.planner.chosen_cspsat", PlanBackend::kCspSat},
      {"serve.planner.chosen_tableau", PlanBackend::kTableau}};
  for (const auto& [name, backend] : chosen) {
    SetLayer(&m, name,
             static_cast<double>(planner.chosen[static_cast<int>(backend)]));
  }
  SetLayer(&m, "serve.planner.truncated_fallbacks",
           static_cast<double>(planner.truncated_fallbacks));
  SetLayer(&m, "datalog.full_evaluations", total(kFullEvaluations) / fresh);
  SetLayer(&m, "datalog.incremental_refreshes",
           total(kIncrementalRefreshes) / fresh);
  SetLayer(&m, "datalog.dred_rounds", total(kDredRounds) / fresh);
  SetLayer(&m, "datalog.overdeleted_facts", total(kOverdeleted) / fresh);
  SetLayer(&m, "datalog.rederived_facts", total(kRederived) / fresh);
  SetLayer(&m, "datalog.rewrite_ms", rewrite_ms);
  SetLayer(&m, "datalog.fo_unfold_ms", unfold_ms);
  SetLayer(&m, "query.fo_evaluations", total(kFoEvaluations));
  SetLayer(&m, "reasoner.tableau.steps", total(kTableauSteps));
  SetLayer(&m, "reasoner.tableau.branches_opened", total(kBranchesOpened));
  SetLayer(&m, "reasoner.tableau.guard_match_probes",
           total(kGuardMatchProbes));
  SetLayer(&m, "reasoner.tableau.cow_copies", total(kCowCopies));
  const double lookups = total(kCacheHits) + total(kCacheMisses);
  SetLayer(&m, "reasoner.cache.hit_rate",
           lookups > 0 ? total(kCacheHits) / lookups : 0);
  SetLayer(&m, "reasoner.cache.evictions", total(kCacheEvictions));
  SetLayer(&m, "reasoner.bouquet.decide_p50_ms", decide_ms);
  SetLayer(&m, "reasoner.bouquet.bouquets_probed",
           static_cast<double>(md.stats.bouquets_probed));
  SetLayer(&m, "reasoner.bouquet.violations_found",
           static_cast<double>(md.stats.violations_found));
  SetLayer(&m, "fragments.classify_p50_us", fragments_us);
  SetLayer(&m, "logic.parse_ontology_us", traced.parse_ontology_us);
  SetLayer(&m, "logic.parse_ucq_us", traced.parse_ucq_us);
  TermStoreStats dterms{terms1.hits - terms0.hits,
                        terms1.misses - terms0.misses};
  SetLayer(&m, "logic.term_store.hit_rate", dterms.HitRate());
  SetSchedulerDeltas(&m, sched0, sched1);
  SetLayer(&m, "trace.overhead_pct",
           100.0 * (traced.exec_us - plain.exec_us) / plain.exec_us);
  SetLayer(&m, "trace.spans", static_cast<double>(tracer.spans().size()));

  if (!args.trace_out.empty()) {
    std::string header = "{\"workload\": \"" + std::string(spec.name) +
                         "\", \"seed\": " + std::to_string(args.seed) +
                         ", \"host\": " + args.host_json +
                         ", \"counter_slots\": [";
    for (size_t i = 0; i < kNumSlots; ++i) {
      header += std::string(i ? ", " : "") + "\"" + kSlotNames[i] + "\"";
    }
    header += "], \"counter_totals\": [";
    for (size_t i = 0; i < kNumSlots; ++i) {
      header += (i ? ", " : "") + std::to_string(t[i]);
    }
    header += "]}";
    if (!tracer.Dump(args.trace_out, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

std::string ServeTraceText(const std::string& workload, uint64_t seed,
                           size_t count) {
  const ServeSpec* spec = FindSpec(workload);
  if (spec == nullptr) return "";
  TraceGen gen(*spec, seed);
  std::string out;
  for (const Cmd& c : gen.SeedCommands()) out += LineOf(*spec, c) + "\n";
  for (size_t i = 0; i < count; ++i) {
    Cmd c = gen.Next();
    out += LineOf(*spec, c) + (c.fresh ? " #fresh\n" : "\n");
  }
  return out;
}

RunResult RunServe(const RunArgs& args) {
  const ServeSpec& spec = *FindSpec(args.workload);
  RunResult result;
  Scheduler sched(1);
  if (args.trace) {
    TracedRun(spec, args, &sched, &result);
    return result;
  }
  // The workload is set up spec.setups times and the median is reported:
  // once for the driver that serves the loop, and the other times on
  // throw-away drivers between stretches of the timed loop (outside its
  // timing). The host's speed changes within a run (NOTES.md, Findings),
  // so set-ups spread over the run sample it as the loop does, where
  // back-to-back set-ups at the start would all land in one phase.
  TraceGen gen(spec, args.seed);
  std::vector<Cmd> seeds = gen.SeedCommands();
  Setup setup = SetUp(spec, seeds, &sched, &result);
  std::vector<double> setups = {setup.seconds};
  PlannerStats planner = setup.driver->plans().PlannerTotals();
  if (planner.chosen[static_cast<int>(spec.backend)] == 0) {
    result.Fail(std::string("planner did not choose the ") +
                BackendName(spec.backend) + " backend");
  }
  PassStats pass = DrivePass(
      spec, args.seed, &gen, setup.driver.get(), args.seconds, &result,
      spec.setups - 1,
      [&] { setups.push_back(SetUp(spec, seeds, &sched, &result).seconds); });
  setup.driver.reset();
  std::fprintf(stderr, "perfbench: %s set-ups (s):", spec.name);
  for (double s : setups) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n");
  CheckSamples(spec, pass, &result);
  std::fprintf(stderr,
               "perfbench: %s timed %llu commands (%zu fresh answers, p50 "
               "%.1f us; %zu cached; %zu updates) after %llu warm-up "
               "commands\n",
               spec.name, static_cast<unsigned long long>(pass.commands),
               static_cast<size_t>(pass.fresh.count()),
               pass.fresh.Percentile(0.5),
               static_cast<size_t>(pass.cached.count()),
               static_cast<size_t>(pass.update.count()),
               static_cast<unsigned long long>(pass.warmup_commands));
  Metrics& m = result.metrics;
  m.Set("setup_s", Median(setups), "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("ops_per_s", static_cast<double>(pass.commands) / (pass.exec_us / 1e6),
        "1/s");
  m.Set("op_mean_us", pass.fresh.Mean(), "us");
  m.Set("op_p90_us", pass.fresh.Percentile(0.9), "us");
  return result;
}

}  // namespace perfbench

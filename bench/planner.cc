// Multi-backend planner — the perf story of the serving layer's backend
// lattice. Three seeded OMQ families, each with a characteristic
// best backend, are run as identical assert/retract storms through
// sessions whose plans either pin one backend or let the planner choose:
//
//  - lookup: a non-recursive hierarchy ontology whose Datalog rewriting
//    unfolds into a small UCQ — the FO fast path answers by pure indexed
//    matching, pays zero maintenance on retraction (the storm is
//    retract-heavy to make DRed visible on the pinned-datalog run), and
//    must beat the fixpoint (`fo_beats_datalog`, ci-gated);
//  - recursive: concept transfer along a role makes the rewriting
//    genuinely recursive; the FO unfolding bails and the planner stays on
//    the semi-naive fixpoint;
//  - csp: the Theorem 8 K2 (2-colourability) encoding; consistency flips
//    as edge churn creates and dissolves odd cycles, and the SAT-dispatched
//    CSP backend replaces whole-tableau recomputation.
//
// Every run of a family executes the same delta sequence (five passes, the
// fastest timed) and its per-step answer sets are differentially compared
// against the family's first run (`answers_identical`, ci-gated). `planner_speedup` (worst pinned backend
// over planner wall time, ci-gated > 1) and `distinct_backends` (ci-gated
// >= 3) are the headline numbers of BENCH_planner.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "csp/csp.h"
#include "logic/parser.h"
#include "query/cq.h"
#include "serve/plan.h"
#include "serve/session.h"

using namespace gfomq;
using namespace gfomq::serve;
using gfomq::bench::JsonObj;

namespace {

constexpr const char* kLookupText =
    "forall x, y (R(x,y) -> A(x)); forall x . (A(x) -> B(x)); "
    "forall x, y (S(x,y) -> B(y));";

constexpr const char* kRecursiveText =
    "forall x . (A0(x) -> A1(x)); "
    "forall x, y (R(x,y) -> (A1(x) -> A1(y)));";

constexpr int kRepeats = 5;  // passes per (family, run); the fastest counts

uint64_t NowMicros(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

Instance Clique(const SymbolsPtr& sym, int k) {
  Instance t(sym);
  uint32_t e_rel = sym->Rel("E", 2);
  std::vector<ElemId> es;
  for (int i = 0; i < k; ++i) {
    es.push_back(t.AddConstant("k" + std::to_string(i)));
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i != j) {
        t.AddFact(e_rel,
                  {es[static_cast<size_t>(i)], es[static_cast<size_t>(j)]});
      }
    }
  }
  return t;
}

struct RunSpec {
  std::string label;  // "planner" or the pinned backend's name
  PlanOptions opts;
};

struct RunResult {
  std::string label;
  std::string chosen;  // executed backend (planner rows: its choice)
  uint64_t steps = 0;
  uint64_t answer_micros = 0;
  bool answers_identical = true;
  uint64_t dred_rounds = 0;
  uint64_t fo_evaluations = 0;
  uint64_t tableau_recomputes = 0;
  uint64_t csp_sat_solves = 0;
};

/// One backend's pass over a family: seed, then the storm — every step one
/// delta plus one timed Answers, the per-step answer sets collected for
/// the differential comparison. The RNG is re-seeded per run and constants
/// are added in one fixed order, so every run sees the identical sequence
/// over identical element ids.
RunResult RunOne(const RunSpec& spec, const Ontology& onto, const Ucq& q,
                 const std::vector<std::pair<uint32_t, int>>& rels, size_t n,
                 size_t steps, uint64_t seed,
                 std::vector<std::set<std::vector<ElemId>>>* trace) {
  RunResult out;
  out.label = spec.label;
  auto plan = OmqPlan::Compile(onto, spec.opts);
  if (!plan.ok()) {
    std::printf("planner bench: compile(%s): %s\n", spec.label.c_str(),
                plan.status().ToString().c_str());
    out.answers_identical = false;
    return out;
  }
  auto compiled = (*plan)->CompileQuery(q);
  if (!compiled.ok()) {
    std::printf("planner bench: query(%s): %s\n", spec.label.c_str(),
                compiled.status().ToString().c_str());
    out.answers_identical = false;
    return out;
  }
  out.chosen = BackendName((*compiled)->backend);

  Session session(*plan);
  session.RegisterQuery("q", q);
  std::vector<ElemId> es;
  for (size_t i = 0; i < n; ++i) {
    es.push_back(session.AddConstant("e" + std::to_string(i)));
  }
  Rng rng(seed);
  for (size_t i = 0; i < 2 * n; ++i) {
    auto [rel, arity] = rels[rng.Below(rels.size())];
    std::vector<ElemId> args;
    for (int j = 0; j < arity; ++j) args.push_back(es[rng.Below(es.size())]);
    session.Assert(Fact{rel, args});
  }

  const bool compare = !trace->empty();
  for (size_t step = 0; step < steps; ++step) {
    auto [rel, arity] = rels[rng.Below(rels.size())];
    std::vector<ElemId> args;
    for (int j = 0; j < arity; ++j) args.push_back(es[rng.Below(es.size())]);
    Fact f{rel, args};
    // Retract-heavy on purpose: retractions are where the stateless
    // backends' zero-maintenance contract pays (datalog runs DRed).
    bool is_assert = rng.Chance(0.55);
    auto t0 = std::chrono::steady_clock::now();
    if (is_assert) {
      session.Assert(f);
    } else {
      session.Retract(f);
    }
    auto answers = session.Answers("q");
    out.answer_micros += NowMicros(t0);
    if (!answers.ok()) {
      out.answers_identical = false;
      continue;
    }
    if (compare) {
      if ((*trace)[step] != *answers) out.answers_identical = false;
    } else {
      trace->push_back(*answers);
    }
    ++out.steps;
  }
  out.dred_rounds = session.stats().dred_rounds;
  out.fo_evaluations = session.stats().fo_evaluations;
  out.tableau_recomputes = session.stats().tableau_recomputes;
  out.csp_sat_solves = session.stats().csp_sat_solves;
  return out;
}

PlanOptions Pinned(PlanBackend backend) {
  PlanOptions o;
  o.force_backend = backend;
  return o;
}

PlanOptions Planner(Certainty ptime,
                    std::shared_ptr<const CspEncoding> enc = nullptr) {
  PlanOptions o;
  o.assume_ptime = ptime;
  o.csp_encoding = std::move(enc);
  return o;
}

struct Family {
  std::string name;
  std::vector<RunResult> runs;  // runs[0] is the planner
  double planner_speedup = 0;   // worst pinned / planner
};

Family RunFamily(const std::string& name, const Ontology& onto, const Ucq& q,
                 const std::vector<RunSpec>& specs,
                 const std::vector<std::pair<uint32_t, int>>& rels, size_t n,
                 size_t steps, uint64_t seed) {
  Family fam;
  fam.name = name;
  std::vector<std::set<std::vector<ElemId>>> trace;
  uint64_t worst_pinned = 0;
  for (const RunSpec& spec : specs) {
    // Each storm lasts well under a millisecond on the fast backends, so
    // one pass is at the mercy of a single scheduler hiccup: report the
    // fastest of kRepeats identical passes (every one differentially
    // checked against the trace).
    RunResult r = RunOne(spec, onto, q, rels, n, steps, seed, &trace);
    for (int rep = 1; rep < kRepeats; ++rep) {
      RunResult again = RunOne(spec, onto, q, rels, n, steps, seed, &trace);
      r.answer_micros = std::min(r.answer_micros, again.answer_micros);
      r.answers_identical = r.answers_identical && again.answers_identical;
    }
    if (spec.label != "planner") {
      worst_pinned = std::max(worst_pinned, r.answer_micros);
    }
    fam.runs.push_back(std::move(r));
  }
  fam.planner_speedup =
      bench::SafeRatio(static_cast<double>(worst_pinned),
                       static_cast<double>(fam.runs[0].answer_micros));
  return fam;
}

void PrintTableAndJson() {
  std::printf("planner — per-backend storms on seeded families\n");
  std::vector<Family> families;

  {
    SymbolsPtr sym = MakeSymbols();
    auto onto = ParseOntology(kLookupText, sym);
    auto q = ParseUcq("q(x) :- B(x)", sym);
    families.push_back(RunFamily(
        "lookup", *onto, *q,
        {{"planner", Planner(Certainty::kYes)},
         {"fo", Pinned(PlanBackend::kFoRewrite)},
         {"datalog", Pinned(PlanBackend::kDatalogRewrite)},
         {"tableau", Pinned(PlanBackend::kTableau)}},
        {{sym->Rel("R", 2), 2}, {sym->Rel("S", 2), 2}, {sym->Rel("A", 1), 1}},
        12, 40, 0x10c4));
  }
  {
    SymbolsPtr sym = MakeSymbols();
    auto onto = ParseOntology(kRecursiveText, sym);
    auto q = ParseUcq("q(x) :- A1(x)", sym);
    families.push_back(RunFamily(
        "recursive", *onto, *q,
        {{"planner", Planner(Certainty::kYes)},
         {"datalog", Pinned(PlanBackend::kDatalogRewrite)},
         {"tableau", Pinned(PlanBackend::kTableau)}},
        {{sym->Rel("R", 2), 2}, {sym->Rel("A0", 1), 1}},
        32, 40, 0x2ec5));
  }
  {
    SymbolsPtr sym = MakeSymbols();
    auto enc = EncodeTemplate(Clique(sym, 2), CspEncodingVariant::kEquality);
    auto shared = std::make_shared<const CspEncoding>(*enc);
    Cq qcq;
    qcq.symbols = sym;
    qcq.num_vars = 1;
    qcq.answer_vars = {0};
    qcq.atoms = {{enc->query_rel, {0}}};
    families.push_back(RunFamily(
        "csp", enc->ontology, Ucq::Single(qcq),
        {{"planner", Planner(Certainty::kNo, shared)},
         {"tableau", Pinned(PlanBackend::kTableau)}},
        {{sym->Rel("E", 2), 2}, {enc->query_rel, 1}}, 4, 20, 0xc59));
  }

  std::printf("%-10s %-9s %-9s %-7s %-13s %-9s %s\n", "family", "run",
              "chosen", "steps", "answer_micros", "identical", "dred");
  std::vector<std::string> rows;
  std::set<std::string> planner_choices;
  for (const Family& fam : families) {
    for (size_t i = 0; i < fam.runs.size(); ++i) {
      const RunResult& r = fam.runs[i];
      std::printf("%-10s %-9s %-9s %-7llu %-13llu %-9s %llu\n",
                  fam.name.c_str(), r.label.c_str(), r.chosen.c_str(),
                  static_cast<unsigned long long>(r.steps),
                  static_cast<unsigned long long>(r.answer_micros),
                  r.answers_identical ? "yes" : "NO",
                  static_cast<unsigned long long>(r.dred_rounds));
      JsonObj row;
      row.Str("family", fam.name)
          .Str("run", r.label)
          .Str("chosen_backend", r.chosen)
          .Int("steps", r.steps)
          .Int("answer_micros", r.answer_micros)
          .Int("answers_identical", r.answers_identical ? 1 : 0)
          .Int("dred_rounds", r.dred_rounds)
          .Int("fo_evaluations", r.fo_evaluations)
          .Int("tableau_recomputes", r.tableau_recomputes)
          .Int("csp_sat_solves", r.csp_sat_solves);
      if (r.label == "planner") {
        planner_choices.insert(r.chosen);
        row.Num("planner_speedup", fam.planner_speedup);
      }
      rows.push_back(row.Done());
    }
    std::printf("%-10s planner_speedup (worst pinned / planner): %.1fx\n",
                fam.name.c_str(), fam.planner_speedup);
  }

  // The lookup family's FO-vs-datalog headline: the fast path must beat
  // the fixpoint it replaces on lookup-style queries (ci-gated).
  const Family& lookup = families[0];
  uint64_t fo_micros = 0;
  uint64_t datalog_micros = 0;
  for (const RunResult& r : lookup.runs) {
    if (r.label == "fo") fo_micros = r.answer_micros;
    if (r.label == "datalog") datalog_micros = r.answer_micros;
  }
  double fo_speedup = bench::SafeRatio(static_cast<double>(datalog_micros),
                                       static_cast<double>(fo_micros));
  std::printf("lookup     fo vs datalog: %.1fx (%s)\n", fo_speedup,
              fo_speedup > 1 ? "fo wins" : "DATALOG WINS");
  std::printf("planner chose %zu distinct backends across families\n",
              planner_choices.size());
  rows.push_back(JsonObj()
                     .Str("family", "summary")
                     .Num("fo_speedup_vs_datalog", fo_speedup)
                     .Int("fo_beats_datalog", fo_speedup > 1 ? 1 : 0)
                     .Int("distinct_backends", planner_choices.size())
                     .Done());

  std::string json = "{\n  \"bench\": \"planner\",\n"
                     "  \"generated_by\": \"bench/planner.cc\",\n"
                     "  \"families\": " + bench::JsonArr(rows) + "\n}";
  bench::WriteJsonFile("BENCH_planner.json", json);
  std::printf("\n");
}

// --- google-benchmark timings ------------------------------------------

void BM_FoAnswerLookup(benchmark::State& state) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(kLookupText, sym);
  auto plan = OmqPlan::Compile(*onto, Pinned(PlanBackend::kFoRewrite));
  auto q = ParseUcq("q(x) :- B(x)", sym);
  Session session(*plan);
  session.RegisterQuery("q", *q);
  uint32_t R = sym->Rel("R", 2);
  int n = static_cast<int>(state.range(0));
  std::vector<ElemId> es;
  for (int i = 0; i < n; ++i) {
    es.push_back(session.AddConstant("e" + std::to_string(i)));
  }
  Rng rng(11);
  for (int i = 0; i < 3 * n; ++i) {
    session.Assert(Fact{R, {es[rng.Below(es.size())],
                            es[rng.Below(es.size())]}});
  }
  for (auto _ : state) {
    Fact f{R, {es[rng.Below(es.size())], es[rng.Below(es.size())]}};
    if (!*session.Assert(f)) session.Retract(f);
    benchmark::DoNotOptimize(session.Answers("q"));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FoAnswerLookup)->RangeMultiplier(2)->Range(16, 64)->Complexity();

void BM_CspSatConsistency(benchmark::State& state) {
  SymbolsPtr sym = MakeSymbols();
  auto enc = EncodeTemplate(Clique(sym, 2), CspEncodingVariant::kEquality);
  int n = static_cast<int>(state.range(0));
  Instance cycle = bench::SymmetricCycle(sym, n);
  auto index = enc->Index();
  CspSatSolver solver(index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(cycle));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_CspSatConsistency)->RangeMultiplier(2)->Range(8, 32)
    ->Complexity();

}  // namespace

GFOMQ_BENCH_MAIN(PrintTableAndJson)

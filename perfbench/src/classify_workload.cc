// The offline classify workload: a seeded batch of ontologies, each one
// translated to the guarded fragment (or parsed), loaded into an OmqEngine
// and classified (Figure 1 fragment band plus the Theorem 13 bouquet meta
// decision) with 2 shards on a 2-worker local Scheduler.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/rng.h"
#include "common/scheduler.h"
#include "core/engine.h"
#include "corpus/corpus.h"
#include "dl/tbox.h"
#include "dl/translate.h"
#include "fragments/fragments.h"
#include "logic/parser.h"
#include "logic/term_store.h"
#include "reasoner/bouquet.h"
#include "workloads.h"

namespace perfbench {

using namespace gfomq;

namespace {

constexpr uint32_t kShards = 2;     // EngineOptions::num_threads
constexpr uint32_t kMaxNulls = 20;  // TableauBudget::max_fresh_nulls
constexpr uint64_t kCorpusSeed = 2017;
constexpr int kCorpusSize = 100;

/// The corpus profile: small signatures keep one outdegree-1 meta decision
/// in the millisecond-to-second range (see NOTES.md for the tail).
CorpusProfile Profile() {
  CorpusProfile p;
  p.num_concept_names = 3;
  p.num_role_names = 1;
  p.min_inclusions = 1;
  p.max_inclusions = 5;
  return p;
}

/// The paper's named ontologies: E3's O1, O2 and O1 ∪ O2 (Section 1), and
/// the E8 rows (a covering disjunction and Example 7).
struct Named {
  const char* name;
  const char* text;
};

const std::vector<Named>& NamedOntologies() {
  static const std::vector<Named> named = {
      {"O1", "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
             "exists<=2 y (hasFinger(x,y)));"},
      {"O2", "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));"},
      {"O1uO2",
       "forall x . (Hand(x) -> exists>=2 y (hasFinger(x,y)) & "
       "exists<=2 y (hasFinger(x,y)));"
       "forall x . (Hand(x) -> exists y (hasFinger(x,y) & Thumb(y)));"},
      {"covering", "forall x . (A(x) -> B1(x) | B2(x));"},
      {"example7",
       "forall x (S(x,x) -> (R(x,x) -> exists y (R(x,y) & x != y) | "
       "exists y (S(x,y) & x != y)));"
       "forall x . (exists y (R(y,x) & x != y) -> exists y (Rp(x,y)));"
       "forall x . (exists y (S(y,x) & x != y) -> exists y (Sp(x,y)));"},
  };
  return named;
}

/// One batch entry: a generated DL TBox or a named GF text.
struct Item {
  std::string label;
  std::optional<DlOntology> dl;
  std::string text;
};

/// The batch: the named ontologies plus a fixed-seed corpus, in an order
/// drawn from `seed`. The composition is the same for every seed, so the
/// heavy tail of slow inputs does not move between runs.
std::vector<Item> BuildBatch(uint64_t seed) {
  std::vector<Item> batch;
  for (const Named& n : NamedOntologies()) {
    batch.push_back(Item{n.name, std::nullopt, n.text});
  }
  std::vector<DlOntology> corpus =
      GenerateCorpus(kCorpusSeed, kCorpusSize, Profile());
  for (size_t i = 0; i < corpus.size(); ++i) {
    batch.push_back(
        Item{"corpus#" + std::to_string(i), std::move(corpus[i]), ""});
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ 0xC1A55);
  for (size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng.Below(i)]);
  }
  return batch;
}

std::string ItemText(const Item& item) {
  return item.dl ? DlOntologyToString(*item.dl) : item.text;
}

EngineOptions Options(Scheduler* sched, uint32_t shards) {
  EngineOptions opts;
  opts.bouquet.max_outdegree = kBouquetOutdegree;
  opts.certain.tableau.max_fresh_nulls = kMaxNulls;
  opts.num_threads = shards;
  opts.scheduler = sched;
  return opts;
}

Result<Ontology> Load(const Item& item, Tracer* tracer) {
  if (item.dl) {
    ScopedSpan span(tracer, "dl.translate", -1);
    return TranslateToGuarded(*item.dl);
  }
  ScopedSpan span(tracer, "logic.parse_ontology", -1);
  return ParseOntology(item.text);
}

/// The deterministic part of a verdict.
struct Verdict {
  bool ok = false;
  DichotomyStatus band = DichotomyStatus::kOpen;
  Certainty ptime = Certainty::kUnknown;
  uint64_t bouquets_checked = 0;
  std::string violation;

  std::string ToString() const {
    if (!ok) return "error";
    const char* p = ptime == Certainty::kYes  ? "ptime"
                    : ptime == Certainty::kNo ? "conp"
                                              : "unknown";
    return std::string(StatusName(band)) + "/" + p + "/" +
           std::to_string(bouquets_checked) + "/" + violation;
  }
};

/// One end-to-end operation: load + OmqEngine::Create + Classify().
Verdict ClassifyOne(const Item& item, const EngineOptions& opts) {
  Verdict v;
  Result<Ontology> onto = Load(item, nullptr);
  if (!onto.ok()) return v;
  Result<OmqEngine> engine = OmqEngine::Create(std::move(*onto), opts);
  if (!engine.ok()) return v;
  const OmqVerdict& verdict = engine->Classify();
  v.ok = true;
  v.band = verdict.syntactic.verdict;
  v.ptime = verdict.ptime;
  v.bouquets_checked = verdict.bouquets_checked;
  if (verdict.violation) v.violation = verdict.violation->ToString();
  return v;
}

bool Contradicts(const Verdict& got, const Verdict& ref) {
  if (!got.ok || !ref.ok) return true;
  if (got.band != ref.band) return true;
  bool definite = got.ptime != Certainty::kUnknown &&
                  ref.ptime != Certainty::kUnknown;
  return definite && got.ptime != ref.ptime;
}

/// Compares each verdict with the sequential (1-shard) reference.
void CheckVerdicts(const std::vector<Item>& batch,
                   const std::vector<Verdict>& got, Scheduler* sched,
                   RunResult* result) {
  EngineOptions ref_opts = Options(sched, 1);
  size_t unknown = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    // An undetermined verdict contradicts nothing; only definite ones (and
    // failed classifications) are re-run sequentially.
    if (got[i].ok && got[i].ptime == Certainty::kUnknown) {
      ++unknown;
      continue;
    }
    Verdict ref = ClassifyOne(batch[i], ref_opts);
    if (Contradicts(got[i], ref)) {
      result->Fail("ontology " + std::to_string(i) + " (" + batch[i].label +
                   "): verdict " + got[i].ToString() +
                   " contradicts the 1-worker verdict " + ref.ToString() +
                   "; text: " + ItemText(batch[i]).substr(0, 300));
    }
  }
  std::fprintf(stderr,
               "perfbench: classify checked %zu verdicts against 1-worker "
               "runs (%zu undetermined)\n",
               batch.size(), unknown);
}

void ReportSlowest(const std::vector<Item>& batch,
                   const std::vector<double>& micros) {
  std::vector<size_t> order(micros.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return micros[a] > micros[b]; });
  double total = 0;
  for (double us : micros) total += us;
  std::fprintf(stderr, "perfbench: classify slowest inputs:");
  for (size_t k = 0; k < std::min<size_t>(3, order.size()); ++k) {
    size_t i = order[k];
    std::fprintf(stderr, " #%zu %s %.1f ms (%.0f%% of the pass);", i,
                 batch[i].label.c_str(), micros[i] / 1000.0,
                 total > 0 ? 100.0 * micros[i] / total : 0.0);
  }
  std::fprintf(stderr, "\n");
}

struct ReplayStats {
  double wall_us = 0;
  std::vector<Verdict> verdicts;
  MetaSearchStats meta;  // summed over the batch
  uint64_t bouquets_probed = 0;
  uint64_t violations_found = 0;
  uint64_t errors = 0;
};

/// One pass over the batch calling the layers' public functions directly
/// (the steps OmqEngine::Classify takes), each in a span when tracing.
ReplayStats Replay(const std::vector<Item>& batch, Scheduler* sched,
                   Tracer* tracer) {
  ReplayStats out;
  EngineOptions opts = Options(sched, kShards);
  BouquetOptions bouquet = opts.bouquet;
  bouquet.num_threads = kShards;
  bouquet.scheduler = sched;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    ScopedSpan op(tracer, "classify.ontology", static_cast<int64_t>(i));
    Verdict v;
    Result<Ontology> onto = Load(batch[i], tracer);
    if (!onto.ok()) {
      ++out.errors;
      out.verdicts.push_back(v);
      continue;
    }
    std::optional<Result<OmqEngine>> engine;
    {
      ScopedSpan span(tracer, "core.engine_create", static_cast<int64_t>(i));
      engine.emplace(OmqEngine::Create(*onto, opts));
    }
    if (!engine->ok()) {
      ++out.errors;
      out.verdicts.push_back(v);
      continue;
    }
    Classification band;
    {
      ScopedSpan span(tracer, "fragments.classify", static_cast<int64_t>(i));
      band = ClassifyOntology((*engine)->ontology());
    }
    v.ok = true;
    v.band = band.verdict;
    if (band.verdict == DichotomyStatus::kDichotomy) {
      ScopedSpan span(tracer, "reasoner.bouquet.decide",
                      static_cast<int64_t>(i));
      MetaDecision md = DecidePtimeByBouquets((*engine)->solver(),
                                              onto->symbols,
                                              onto->Signature(), bouquet);
      v.ptime = md.ptime;
      v.bouquets_checked = md.bouquets_checked;
      if (md.violation) v.violation = md.violation->ToString();
      out.bouquets_probed += md.stats.bouquets_probed;
      out.violations_found += md.stats.violations_found;
      out.meta.tableau += md.stats.tableau;
      out.meta.cache.hits += md.stats.cache.hits;
      out.meta.cache.misses += md.stats.cache.misses;
      out.meta.cache.evictions += md.stats.cache.evictions;
    }
    out.verdicts.push_back(v);
  }
  out.wall_us = MicrosSince(start);
  return out;
}

void TracedRun(const std::vector<Item>& batch, const RunArgs& args,
               Scheduler* sched, RunResult* result) {
  TermStoreStats terms0 = FormulaStoreStats();
  ReplayStats plain = Replay(batch, sched, nullptr);
  Tracer tracer;
  SchedulerStats sched0 = sched->stats();
  ReplayStats traced = Replay(batch, sched, &tracer);
  SchedulerStats sched1 = sched->stats();
  TermStoreStats terms1 = FormulaStoreStats();
  result->attempted += batch.size();
  if (traced.errors > 0) {
    result->Fail("replayed classification failed on " +
                 std::to_string(traced.errors) + " ontologies");
  }
  CheckVerdicts(batch, traced.verdicts, sched, result);

  Metrics& m = result->metrics;
  InitLayerMetrics(&m);  // serving and rewriting layers are idle here
  const TableauStats& t = traced.meta.tableau;
  SetLayer(&m, "reasoner.tableau.steps", static_cast<double>(t.steps));
  SetLayer(&m, "reasoner.tableau.branches_opened",
           static_cast<double>(t.branches_opened));
  SetLayer(&m, "reasoner.tableau.guard_match_probes",
           static_cast<double>(t.guard_match_probes));
  SetLayer(&m, "reasoner.tableau.cow_copies",
           static_cast<double>(t.cow_copies));
  SetLayer(&m, "reasoner.cache.hit_rate", traced.meta.cache.HitRate());
  SetLayer(&m, "reasoner.cache.evictions",
           static_cast<double>(traced.meta.cache.evictions));
  std::vector<double> decide = tracer.Durations("reasoner.bouquet.decide");
  for (double& d : decide) d /= 1000.0;
  SetLayer(&m, "reasoner.bouquet.decide_p50_ms", Median(decide));
  SetLayer(&m, "reasoner.bouquet.bouquets_probed",
           static_cast<double>(traced.bouquets_probed));
  SetLayer(&m, "reasoner.bouquet.violations_found",
           static_cast<double>(traced.violations_found));
  SetLayer(&m, "fragments.classify_p50_us",
           Median(tracer.Durations("fragments.classify")));
  SetLayer(&m, "dl.translate_p50_us", Median(tracer.Durations("dl.translate")));
  SetLayer(&m, "logic.parse_ontology_us",
           Median(tracer.Durations("logic.parse_ontology")));
  TermStoreStats dterms{terms1.hits - terms0.hits,
                        terms1.misses - terms0.misses};
  SetLayer(&m, "logic.term_store.hit_rate", dterms.HitRate());
  SetSchedulerDeltas(&m, sched0, sched1);
  SetLayer(&m, "trace.overhead_pct",
           100.0 * (traced.wall_us - plain.wall_us) / plain.wall_us);
  SetLayer(&m, "trace.spans", static_cast<double>(tracer.spans().size()));

  if (!args.trace_out.empty()) {
    std::string header = "{\"workload\": \"classify\", \"seed\": " +
                         std::to_string(args.seed) +
                         ", \"host\": " + args.host_json + "}";
    if (!tracer.Dump(args.trace_out, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
}

}  // namespace

std::string ClassifyBatchText(uint64_t seed) {
  std::string out;
  for (const Item& item : BuildBatch(seed)) {
    std::string text = ItemText(item);
    std::replace(text.begin(), text.end(), '\n', ' ');
    out += item.label + "\t" + text + "\n";
  }
  return out;
}

RunResult RunClassify(const RunArgs& args) {
  RunResult result;
  Scheduler sched(kShards);
  Clock::time_point t0 = Clock::now();
  std::vector<Item> batch = BuildBatch(args.seed);
  std::vector<double> setups = {MicrosSince(t0) / 1e6};
  if (args.trace) {
    TracedRun(batch, args, &sched, &result);
    return result;
  }
  // Warm-up: the named ontologies once, untimed.
  EngineOptions opts = Options(&sched, kShards);
  for (const Item& item : batch) {
    if (!item.dl) ClassifyOne(item, opts);
  }

  // Timed: one pass over the batch, the same work in every run. The batch
  // is also rebuilt before each ontology, outside its timing, and the
  // median of all builds is the set-up time: spread over the pass, the
  // builds sample the host's changing speed as the pass does (NOTES.md).
  std::vector<double> micros;
  std::vector<Verdict> verdicts;
  for (size_t i = 0; i < batch.size(); ++i) {
    t0 = Clock::now();
    std::vector<Item> rebuilt = BuildBatch(args.seed);
    setups.push_back(MicrosSince(t0) / 1e6);
    t0 = Clock::now();
    verdicts.push_back(ClassifyOne(batch[i], opts));
    micros.push_back(MicrosSince(t0));
    ++result.attempted;
  }
  ReportSlowest(batch, micros);
  std::fprintf(stderr, "perfbench: classify p50 %.1f us over %zu ontologies\n",
               Percentile(micros, 0.5), micros.size());
  CheckVerdicts(batch, verdicts, &sched, &result);

  double busy_us = 0;
  for (double us : micros) busy_us += us;
  Metrics& m = result.metrics;
  m.Set("setup_s", Median(setups), "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("ops_per_s", static_cast<double>(micros.size()) / (busy_us / 1e6),
        "1/s");
  m.Set("op_mean_us", Mean(micros), "us");
  m.Set("op_p90_us", Percentile(micros, 0.9), "us");
  return result;
}

}  // namespace perfbench

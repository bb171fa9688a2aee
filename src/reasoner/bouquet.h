#ifndef GFOMQ_REASONER_BOUQUET_H_
#define GFOMQ_REASONER_BOUQUET_H_

#include <functional>
#include <optional>

#include "reasoner/materializability.h"

namespace gfomq {

/// Options for the bouquet-based meta decision procedure (Theorem 13 /
/// Lemma 5: for uGC2−(1,=) and ALCHIQ-depth-1 ontologies, materializability
/// — equivalently PTIME query evaluation, equivalently Datalog≠-
/// rewritability — is already decided by bouquets of outdegree ≤ |O|).
struct BouquetOptions {
  uint32_t max_outdegree = 3;
  bool irreflexive = false;      // ALCHIQ case: irreflexive bouquets suffice
  uint64_t max_bouquets = 200000;
  /// Worker shards for DecidePtimeByBouquets: 1 = sequential (default),
  /// 0 = one per hardware thread, n = exactly n. Results are bit-identical
  /// for every value — see MetaDecision. Shards run on the shared
  /// scheduler's pool, so this sizes the decomposition, not a pool.
  uint32_t num_threads = 1;
  /// Scheduler supplying the workers (null = Scheduler::Global()).
  Scheduler* scheduler = nullptr;
  ProbeOptions probe;
};

/// How a bouquet enumeration ended. The three outcomes are semantically
/// distinct and callers must not conflate them: only kComplete means the
/// whole (bounded-outdegree) bouquet space was seen, so only kComplete can
/// support a "no violation anywhere" conclusion.
enum class BouquetScan {
  kComplete,         // every bouquet was enumerated
  kStopped,          // the callback asked to stop early
  kBudgetExhausted,  // max_bouquets was hit; the space was truncated
};

/// Enumerates bouquets over a signature of unary/binary relations: a root
/// element with up to max_outdegree children, unary decorations on every
/// element, binary facts between the root and each child (both directions),
/// and — unless irreflexive — loops on the root. Children are generated up
/// to permutation. The callback returns true to stop.
BouquetScan ForEachBouquet(SymbolsPtr symbols,
                           const std::vector<uint32_t>& signature,
                           const BouquetOptions& options,
                           const std::function<bool(const Instance&)>& fn);

/// Sharded enumeration for parallel search: visits exactly the bouquets
/// whose global index i (the position ForEachBouquet would emit them at)
/// satisfies i % num_shards == shard, in increasing index order. The slice
/// is determined by index arithmetic alone, so concurrent shards need no
/// shared generation state; the budget (max_bouquets) applies to global
/// indices and is therefore consistent across shards. The callback
/// receives the global index alongside the instance.
BouquetScan ForEachBouquetShard(
    SymbolsPtr symbols, const std::vector<uint32_t>& signature,
    const BouquetOptions& options, uint32_t shard, uint32_t num_shards,
    const std::function<bool(uint64_t, const Instance&)>& fn);

/// Per-shard accounting of one parallel meta-decision run.
struct MetaWorkerStats {
  uint64_t bouquets_probed = 0;   // probes actually executed by this shard
  uint64_t violations_found = 0;  // violations this shard hit (pre-tiebreak)
  /// Always 0 since the shared-scheduler refactor: shards are tasks on the
  /// process-wide pool, so steals are no longer attributable per shard —
  /// MetaSearchStats::steals reports the pool-wide delta instead.
  uint64_t steals = 0;
};

/// Aggregate search statistics. Unlike MetaDecision's verdict fields these
/// are *not* deterministic across thread counts: racing workers may probe
/// bouquets beyond the winning index before the cancellation watermark
/// reaches them. They are diagnostics, aggregated via relaxed atomics.
struct MetaSearchStats {
  uint32_t num_threads = 1;
  uint64_t bouquets_probed = 0;
  uint64_t violations_found = 0;
  uint64_t steals = 0;
  uint64_t wall_micros = 0;
  /// Entailment and disjunction probes that a bouquet's consistency model
  /// settled without a reasoner call (see FindDisjunctionViolation).
  uint64_t model_settled_probes = 0;
  /// Consistency-cache and tableau activity during this run (deltas of the
  /// solver's shared counters; diagnostics, not part of the verdict). Every
  /// tableau tally is this run's own; the watermarks (peak_branch_depth,
  /// peak_live_tasks) and budget_hit are the solver's lifetime values, see
  /// TableauStats.
  ConsistencyCacheStats cache;
  TableauStats tableau;
  std::vector<MetaWorkerStats> per_worker;
};

/// Verdict of the meta decision procedure. The verdict triple (ptime,
/// violation, bouquets_checked) is deterministic: any two runs over the
/// same inputs agree bit-for-bit regardless of num_threads, because the
/// parallel search resolves races by always reporting the violation with
/// the smallest bouquet index — exactly the one a sequential scan finds —
/// and bouquets_checked counts the sequential prefix up to that witness.
struct MetaDecision {
  /// kYes: PTIME query evaluation (materializable on all enumerated
  /// bouquets); kNo: coNP-hard (violation found); kUnknown: budget.
  Certainty ptime = Certainty::kUnknown;
  std::optional<DisjunctionViolation> violation;
  /// Bouquets a sequential scan would check to reach this verdict: the
  /// witness index + 1 on kNo, the full enumeration count otherwise.
  uint64_t bouquets_checked = 0;
  /// True iff the enumeration hit max_bouquets (verdict is then at best
  /// kUnknown unless a violation was found within the budget).
  bool budget_exhausted = false;
  MetaSearchStats stats;
};

/// Decides PTIME query evaluation for ontologies in the bouquet-decidable
/// fragments by searching all bouquets for a disjunction-property
/// violation. Sound in general (a violation always implies coNP-hardness
/// by Theorem 3); complete for uGC2−(1,=) / ALCHIQ depth 1 by Lemma 5 when
/// max_outdegree ≥ |O| and the enumeration is not truncated. With
/// options.num_threads != 1 the bouquet space is probed by concurrent
/// shards, cancelled early once a violation is found (workers stop as soon
/// as their next index passes the best hit so far).
MetaDecision DecidePtimeByBouquets(CertainAnswerSolver& solver,
                                   SymbolsPtr symbols,
                                   const std::vector<uint32_t>& signature,
                                   const BouquetOptions& options = {});

}  // namespace gfomq

#endif  // GFOMQ_REASONER_BOUQUET_H_

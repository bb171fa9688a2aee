#include "reasoner/bouquet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "common/scheduler.h"

namespace gfomq {

namespace {

struct SigSplit {
  std::vector<uint32_t> unary;
  std::vector<uint32_t> binary;
};

SigSplit Split(const std::vector<uint32_t>& signature, const Symbols& sym) {
  SigSplit out;
  for (uint32_t rel : signature) {
    if (sym.RelArity(rel) == 1) out.unary.push_back(rel);
    if (sym.RelArity(rel) == 2) out.binary.push_back(rel);
  }
  return out;
}

// Child types: unary mask x non-empty edge mask (2 bits per binary rel:
// R(root,child), R(child,root)).
struct ChildType {
  uint32_t unary_mask;
  uint32_t edge_mask;  // 2b bits
};

// Walks the bouquet skeleton in the canonical order (total child count,
// then non-decreasing child-type sequences, then root configurations),
// assigning each bouquet its global index. The instance is materialized
// only for indices owned by `shard` (index % num_shards == shard), which
// is what makes lock-free parallel slicing possible: every shard iterates
// the same cheap mask arithmetic and touches no shared generation state.
// `total_enumerated`, when non-null, receives the number of global
// indices visited (the full space size capped at max_bouquets) — it is
// identical for every shard that runs to the same end.
BouquetScan WalkBouquets(
    const SymbolsPtr& symbols, const std::vector<uint32_t>& signature,
    const BouquetOptions& options, uint32_t shard, uint32_t num_shards,
    uint64_t* total_enumerated,
    const std::function<bool(uint64_t, const Instance&)>& fn) {
  SigSplit sig = Split(signature, *symbols);
  const size_t u = sig.unary.size();
  const size_t b = sig.binary.size();

  std::vector<ChildType> child_types;
  for (uint32_t um = 0; um < (1u << u); ++um) {
    for (uint32_t em = 1; em < (1u << (2 * b)); ++em) {
      child_types.push_back({um, em});
    }
  }

  uint64_t index = 0;
  auto report_total = [&] {
    if (total_enumerated != nullptr) *total_enumerated = index;
  };
  // Enumerate by total child count (small bouquets first), root unary mask,
  // root loop mask, and non-decreasing child type sequences.
  for (uint32_t count = 0; count <= options.max_outdegree; ++count) {
    // Without binary relations there are no connected children at all.
    if (count > 0 && child_types.empty()) break;
    std::vector<size_t> types(count, 0);
    for (;;) {
      // Root configurations.
      uint32_t loop_limit = options.irreflexive ? 1 : (1u << b);
      for (uint32_t root_um = 0; root_um < (1u << u); ++root_um) {
        for (uint32_t loop_mask = 0; loop_mask < loop_limit; ++loop_mask) {
          // Skip the completely empty bouquet (instances are non-empty, a
          // bare element carries no facts worth probing).
          if (count == 0 && root_um == 0 && loop_mask == 0) continue;
          if (index >= options.max_bouquets) {
            report_total();
            return BouquetScan::kBudgetExhausted;
          }
          uint64_t my_index = index++;
          if (my_index % num_shards != shard) continue;
          Instance inst(symbols);
          ElemId root = inst.AddConstant("r");
          for (size_t i = 0; i < u; ++i) {
            if (root_um & (1u << i)) inst.AddFact(sig.unary[i], {root});
          }
          for (size_t i = 0; i < b; ++i) {
            if (loop_mask & (1u << i)) {
              inst.AddFact(sig.binary[i], {root, root});
            }
          }
          for (uint32_t c = 0; c < count; ++c) {
            const ChildType& t = child_types[types[c]];
            ElemId child = inst.AddConstant("d" + std::to_string(c));
            for (size_t i = 0; i < u; ++i) {
              if (t.unary_mask & (1u << i)) {
                inst.AddFact(sig.unary[i], {child});
              }
            }
            for (size_t i = 0; i < b; ++i) {
              if (t.edge_mask & (1u << (2 * i))) {
                inst.AddFact(sig.binary[i], {root, child});
              }
              if (t.edge_mask & (1u << (2 * i + 1))) {
                inst.AddFact(sig.binary[i], {child, root});
              }
            }
          }
          if (fn(my_index, inst)) {
            report_total();
            return BouquetScan::kStopped;
          }
        }
      }
      // Next non-decreasing type sequence.
      if (count == 0) break;
      int64_t pos = static_cast<int64_t>(count) - 1;
      while (pos >= 0 && types[static_cast<size_t>(pos)] + 1 >=
                             child_types.size()) {
        --pos;
      }
      if (pos < 0) break;
      size_t next = types[static_cast<size_t>(pos)] + 1;
      for (size_t i = static_cast<size_t>(pos); i < count; ++i) {
        types[i] = next;
      }
    }
  }
  report_total();
  return BouquetScan::kComplete;
}

}  // namespace

BouquetScan ForEachBouquet(SymbolsPtr symbols,
                           const std::vector<uint32_t>& signature,
                           const BouquetOptions& options,
                           const std::function<bool(const Instance&)>& fn) {
  return WalkBouquets(symbols, signature, options, /*shard=*/0,
                      /*num_shards=*/1, nullptr,
                      [&fn](uint64_t, const Instance& inst) {
                        return fn(inst);
                      });
}

BouquetScan ForEachBouquetShard(
    SymbolsPtr symbols, const std::vector<uint32_t>& signature,
    const BouquetOptions& options, uint32_t shard, uint32_t num_shards,
    const std::function<bool(uint64_t, const Instance&)>& fn) {
  return WalkBouquets(symbols, signature, options, shard, num_shards,
                      nullptr, fn);
}

namespace {

// Shared aggregation for both execution modes, keyed off the sequential
// semantics: the verdict triple must be what a 1-thread scan reports.
void Finalize(MetaDecision* out, std::optional<DisjunctionViolation> best,
              uint64_t best_index, bool exhausted, bool all_conclusive,
              uint64_t total_enumerated, const BouquetOptions& options) {
  if (best.has_value()) {
    out->ptime = Certainty::kNo;
    out->violation = std::move(best);
    out->bouquets_checked = best_index + 1;
    out->budget_exhausted = false;  // sequential stops at the witness
  } else if (!exhausted && all_conclusive) {
    out->ptime = Certainty::kYes;
    out->bouquets_checked = total_enumerated;
  } else {
    out->ptime = Certainty::kUnknown;
    out->bouquets_checked =
        exhausted ? options.max_bouquets : total_enumerated;
    out->budget_exhausted = exhausted;
  }
}

}  // namespace

MetaDecision DecidePtimeByBouquets(CertainAnswerSolver& solver,
                                   SymbolsPtr symbols,
                                   const std::vector<uint32_t>& signature,
                                   const BouquetOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  const uint32_t threads = ThreadPool::EffectiveThreads(options.num_threads);
  MetaDecision out;
  out.stats.num_threads = threads;
  const ConsistencyCacheStats cache_before = solver.cache_stats();
  const TableauStats tableau_before = solver.tableau_stats();

  if (threads == 1) {
    uint64_t total = 0;
    uint64_t probed = 0;
    bool all_conclusive = true;
    std::optional<DisjunctionViolation> best;
    uint64_t best_index = 0;
    BouquetScan scan = WalkBouquets(
        symbols, signature, options, 0, 1, &total,
        [&](uint64_t index, const Instance& bouquet) {
          ++probed;
          bool conclusive = true;
          std::optional<DisjunctionViolation> violation =
              FindDisjunctionViolation(solver, bouquet, signature,
                                       &conclusive, options.probe);
          if (violation) {
            best = std::move(violation);
            best_index = index;
            return true;  // coNP-hardness witnessed; stop
          }
          if (!conclusive) all_conclusive = false;
          return false;
        });
    out.stats.per_worker = {
        {probed, best.has_value() ? uint64_t{1} : uint64_t{0}, 0}};
    out.stats.bouquets_probed = probed;
    out.stats.violations_found = best.has_value() ? 1 : 0;
    Finalize(&out, std::move(best), best_index,
             scan == BouquetScan::kBudgetExhausted, all_conclusive, total,
             options);
  } else {
    // Pre-intern the constant names every bouquet builder uses, so the
    // (thread-safe, but contended) symbol-table lock stays off the
    // generation fast path.
    symbols->Const("r");
    for (uint32_t c = 0; c < options.max_outdegree; ++c) {
      symbols->Const("d" + std::to_string(c));
    }

    // Deterministic first-hit protocol: `bound` is the smallest index a
    // violation was found at so far. Workers abandon their shard as soon
    // as their next index reaches it (everything at or past the bound is
    // irrelevant to the final answer), and keep probing smaller indices —
    // so every index below the final bound is probed by its owning shard,
    // which makes the smallest-index violation the reported one no matter
    // how the race unfolded. That is exactly the sequential answer.
    std::atomic<uint64_t> bound{UINT64_MAX};
    std::mutex best_mu;
    std::optional<DisjunctionViolation> best;
    uint64_t best_index = UINT64_MAX;
    std::atomic<bool> any_inconclusive{false};
    std::atomic<bool> any_exhausted{false};
    std::atomic<uint64_t> total_enumerated{0};
    std::vector<MetaWorkerStats> per_worker(threads);

    // Shards run on the shared scheduler's pool (one pool for every
    // layer), not a pool-per-scan: repeated decisions amortize thread
    // startup and concurrent scans interleave instead of oversubscribing.
    Scheduler* scheduler = Scheduler::Resolve(options.scheduler);
    ThreadPool& pool = scheduler->pool();
    const uint64_t steals_before = pool.TotalSteals();
    Status st = pool.ParallelFor(
        threads,
        [&](uint64_t w) {
          uint64_t probed = 0;
          uint64_t violations = 0;
          uint64_t total = 0;
          BouquetScan scan = WalkBouquets(
              symbols, signature, options, static_cast<uint32_t>(w),
              threads, &total,
              [&](uint64_t index, const Instance& bouquet) {
                if (index >= bound.load(std::memory_order_relaxed)) {
                  // Cancelled: a violation at or below this index is
                  // already recorded, and this shard only gets larger
                  // indices from here on.
                  return true;
                }
                ++probed;
                bool conclusive = true;
                std::optional<DisjunctionViolation> violation =
                    FindDisjunctionViolation(solver, bouquet, signature,
                                             &conclusive, options.probe);
                if (violation) {
                  ++violations;
                  std::lock_guard<std::mutex> lk(best_mu);
                  if (index < best_index) {
                    best_index = index;
                    best = std::move(violation);
                    bound.store(index, std::memory_order_relaxed);
                  }
                  return true;
                }
                if (!conclusive) {
                  any_inconclusive.store(true, std::memory_order_relaxed);
                }
                return false;
              });
          if (scan == BouquetScan::kBudgetExhausted) {
            any_exhausted.store(true, std::memory_order_relaxed);
          } else if (scan == BouquetScan::kComplete) {
            // Every completing shard walks the identical skeleton, so
            // they all store the same value.
            total_enumerated.store(total, std::memory_order_relaxed);
          }
          per_worker[w].bouquets_probed = probed;
          per_worker[w].violations_found = violations;
        },
        /*token=*/nullptr, /*chunk=*/1);
    (void)st;  // shard bodies don't throw; Status is for user tasks

    for (uint32_t w = 0; w < threads; ++w) {
      out.stats.bouquets_probed += per_worker[w].bouquets_probed;
      out.stats.violations_found += per_worker[w].violations_found;
    }
    // Pool-wide steal delta over the scan: per-shard attribution is gone
    // with the shared pool (other layers' tasks interleave on the same
    // workers), so this is a diagnostic of the whole scheduler during the
    // scan, not of this scan alone.
    out.stats.steals = pool.TotalSteals() - steals_before;
    out.stats.per_worker = std::move(per_worker);

    bool have_best = best.has_value();
    // A violation inside the budget overrides budget exhaustion — the
    // sequential scan would have stopped at the witness before ever
    // hitting the cap.
    Finalize(&out, std::move(best), best_index,
             !have_best && any_exhausted.load(std::memory_order_relaxed),
             !any_inconclusive.load(std::memory_order_relaxed),
             total_enumerated.load(std::memory_order_relaxed), options);
  }

  out.stats.wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const ConsistencyCacheStats cache_after = solver.cache_stats();
  out.stats.cache.hits = cache_after.hits - cache_before.hits;
  out.stats.cache.misses = cache_after.misses - cache_before.misses;
  out.stats.cache.evictions = cache_after.evictions - cache_before.evictions;
  out.stats.cache.insertions =
      cache_after.insertions - cache_before.insertions;
  out.stats.tableau = solver.tableau_stats();
  out.stats.tableau -= tableau_before;
  return out;
}

}  // namespace gfomq

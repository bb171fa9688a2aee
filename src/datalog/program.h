#ifndef GFOMQ_DATALOG_PROGRAM_H_
#define GFOMQ_DATALOG_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "logic/symbols.h"

namespace gfomq {

/// An atom over rule-local variables.
struct DatalogAtom {
  uint32_t rel;
  std::vector<uint32_t> vars;
};

/// A Datalog(≠) rule: head ← body ∧ inequalities. Every head variable must
/// occur in the body (range restriction).
struct DatalogRule {
  DatalogAtom head;
  std::vector<DatalogAtom> body;
  std::vector<std::pair<uint32_t, uint32_t>> neq;  // x ≠ y constraints
  uint32_t num_vars = 0;
};

/// A Datalog(≠) program with a selected goal relation (the paper's
/// convention: `goal` does not occur in rule bodies except via other IDBs).
struct DatalogProgram {
  SymbolsPtr symbols;
  std::vector<DatalogRule> rules;
  int64_t goal_rel = -1;  // -1: no designated goal

  explicit DatalogProgram(SymbolsPtr syms = nullptr)
      : symbols(syms ? std::move(syms) : MakeSymbols()) {}

  /// True if no rule uses ≠ (plain Datalog).
  bool IsPlainDatalog() const;

  Status Validate() const;

  std::string ToString() const;
};

/// Parses a program; one rule per `;`:
///   B(x) :- A(x);
///   goal(x) :- R(x,y), B(y), x != y;
/// The goal relation is the head relation named "goal" if present.
Result<DatalogProgram> ParseDatalog(const std::string& text,
                                    SymbolsPtr symbols);

/// Fixpoint-preserving rule pruning; returns the number of rules dropped.
/// Rule r is redundant when (a) its head atom already occurs in its body (a
/// tautology derives nothing), or (b) another ≠-free rule r' with the same
/// head relation *subsumes* it: a homomorphism from r''s body into r's body
/// carrying r''s head arguments onto r's — then whenever r fires, r'
/// already derived the same fact, so dropping r leaves the fixpoint
/// unchanged on every database. (r itself may carry ≠: its ≠ constraints
/// only restrict when it fires, which only helps.) Surviving rules keep
/// their relative order.
///
/// The configuration-sweep rewriting emits many such rules (e.g.
/// A(x) ← R(x,y) ∧ A(y) next to the more general A(x) ← R(x,y)): they
/// cost every fixpoint round a dispatch, and they make the dependency
/// graph *spuriously* cyclic for the FO unfolding.
size_t PruneRedundantRules(DatalogProgram* program);

}  // namespace gfomq

#endif  // GFOMQ_DATALOG_PROGRAM_H_

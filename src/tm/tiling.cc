#include "tm/tiling.h"

#include <functional>
#include <string>

#include "reasoner/ground.h"

namespace gfomq {

std::optional<std::vector<std::vector<int>>> SolveRectangleTiling(
    const TilingProblem& problem, int max_width, int max_height) {
  for (int n = 1; n <= max_width; ++n) {
    for (int m = 1; m <= max_height; ++m) {
      // Backtracking over positions in row-major order.
      std::vector<std::vector<int>> grid(
          static_cast<size_t>(n), std::vector<int>(static_cast<size_t>(m), -1));
      std::function<bool(int)> place = [&](int pos) -> bool {
        if (pos == n * m) return true;
        int i = pos % n;  // column
        int j = pos / n;  // row
        for (int t = 0; t < problem.num_tiles; ++t) {
          if (i == 0 && j == 0 && t != problem.initial) continue;
          if (!(i == 0 && j == 0) && t == problem.initial) continue;
          if (i == n - 1 && j == m - 1 && t != problem.final) continue;
          if (!(i == n - 1 && j == m - 1) && t == problem.final) continue;
          if (i > 0 &&
              !problem.horizontal.count(
                  {grid[static_cast<size_t>(i - 1)][static_cast<size_t>(j)],
                   t})) {
            continue;
          }
          if (j > 0 &&
              !problem.vertical.count(
                  {grid[static_cast<size_t>(i)][static_cast<size_t>(j - 1)],
                   t})) {
            continue;
          }
          grid[static_cast<size_t>(i)][static_cast<size_t>(j)] = t;
          if (place(pos + 1)) return true;
          grid[static_cast<size_t>(i)][static_cast<size_t>(j)] = -1;
        }
        return false;
      };
      if (place(0)) return grid;
    }
  }
  return std::nullopt;
}

Instance BuildGridInstance(SymbolsPtr symbols, int n, int m,
                           const std::vector<std::vector<int>>* tiling) {
  Instance out(symbols);
  uint32_t x_rel = symbols->Rel("X", 2);
  uint32_t y_rel = symbols->Rel("Y", 2);
  std::vector<std::vector<ElemId>> grid(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      grid[static_cast<size_t>(i)].push_back(out.AddConstant(
          "g" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      ElemId e = grid[static_cast<size_t>(i)][static_cast<size_t>(j)];
      if (i + 1 < n) {
        out.AddFact(x_rel, {e, grid[static_cast<size_t>(i + 1)]
                                   [static_cast<size_t>(j)]});
      }
      if (j + 1 < m) {
        out.AddFact(y_rel, {e, grid[static_cast<size_t>(i)]
                                   [static_cast<size_t>(j + 1)]});
      }
      if (tiling != nullptr) {
        int t = (*tiling)[static_cast<size_t>(i)][static_cast<size_t>(j)];
        uint32_t trel = symbols->Rel("T" + std::to_string(t), 1);
        out.AddFact(trel, {e});
      }
    }
  }
  return out;
}

bool CellClosedAt(const Instance& inst, ElemId d) {
  int64_t x = inst.symbols()->FindRel("X");
  int64_t y = inst.symbols()->FindRel("Y");
  if (x < 0 || y < 0) return false;
  for (const Fact* fx : inst.FactsAtPtr(static_cast<uint32_t>(x), 0, d)) {
    ElemId d1 = fx->args[1];
    for (const Fact* fy : inst.FactsAtPtr(static_cast<uint32_t>(y), 0, d)) {
      ElemId d2 = fy->args[1];
      for (const Fact* fy2 :
           inst.FactsAtPtr(static_cast<uint32_t>(y), 0, d1)) {
        ElemId d3 = fy2->args[1];
        if (inst.HasFact(static_cast<uint32_t>(x), {d2, d3})) return true;
      }
    }
  }
  return false;
}

namespace {

// Letters of marker words.
enum class Letter { kX, kY, kXinv, kYinv };

std::string LetterName(Letter l) {
  switch (l) {
    case Letter::kX: return "X";
    case Letter::kY: return "Y";
    case Letter::kXinv: return "Xi";
    case Letter::kYinv: return "Yi";
  }
  return "?";
}

using Word = std::vector<Letter>;

std::string WordName(const Word& w) {
  std::string out;
  for (Letter l : w) out += LetterName(l);
  return out;
}

}  // namespace

CellOntology BuildCellOntology(SymbolsPtr symbols,
                               bool include_cycle_axioms) {
  CellOntology out{Ontology(symbols), 0, 0, 0, {}};
  uint32_t X = symbols->Rel("X", 2);
  uint32_t Y = symbols->Rel("Y", 2);
  out.x_rel = X;
  out.y_rel = Y;
  uint32_t x = symbols->Var("x");
  uint32_t y = symbols->Var("y");
  uint32_t z = symbols->Var("z");

  // (1) X, Y and their inverses are partial functions.
  out.ontology.Add(Sentence::Functionality(X, false));
  out.ontology.Add(Sentence::Functionality(X, true));
  out.ontology.Add(Sentence::Functionality(Y, false));
  out.ontology.Add(Sentence::Functionality(Y, true));

  // Words: XY, YX, C = Xi Yi X Y, CC, and all suffixes thereof; the
  // mirrored word Yi Xi Y X for axiom (5).
  const Word kXY{Letter::kX, Letter::kY};
  const Word kYX{Letter::kY, Letter::kX};
  const Word kC{Letter::kXinv, Letter::kYinv, Letter::kX, Letter::kY};
  const Word kCm{Letter::kYinv, Letter::kXinv, Letter::kY, Letter::kX};
  Word cc = kC;
  cc.insert(cc.end(), kC.begin(), kC.end());
  std::set<Word> words;
  auto add_suffixes = [&words](const Word& w) {
    for (size_t i = 0; i < w.size(); ++i) {
      words.insert(Word(w.begin() + static_cast<int64_t>(i), w.end()));
    }
  };
  add_suffixes(kXY);
  add_suffixes(kYX);
  if (include_cycle_axioms) {
    add_suffixes(kC);
    add_suffixes(kCm);
    add_suffixes(cc);
  }

  // Marker relations: base R1, R2, P, and R<i>_<word> for every word.
  std::map<std::pair<int, Word>, uint32_t> word_rel;
  uint32_t base[2];
  for (int i = 0; i < 2; ++i) {
    base[i] = symbols->Rel("R" + std::to_string(i + 1), 2);
    out.marker_rels.push_back(base[i]);
    for (const Word& w : words) {
      uint32_t rel =
          symbols->Rel("R" + std::to_string(i + 1) + "_" + WordName(w), 2);
      word_rel[{i, w}] = rel;
      out.marker_rels.push_back(rel);
    }
  }
  out.p_marker = symbols->Rel("P", 2);
  out.marker_rels.push_back(out.p_marker);

  // Marker formula m(Q)(x) = (≤1 y) Q(x,y). Together with ∀x∃y Q(x,y) this
  // is the paper's (= 1 Q).
  auto marker = [&](uint32_t rel) {
    return Formula::CountQ(false, 1, y, Formula::Atom(rel, {x, y}),
                           Formula::True());
  };
  auto not_marker = [&](uint32_t rel) {
    return Formula::CountQ(true, 2, y, Formula::Atom(rel, {x, y}),
                           Formula::True());
  };
  auto rel_of = [&](int i, const Word& w) {
    return w.empty() ? base[i] : word_rel.at({i, w});
  };

  // (6a) ∀x ∃y Q(x,y) for every marker relation.
  for (uint32_t rel : out.marker_rels) {
    out.ontology.Add(Sentence::UniversalEq(
        x, Formula::Exists({y}, Formula::Atom(rel, {x, y}), Formula::True())));
  }

  // (6b) Definitional axioms: m(R^zW) ≡ ∃z m(R^W), both directions.
  for (int i = 0; i < 2; ++i) {
    for (const Word& w : words) {
      Word rest(w.begin() + 1, w.end());
      uint32_t whole = rel_of(i, w);
      uint32_t sub = rel_of(i, rest);
      // ∃ step (m(sub) at the successor); the letter determines the
      // direction of the step atom. The inner marker uses a third variable
      // to avoid capture.
      FormulaPtr inner = Formula::CountQ(
          false, 1, z, Formula::Atom(sub, {y, z}), Formula::True());
      FormulaPtr step = nullptr;
      switch (w[0]) {
        case Letter::kX:
          step = Formula::Exists({y}, Formula::Atom(X, {x, y}), inner);
          break;
        case Letter::kY:
          step = Formula::Exists({y}, Formula::Atom(Y, {x, y}), inner);
          break;
        case Letter::kXinv:
          step = Formula::Exists({y}, Formula::Atom(X, {y, x}), inner);
          break;
        case Letter::kYinv:
          step = Formula::Exists({y}, Formula::Atom(Y, {y, x}), inner);
          break;
      }
      out.ontology.Add(Sentence::UniversalEq(
          x, Formula::Or(not_marker(whole), step)));
      out.ontology.Add(Sentence::UniversalEq(
          x, Formula::Or(Formula::Not(step), marker(whole))));
    }
  }

  // (2) Every node carries R1 or R2.
  out.ontology.Add(Sentence::UniversalEq(
      x, Formula::Or(marker(base[0]), marker(base[1]))));

  // (3) For some i, the XY-reachable and YX-reachable nodes both carry the
  // R_i marker ⇒ P (if the cell closes, they are the same node, which by
  // (2) carries R_1 or R_2; if it does not close, a model can give the two
  // endpoints different markers and avoid P).
  for (int i = 0; i < 2; ++i) {
    out.ontology.Add(Sentence::UniversalEq(
        x, Formula::Or({not_marker(rel_of(i, kXY)),
                        not_marker(rel_of(i, kYX)),
                        marker(out.p_marker)})));
  }

  if (include_cycle_axioms) {
    // (4) m(R^CC_j) ⇒ m(R_i) ∨ m(R^C_i) ∨ m(R^CC_i), {i,j} = {1,2}.
    for (int j = 0; j < 2; ++j) {
      int i = 1 - j;
      out.ontology.Add(Sentence::UniversalEq(
          x, Formula::Or({not_marker(rel_of(j, cc)), marker(base[i]),
                          marker(rel_of(i, kC)), marker(rel_of(i, cc))})));
    }
    // (5) m(R^C_1) ∧ m(R^C_2) ⇒ m(R_1) ∧ m(R_2); mirrored word likewise.
    for (const Word& w : {kC, kCm}) {
      for (int i = 0; i < 2; ++i) {
        out.ontology.Add(Sentence::UniversalEq(
            x,
            Formula::Or({not_marker(rel_of(0, w)), not_marker(rel_of(1, w)),
                         marker(base[i])})));
      }
    }
  }

  return out;
}

GridOntology BuildGridOntology(SymbolsPtr symbols,
                               const TilingProblem& problem,
                               bool include_cycle_axioms) {
  GridOntology out{BuildCellOntology(symbols, include_cycle_axioms), {}, 0, 0, 0, 0, 0, 0};
  Ontology& onto = out.cell.ontology;
  uint32_t x = symbols->Var("x");
  uint32_t y = symbols->Var("y");
  uint32_t z = symbols->Var("z");
  uint32_t X = out.cell.x_rel;
  uint32_t Y = out.cell.y_rel;

  for (int t = 0; t < problem.num_tiles; ++t) {
    out.tile_rels.push_back(symbols->Rel("T" + std::to_string(t), 1));
  }
  auto new_marker = [&](const char* name) {
    uint32_t rel = symbols->Rel(name, 2);
    out.cell.marker_rels.push_back(rel);
    // ∀x ∃y Q(x,y): markers are invisible to equality-free queries.
    onto.Add(Sentence::UniversalEq(
        x, Formula::Exists({y}, Formula::Atom(rel, {x, y}), Formula::True())));
    return rel;
  };
  out.f_marker = new_marker("Fm");
  uint32_t fx = new_marker("FmX");
  uint32_t fy = new_marker("FmY");
  out.u_marker = new_marker("Um");
  out.r_marker = new_marker("Rm");
  uint32_t l_marker = new_marker("Lm");
  uint32_t d_marker = new_marker("Dm");
  out.a_marker = new_marker("Am");
  out.b1 = symbols->Rel("B1", 1);
  out.b2 = symbols->Rel("B2", 1);

  // m(Q) at the sentence variable x / at a successor variable v (fresh
  // counting variable to avoid capture).
  auto m_at = [&](uint32_t rel, uint32_t at, uint32_t qv) {
    return Formula::CountQ(false, 1, qv, Formula::Atom(rel, {at, qv}),
                           Formula::True());
  };
  auto not_m_at = [&](uint32_t rel, uint32_t at, uint32_t qv) {
    return Formula::CountQ(true, 2, qv, Formula::Atom(rel, {at, qv}),
                           Formula::True());
  };
  auto m = [&](uint32_t rel) { return m_at(rel, x, y); };
  auto not_m = [&](uint32_t rel) { return not_m_at(rel, x, y); };
  auto tile = [&](int t) { return Formula::Atom(out.tile_rels[(size_t)t], {x}); };
  auto not_tile = [&](int t) { return Formula::Not(tile(t)); };
  auto imp = [&](std::vector<FormulaPtr> neg_antecedent,
                 std::vector<FormulaPtr> consequents) {
    // For each consequent c: ∀x (⋁ neg_antecedent ∨ c).
    for (FormulaPtr& c : consequents) {
      std::vector<FormulaPtr> clause = neg_antecedent;
      clause.push_back(c);
      onto.Add(Sentence::UniversalEq(x, Formula::Or(std::move(clause))));
    }
  };

  // (F4.1) The final tile is verified and sits at the top-right corner.
  imp({not_tile(problem.final)},
      {m(out.f_marker), m(out.u_marker), m(out.r_marker)});

  // Step formulas ∃X.φ(y), ∃Y.φ(y).
  auto exists_step = [&](uint32_t step_rel, std::vector<FormulaPtr> at_succ) {
    return Formula::Exists({y}, Formula::Atom(step_rel, {x, y}),
                           Formula::And(std::move(at_succ)));
  };

  // (F4.2) Top border propagation: T_i(x) ∧ ∃X.(m(U) ∧ m(F) ∧ T_j) →
  // m(U) ∧ m(F) for (i,j) ∈ H.
  for (auto [i, j] : problem.horizontal) {
    imp({not_tile(i),
         Formula::Not(exists_step(
             X, {m_at(out.u_marker, y, z), m_at(out.f_marker, y, z),
                 Formula::Atom(out.tile_rels[(size_t)j], {y})}))},
        {m(out.u_marker), m(out.f_marker)});
  }
  // (F4.3) Right border propagation along Y, for (i,l) ∈ V.
  for (auto [i, l] : problem.vertical) {
    imp({not_tile(i),
         Formula::Not(exists_step(
             Y, {m_at(out.r_marker, y, z), m_at(out.f_marker, y, z),
                 Formula::Atom(out.tile_rels[(size_t)l], {y})}))},
        {m(out.r_marker), m(out.f_marker)});
  }
  // (F4.4) Definitional: m(FY) ≡ ∃Y.m(F), m(FX) ≡ ∃X.m(F).
  for (auto [word_rel, step_rel] :
       {std::pair<uint32_t, uint32_t>{fy, Y}, {fx, X}}) {
    FormulaPtr step = exists_step(step_rel, {m_at(out.f_marker, y, z)});
    onto.Add(Sentence::UniversalEq(
        x, Formula::Or(not_m_at(word_rel, x, y), step)));
    onto.Add(Sentence::UniversalEq(
        x, Formula::Or(Formula::Not(step), m_at(word_rel, x, y))));
  }
  // (F4.5) Interior propagation: T_i ∧ ∃X.(T_j ∧ m(F) ∧ m(FY)) ∧
  // ∃Y.(T_l ∧ m(F) ∧ m(FX)) ∧ m(P) → m(F), for (i,j) ∈ H, (i,l) ∈ V.
  for (auto [i, j] : problem.horizontal) {
    for (auto [i2, l] : problem.vertical) {
      if (i2 != i) continue;
      imp({not_tile(i),
           Formula::Not(exists_step(
               X, {Formula::Atom(out.tile_rels[(size_t)j], {y}),
                   m_at(out.f_marker, y, z), m_at(fy, y, z)})),
           Formula::Not(exists_step(
               Y, {Formula::Atom(out.tile_rels[(size_t)l], {y}),
                   m_at(out.f_marker, y, z), m_at(fx, y, z)})),
           not_m(out.cell.p_marker)},
          {m(out.f_marker)});
    }
  }
  // (F4.6) Verified initial tile marks the lower-left corner.
  imp({not_tile(problem.initial), not_m(out.f_marker)},
      {m(out.a_marker), m(d_marker), m(l_marker)});
  // (F4.7) Tile uniqueness.
  for (int s = 0; s < problem.num_tiles; ++s) {
    for (int t = s + 1; t < problem.num_tiles; ++t) {
      imp({not_tile(s)}, {not_tile(t)});
    }
  }
  // (F4.8) Border axioms: U has no Y-successor and propagates along X;
  // R has no X-successor and propagates along Y; dually for D (no
  // Y-predecessor, propagates along X) and L (no X-predecessor, along Y).
  auto forall_false = [&](uint32_t step_rel, bool inverse) {
    std::vector<uint32_t> args =
        inverse ? std::vector<uint32_t>{y, x} : std::vector<uint32_t>{x, y};
    return Formula::Forall({y}, Formula::Atom(step_rel, args),
                           Formula::False());
  };
  auto forall_marker = [&](uint32_t step_rel, uint32_t marker_rel) {
    return Formula::Forall({y}, Formula::Atom(step_rel, {x, y}),
                           m_at(marker_rel, y, z));
  };
  imp({not_m(out.u_marker)}, {forall_false(Y, false)});
  imp({not_m(out.r_marker)}, {forall_false(X, false)});
  imp({not_m(out.u_marker)}, {forall_marker(X, out.u_marker)});
  imp({not_m(out.r_marker)}, {forall_marker(Y, out.r_marker)});
  imp({not_m(d_marker)}, {forall_false(Y, true)});
  imp({not_m(l_marker)}, {forall_false(X, true)});
  imp({not_m(d_marker)}, {forall_marker(X, d_marker)});
  imp({not_m(l_marker)}, {forall_marker(Y, l_marker)});
  // (F4.9) The hardness head: a verified lower-left corner triggers the
  // disjunction that destroys materializability.
  imp({not_tile(problem.initial), not_m(out.a_marker)},
      {Formula::Or(Formula::Atom(out.b1, {x}), Formula::Atom(out.b2, {x}))});

  return out;
}

MarkerStatus CheckMarker(CertainAnswerSolver& solver, const Instance& input,
                         uint32_t marker_rel, ElemId d, uint32_t ground_extra) {
  // Countermodel shape: the input plus two fresh *distinct* successors.
  Instance extended = input;
  ElemId u1 = extended.AddConstant("cm#1");
  ElemId u2 = extended.AddConstant("cm#2");
  extended.AddFact(marker_rel, {d, u1});
  extended.AddFact(marker_rel, {d, u2});
  // Consistency of the extension == existence of a countermodel.
  if (GroundSolver(solver.rules())
          .FindModel(extended, /*avoid=*/{}, ground_extra, /*model=*/nullptr,
                     /*max_conflicts=*/500000) == Certainty::kYes) {
    return MarkerStatus::kRefuted;
  }
  TableauBudget budget;
  budget.max_steps = 20000;
  // Execution strategy follows the solver's configuration (a probe run
  // under N threads must still share cache entries with a serial one, so
  // only the verdict-relevant budget fields above are probe-specific).
  budget.tableau_threads = solver.options().tableau.tableau_threads;
  budget.spawn_cutoff_depth = solver.options().tableau.spawn_cutoff_depth;
  budget.engine = solver.options().tableau.engine;
  budget.learn_nogoods = solver.options().tableau.learn_nogoods;
  // Route through the solver so repeated marker probes (isomorphic
  // extensions recur across cells) hit the shared consistency cache.
  Certainty c = solver.TableauIsConsistent(extended, budget);
  if (c == Certainty::kYes) return MarkerStatus::kRefuted;
  if (c == Certainty::kNo) return MarkerStatus::kEntailedProved;
  return MarkerStatus::kNoCountermodelUpTo;
}

}  // namespace gfomq

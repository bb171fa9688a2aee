#include "datalog/program.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "query/cq.h"

namespace gfomq {

namespace {

/// The body of a rule viewed as a CQ with the head arguments as answer
/// variables (the shape both sides of the subsumption test need).
Cq RuleBodyCq(const DatalogRule& rule, const SymbolsPtr& symbols) {
  Cq cq;
  cq.symbols = symbols;
  cq.num_vars = rule.num_vars;
  cq.answer_vars = rule.head.vars;
  cq.atoms.reserve(rule.body.size());
  for (const DatalogAtom& b : rule.body) {
    cq.atoms.push_back(CqAtom{b.rel, b.vars});
  }
  return cq;
}

}  // namespace

bool DatalogProgram::IsPlainDatalog() const {
  for (const DatalogRule& r : rules) {
    if (!r.neq.empty()) return false;
  }
  return true;
}

Status DatalogProgram::Validate() const {
  for (const DatalogRule& r : rules) {
    std::set<uint32_t> body_vars;
    for (const DatalogAtom& a : r.body) {
      if (static_cast<int>(a.vars.size()) != symbols->RelArity(a.rel)) {
        return Status::InvalidArgument("arity mismatch in rule body");
      }
      body_vars.insert(a.vars.begin(), a.vars.end());
    }
    for (uint32_t v : r.head.vars) {
      if (!body_vars.count(v)) {
        return Status::InvalidArgument(
            "head variable not bound in rule body (range restriction)");
      }
    }
    for (const auto& [x, y] : r.neq) {
      if (!body_vars.count(x) || !body_vars.count(y)) {
        return Status::InvalidArgument("inequality variable not bound");
      }
    }
    if (r.body.empty()) {
      return Status::InvalidArgument("rules must have non-empty bodies");
    }
  }
  return Status::Ok();
}

std::string DatalogProgram::ToString() const {
  std::ostringstream out;
  auto print_atom = [&](const DatalogAtom& a) {
    out << symbols->RelName(a.rel) << "(";
    for (size_t i = 0; i < a.vars.size(); ++i) {
      if (i) out << ",";
      out << "v" << a.vars[i];
    }
    out << ")";
  };
  for (const DatalogRule& r : rules) {
    print_atom(r.head);
    out << " :- ";
    for (size_t i = 0; i < r.body.size(); ++i) {
      if (i) out << ", ";
      print_atom(r.body[i]);
    }
    for (const auto& [x, y] : r.neq) {
      out << ", v" << x << " != v" << y;
    }
    out << ";\n";
  }
  return out.str();
}

size_t PruneRedundantRules(DatalogProgram* program) {
  std::vector<DatalogRule>& rules = program->rules;
  std::map<uint32_t, std::vector<size_t>> by_head;
  for (size_t i = 0; i < rules.size(); ++i) {
    by_head[rules[i].head.rel].push_back(i);
  }
  std::vector<bool> keep(rules.size(), true);
  size_t pruned = 0;
  for (auto& [rel, group] : by_head) {
    // Generalizers tend to have smaller bodies; scanning them first makes
    // the keep-first pass prune maximally (ties keep the earlier rule, so
    // mutually-subsuming equivalents never both vanish).
    std::stable_sort(group.begin(), group.end(), [&](size_t a, size_t b) {
      return rules[a].body.size() < rules[b].body.size();
    });
    std::vector<Cq> kept_cqs;  // ≠-free kept rules, as subsumer CQs
    for (size_t i : group) {
      const DatalogRule& r = rules[i];
      bool redundant = false;
      for (const DatalogAtom& b : r.body) {
        if (b.rel == r.head.rel && b.vars == r.head.vars) {
          redundant = true;  // tautology
          break;
        }
      }
      if (!redundant && !kept_cqs.empty()) {
        Instance db = RuleBodyCq(r, program->symbols).CanonicalDb();
        std::vector<ElemId> tuple(r.head.vars.begin(), r.head.vars.end());
        for (const Cq& k : kept_cqs) {
          if (k.HasAnswer(db, tuple)) {
            redundant = true;
            break;
          }
        }
      }
      if (redundant) {
        keep[i] = false;
        ++pruned;
      } else if (r.neq.empty()) {
        kept_cqs.push_back(RuleBodyCq(r, program->symbols));
      }
    }
  }
  size_t next = 0;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!keep[i]) continue;
    if (next != i) rules[next] = std::move(rules[i]);
    ++next;
  }
  rules.resize(next);
  return pruned;
}

Result<DatalogProgram> ParseDatalog(const std::string& text,
                                    SymbolsPtr symbols) {
  DatalogProgram prog(symbols);

  size_t pos = 0;
  auto skip = [&]() {
    while (pos < text.size()) {
      if (std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      } else if (text[pos] == '#') {
        while (pos < text.size() && text[pos] != '\n') ++pos;
      } else {
        break;
      }
    }
  };
  auto read_name = [&]() -> Result<std::string> {
    skip();
    size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_')) {
      ++pos;
    }
    if (pos == start) {
      return Status::InvalidArgument("expected name at offset " +
                                     std::to_string(pos));
    }
    return text.substr(start, pos - start);
  };
  auto expect = [&](char c) -> Status {
    skip();
    if (pos >= text.size() || text[pos] != c) {
      return Status::InvalidArgument(std::string("expected '") + c +
                                     "' at offset " + std::to_string(pos));
    }
    ++pos;
    return Status::Ok();
  };
  auto peek = [&](char c) {
    // Reuse the shared skipper: `#` comments are as insignificant as
    // whitespace, so consuming them here never changes what is parsed.
    skip();
    return pos < text.size() && text[pos] == c;
  };

  skip();
  while (pos < text.size()) {
    DatalogRule rule;
    std::map<std::string, uint32_t> vars;
    auto var_id = [&](const std::string& n) {
      auto it = vars.find(n);
      if (it != vars.end()) return it->second;
      uint32_t id = rule.num_vars++;
      vars.emplace(n, id);
      return id;
    };
    auto read_atom = [&]() -> Result<DatalogAtom> {
      Result<std::string> rel = read_name();
      if (!rel.ok()) return rel.status();
      Status s = expect('(');
      if (!s.ok()) return s;
      std::vector<uint32_t> args;
      if (!peek(')')) {
        for (;;) {
          Result<std::string> v = read_name();
          if (!v.ok()) return v.status();
          args.push_back(var_id(*v));
          if (peek(',')) {
            (void)expect(',');
            continue;
          }
          break;
        }
      }
      s = expect(')');
      if (!s.ok()) return s;
      int64_t existing = symbols->FindRel(*rel);
      uint32_t rid = existing >= 0
                         ? static_cast<uint32_t>(existing)
                         : symbols->Rel(*rel, static_cast<int>(args.size()));
      if (symbols->RelArity(rid) != static_cast<int>(args.size())) {
        return Status::InvalidArgument("arity mismatch for " + *rel);
      }
      return DatalogAtom{rid, std::move(args)};
    };

    Result<DatalogAtom> head = read_atom();
    if (!head.ok()) return head.status();
    rule.head = std::move(*head);
    Status s = expect(':');
    if (!s.ok()) return s;
    s = expect('-');
    if (!s.ok()) return s;
    for (;;) {
      skip();
      // Either an atom or an inequality `x != y`.
      size_t save = pos;
      Result<std::string> first = read_name();
      if (!first.ok()) return first.status();
      skip();
      if (pos + 1 < text.size() && text[pos] == '!' && text[pos + 1] == '=') {
        pos += 2;
        Result<std::string> second = read_name();
        if (!second.ok()) return second.status();
        rule.neq.emplace_back(var_id(*first), var_id(*second));
      } else {
        pos = save;
        Result<DatalogAtom> atom = read_atom();
        if (!atom.ok()) return atom.status();
        rule.body.push_back(std::move(*atom));
      }
      if (peek(',')) {
        (void)expect(',');
        continue;
      }
      break;
    }
    s = expect(';');
    if (!s.ok()) return s;
    prog.rules.push_back(std::move(rule));
    skip();
  }
  int64_t goal = symbols->FindRel("goal");
  prog.goal_rel = goal;
  Status v = prog.Validate();
  if (!v.ok()) return v;
  return prog;
}

}  // namespace gfomq

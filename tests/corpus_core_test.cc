#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "corpus/corpus.h"
#include "dl/translate.h"
#include "logic/parser.h"

namespace gfomq {
namespace {

TEST(CorpusTest, GenerationIsDeterministic) {
  auto c1 = GenerateCorpus(42, 10);
  auto c2 = GenerateCorpus(42, 10);
  ASSERT_EQ(c1.size(), c2.size());
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(DlOntologyToString(c1[i]), DlOntologyToString(c2[i]));
  }
  auto c3 = GenerateCorpus(43, 10);
  bool any_diff = false;
  for (size_t i = 0; i < c1.size(); ++i) {
    if (DlOntologyToString(c1[i]) != DlOntologyToString(c3[i])) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(CorpusTest, CensusMatchesPaperShape) {
  // The paper: 411 ontologies; 405 within ALCHIF depth <= 2 (98.5%);
  // 385 within ALCHIQ depth 1 (93.7%). The calibrated generator must land
  // near those proportions.
  auto corpus = GenerateCorpus(2017, 411);
  CorpusReport report = AnalyzeCorpus(corpus);
  EXPECT_EQ(report.total, 411);
  EXPECT_GE(report.alchif_depth_le2, 395);
  EXPECT_LE(report.alchif_depth_le2, 411);
  EXPECT_GE(report.alchiq_depth_le1, 370);
  EXPECT_LE(report.alchiq_depth_le1, 400);
  // Most ontologies land in a dichotomy fragment.
  EXPECT_GT(report.dichotomy, report.total / 2);
}

TEST(CorpusTest, GeneratedOntologiesTranslate) {
  auto corpus = GenerateCorpus(7, 20);
  for (const DlOntology& onto : corpus) {
    auto guarded = TranslateToGuarded(onto);
    ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
    EXPECT_TRUE(guarded->Validate().ok());
    EXPECT_EQ(guarded->Depth(), onto.Depth());
  }
}

TEST(CoreTest, EngineClassifiesHornAsPtime) {
  auto onto = ParseOntology("forall x . (A(x) -> B(x));");
  ASSERT_TRUE(onto.ok());
  EngineOptions opts;
  opts.bouquet.max_outdegree = 2;
  auto engine = OmqEngine::Create(*onto, opts);
  ASSERT_TRUE(engine.ok());
  OmqVerdict verdict = engine->Classify();
  EXPECT_EQ(verdict.syntactic.verdict, DichotomyStatus::kDichotomy);
  EXPECT_EQ(verdict.ptime, Certainty::kYes);
  // Each bouquet's consistency model settles the candidates it falsifies,
  // and the summary says how many.
  EXPECT_GT(verdict.meta_stats.model_settled_probes, 0u);
  EXPECT_NE(verdict.Summary(*onto->symbols)
                .find("probes settled by a consistency model: " +
                      std::to_string(verdict.meta_stats.model_settled_probes)),
            std::string::npos);
}

TEST(CoreTest, EngineClassifiesDisjunctiveAsHard) {
  auto onto = ParseOntology("forall x . (A(x) -> B1(x) | B2(x));");
  ASSERT_TRUE(onto.ok());
  EngineOptions opts;
  opts.bouquet.max_outdegree = 1;
  auto engine = OmqEngine::Create(*onto, opts);
  ASSERT_TRUE(engine.ok());
  OmqVerdict verdict = engine->Classify();
  EXPECT_EQ(verdict.syntactic.verdict, DichotomyStatus::kDichotomy);
  EXPECT_EQ(verdict.ptime, Certainty::kNo);
  ASSERT_TRUE(verdict.violation.has_value());
}

TEST(CoreTest, EngineEndToEndQueryAnswering) {
  SymbolsPtr sym = MakeSymbols();
  auto onto = ParseOntology(
      "forall x . (A(x) -> exists y (R(x,y) & B(y)));", sym);
  ASSERT_TRUE(onto.ok());
  auto engine = OmqEngine::Create(*onto);
  ASSERT_TRUE(engine.ok());
  Instance d(sym);
  ElemId a = d.AddConstant("a");
  d.AddFact(static_cast<uint32_t>(sym->FindRel("A")), {a});
  auto q = ParseCq("q(x) :- R(x,y), B(y)", sym);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine->IsConsistent(d), Certainty::kYes);
  auto answers = engine->CertainAnswers(d, Ucq::Single(*q));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(*answers.begin(), std::vector<ElemId>{a});
  // And the rewriting agrees.
  auto rewrite = engine->Rewrite(Ucq::Single(*q));
  ASSERT_TRUE(rewrite.ok());
  EXPECT_GT(rewrite->program.rules.size(), 0u);
}

}  // namespace
}  // namespace gfomq

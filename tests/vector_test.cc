// Unit + property tests for src/vector: embeddings and the concept lexicon.

#include <gtest/gtest.h>

#include <cmath>

#include "vector/embedding.h"

namespace kathdb::vec {
namespace {

// ------------------------------------------------------------ embeddings

TEST(EmbeddingTest, CosineBasics) {
  Embedding a{1, 0, 0};
  Embedding b{0, 1, 0};
  Embedding c{2, 0, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, b), 0.0f);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, {}), 0.0f);  // dim mismatch
  Embedding zero{0, 0, 0};
  EXPECT_FLOAT_EQ(CosineSimilarity(a, zero), 0.0f);
}

TEST(EmbeddingTest, NormalizeMakesUnitLength) {
  Embedding e{3, 4};
  Normalize(&e);
  EXPECT_NEAR(std::hypot(e[0], e[1]), 1.0, 1e-6);
  Embedding zero{0, 0};
  Normalize(&zero);  // must not divide by zero
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
}

TEST(LexiconTest, BuiltInCoversRunningExample) {
  ConceptLexicon lex = ConceptLexicon::BuiltIn();
  EXPECT_EQ(lex.ConceptOf("gun"), "violence");
  EXPECT_EQ(lex.ConceptOf("WEAPON"), "violence");  // case-insensitive
  EXPECT_EQ(lex.ConceptOf("motorcycle"), "action");
  EXPECT_EQ(lex.ConceptOf("meadow"), "calm");
  EXPECT_EQ(lex.ConceptOf("blacklist"), "suspense");
  EXPECT_EQ(lex.ConceptOf("nonexistentword"), "");
  EXPECT_GT(lex.TokensOf("violence").size(), 10u);
}

TEST(LexiconTest, AddExtends) {
  ConceptLexicon lex;
  lex.Add("Violence", "Phaser");
  EXPECT_EQ(lex.ConceptOf("phaser"), "violence");
}

TEST(EmbedderTest, DeterministicAcrossInstances) {
  TextEmbedder a(64);
  TextEmbedder b(64);
  EXPECT_EQ(a.EmbedToken("gun"), b.EmbedToken("gun"));
  EXPECT_EQ(a.EmbedText("a gun fight"), b.EmbedText("a gun fight"));
}

TEST(EmbedderTest, TokenEmbeddingsAreUnitNorm) {
  TextEmbedder emb(64);
  for (const char* w : {"gun", "meadow", "zzyzx", "title"}) {
    Embedding e = emb.EmbedToken(w);
    double n = 0;
    for (float v : e) n += static_cast<double>(v) * v;
    EXPECT_NEAR(n, 1.0, 1e-5) << w;
  }
}

TEST(EmbedderTest, SameConceptTokensCorrelate) {
  TextEmbedder emb(64);
  // Same concept: strongly related.
  float gun_weapon = CosineSimilarity(emb.EmbedToken("gun"),
                                      emb.EmbedToken("weapon"));
  EXPECT_GT(gun_weapon, 0.6f);
  // Different concepts: weak relation.
  float gun_meadow = CosineSimilarity(emb.EmbedToken("gun"),
                                      emb.EmbedToken("meadow"));
  EXPECT_LT(gun_meadow, 0.4f);
  // Unmapped tokens: near-orthogonal.
  float rand_pair = CosineSimilarity(emb.EmbedToken("qwerty"),
                                     emb.EmbedToken("asdfgh"));
  EXPECT_LT(std::abs(rand_pair), 0.4f);
}

TEST(EmbedderTest, KeywordSetSimilarityDiscriminates) {
  TextEmbedder emb(64);
  std::vector<std::string> keywords{"gun", "murder", "chase"};
  float exciting = emb.KeywordSetSimilarity(
      keywords, {"shootout", "explosion", "detective"});
  float calm = emb.KeywordSetSimilarity(keywords,
                                        {"tea", "garden", "picnic"});
  EXPECT_GT(exciting, calm + 0.3f);
}

// Property sweep: embedding dimension does not break determinism/norms.
class EmbedderDimSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(EmbedderDimSweep, NormAndDeterminism) {
  size_t dim = GetParam();
  TextEmbedder emb(dim);
  Embedding e1 = emb.EmbedText("the quick brown fox");
  Embedding e2 = emb.EmbedText("the quick brown fox");
  ASSERT_EQ(e1.size(), dim);
  EXPECT_EQ(e1, e2);
  double n = 0;
  for (float v : e1) n += static_cast<double>(v) * v;
  EXPECT_NEAR(n, 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Dims, EmbedderDimSweep,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

}  // namespace
}  // namespace kathdb::vec

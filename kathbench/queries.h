/// \file queries.h
/// \brief Seeded query streams and the answer oracle of the KathDB benchmark.
///
/// Every query the benchmark sends is one of four shapes, all over the
/// generated movie corpus:
///   - metadata: "Sort the films in the table" (recency ranking, no FAO
///     scoring);
///   - filter:   "Find the films where the poster should be 'boring'";
///   - rank:     "Sort the films by how <term> they are";
///   - paper:    the paper's query, rank by <term> and keep 'boring'
///     posters, optionally with the recency correction.
/// The poster filter term is always 'boring': it is the only term with
/// hidden ground truth (data::MovieTruth::boring_poster), so filter
/// answers can be scored by F1 against it.

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/movie_dataset.h"
#include "relational/table.h"

namespace kathbench {

enum class Shape { kMetadata, kFilter, kRank, kPaper };

/// One NL query plus the scripted answers its user gives, in order, to
/// the system's clarification and sketch-review questions ("OK" once
/// the script runs out).
struct QuerySpec {
  Shape shape = Shape::kMetadata;
  std::string term;      ///< rank term; empty for metadata/filter shapes
  bool recency = false;  ///< paper shape with the recency correction
  std::string text;
  std::vector<std::string> replies;

  /// Text and replies joined: the identity of a (text, replies) pair.
  std::string Key() const;
};

/// \brief A seeded, balanced stream of queries.
///
/// Shapes, rank terms, the recency correction and sketch-review comments
/// are dealt from shuffled decks, so every stretch of the stream has
/// nearly the same mix of query costs whatever the seed; wording and
/// clarification answers are drawn freely. A non-empty `tag` is appended
/// to the text, making the pair distinct from every query with another
/// tag.
class QueryStream {
 public:
  QueryStream(uint64_t seed, std::vector<Shape> shapes);

  QuerySpec Next(const std::string& tag = "");

 private:
  /// Cycles through a permutation of 0..n-1, reshuffled every round.
  class Deck {
   public:
    explicit Deck(int n);
    int Deal(kathdb::Rng* rng);

   private:
    std::vector<int> order_;
    size_t pos_ = 0;
  };

  /// Replies for a shape that is asked no clarification: accept the
  /// sketch, after a comment that changes nothing for most queries.
  std::vector<std::string> ReviewReplies();

  kathdb::Rng rng_;
  std::vector<Shape> shapes_;
  Deck shape_deck_, term_deck_, recency_deck_, review_deck_;
};

/// `per_shape` distinct queries of each of the four shapes.
std::vector<QuerySpec> MakeQueryPool(int per_shape, uint64_t seed);

/// Hidden ground truth the oracle scores against.
struct Truth {
  size_t num_movies = 0;
  std::set<int64_t> boring_mids;
};
Truth TruthOf(const kathdb::data::MovieDataset& dataset);

/// The oracle's judgement of one answer.
struct Verdict {
  bool ok = false;
  std::string why;  ///< first violated rule when !ok
  // Movie ids of a boring-filter answer against the hidden truth.
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t fn = 0;
};

/// Checks one answer: the expected columns for the shape, every movie
/// present for rank/metadata shapes, rows ordered by the shape's score
/// (or year) column, every filter row flagged boring, and — when
/// `check_lids` — a nonzero lineage id on every row. Filter answers also
/// get their movie ids scored against `truth`.
Verdict CheckAnswer(const QuerySpec& q, const kathdb::rel::Table& answer,
                    const Truth& truth, bool check_lids);

}  // namespace kathbench

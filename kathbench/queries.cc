#include "queries.h"

#include <optional>
#include <utility>

namespace kathbench {

namespace {

using kathdb::Rng;

// Subjective terms the reviewer agent recognises (and so clarifies),
// excluding the poster filter's own 'boring' and its synonym 'dull'.
// Eight, so that a pool of eight rank (or paper) queries holds each once.
const char* const kRankTerms[] = {"exciting",  "scary",   "fun",
                                  "interesting", "memorable", "notable",
                                  "great",     "beautiful"};

// Clarification answers: "<scene> <detail>". Some scenes carry the cues
// ("uncommon", "real life") that widen the keyword list.
const char* const kScenes[] = {
    "The plot contains scenes that are uncommon in real life",
    "The plot has violent fights",
    "The story has car chases and explosions",
    "The film has tense standoffs",
    "The plot follows a dangerous escape",
    "The story is full of surprising twists",
    "The plot has battles that never happen in real life",
    "The film shows weapons and motorcycles"};
const char* const kDetails[] = {"", " near the ending", " in the opening",
                                " throughout the story",
                                " involving the main character",
                                " at night"};

// Sketch-review comments that change nothing structurally (the parser
// notes them and asks again); they must not mention a criterion term.
const char* const kComments[] = {"Please keep the title column visible",
                                 "Show the release year too",
                                 "Keep the poster id in the output",
                                 "Make sure every film keeps its id"};

const char* const kRecencyReply = "I prefer more recent movies when scoring";

template <typename T, size_t N>
const T& Pick(Rng* rng, const T (&items)[N]) {
  return items[rng->NextInt(0, static_cast<int64_t>(N) - 1)];
}

std::string Clarification(Rng* rng) {
  return std::string(Pick(rng, kScenes)) + Pick(rng, kDetails);
}


}  // namespace

std::string QuerySpec::Key() const {
  std::string key = text;
  for (const auto& r : replies) key += "\x1f" + r;
  return key;
}

QueryStream::Deck::Deck(int n) : order_(n) {
  for (int i = 0; i < n; ++i) order_[i] = i;
}

int QueryStream::Deck::Deal(Rng* rng) {
  if (pos_ == 0) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[rng->NextInt(0, static_cast<int64_t>(i) - 1)]);
    }
  }
  int v = order_[pos_];
  pos_ = (pos_ + 1) % order_.size();
  return v;
}

QueryStream::QueryStream(uint64_t seed, std::vector<Shape> shapes)
    : rng_(seed),
      shapes_(std::move(shapes)),
      shape_deck_(static_cast<int>(shapes_.size())),
      term_deck_(static_cast<int>(std::size(kRankTerms))),
      recency_deck_(2),
      review_deck_(static_cast<int>(std::size(kComments)) + 1) {}

std::vector<std::string> QueryStream::ReviewReplies() {
  size_t i = static_cast<size_t>(review_deck_.Deal(&rng_));
  if (i == std::size(kComments)) return {"OK"};
  return {kComments[i], "OK"};
}

QuerySpec QueryStream::Next(const std::string& tag) {
  QuerySpec q;
  q.shape = shapes_[shape_deck_.Deal(&rng_)];
  Rng* rng = &rng_;
  const bool films = rng->NextBool(0.5);
  const char* verb = films ? "Sort the films" : "Rank the movies";
  switch (q.shape) {
    case Shape::kMetadata: {
      static const char* const kTexts[] = {"Sort the films in the table",
                                           "Rank the movies in the table",
                                           "Order the films in the table"};
      q.text = Pick(rng, kTexts);
      q.replies = ReviewReplies();
      break;
    }
    case Shape::kFilter:
      q.text = std::string("Find the ") + (films ? "films" : "movies") +
               " where the poster should be 'boring'";
      q.replies = ReviewReplies();
      break;
    case Shape::kRank:
      q.term = kRankTerms[term_deck_.Deal(rng)];
      q.text = std::string(verb) + " by how " + q.term + " they are";
      q.replies = {Clarification(rng), "OK"};
      break;
    case Shape::kPaper:
      q.term = kRankTerms[term_deck_.Deal(rng)];
      q.recency = recency_deck_.Deal(rng) == 1;
      q.text = std::string(verb) + " by how " + q.term +
               " they are, but the poster should be 'boring'";
      q.replies = {Clarification(rng)};
      if (q.recency) q.replies.push_back(kRecencyReply);
      q.replies.push_back("OK");
      break;
  }
  if (!tag.empty()) q.text += " (request " + tag + ")";
  return q;
}

std::vector<QuerySpec> MakeQueryPool(int per_shape, uint64_t seed) {
  std::vector<QuerySpec> pool;
  std::set<std::string> seen;
  for (Shape shape : {Shape::kMetadata, Shape::kFilter, Shape::kRank,
                      Shape::kPaper}) {
    QueryStream stream(seed + static_cast<uint64_t>(shape), {shape});
    for (int added = 0; added < per_shape;) {
      QuerySpec q = stream.Next();
      if (!seen.insert(q.Key()).second) continue;
      pool.push_back(std::move(q));
      ++added;
    }
  }
  return pool;
}

Truth TruthOf(const kathdb::data::MovieDataset& dataset) {
  Truth t;
  t.num_movies = dataset.movie_table->num_rows();
  for (const auto& m : dataset.truth) {
    if (m.boring_poster) t.boring_mids.insert(m.mid);
  }
  return t;
}

Verdict CheckAnswer(const QuerySpec& q, const kathdb::rel::Table& answer,
                    const Truth& truth, bool check_lids) {
  Verdict v;
  auto fail = [&v](std::string why) {
    v.ok = false;
    v.why = std::move(why);
    return v;
  };
  const auto& schema = answer.schema();
  auto col = [&schema](const std::string& name) {
    return schema.IndexOf(name);
  };

  std::vector<std::string> expected = {"mid", "title", "year"};
  std::string order_column = "year";
  const bool filters =
      q.shape == Shape::kFilter || q.shape == Shape::kPaper;
  if (q.shape == Shape::kMetadata) expected.push_back("recency_score");
  if (q.shape == Shape::kRank || q.shape == Shape::kPaper) {
    order_column = q.term + "_score";
    expected.push_back(order_column);
  }
  if (q.recency) {
    expected.push_back("recency_score");
    expected.push_back("final_score");
    order_column = "final_score";
  }
  if (filters) expected.push_back("boring_poster");
  for (const auto& name : expected) {
    if (!col(name)) return fail("missing column " + name);
  }
  if (!filters && answer.num_rows() != truth.num_movies) {
    return fail("expected all " + std::to_string(truth.num_movies) +
                " movies, got " + std::to_string(answer.num_rows()));
  }

  const size_t order_idx = *col(order_column);
  const size_t mid_idx = *col("mid");
  std::optional<size_t> boring_idx = col("boring_poster");
  std::set<int64_t> returned;
  for (size_t r = 0; r < answer.num_rows(); ++r) {
    if (r > 0 && answer.at(r - 1, order_idx).AsDouble() <
                     answer.at(r, order_idx).AsDouble()) {
      return fail("row " + std::to_string(r) + " breaks the descending " +
                  order_column + " order");
    }
    if (check_lids && answer.row_lid(r) == 0) {
      return fail("row " + std::to_string(r) + " has no lineage id");
    }
    if (filters && !answer.at(r, *boring_idx).AsBool()) {
      return fail("row " + std::to_string(r) + " is not a boring poster");
    }
    if (!returned.insert(answer.at(r, mid_idx).AsInt()).second) {
      return fail("movie returned twice");
    }
  }

  if (filters) {
    for (int64_t mid : returned) {
      (truth.boring_mids.count(mid) ? v.tp : v.fp) += 1;
    }
    for (int64_t mid : truth.boring_mids) {
      if (!returned.count(mid)) ++v.fn;
    }
  }
  v.ok = true;
  return v;
}

}  // namespace kathbench

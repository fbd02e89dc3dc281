/// \file text_graph.h
/// \brief Text semantic graph relational views (Table 2 of the paper).
///
/// A document is decomposed into entities, mentions (which resolve to
/// entities — "Taylor" and "Mrs. Swift" share one eid), relationships and
/// attributes:
///   Entities(did, eid, lid, cid)
///   Mentions(did, sid, mid, lid, eid, span1, span2)
///   Relationships(did, sid, rid, lid, eid_i, pid, eid_j)
///   Attributes(did, sid, eid, lid, k, v)
///   Texts(did, lid, chars)
/// The SimulatedNer extractor substitutes for the hosted NER/coref model:
/// capitalized spans become named entities (with alias-based coreference),
/// and lexicon nouns ("gun", "chase", "meadow") become concept_name entities so
/// the embedding-based excitement scorer has realistic input.
///
/// \ingroup kathdb_multimodal

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "lineage/lineage.h"
#include "multimodal/media.h"
#include "relational/catalog.h"

namespace kathdb::mm {

/// Catalog names for the text-graph views.
struct TextGraphViews {
  std::string entities = "text_entities";
  std::string mentions = "text_mentions";
  std::string relationships = "text_relationships";
  std::string attributes = "text_attributes";
  std::string texts = "texts";
};

/// Configuration for the simulated NER/coref extractor.
struct NerConfig {
  std::string model_name = "kath-ner";
  /// Probability of missing a mention.
  double mention_drop_prob = 0.0;
  /// Simulated tokens charged per processed document.
  int tokens_per_doc = 250;
  uint64_t seed = 11;
  /// Alias -> canonical name map used for coreference resolution
  /// (e.g. "mrs. swift" -> "taylor swift").
  std::map<std::string, std::string> aliases;
};

/// Ensures the five text-graph view tables exist in `catalog`.
Status EnsureTextGraphViews(rel::Catalog* catalog,
                            const TextGraphViews& views = {});

/// \brief Populates Table-2 views from documents.
class SimulatedNer {
 public:
  explicit SimulatedNer(NerConfig config = {}) : config_(std::move(config)) {}

  const NerConfig& config() const { return config_; }
  int64_t tokens_used() const { return tokens_used_; }

  /// Extracts the semantic graph of `doc` into the views, recording
  /// lineage (document ingest -> derived rows).
  Status PopulateFromDocument(const Document& doc, rel::Catalog* catalog,
                              lineage::LineageStore* lineage,
                              const TextGraphViews& views = {});

 private:
  NerConfig config_;
  uint64_t noise_state_ = 0;
  bool seeded_ = false;
  int64_t next_eid_ = 1;
  int64_t next_mid_ = 1;
  int64_t next_rid_ = 1;
  int64_t tokens_used_ = 0;
};

/// \brief did -> Texts and Mentions rows, built in one pass over both views.
///
/// Keyword scoring probes one document per input row; the index turns
/// that from a scan of the whole corpus into one hash lookup. It holds
/// the view tables it was built from, so its row numbers stay valid if
/// the catalog later replaces a view. A default-constructed index is
/// empty: every probe fails with NotFound.
class TextIndex {
 public:
  /// Indexes the mentions and texts views of `catalog`; fails when either
  /// table is missing.
  static Result<TextIndex> Build(const rel::Catalog& catalog,
                                 const TextGraphViews& views = {});

  /// All entity surface forms of `did`: the first mention of each entity
  /// (in table order) slices the document's first Texts row. NotFound
  /// when the document has no text or an empty one.
  Result<std::vector<std::string>> EntityTokens(int64_t did) const;

 private:
  struct Doc {
    size_t text_row = SIZE_MAX;        // first Texts row; SIZE_MAX = none
    std::vector<size_t> mention_rows;  // table order
  };
  rel::TablePtr mentions_;
  rel::TablePtr texts_;
  std::unordered_map<int64_t, Doc> docs_;
};

/// All entity surface forms (class + canonical text) extracted for `did`,
/// the input to keyword-similarity scoring. Builds a TextIndex for one
/// probe; callers probing many documents build the index once instead.
Result<std::vector<std::string>> EntityTokensOf(
    int64_t did, const rel::Catalog& catalog, const TextGraphViews& views = {});

}  // namespace kathdb::mm

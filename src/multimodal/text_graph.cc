#include "multimodal/text_graph.h"

#include <cctype>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "vector/embedding.h"

namespace kathdb::mm {

using rel::DataType;
using rel::Schema;
using rel::Table;
using rel::TablePtr;
using rel::Value;

Status EnsureTextGraphViews(rel::Catalog* catalog,
                            const TextGraphViews& views) {
  if (!catalog->Has(views.entities)) {
    auto t = std::make_shared<Table>(
        views.entities, Schema({{"did", DataType::kInt},
                                {"eid", DataType::kInt},
                                {"lid", DataType::kInt},
                                {"cid", DataType::kString}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.mentions)) {
    auto t = std::make_shared<Table>(
        views.mentions, Schema({{"did", DataType::kInt},
                                {"sid", DataType::kInt},
                                {"mid", DataType::kInt},
                                {"lid", DataType::kInt},
                                {"eid", DataType::kInt},
                                {"span1", DataType::kInt},
                                {"span2", DataType::kInt}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.relationships)) {
    auto t = std::make_shared<Table>(
        views.relationships, Schema({{"did", DataType::kInt},
                                     {"sid", DataType::kInt},
                                     {"rid", DataType::kInt},
                                     {"lid", DataType::kInt},
                                     {"eid_i", DataType::kInt},
                                     {"pid", DataType::kString},
                                     {"eid_j", DataType::kInt}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.attributes)) {
    auto t = std::make_shared<Table>(
        views.attributes, Schema({{"did", DataType::kInt},
                                  {"sid", DataType::kInt},
                                  {"eid", DataType::kInt},
                                  {"lid", DataType::kInt},
                                  {"k", DataType::kString},
                                  {"v", DataType::kString}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  if (!catalog->Has(views.texts)) {
    auto t = std::make_shared<Table>(
        views.texts, Schema({{"did", DataType::kInt},
                             {"lid", DataType::kInt},
                             {"chars", DataType::kString}}));
    KATHDB_RETURN_IF_ERROR(catalog->Register(t, rel::RelationKind::kView));
  }
  return Status::OK();
}

namespace {

struct WordSpan {
  std::string word;  // original case
  size_t begin = 0;
  size_t end = 0;  // exclusive
  int sid = 0;
};

const std::set<std::string>& Abbreviations() {
  static const std::set<std::string> kAbbrev = {"mr", "mrs", "ms", "dr",
                                                "st", "jr",  "sr"};
  return kAbbrev;
}

/// Words with char spans and sentence ids. Sentences end at . ! ? except
/// after abbreviations ("Mrs." does not end a sentence).
std::vector<WordSpan> ScanWords(const std::string& text) {
  std::vector<WordSpan> out;
  size_t i = 0;
  int sid = 0;
  std::string last_word;
  while (i < text.size()) {
    char c = text[i];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '\'') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '\'')) {
        ++i;
      }
      last_word = ToLower(text.substr(start, i - start));
      out.push_back({text.substr(start, i - start), start, i, sid});
    } else {
      if (c == '!' || c == '?' ||
          (c == '.' && Abbreviations().count(last_word) == 0)) {
        ++sid;
      }
      ++i;
    }
  }
  return out;
}

bool IsCapitalized(const std::string& w) {
  return !w.empty() && std::isupper(static_cast<unsigned char>(w[0]));
}

const std::set<std::string>& Stopwords() {
  static const std::set<std::string> kStop = {
      "the", "a",  "an",  "in", "on", "at",  "of", "and", "but", "after",
      "when", "his", "her", "its", "it", "as", "by", "with", "from", "to"};
  return kStop;
}

const std::set<std::string>& Pronouns() {
  static const std::set<std::string> kPron = {"he",  "she", "they", "him",
                                              "her", "them"};
  return kPron;
}

const std::set<std::string>& Honorifics() {
  static const std::set<std::string> kHon = {"mr", "mrs", "ms", "dr",
                                             "detective", "agent", "officer"};
  return kHon;
}

}  // namespace

Status SimulatedNer::PopulateFromDocument(const Document& doc,
                                          rel::Catalog* catalog,
                                          lineage::LineageStore* lineage,
                                          const TextGraphViews& views) {
  if (!seeded_) {
    noise_state_ = SplitMix64(config_.seed);
    seeded_ = true;
  }
  KATHDB_RETURN_IF_ERROR(EnsureTextGraphViews(catalog, views));
  tokens_used_ += config_.tokens_per_doc;

  KATHDB_ASSIGN_OR_RETURN(TablePtr entities, catalog->Get(views.entities));
  KATHDB_ASSIGN_OR_RETURN(TablePtr mentions, catalog->Get(views.mentions));
  KATHDB_ASSIGN_OR_RETURN(TablePtr rels, catalog->Get(views.relationships));
  KATHDB_ASSIGN_OR_RETURN(TablePtr attrs, catalog->Get(views.attributes));
  KATHDB_ASSIGN_OR_RETURN(TablePtr texts, catalog->Get(views.texts));

  int64_t doc_src_lid = lineage->RecordIngest(
      doc.uri.empty() ? ("doc://" + std::to_string(doc.did)) : doc.uri,
      "populate_text_graph", 1, lineage::LineageDataType::kTable);

  int64_t text_lid =
      lineage->RecordRowDerivation(doc_src_lid, "populate_text_graph", 1);
  texts->AppendRow(
      {Value::Int(doc.did), Value::Int(text_lid), Value::Str(doc.text)},
      text_lid);

  static const vec::ConceptLexicon lexicon = vec::ConceptLexicon::BuiltIn();
  std::vector<WordSpan> words = ScanWords(doc.text);

  // canonical lower-cased name -> eid; also reverse info for relationships.
  std::map<std::string, int64_t> eid_of;
  std::map<int64_t, std::string> cid_of;
  // (sid -> eids mentioned in that sentence, in order)
  std::map<int, std::vector<int64_t>> sentence_entities;
  int64_t last_person_eid = 0;

  auto intern_entity = [&](const std::string& canonical,
                           const std::string& cid) -> int64_t {
    auto it = eid_of.find(canonical);
    if (it != eid_of.end()) return it->second;
    int64_t eid = next_eid_++;
    eid_of[canonical] = eid;
    cid_of[eid] = cid;
    int64_t lid =
        lineage->RecordRowDerivation(doc_src_lid, "populate_text_graph", 1);
    entities->AppendRow({Value::Int(doc.did), Value::Int(eid),
                         Value::Int(lid), Value::Str(cid)},
                        lid);
    return eid;
  };

  auto record_mention = [&](int sid, int64_t eid, size_t span1,
                            size_t span2) {
    int64_t mid = next_mid_++;
    int64_t lid =
        lineage->RecordRowDerivation(doc_src_lid, "populate_text_graph", 1);
    mentions->AppendRow({Value::Int(doc.did), Value::Int(sid),
                         Value::Int(mid), Value::Int(lid), Value::Int(eid),
                         Value::Int(static_cast<int64_t>(span1)),
                         Value::Int(static_cast<int64_t>(span2))},
                        lid);
    sentence_entities[sid].push_back(eid);
  };

  auto drop = [&]() {
    noise_state_ = SplitMix64(noise_state_ + 0x5);
    double d = static_cast<double>(noise_state_ >> 11) / 9007199254740992.0;
    return d < config_.mention_drop_prob;
  };

  size_t i = 0;
  while (i < words.size()) {
    const WordSpan& w = words[i];
    std::string lower = ToLower(w.word);

    // ---- named-entity mention: maximal capitalized run --------------
    bool sentence_start = (i == 0 || words[i - 1].sid != w.sid);
    if (IsCapitalized(w.word) &&
        !(sentence_start && Stopwords().count(lower) > 0) &&
        Pronouns().count(lower) == 0 && lexicon.ConceptOf(lower).empty()) {
      size_t j = i;
      while (j + 1 < words.size() && words[j + 1].sid == w.sid &&
             IsCapitalized(words[j + 1].word)) {
        ++j;
      }
      // Skip runs that are only stopwords ("The End").
      bool has_content = false;
      std::vector<std::string> parts;
      for (size_t k = i; k <= j; ++k) {
        std::string lk = ToLower(words[k].word);
        parts.push_back(lk);
        if (Stopwords().count(lk) == 0) has_content = true;
      }
      if (has_content) {
        std::string canonical = Join(parts, " ");
        // Honorific-led aliases normalize via the alias map or by
        // dropping the honorific ("mrs. swift" -> "swift" suffix match).
        auto alias = config_.aliases.find(canonical);
        if (alias != config_.aliases.end()) canonical = alias->second;
        if (parts.size() >= 2 && Honorifics().count(parts[0]) > 0) {
          std::string stripped =
              Join({parts.begin() + 1, parts.end()}, " ");
          // If some known entity ends with the stripped form, merge.
          for (const auto& [name, eid] : eid_of) {
            if (name.size() >= stripped.size() &&
                name.compare(name.size() - stripped.size(), stripped.size(),
                             stripped) == 0) {
              canonical = name;
              break;
            }
          }
        } else if (parts.size() == 1) {
          // Single surname mention of a known multi-part entity.
          for (const auto& [name, eid] : eid_of) {
            if (name != canonical &&
                name.size() > canonical.size() &&
                name.compare(name.size() - canonical.size(),
                             canonical.size(), canonical) == 0 &&
                name[name.size() - canonical.size() - 1] == ' ') {
              canonical = name;
              break;
            }
          }
        }
        if (!drop()) {
          int64_t eid = intern_entity(canonical, "named_entity");
          last_person_eid = eid;
          record_mention(w.sid, eid, words[i].begin, words[j].end);
        }
        i = j + 1;
        continue;
      }
    }

    // ---- pronoun coreference ----------------------------------------
    if (Pronouns().count(lower) > 0 && last_person_eid != 0 && !drop()) {
      record_mention(w.sid, last_person_eid, w.begin, w.end);
      ++i;
      continue;
    }

    // ---- concept_name entity (lexicon noun: gun, chase, meadow, ...) -----
    std::string concept_name = lexicon.ConceptOf(lower);
    if (!concept_name.empty() && !drop()) {
      int64_t eid = intern_entity(lower, concept_name);
      record_mention(w.sid, eid, w.begin, w.end);
    }

    // ---- numeric attribute pattern: "budget ... <number>" -----------
    if (lower == "budget" && i + 1 < words.size()) {
      for (size_t k = i + 1; k < std::min(words.size(), i + 4); ++k) {
        if (std::isdigit(static_cast<unsigned char>(words[k].word[0]))) {
          if (!sentence_entities[w.sid].empty()) {
            int64_t eid = sentence_entities[w.sid].front();
            int64_t lid = lineage->RecordRowDerivation(
                doc_src_lid, "populate_text_graph", 1);
            attrs->AppendRow({Value::Int(doc.did), Value::Int(w.sid),
                              Value::Int(eid), Value::Int(lid),
                              Value::Str("budget"),
                              Value::Str(words[k].word)},
                             lid);
          }
          break;
        }
      }
    }
    ++i;
  }

  // ---- relationships: co-occurrence of named entities per sentence ----
  for (const auto& [sid, eids] : sentence_entities) {
    std::vector<int64_t> named;
    std::set<int64_t> seen;
    for (int64_t e : eids) {
      if (cid_of[e] == "named_entity" && seen.insert(e).second) {
        named.push_back(e);
      }
    }
    for (size_t a = 0; a + 1 < named.size(); ++a) {
      int64_t rid = next_rid_++;
      int64_t lid =
          lineage->RecordRowDerivation(doc_src_lid, "populate_text_graph", 1);
      rels->AppendRow({Value::Int(doc.did), Value::Int(sid), Value::Int(rid),
                       Value::Int(lid), Value::Int(named[a]),
                       Value::Str("co_occurs_with"), Value::Int(named[a + 1])},
                      lid);
    }
  }
  return Status::OK();
}

Result<TextIndex> TextIndex::Build(const rel::Catalog& catalog,
                                   const TextGraphViews& views) {
  TextIndex index;
  KATHDB_ASSIGN_OR_RETURN(index.mentions_, catalog.Get(views.mentions));
  KATHDB_ASSIGN_OR_RETURN(index.texts_, catalog.Get(views.texts));
  for (size_t r = 0; r < index.texts_->num_rows(); ++r) {
    Doc& doc = index.docs_[index.texts_->at(r, 0).AsInt()];
    if (doc.text_row == SIZE_MAX) doc.text_row = r;
  }
  for (size_t r = 0; r < index.mentions_->num_rows(); ++r) {
    index.docs_[index.mentions_->at(r, 0).AsInt()].mention_rows.push_back(r);
  }
  return index;
}

Result<std::vector<std::string>> TextIndex::EntityTokens(int64_t did) const {
  auto it = docs_.find(did);
  std::string chars;
  if (it != docs_.end() && it->second.text_row != SIZE_MAX) {
    chars = texts_->at(it->second.text_row, 2).AsString();
  }
  if (chars.empty()) {
    return Status::NotFound("no text for did " + std::to_string(did));
  }
  // First mention surface form per eid (spans slice the Texts view).
  std::set<int64_t> seen;
  std::vector<std::string> out;
  for (size_t r : it->second.mention_rows) {
    int64_t eid = mentions_->at(r, 4).AsInt();
    if (!seen.insert(eid).second) continue;
    size_t s1 = static_cast<size_t>(mentions_->at(r, 5).AsInt());
    size_t s2 = static_cast<size_t>(mentions_->at(r, 6).AsInt());
    if (s1 < s2 && s2 <= chars.size()) {
      for (auto& tok : Tokenize(chars.substr(s1, s2 - s1))) {
        out.push_back(std::move(tok));
      }
    }
  }
  return out;
}

Result<std::vector<std::string>> EntityTokensOf(int64_t did,
                                                const rel::Catalog& catalog,
                                                const TextGraphViews& views) {
  KATHDB_ASSIGN_OR_RETURN(TextIndex index, TextIndex::Build(catalog, views));
  return index.EntityTokens(did);
}

}  // namespace kathdb::mm

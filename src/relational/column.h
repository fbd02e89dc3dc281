/// \file column.h
/// \brief Typed columnar storage: one ColumnVector per table column.
///
/// A ColumnVector stores the cells of one column in a compact typed array
/// instead of one std::variant per cell: BOOL as bytes, INT64/DOUBLE as
/// contiguous machine words, STRING dictionary-encoded (a uint32 code per
/// row into a per-column dictionary), plus a validity bitmap for NULLs.
/// Columns whose cells mix value types (rare: hand-built tables, lineage
/// views) degrade to a kMixed encoding holding plain Values, so every
/// table the row engine could represent is still representable.
///
/// The encoding is chosen from the first non-NULL value appended — not
/// from the declared schema type — so a round trip through a column is
/// byte-exact: Append(v) followed by Get(i) returns a Value of the same
/// type and contents as v, which is what the differential tests against
/// the row engine rely on.
///
/// \ingroup kathdb_relational

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/value.h"

namespace kathdb::rel {

/// Physical layout of one column.
enum class ColumnEncoding { kEmpty, kBool, kInt, kDouble, kDict, kMixed };

/// \brief One table column: typed contiguous cells + validity bitmap.
class ColumnVector {
 public:
  ColumnVector() = default;

  size_t size() const { return size_; }
  ColumnEncoding encoding() const { return enc_; }
  /// Distinct strings in the dictionary (kDict only).
  size_t dict_size() const { return dict_.size(); }

  void Reserve(size_t n);

  /// Appends one cell; mismatched value types demote the column to kMixed.
  void Append(const Value& v);
  void AppendNull();

  /// Bulk-appends src cells [begin, begin+len) — the zero-per-row path
  /// behind chunked Materialize. Falls back to per-cell Append when the
  /// encodings are incompatible.
  void AppendRange(const ColumnVector& src, size_t begin, size_t len);

  /// Bulk-appends the src cells named by sel[0..n) (selection-vector
  /// gather, used by Filter output assembly).
  void AppendGather(const ColumnVector& src, const uint32_t* sel, size_t n);

  bool IsNull(size_t i) const {
    return (valid_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
  }
  /// Cell as a Value; exactly what was appended.
  Value Get(size_t i) const;

  // Raw typed accessors: valid only for the matching encoding and a
  // non-NULL row. Hot loops in expr_vec.cc read these directly.
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  const std::string& StrAt(size_t i) const { return dict_[codes_[i]]; }
  uint32_t CodeAt(size_t i) const { return codes_[i]; }
  const std::string& DictEntry(uint32_t code) const { return dict_[code]; }
  const Value& MixedAt(size_t i) const { return mixed_[i]; }

  /// Hash of cell i, consistent with Value::Hash() (no Value materialized
  /// for typed encodings). Used by the hash-join build side.
  uint64_t HashAt(size_t i) const;

  /// Folds the hashes of the physical rows named by idx[0..n) into
  /// per-row accumulators: acc[i] = acc[i] * mul + HashAt(idx[i]). The
  /// group-by kernel builds multi-column group hashes with one pass per
  /// key column instead of one Value materialization per cell; kDict
  /// hashes each distinct dictionary string at most once per call when
  /// the dictionary is no larger than n.
  void FoldHashGather(const uint32_t* idx, size_t n, uint64_t mul,
                      uint64_t* acc) const;

  // Wire-decode factories: assemble a column directly from typed buffers
  // (the kathdb-wire/1 columnar result encoding). `valid` is the validity
  // bitmap, bit i set = cell i non-NULL, sized ceil(n/64) words; bits at
  // or beyond the row count are cleared. NULL rows must hold placeholder
  // payload values (0 / 0.0 / code 0), as the append paths produce.
  static std::shared_ptr<ColumnVector> AllNulls(size_t n);
  static std::shared_ptr<ColumnVector> FromBools(std::vector<uint8_t> vals,
                             std::vector<uint64_t> valid);
  static std::shared_ptr<ColumnVector> FromInts(std::vector<int64_t> vals,
                            std::vector<uint64_t> valid);
  static std::shared_ptr<ColumnVector> FromDoubles(std::vector<double> vals,
                               std::vector<uint64_t> valid);
  /// Dictionary column from decoded codes; rebuilds the dictionary index
  /// eagerly so later appends into the column can intern new strings.
  static std::shared_ptr<ColumnVector> FromDict(std::vector<std::string> dict,
                            std::vector<uint32_t> codes,
                            std::vector<uint64_t> valid);
  /// Type-mixed column; validity derives from each value's is_null().
  static std::shared_ptr<ColumnVector> FromValues(std::vector<Value> vals);

  /// Order-sensitive 64-bit fingerprint of cells [begin, begin+len),
  /// independent of the physical encoding: two columns holding the same
  /// logical values fingerprint identically even if one is dictionary
  /// encoded and the other kMixed. Feeds ResultCache keys.
  uint64_t FingerprintRange(size_t begin, size_t len) const;

  /// Approximate heap bytes held (diagnostics / bench reporting).
  size_t MemoryBytes() const;

 private:
  void SetValid(size_t i) { valid_[i >> 6] |= uint64_t{1} << (i & 63); }
  void GrowBitmap() {
    if (valid_.size() * 64 < size_ + 1) valid_.push_back(0);
  }
  /// Re-encodes every cell as a plain Value (type-mixed column).
  void DemoteToMixed();
  /// Adopts `enc` from kEmpty, backfilling placeholder slots for the
  /// NULLs appended so far.
  void AdoptEncoding(ColumnEncoding enc);
  uint32_t DictCode(const std::string& s);

  ColumnEncoding enc_ = ColumnEncoding::kEmpty;
  size_t size_ = 0;
  std::vector<uint64_t> valid_;  // bit i set = cell i is non-NULL
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, uint32_t> dict_index_;
  std::vector<Value> mixed_;
};

using ColumnPtr = std::shared_ptr<ColumnVector>;

}  // namespace kathdb::rel

#include "relational/column.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace kathdb::rel {

namespace {

ColumnEncoding EncodingFor(DataType t) {
  switch (t) {
    case DataType::kBool:
      return ColumnEncoding::kBool;
    case DataType::kInt:
      return ColumnEncoding::kInt;
    case DataType::kDouble:
      return ColumnEncoding::kDouble;
    case DataType::kString:
      return ColumnEncoding::kDict;
    case DataType::kNull:
      break;
  }
  return ColumnEncoding::kEmpty;
}

}  // namespace

namespace {

/// reserve() that stays amortized under incremental hints. Chunked bulk
/// loads call Reserve(size + chunk) once per chunk; forwarding that
/// straight to vector::reserve pins capacity to the exact request, so
/// every following chunk reallocates and recopies the whole column —
/// quadratic in total rows. Growing by at least 2x keeps the hint's
/// "no realloc inside the coming append" guarantee with O(n) copying.
template <typename V>
void ReserveAmortized(V& v, size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, v.capacity() * 2));
}

}  // namespace

void ColumnVector::Reserve(size_t n) {
  ReserveAmortized(valid_, (n + 63) / 64);
  switch (enc_) {
    case ColumnEncoding::kBool:
      ReserveAmortized(bools_, n);
      break;
    case ColumnEncoding::kInt:
      ReserveAmortized(ints_, n);
      break;
    case ColumnEncoding::kDouble:
      ReserveAmortized(doubles_, n);
      break;
    case ColumnEncoding::kDict:
      ReserveAmortized(codes_, n);
      break;
    case ColumnEncoding::kMixed:
      ReserveAmortized(mixed_, n);
      break;
    case ColumnEncoding::kEmpty:
      break;
  }
}

void ColumnVector::AdoptEncoding(ColumnEncoding enc) {
  enc_ = enc;
  switch (enc_) {
    case ColumnEncoding::kBool:
      bools_.assign(size_, 0);
      break;
    case ColumnEncoding::kInt:
      ints_.assign(size_, 0);
      break;
    case ColumnEncoding::kDouble:
      doubles_.assign(size_, 0.0);
      break;
    case ColumnEncoding::kDict:
      codes_.assign(size_, 0);
      break;
    case ColumnEncoding::kMixed:
      mixed_.assign(size_, Value::Null());
      break;
    case ColumnEncoding::kEmpty:
      break;
  }
}

void ColumnVector::DemoteToMixed() {
  std::vector<Value> cells;
  cells.reserve(size_);
  for (size_t i = 0; i < size_; ++i) cells.push_back(Get(i));
  mixed_ = std::move(cells);
  bools_.clear();
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  dict_.clear();
  dict_index_.clear();
  enc_ = ColumnEncoding::kMixed;
}

uint32_t ColumnVector::DictCode(const std::string& s) {
  auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(dict_.size());
  dict_.push_back(s);
  dict_index_.emplace(s, code);
  return code;
}

void ColumnVector::AppendNull() {
  GrowBitmap();
  switch (enc_) {
    case ColumnEncoding::kBool:
      bools_.push_back(0);
      break;
    case ColumnEncoding::kInt:
      ints_.push_back(0);
      break;
    case ColumnEncoding::kDouble:
      doubles_.push_back(0.0);
      break;
    case ColumnEncoding::kDict:
      codes_.push_back(0);
      break;
    case ColumnEncoding::kMixed:
      mixed_.push_back(Value::Null());
      break;
    case ColumnEncoding::kEmpty:
      break;
  }
  ++size_;  // bit stays 0 = NULL
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  ColumnEncoding want = EncodingFor(v.type());
  if (enc_ == ColumnEncoding::kEmpty) {
    AdoptEncoding(want);
  } else if (enc_ != want && enc_ != ColumnEncoding::kMixed) {
    DemoteToMixed();
  }
  GrowBitmap();
  SetValid(size_);
  switch (enc_) {
    case ColumnEncoding::kBool:
      bools_.push_back(v.AsBool() ? 1 : 0);
      break;
    case ColumnEncoding::kInt:
      ints_.push_back(v.AsInt());
      break;
    case ColumnEncoding::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case ColumnEncoding::kDict:
      codes_.push_back(DictCode(v.AsString()));
      break;
    case ColumnEncoding::kMixed:
      mixed_.push_back(v);
      break;
    case ColumnEncoding::kEmpty:
      break;
  }
  ++size_;
}

Value ColumnVector::Get(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (enc_) {
    case ColumnEncoding::kBool:
      return Value::Bool(bools_[i] != 0);
    case ColumnEncoding::kInt:
      return Value::Int(ints_[i]);
    case ColumnEncoding::kDouble:
      return Value::Double(doubles_[i]);
    case ColumnEncoding::kDict:
      return Value::Str(dict_[codes_[i]]);
    case ColumnEncoding::kMixed:
      return mixed_[i];
    case ColumnEncoding::kEmpty:
      break;
  }
  return Value::Null();
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t len) {
  if (len == 0) return;
  if (enc_ == ColumnEncoding::kEmpty && size_ == 0) {
    // Adopt src's encoding up front so the typed bulk path below runs.
    if (src.enc_ != ColumnEncoding::kEmpty) AdoptEncoding(src.enc_);
  }
  if (src.enc_ != enc_ || enc_ == ColumnEncoding::kEmpty) {
    // Encoding mismatch (or src still undecided): per-cell append keeps
    // exact values and lets this column demote if genuinely mixed.
    for (size_t i = 0; i < len; ++i) Append(src.Get(begin + i));
    return;
  }
  switch (enc_) {
    case ColumnEncoding::kBool:
      bools_.insert(bools_.end(), src.bools_.begin() + begin,
                    src.bools_.begin() + begin + len);
      break;
    case ColumnEncoding::kInt:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + begin + len);
      break;
    case ColumnEncoding::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + begin + len);
      break;
    case ColumnEncoding::kDict: {
      // Remap src dictionary codes into this column's dictionary via a
      // per-call translation table: one hash lookup per *distinct* string,
      // one array read per row.
      std::vector<int64_t> map(src.dict_.size(), -1);
      codes_.reserve(codes_.size() + len);
      for (size_t i = 0; i < len; ++i) {
        uint32_t sc = src.codes_[begin + i];
        if (src.IsNull(begin + i)) {
          codes_.push_back(0);
          continue;
        }
        if (map[sc] < 0) map[sc] = DictCode(src.dict_[sc]);
        codes_.push_back(static_cast<uint32_t>(map[sc]));
      }
      break;
    }
    case ColumnEncoding::kMixed:
      mixed_.insert(mixed_.end(), src.mixed_.begin() + begin,
                    src.mixed_.begin() + begin + len);
      break;
    case ColumnEncoding::kEmpty:
      break;
  }
  // Copy validity bits (bit-addressed; word-at-a-time is not worth the
  // alignment bookkeeping at morsel sizes).
  valid_.resize((size_ + len + 63) / 64, 0);
  for (size_t i = 0; i < len; ++i) {
    if (!src.IsNull(begin + i)) SetValid(size_ + i);
  }
  size_ += len;
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* sel,
                                size_t n) {
  if (n == 0) return;
  if (enc_ == ColumnEncoding::kEmpty && size_ == 0 &&
      src.enc_ != ColumnEncoding::kEmpty) {
    AdoptEncoding(src.enc_);
  }
  if (src.enc_ != enc_ || enc_ == ColumnEncoding::kEmpty) {
    for (size_t i = 0; i < n; ++i) Append(src.Get(sel[i]));
    return;
  }
  valid_.resize((size_ + n + 63) / 64, 0);
  switch (enc_) {
    case ColumnEncoding::kBool:
      bools_.reserve(bools_.size() + n);
      for (size_t i = 0; i < n; ++i) bools_.push_back(src.bools_[sel[i]]);
      break;
    case ColumnEncoding::kInt:
      ints_.reserve(ints_.size() + n);
      for (size_t i = 0; i < n; ++i) ints_.push_back(src.ints_[sel[i]]);
      break;
    case ColumnEncoding::kDouble:
      doubles_.reserve(doubles_.size() + n);
      for (size_t i = 0; i < n; ++i) doubles_.push_back(src.doubles_[sel[i]]);
      break;
    case ColumnEncoding::kDict: {
      std::vector<int64_t> map(src.dict_.size(), -1);
      codes_.reserve(codes_.size() + n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t sc = src.codes_[sel[i]];
        if (src.IsNull(sel[i])) {
          codes_.push_back(0);
          continue;
        }
        if (map[sc] < 0) map[sc] = DictCode(src.dict_[sc]);
        codes_.push_back(static_cast<uint32_t>(map[sc]));
      }
      break;
    }
    case ColumnEncoding::kMixed:
      mixed_.reserve(mixed_.size() + n);
      for (size_t i = 0; i < n; ++i) mixed_.push_back(src.mixed_[sel[i]]);
      break;
    case ColumnEncoding::kEmpty:
      break;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!src.IsNull(sel[i])) SetValid(size_ + i);
  }
  size_ += n;
}

namespace {

/// Hash of a numeric cell, replicating Value::Hash(): integral doubles
/// hash as their int64 value so 3 and 3.0 collide (== consistency).
uint64_t HashNumeric(double d) {
  if (d == 0.0) d = 0.0;  // normalize -0.0
  if (std::floor(d) == d && std::abs(d) < 9.2e18) {
    return SplitMix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(d));
  return SplitMix64(bits);
}

constexpr uint64_t kNullHash = 0x6b617468ULL;

}  // namespace

uint64_t ColumnVector::HashAt(size_t i) const {
  if (IsNull(i)) return kNullHash;
  switch (enc_) {
    case ColumnEncoding::kBool:
      return SplitMix64(bools_[i] != 0 ? 1 : 0);
    case ColumnEncoding::kInt:
      return HashNumeric(static_cast<double>(ints_[i]));
    case ColumnEncoding::kDouble:
      return HashNumeric(doubles_[i]);
    case ColumnEncoding::kDict:
      return HashString(dict_[codes_[i]]);
    case ColumnEncoding::kMixed:
      return mixed_[i].Hash();
    case ColumnEncoding::kEmpty:
      break;
  }
  return kNullHash;
}

void ColumnVector::FoldHashGather(const uint32_t* idx, size_t n, uint64_t mul,
                                  uint64_t* acc) const {
  switch (enc_) {
    case ColumnEncoding::kBool:
      for (size_t i = 0; i < n; ++i) {
        size_t p = idx[i];
        uint64_t h =
            IsNull(p) ? kNullHash : SplitMix64(bools_[p] != 0 ? 1 : 0);
        acc[i] = acc[i] * mul + h;
      }
      return;
    case ColumnEncoding::kInt:
      for (size_t i = 0; i < n; ++i) {
        size_t p = idx[i];
        uint64_t h = IsNull(p)
                         ? kNullHash
                         : HashNumeric(static_cast<double>(ints_[p]));
        acc[i] = acc[i] * mul + h;
      }
      return;
    case ColumnEncoding::kDouble:
      for (size_t i = 0; i < n; ++i) {
        size_t p = idx[i];
        uint64_t h = IsNull(p) ? kNullHash : HashNumeric(doubles_[p]);
        acc[i] = acc[i] * mul + h;
      }
      return;
    case ColumnEncoding::kDict: {
      if (dict_.size() <= n) {
        std::vector<uint64_t> dh(dict_.size());
        for (size_t d = 0; d < dict_.size(); ++d) dh[d] = HashString(dict_[d]);
        for (size_t i = 0; i < n; ++i) {
          size_t p = idx[i];
          uint64_t h = IsNull(p) ? kNullHash : dh[codes_[p]];
          acc[i] = acc[i] * mul + h;
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          size_t p = idx[i];
          uint64_t h = IsNull(p) ? kNullHash : HashString(dict_[codes_[p]]);
          acc[i] = acc[i] * mul + h;
        }
      }
      return;
    }
    case ColumnEncoding::kMixed:
      for (size_t i = 0; i < n; ++i) {
        size_t p = idx[i];
        uint64_t h = IsNull(p) ? kNullHash : mixed_[p].Hash();
        acc[i] = acc[i] * mul + h;
      }
      return;
    case ColumnEncoding::kEmpty:
      for (size_t i = 0; i < n; ++i) acc[i] = acc[i] * mul + kNullHash;
      return;
  }
}

namespace {

/// Clears validity bits at or beyond `n` and pads the word vector so the
/// factories below accept loosely-sized decoder output.
std::vector<uint64_t> NormalizeValidity(std::vector<uint64_t> valid,
                                        size_t n) {
  valid.resize((n + 63) / 64, 0);
  if (n % 64 != 0 && !valid.empty()) {
    valid.back() &= (uint64_t{1} << (n % 64)) - 1;
  }
  return valid;
}

}  // namespace

std::shared_ptr<ColumnVector> ColumnVector::AllNulls(size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->size_ = n;
  col->valid_.assign((n + 63) / 64, 0);
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::FromBools(std::vector<uint8_t> vals,
                                  std::vector<uint64_t> valid) {
  auto col = std::make_shared<ColumnVector>();
  col->enc_ = ColumnEncoding::kBool;
  col->size_ = vals.size();
  col->valid_ = NormalizeValidity(std::move(valid), vals.size());
  col->bools_ = std::move(vals);
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::FromInts(std::vector<int64_t> vals,
                                 std::vector<uint64_t> valid) {
  auto col = std::make_shared<ColumnVector>();
  col->enc_ = ColumnEncoding::kInt;
  col->size_ = vals.size();
  col->valid_ = NormalizeValidity(std::move(valid), vals.size());
  col->ints_ = std::move(vals);
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::FromDoubles(std::vector<double> vals,
                                    std::vector<uint64_t> valid) {
  auto col = std::make_shared<ColumnVector>();
  col->enc_ = ColumnEncoding::kDouble;
  col->size_ = vals.size();
  col->valid_ = NormalizeValidity(std::move(valid), vals.size());
  col->doubles_ = std::move(vals);
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::FromDict(std::vector<std::string> dict,
                                 std::vector<uint32_t> codes,
                                 std::vector<uint64_t> valid) {
  auto col = std::make_shared<ColumnVector>();
  col->enc_ = ColumnEncoding::kDict;
  col->size_ = codes.size();
  col->valid_ = NormalizeValidity(std::move(valid), codes.size());
  col->codes_ = std::move(codes);
  col->dict_ = std::move(dict);
  for (size_t d = 0; d < col->dict_.size(); ++d) {
    // First occurrence wins, mirroring DictCode interning.
    col->dict_index_.emplace(col->dict_[d], static_cast<uint32_t>(d));
  }
  return col;
}

std::shared_ptr<ColumnVector> ColumnVector::FromValues(std::vector<Value> vals) {
  auto col = std::make_shared<ColumnVector>();
  col->enc_ = ColumnEncoding::kMixed;
  col->size_ = vals.size();
  col->valid_.assign((vals.size() + 63) / 64, 0);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (!vals[i].is_null()) col->SetValid(i);
  }
  col->mixed_ = std::move(vals);
  return col;
}

uint64_t ColumnVector::FingerprintRange(size_t begin, size_t len) const {
  // FNV-style fold over per-cell hashes. Cell hashes must not depend on
  // the encoding, so kMixed falls back to Value::Hash and the typed
  // paths reproduce it exactly.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  switch (enc_) {
    case ColumnEncoding::kDict: {
      // Hash each distinct dictionary string once, then fold codes.
      std::vector<uint64_t> dict_hash(dict_.size(), 0);
      for (size_t d = 0; d < dict_.size(); ++d) {
        dict_hash[d] = HashString(dict_[d]);
      }
      for (size_t i = begin; i < begin + len; ++i) {
        fold(IsNull(i) ? kNullHash : dict_hash[codes_[i]]);
      }
      break;
    }
    default:
      for (size_t i = begin; i < begin + len; ++i) fold(HashAt(i));
      break;
  }
  return h;
}

size_t ColumnVector::MemoryBytes() const {
  size_t n = valid_.capacity() * sizeof(uint64_t);
  n += bools_.capacity();
  n += ints_.capacity() * sizeof(int64_t);
  n += doubles_.capacity() * sizeof(double);
  n += codes_.capacity() * sizeof(uint32_t);
  for (const auto& s : dict_) n += s.capacity() + sizeof(std::string);
  n += mixed_.capacity() * sizeof(Value);
  return n;
}

}  // namespace kathdb::rel

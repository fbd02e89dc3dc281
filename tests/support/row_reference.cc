#include "support/row_reference.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace kathdb::rowref {

using rel::AggFn;
using rel::AggSpec;
using rel::DataType;
using rel::ExprPtr;
using rel::Row;
using rel::Schema;
using rel::SortKey;
using rel::TablePtr;
using rel::Value;

namespace {

/// Drains an opened operator's rows (with lids) and closes it.
Result<std::vector<std::pair<Row, int64_t>>> DrainRows(RowOperator* op) {
  std::vector<std::pair<Row, int64_t>> rows;
  Row row;
  int64_t lid = 0;
  while (true) {
    KATHDB_ASSIGN_OR_RETURN(bool has, op->Next(&row, &lid));
    if (!has) break;
    rows.emplace_back(std::move(row), lid);
  }
  op->Close();
  return rows;
}

}  // namespace

Result<rel::Table> Materialize(RowOperator* op, const std::string& name) {
  KATHDB_RETURN_IF_ERROR(op->Open());
  rel::Table out(name, op->output_schema());
  KATHDB_ASSIGN_OR_RETURN(auto rows, DrainRows(op));
  for (auto& [row, lid] : rows) out.AppendRow(std::move(row), lid);
  return out;
}

namespace {

/// GROUP BY / DISTINCT keys are a multiplicative fold of the key cells'
/// Value::Hash(), with the seed and multiplier rel::MakeAggregate uses.
constexpr uint64_t kGroupHashSeed = 0x9E3779B97F4A7C15ULL;
uint64_t FoldGroupHash(uint64_t h, const Value& v) {
  return h * 1315423911ULL + v.Hash();
}

// ---------------------------------------------------------------- SeqScan
class SeqScanOp : public RowOperator {
 public:
  explicit SeqScanOp(TablePtr table) : table_(std::move(table)) {}

  Status Open() override {
    pos_ = 0;
    return table_ == nullptr ? Status::InvalidArgument("null table scan")
                             : Status::OK();
  }
  Result<bool> Next(Row* row, int64_t* lid) override {
    if (pos_ >= table_->num_rows()) return false;
    *row = table_->row(pos_);
    *lid = table_->row_lid(pos_);
    ++pos_;
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string Describe() const override {
    return "SeqScan(" + table_->name() + ")";
  }

 private:
  TablePtr table_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------------- Filter
class FilterOp : public RowOperator {
 public:
  FilterOp(RowOperatorPtr child, ExprPtr pred)
      : child_(std::move(child)), pred_(std::move(pred)) {}

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row, int64_t* lid) override {
    while (true) {
      KATHDB_ASSIGN_OR_RETURN(bool has, child_->Next(row, lid));
      if (!has) return false;
      KATHDB_ASSIGN_OR_RETURN(Value v,
                              pred_->Eval(*row, child_->output_schema()));
      if (!v.is_null() && v.AsBool()) return true;
    }
  }
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override {
    return "Filter(" + pred_->ToString() + ")";
  }

 private:
  RowOperatorPtr child_;
  ExprPtr pred_;
};

// ---------------------------------------------------------------- Project
class ProjectOp : public RowOperator {
 public:
  ProjectOp(RowOperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {
    for (size_t i = 0; i < exprs_.size(); ++i) {
      DataType t = DataType::kString;
      if (exprs_[i]->kind() == rel::ExprKind::kColumnRef) {
        auto idx = child_->output_schema().IndexOf(exprs_[i]->column_name());
        if (idx.has_value()) t = child_->output_schema().column(*idx).type;
      }
      schema_.AddColumn(names_[i], t);
    }
  }

  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row, int64_t* lid) override {
    Row in;
    KATHDB_ASSIGN_OR_RETURN(bool has, child_->Next(&in, lid));
    if (!has) return false;
    row->clear();
    row->reserve(exprs_.size());
    for (const auto& e : exprs_) {
      KATHDB_ASSIGN_OR_RETURN(Value v, e->Eval(in, child_->output_schema()));
      row->push_back(std::move(v));
    }
    if (!typed_) {
      // Refine declared types from the first real row.
      Schema refined;
      for (size_t i = 0; i < row->size(); ++i) {
        DataType t = (*row)[i].type();
        refined.AddColumn(names_[i],
                          t == DataType::kNull ? schema_.column(i).type : t);
      }
      schema_ = refined;
      typed_ = true;
    }
    return true;
  }
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    std::string out = "Project(";
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += exprs_[i]->ToString() + " AS " + names_[i];
    }
    return out + ")";
  }

 private:
  RowOperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  Schema schema_;
  bool typed_ = false;
};

// --------------------------------------------------------------- HashJoin
class HashJoinOp : public RowOperator {
 public:
  HashJoinOp(RowOperatorPtr left, RowOperatorPtr right, std::string lcol,
             std::string rcol, const std::string& right_prefix)
      : left_(std::move(left)),
        right_(std::move(right)),
        lcol_(std::move(lcol)),
        rcol_(std::move(rcol)),
        schema_(Schema::Concat(left_->output_schema(),
                               right_->output_schema(), right_prefix)) {}

  Status Open() override {
    ridx_ = right_->output_schema().IndexOf(rcol_);
    if (!ridx_.has_value()) {
      return Status::SyntacticError("hash join: right column '" + rcol_ +
                                    "' not found");
    }
    lidx_ = left_->output_schema().IndexOf(lcol_);
    if (!lidx_.has_value()) {
      return Status::SyntacticError("hash join: left column '" + lcol_ +
                                    "' not found");
    }
    KATHDB_RETURN_IF_ERROR(left_->Open());
    KATHDB_RETURN_IF_ERROR(right_->Open());
    KATHDB_ASSIGN_OR_RETURN(build_, DrainRows(right_.get()));
    buckets_.clear();
    for (size_t r = 0; r < build_.size(); ++r) {
      const Value& key = Key(build_[r].first, *ridx_);
      if (!key.is_null()) buckets_[key.Hash()].push_back(r);
    }
    matches_ = nullptr;
    return Status::OK();
  }
  Result<bool> Next(Row* row, int64_t* lid) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        const Row& r = build_[(*matches_)[match_pos_++]].first;
        // Exactly `lcol = rcol` (hash collisions are dropped here).
        if (Key(probe_row_, *lidx_) == Key(r, *ridx_)) {
          *row = probe_row_;
          row->insert(row->end(), r.begin(), r.end());
          *lid = probe_lid_;
          return true;
        }
        continue;
      }
      KATHDB_ASSIGN_OR_RETURN(bool has, left_->Next(&probe_row_, &probe_lid_));
      if (!has) return false;
      const Value& key = Key(probe_row_, *lidx_);
      auto it = key.is_null() ? buckets_.end() : buckets_.find(key.Hash());
      matches_ = it == buckets_.end() ? nullptr : &it->second;
      match_pos_ = 0;
    }
  }
  void Close() override {
    left_->Close();
    build_.clear();
    buckets_.clear();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    return "HashJoin(" + lcol_ + " = " + rcol_ + ")";
  }

 private:
  const Value& Key(const Row& row, size_t idx) const {
    return idx < row.size() ? row[idx] : null_;
  }

  RowOperatorPtr left_;
  RowOperatorPtr right_;
  std::string lcol_;
  std::string rcol_;
  Schema schema_;
  const Value null_;
  std::optional<size_t> lidx_;
  std::optional<size_t> ridx_;
  std::vector<std::pair<Row, int64_t>> build_;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets_;
  Row probe_row_;
  int64_t probe_lid_ = 0;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

// --------------------------------------------------------- NestedLoopJoin
class NestedLoopJoinOp : public RowOperator {
 public:
  NestedLoopJoinOp(RowOperatorPtr left, RowOperatorPtr right, ExprPtr pred,
                   const std::string& right_prefix)
      : left_(std::move(left)),
        right_(std::move(right)),
        pred_(std::move(pred)),
        schema_(Schema::Concat(left_->output_schema(),
                               right_->output_schema(), right_prefix)) {}

  Status Open() override {
    KATHDB_RETURN_IF_ERROR(left_->Open());
    KATHDB_RETURN_IF_ERROR(right_->Open());
    KATHDB_ASSIGN_OR_RETURN(right_rows_, DrainRows(right_.get()));
    rpos_ = right_rows_.size();  // force the first left fetch
    return Status::OK();
  }
  Result<bool> Next(Row* row, int64_t* lid) override {
    while (true) {
      if (rpos_ >= right_rows_.size()) {
        KATHDB_ASSIGN_OR_RETURN(bool has,
                                left_->Next(&probe_row_, &probe_lid_));
        if (!has) return false;
        rpos_ = 0;
      }
      while (rpos_ < right_rows_.size()) {
        Row joined = probe_row_;
        const Row& r = right_rows_[rpos_++].first;
        joined.insert(joined.end(), r.begin(), r.end());
        KATHDB_ASSIGN_OR_RETURN(Value v, pred_->Eval(joined, schema_));
        if (!v.is_null() && v.AsBool()) {
          *row = std::move(joined);
          *lid = probe_lid_;
          return true;
        }
      }
    }
  }
  void Close() override {
    left_->Close();
    right_rows_.clear();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    return "NestedLoopJoin(" + pred_->ToString() + ")";
  }

 private:
  RowOperatorPtr left_;
  RowOperatorPtr right_;
  ExprPtr pred_;
  Schema schema_;
  std::vector<std::pair<Row, int64_t>> right_rows_;
  Row probe_row_;
  int64_t probe_lid_ = 0;
  size_t rpos_ = 0;
};

// -------------------------------------------------------------- Aggregate
class AggregateOp : public RowOperator {
 public:
  AggregateOp(RowOperatorPtr child, std::vector<std::string> group_cols,
              std::vector<AggSpec> aggs)
      : child_(std::move(child)),
        group_cols_(std::move(group_cols)),
        aggs_(std::move(aggs)) {
    // Group columns keep their input type, COUNT is INT, SUM/AVG are
    // DOUBLE, MIN/MAX keep the input column's declared type.
    const Schema& in = child_->output_schema();
    for (const auto& g : group_cols_) {
      auto idx = in.IndexOf(g);
      schema_.AddColumn(g, idx.has_value() ? in.column(*idx).type
                                           : DataType::kString);
    }
    for (const auto& a : aggs_) {
      DataType t = DataType::kDouble;
      if (a.fn == AggFn::kCount) t = DataType::kInt;
      if ((a.fn == AggFn::kMin || a.fn == AggFn::kMax) && !a.column.empty()) {
        auto idx = in.IndexOf(a.column);
        if (idx.has_value()) t = in.column(*idx).type;
      }
      schema_.AddColumn(a.output_name, t);
    }
  }

  Status Open() override {
    KATHDB_RETURN_IF_ERROR(child_->Open());
    const Schema& in = child_->output_schema();
    std::vector<size_t> gidx;
    std::vector<std::optional<size_t>> aidx;
    for (const auto& g : group_cols_) {
      auto idx = in.IndexOf(g);
      if (!idx.has_value()) {
        return Status::SyntacticError("group by unknown column '" + g + "'");
      }
      gidx.push_back(*idx);
    }
    for (const auto& a : aggs_) {
      if (a.column.empty()) {
        aidx.push_back(std::nullopt);
        continue;
      }
      auto idx = in.IndexOf(a.column);
      if (!idx.has_value()) {
        return Status::SyntacticError("aggregate over unknown column '" +
                                      a.column + "'");
      }
      aidx.push_back(*idx);
    }

    struct AggState {
      int64_t count = 0;
      double sum = 0.0;
      Value min, max;
      bool seen = false;
    };
    struct GroupState {
      Row key;
      std::vector<AggState> states;
    };
    std::unordered_map<uint64_t, GroupState> groups;
    std::vector<uint64_t> order;

    Row row;
    int64_t lid = 0;
    while (true) {
      KATHDB_ASSIGN_OR_RETURN(bool has, child_->Next(&row, &lid));
      if (!has) break;
      uint64_t h = kGroupHashSeed;
      for (size_t gi : gidx) h = FoldGroupHash(h, row[gi]);
      auto it = groups.find(h);
      if (it == groups.end()) {
        GroupState gs;
        for (size_t gi : gidx) gs.key.push_back(row[gi]);
        gs.states.resize(aggs_.size());
        it = groups.emplace(h, std::move(gs)).first;
        order.push_back(h);
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        AggState& st = it->second.states[i];
        ++st.count;
        if (!aidx[i].has_value()) continue;
        const Value& v = row[*aidx[i]];
        if (v.is_null()) continue;
        st.sum += v.AsDouble();
        if (!st.seen || v.Compare(st.min) < 0) st.min = v;
        if (!st.seen || v.Compare(st.max) > 0) st.max = v;
        st.seen = true;
      }
    }
    child_->Close();

    // Global aggregate over empty input still yields one row.
    if (groups.empty() && group_cols_.empty()) {
      GroupState gs;
      gs.states.resize(aggs_.size());
      groups.emplace(0, std::move(gs));
      order.push_back(0);
    }

    for (uint64_t h : order) {
      GroupState& gs = groups[h];
      Row out = gs.key;
      for (size_t i = 0; i < aggs_.size(); ++i) {
        const AggState& st = gs.states[i];
        switch (aggs_[i].fn) {
          case AggFn::kCount:
            out.push_back(Value::Int(st.count));
            break;
          case AggFn::kSum:
            out.push_back(Value::Double(st.sum));
            break;
          case AggFn::kAvg:
            out.push_back(st.count == 0
                              ? Value::Null()
                              : Value::Double(st.sum /
                                              static_cast<double>(st.count)));
            break;
          case AggFn::kMin:
            out.push_back(st.seen ? st.min : Value::Null());
            break;
          case AggFn::kMax:
            out.push_back(st.seen ? st.max : Value::Null());
            break;
        }
      }
      results_.push_back(std::move(out));
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row, int64_t* lid) override {
    if (pos_ >= results_.size()) return false;
    *row = results_[pos_++];
    *lid = 0;  // wide dependency: table-level lineage only
    return true;
  }
  void Close() override { results_.clear(); }
  const Schema& output_schema() const override { return schema_; }
  std::string Describe() const override {
    return "Aggregate(groups=" + std::to_string(group_cols_.size()) +
           ", aggs=" + std::to_string(aggs_.size()) + ")";
  }

 private:
  RowOperatorPtr child_;
  std::vector<std::string> group_cols_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------------- Sort
class SortOp : public RowOperator {
 public:
  SortOp(RowOperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)), keys_(std::move(keys)) {}

  Status Open() override {
    const Schema& in = child_->output_schema();
    std::vector<std::pair<size_t, bool>> kidx;
    for (const auto& k : keys_) {
      auto idx = in.IndexOf(k.column);
      if (!idx.has_value()) {
        return Status::SyntacticError("sort by unknown column '" + k.column +
                                      "'");
      }
      kidx.emplace_back(*idx, k.descending);
    }
    KATHDB_RETURN_IF_ERROR(child_->Open());
    KATHDB_ASSIGN_OR_RETURN(rows_, DrainRows(child_.get()));
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&](const auto& a, const auto& b) {
                       for (const auto& [idx, desc] : kidx) {
                         int c = a.first[idx].Compare(b.first[idx]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* row, int64_t* lid) override {
    if (pos_ >= rows_.size()) return false;
    *row = rows_[pos_].first;
    *lid = rows_[pos_].second;
    ++pos_;
    return true;
  }
  void Close() override { rows_.clear(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override {
    std::string out = "Sort(";
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i > 0) out += ", ";
      out += keys_[i].column + (keys_[i].descending ? " DESC" : " ASC");
    }
    return out + ")";
  }

 private:
  RowOperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<std::pair<Row, int64_t>> rows_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------------ Limit
class LimitOp : public RowOperator {
 public:
  LimitOp(RowOperatorPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }
  Result<bool> Next(Row* row, int64_t* lid) override {
    if (emitted_ >= limit_) return false;
    KATHDB_ASSIGN_OR_RETURN(bool has, child_->Next(row, lid));
    if (!has) return false;
    ++emitted_;
    return true;
  }
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }

 private:
  RowOperatorPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

// --------------------------------------------------------------- Distinct
class DistinctOp : public RowOperator {
 public:
  explicit DistinctOp(RowOperatorPtr child) : child_(std::move(child)) {}

  Status Open() override {
    seen_.clear();
    return child_->Open();
  }
  Result<bool> Next(Row* row, int64_t* lid) override {
    while (true) {
      KATHDB_ASSIGN_OR_RETURN(bool has, child_->Next(row, lid));
      if (!has) return false;
      uint64_t h = kGroupHashSeed;
      for (const Value& v : *row) h = FoldGroupHash(h, v);
      if (seen_.insert(h).second) return true;
    }
  }
  void Close() override { child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string Describe() const override { return "Distinct"; }

 private:
  RowOperatorPtr child_;
  std::unordered_set<uint64_t> seen_;
};

}  // namespace

RowOperatorPtr MakeSeqScan(TablePtr table) {
  return std::make_unique<SeqScanOp>(std::move(table));
}
RowOperatorPtr MakeFilter(RowOperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}
RowOperatorPtr MakeProject(RowOperatorPtr child, std::vector<ExprPtr> exprs,
                           std::vector<std::string> names) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs),
                                     std::move(names));
}
RowOperatorPtr MakeHashJoin(RowOperatorPtr left, RowOperatorPtr right,
                            std::string left_col, std::string right_col,
                            std::string right_prefix) {
  return std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                      std::move(left_col),
                                      std::move(right_col), right_prefix);
}
RowOperatorPtr MakeNestedLoopJoin(RowOperatorPtr left, RowOperatorPtr right,
                                  ExprPtr predicate,
                                  std::string right_prefix) {
  return std::make_unique<NestedLoopJoinOp>(
      std::move(left), std::move(right), std::move(predicate), right_prefix);
}
RowOperatorPtr MakeAggregate(RowOperatorPtr child,
                             std::vector<std::string> group_cols,
                             std::vector<AggSpec> aggs) {
  return std::make_unique<AggregateOp>(std::move(child), std::move(group_cols),
                                       std::move(aggs));
}
RowOperatorPtr MakeSort(RowOperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys));
}
RowOperatorPtr MakeLimit(RowOperatorPtr child, size_t limit) {
  return std::make_unique<LimitOp>(std::move(child), limit);
}
RowOperatorPtr MakeDistinct(RowOperatorPtr child) {
  return std::make_unique<DistinctOp>(std::move(child));
}

}  // namespace kathdb::rowref

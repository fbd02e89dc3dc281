/// \file lineage.h
/// \brief Unified provenance model (Table 3 of the paper).
///
/// Every row records one edge of the provenance graph:
///   Lineage(lid, parent_lid, src_uri, func_id, ver_id, data_type, ts)
/// Functions whose dependency pattern is one_to_one / one_to_many get
/// row-level lineage; many_to_one / many_to_many (aggregation, sort, join
/// of whole tables) get table-level lineage where every input is assumed
/// to contribute to every output. Tracking granularity is configurable so
/// the lineage-overhead experiment (E6) can sweep modes.
///
/// \ingroup kathdb_lineage

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "relational/table.h"

namespace kathdb::lineage {

/// How a function's outputs depend on its inputs (classified by the same
/// LLM that generates the function; Section 3).
enum class DependencyPattern {
  kOneToOne,
  kOneToMany,
  kManyToOne,
  kManyToMany,
};

const char* DependencyPatternName(DependencyPattern p);

/// Row- vs table-level provenance edge (stored as one byte per edge).
enum class LineageDataType : uint8_t { kRow, kTable };

/// Granularity knob for experiment E6.
enum class TrackingMode {
  kOff,      ///< record nothing
  kTable,    ///< only table-level edges, even for narrow dependencies
  kSampled,  ///< row-level edges for a sampled fraction of rows
  kRow,      ///< full row-level lineage for narrow dependencies
};

/// One provenance edge (one row of the Lineage table). Decoded from the
/// store's columns on demand; the store itself never holds these.
struct LineageEntry {
  int64_t lid = 0;
  std::optional<int64_t> parent_lid;  // nullopt for external input data
  std::string src_uri;                // non-empty for ingested raw data
  std::string func_id;
  int64_t ver_id = 0;
  LineageDataType data_type = LineageDataType::kRow;
  double ts = 0.0;  // logical timestamp (monotone per store)
};

/// \brief Append-only, columnar provenance store with graph traversal.
///
/// Each edge costs kBytesPerEdge bytes of column storage; names are
/// interned. One mutex synchronizes every member, so concurrent queries
/// of the service layer can record derivations into a shared store.
class LineageStore {
 public:
  /// Column bytes one stored edge costs.
  static constexpr size_t kBytesPerEdge = 2 * sizeof(int64_t) +
                                          2 * sizeof(uint32_t) +
                                          sizeof(LineageDataType) +
                                          sizeof(double);

  explicit LineageStore(TrackingMode mode = TrackingMode::kRow,
                        double sample_rate = 0.1)
      : mode_(mode), sample_rate_(sample_rate) {}

  TrackingMode mode() const { return mode_; }
  double sample_rate() const { return sample_rate_; }

  /// Allocates a fresh lineage id (monotonically increasing, starts at 1).
  int64_t NewLid() KATHDB_EXCLUDES(mu_);

  /// Records the ingestion of external data (parent NULL, src_uri set).
  /// Returns the new lid, or 0 when tracking is off.
  int64_t RecordIngest(const std::string& src_uri, const std::string& func_id,
                       int64_t ver_id, LineageDataType type)
      KATHDB_EXCLUDES(mu_);

  /// Records a row-level derivation edge child<-parent. Honors the
  /// tracking mode (may drop the edge under kOff/kTable/kSampled).
  /// Returns the child lid, or 0 when the edge was not recorded.
  int64_t RecordRowDerivation(int64_t parent_lid, const std::string& func_id,
                              int64_t ver_id) KATHDB_EXCLUDES(mu_);

  /// Batched RecordRowDerivation: records child<-parents[i] for i in
  /// [0, n) in row order under one lock, writing each child lid (0 when
  /// the edge was dropped) to out_lids[i]. The lids and the kSampled draws
  /// equal those of n single-row calls. `out_lids` may alias `parents`.
  void RecordRowDerivations(const int64_t* parents, size_t n,
                            const std::string& func_id, int64_t ver_id,
                            int64_t* out_lids) KATHDB_EXCLUDES(mu_);

  /// Records a table-level derivation with one edge per parent table.
  /// Returns the child lid (0 when tracking is off).
  int64_t RecordTableDerivation(const std::vector<int64_t>& parent_lids,
                                const std::string& func_id, int64_t ver_id)
      KATHDB_EXCLUDES(mu_);

  /// All edges whose child is `lid`, in insertion order.
  std::vector<LineageEntry> EdgesOf(int64_t lid) const
      KATHDB_EXCLUDES(mu_);

  /// Direct parents of `lid`.
  std::vector<int64_t> ParentsOf(int64_t lid) const KATHDB_EXCLUDES(mu_);

  /// Transitive closure of parents up to the external sources; each hop is
  /// returned once, root-most last.
  std::vector<LineageEntry> TraceToSources(int64_t lid) const
      KATHDB_EXCLUDES(mu_);

  size_t num_entries() const KATHDB_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return lid_.size();
  }

  /// Renders the store as a relational table in the Table-3 layout for the
  /// Figure-2 reproduction.
  rel::Table ToTable(size_t max_rows = 0) const KATHDB_EXCLUDES(mu_);

  /// Memory footprint of the stored edges in bytes (E6): kBytesPerEdge
  /// per edge plus the bytes of every interned function name and src_uri.
  size_t ApproxBytes() const KATHDB_EXCLUDES(mu_);

 private:
  void AppendLocked(int64_t lid, int64_t parent, uint32_t src, uint32_t func,
                    LineageDataType type) KATHDB_REQUIRES(mu_);
  uint32_t InternFuncLocked(const std::string& func_id, int64_t ver_id)
      KATHDB_REQUIRES(mu_);
  std::vector<LineageEntry> EdgesOfLocked(int64_t lid) const
      KATHDB_REQUIRES(mu_);

  mutable common::Mutex mu_;
  const TrackingMode mode_;
  const double sample_rate_;
  int64_t next_lid_ KATHDB_GUARDED_BY(mu_) = 1;
  double clock_ KATHDB_GUARDED_BY(mu_) = 0.0;
  uint64_t sample_state_ KATHDB_GUARDED_BY(mu_) = 0x9E3779B97F4A7C15ULL;

  // Edge columns, one slot per edge in append order. Every append draws
  // its lid from next_lid_++ and appends in the same critical section, so
  // lid_ is non-decreasing: the edges of one table derivation share a lid
  // and NewLid leaves gaps. EdgesOf is therefore an equal_range over lid_,
  // with equal lids in insertion order.
  std::vector<int64_t> lid_ KATHDB_GUARDED_BY(mu_);
  std::vector<int64_t> parent_ KATHDB_GUARDED_BY(mu_);  // 0 = NULL
  std::vector<uint32_t> src_ KATHDB_GUARDED_BY(mu_);    // src_uris_ index
  std::vector<uint32_t> func_ KATHDB_GUARDED_BY(mu_);   // funcs_ index
  std::vector<LineageDataType> type_ KATHDB_GUARDED_BY(mu_);
  std::vector<double> ts_ KATHDB_GUARDED_BY(mu_);

  // Interned strings; slot 0 is the empty "none" entry.
  std::vector<std::string> src_uris_ KATHDB_GUARDED_BY(mu_) = {""};
  std::vector<std::pair<std::string, int64_t>> funcs_
      KATHDB_GUARDED_BY(mu_) = {{"", 0}};
  std::map<std::string, std::map<int64_t, uint32_t>> func_ids_
      KATHDB_GUARDED_BY(mu_);  // func_id -> ver_id -> funcs_ index
};

}  // namespace kathdb::lineage

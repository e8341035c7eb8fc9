#ifndef SRC_WALDO_PROVDB_H_
#define SRC_WALDO_PROVDB_H_

// The provenance database Waldo maintains (§5.6): records move from the
// Lasagna log into an indexed store that the query engine (PQL) reads.
//
// Layout (two KvStores so Table 3 can report "provenance" and
// "provenance + indexes" separately, like the paper):
//
//   records store:  r/<pnode>/<version> -> encoded Record
//   index store:    n/<name>            -> pnode            (NAME records)
//                   t/<type>            -> pnode            (TYPE records)
//                   i/<pnode>/<version> -> encoded ancestor (INPUT edges)
//                   o/<pnode>/<version> -> encoded child    (reverse edges)
//
// Fast in-memory mirrors back the query API; the KvStores are the
// persistent representation (round-trip tested).

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/provenance.h"
#include "src/lasagna/log_format.h"
#include "src/waldo/kvstore.h"

namespace pass::waldo {

struct ProvDbStats {
  uint64_t records = 0;
  uint64_t edges = 0;
  uint64_t objects = 0;
  uint64_t db_bytes = 0;     // records store
  uint64_t index_bytes = 0;  // index store
};

class ProvDb {
 public:
  ProvDb() = default;

  // Ingest one recovered/parsed log entry.
  void Insert(const lasagna::LogEntry& entry);

  // ---- Query surface (used by the PQL adapter) ----------------------------
  // Attribute records of one object version (INPUT edges excluded).
  std::vector<core::Record> RecordsOf(const core::ObjectRef& ref) const;
  // All records across every version (attributes of "the object").
  std::vector<core::Record> RecordsOfAllVersions(core::PnodeId pnode) const;
  // Direct ancestors of one object version.
  std::vector<core::ObjectRef> Inputs(const core::ObjectRef& ref) const;
  // Objects that list `ref` as an ancestor (reverse edges).
  std::vector<core::ObjectRef> Outputs(const core::ObjectRef& ref) const;
  // Known versions of a pnode (ascending).
  std::vector<core::Version> VersionsOf(core::PnodeId pnode) const;
  // Latest known version of a pnode (0 when the pnode is unknown).
  core::Version LatestVersionOf(core::PnodeId pnode) const;
  // Lookup by NAME / TYPE attribute.
  std::vector<core::PnodeId> PnodesByName(std::string_view name) const;
  std::vector<core::PnodeId> PnodesByType(std::string_view type) const;
  // Latest known name of an object (for rendering query results).
  std::string NameOf(core::PnodeId pnode) const;
  std::vector<core::PnodeId> AllPnodes() const;

  // ---- Bulk query surface (used by batched federated RPCs) ----------------
  // Each call is the shard-side handler for one frontier-shipping RPC from
  // cluster::FederatedSource: a whole frontier's worth of lookups answered
  // in one exchange. Results align positionally with the request vector.
  std::vector<std::vector<core::ObjectRef>> InputsMany(
      const std::vector<core::ObjectRef>& refs) const;
  std::vector<std::vector<core::ObjectRef>> OutputsMany(
      const std::vector<core::ObjectRef>& refs) const;
  std::vector<std::vector<core::Record>> RecordsOfAllVersionsMany(
      const std::vector<core::PnodeId>& pnodes) const;

  // ---- Range surface (used by cluster migration / rebalancing) ------------
  // Insert exactly the rows of `entry` that are missing. An INPUT edge can
  // be *half* present here: replication and range deletion each touch only
  // the rows keyed by one endpoint, so a database may hold the forward row
  // without the reverse one (or vice versa). Returns false when nothing was
  // missing. Migration traffic lands through this, keeping it idempotent.
  bool InsertUnique(const lasagna::LogEntry& entry);
  // Every log entry needed to reconstitute the objects whose pnode lies in
  // [begin, end) on another database: their attribute records, their forward
  // INPUT edges, and the reverse-index rows naming them as ancestor of an
  // out-of-range subject.
  std::vector<lasagna::LogEntry> EntriesInRange(core::PnodeId begin,
                                                core::PnodeId end) const;
  // Drop every row *keyed* by a pnode in [begin, end): attribute records and
  // forward edges of in-range subjects, reverse rows of in-range ancestors,
  // and their name/type index entries. Rows keyed by out-of-range pnodes —
  // forward edges into the range, reverse rows listing in-range subjects —
  // stay, because this database still owns those subjects/ancestors.
  // Returns the number of rows removed.
  uint64_t DeleteRange(core::PnodeId begin, core::PnodeId end);
  // Rows (attribute records + forward edges) whose subject pnode lies in
  // [begin, end) — the size metric rebalancing uses.
  uint64_t RowsInRange(core::PnodeId begin, core::PnodeId end) const;
  // Per-pnode row weights over [begin, end), ascending by pnode; pnodes
  // known only as ancestors report weight 0. Used to split migration ranges.
  std::vector<std::pair<core::PnodeId, uint64_t>> PnodeRowsInRange(
      core::PnodeId begin, core::PnodeId end) const;

  uint64_t RecordCount() const { return record_count_; }
  uint64_t EdgeCount() const { return edge_count_; }

  // Monotone counter bumped by every mutating call that changed the database
  // (Insert, an inserting InsertUnique, a removing DeleteRange). The
  // federated portal's whole-cache baseline fingerprints this, and
  // frontier cursors are past values of it.
  uint64_t mutation_count() const { return mutation_count_; }

  // ---- Per-pnode change stamps ---------------------------------------------
  // changed_at(pnode) is the mutation_count() of the last mutation of a row
  // *keyed* by `pnode` (0 = never): an attribute record or forward edge
  // stamps its subject, a reverse row its ancestor, and DeleteRange every
  // pnode whose rows it removed; a duplicate InsertUnique stamps nothing.
  // The federated portal fingerprints a cached per-node result with its
  // keying pnode's stamp, so a write invalidates exactly the entries of the
  // pnodes it touched.
  uint64_t changed_at(core::PnodeId pnode) const {
    auto it = changed_at_.find(pnode);
    return it == changed_at_.end() ? 0 : it->second;
  }
  // Pnodes whose stamp is greater than `cursor` (a past mutation_count()),
  // ascending: the shard's "new/changed pnode" frontier since the cursor,
  // read by frontier publication. One scan of the stamp map.
  std::vector<core::PnodeId> PnodesChangedSince(uint64_t cursor) const;

  // Latest TYPE attribute value of `pnode` ("" when untyped).
  std::string TypeOf(core::PnodeId pnode) const;

  // ---- Content fingerprints (audit plane) ----------------------------------
  // Order-independent content hash of [begin, end): the XOR fold of the MD5
  // of every row EntriesInRange would export. Two databases holding the
  // same rows for the range produce the same digest regardless of insertion
  // order, so the digest a migration seals into its EPOCH_BUMP custody
  // record can be re-checked on the destination shard after the move.
  // (Caveat, acceptable for audit: a row inserted an *even* number of times
  // cancels out — but InsertUnique dedupes, so duplicates never land.)
  // `bytes_hashed` (optional) returns the encoded bytes the fold digested,
  // so auditors can charge the verification's CPU cost.
  Md5Digest ContentHashOfRange(core::PnodeId begin, core::PnodeId end,
                               uint64_t* bytes_hashed = nullptr) const;

  ProvDbStats stats() const;

  // Persist the database as its two KvStore images / rebuild it from them.
  // The in-memory mirrors are reconstructed from the stores: a restored
  // database returns the same result *sets* for every query. Per-subject
  // record order and per-ancestor Outputs() order are preserved (the stores
  // keep per-key insertion order; edges rebuild from 'i/' and 'o/' keys
  // independently, so even half-rows left by DeleteRange round-trip).
  // Caveats: NameOf() under renames across versions follows store key
  // order, and VersionsOf()/AllPnodes() may resurface a range-deleted
  // pnode still referenced by surviving out-of-range edges.
  std::string Serialize() const;
  static Result<ProvDb> Deserialize(std::string_view image);

  const KvStore& record_store() const { return records_; }
  const KvStore& index_store() const { return indexes_; }

 private:
  KvStore records_{/*segment_bytes=*/4u << 20};
  KvStore indexes_{/*segment_bytes=*/4u << 20};

  // In-memory mirrors.
  std::map<core::ObjectRef, std::vector<core::Record>> attrs_;
  std::map<core::ObjectRef, std::vector<core::ObjectRef>> inputs_;
  std::map<core::ObjectRef, std::vector<core::ObjectRef>> outputs_;
  // Membership shadows of the three mirrors above, so InsertUnique — the
  // hot path of replication redelivery and migration — answers "is this
  // row already here" in O(log n) instead of scanning the row vector (the
  // vectors stay authoritative: they keep per-key insertion order for the
  // query surface). Attribute rows shadow as content hashes; a hash hit is
  // confirmed against the real rows before an entry is dropped.
  std::map<core::ObjectRef, std::set<core::ObjectRef>> input_set_;
  std::map<core::ObjectRef, std::set<core::ObjectRef>> output_set_;
  std::map<core::ObjectRef, std::set<uint64_t>> attr_hashes_;
  std::map<core::PnodeId, std::set<core::Version>> versions_;
  std::map<std::string, std::set<core::PnodeId>> by_name_;
  std::map<std::string, std::set<core::PnodeId>> by_type_;
  std::map<core::PnodeId, std::string> names_;
  uint64_t record_count_ = 0;
  uint64_t edge_count_ = 0;
  uint64_t mutation_count_ = 0;
  // pnode -> changed_at() stamp.
  std::map<core::PnodeId, uint64_t> changed_at_;
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_PROVDB_H_

#include "src/gen.h"

#include <cstdio>
#include <utility>

#include "src/common/str_util.h"

namespace perfbench {

using txmod::Tuple;
using txmod::Value;
namespace algebra = txmod::algebra;

namespace {

/// SplitMix64: a small generator whose output is fixed by its seed on
/// every platform (the standard distributions are not).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Disjoint id ranges: initial rows, served requests, bulk batches and
// the violating bulk batches never share an id.
constexpr int64_t kServedIdBase = 10'000'000;
constexpr int64_t kServedIdsPerConn = 1'000'000;
constexpr int64_t kBulkIdBase = 100'000'000;
constexpr int64_t kBadBulkIdBase = 900'000'000;

// Amounts are multiples of 0.25 so that "%.2f" prints them exactly and
// the parser reads back the same double.
double Amount(Rng* rng) { return static_cast<double>(rng->Below(40000)) / 4; }

std::string AmountText(double amount) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f", amount);
  return buf;
}

uint64_t TupleBytes(const Tuple& t) {
  uint64_t n = 0;
  for (const Value& v : t.values()) {
    n += v.is_string() ? v.as_string().size() : 8;
  }
  return n;
}

uint64_t TuplesBytes(const std::vector<Tuple>& tuples) {
  uint64_t n = 0;
  for (const Tuple& t : tuples) n += TupleBytes(t);
  return n;
}

Tuple FkRow(int64_t id, std::string ref, double amount) {
  return Tuple({Value::Int(id), Value::String(std::move(ref)),
                Value::Double(amount)});
}

// The payload of unreferenced key "x<index>" under `seed`.
std::string SpareKeyPayload(uint64_t seed, int index) {
  Rng rng(seed ^ (0xa0761d6478bd642fULL * static_cast<uint64_t>(index + 1)));
  return txmod::StrCat("q", rng.Below(1'000'000));
}

Tuple SpareKey(uint64_t seed, int index) {
  return Tuple({Value::String(txmod::StrCat("x", index)),
                Value::String(SpareKeyPayload(seed, index))});
}

std::string RowText(const Tuple& t) {
  return txmod::StrCat("(", t.at(0).as_int(), ", \"", t.at(1).as_string(),
                       "\", ", AmountText(t.at(2).as_double()), ")");
}

std::string KeyText(const Tuple& t) {
  return txmod::StrCat("(\"", t.at(0).as_string(), "\", \"",
                       t.at(1).as_string(), "\")");
}

algebra::Transaction OneStatement(bool insert, const char* relation,
                                  std::vector<Tuple> tuples, int arity) {
  algebra::Transaction txn;
  auto literal = algebra::RelExpr::Literal(std::move(tuples), arity);
  txn.program.statements.push_back(
      insert ? algebra::Statement::Insert(relation, std::move(literal))
             : algebra::Statement::Delete(relation, std::move(literal)));
  return txn;
}

}  // namespace

const char* DomainConstraint() {
  return "forall x (x in fk_rel implies x.amount >= 0)";
}

const char* RefIntConstraint() {
  return "forall x (x in fk_rel implies exists y (y in key_rel and "
         "x.ref = y.key))";
}

txmod::Database MakeInitialState(uint64_t seed) {
  using txmod::AttrType;
  using txmod::Attribute;
  using txmod::RelationSchema;
  txmod::Database db;
  (void)db.CreateRelation(RelationSchema(
      "key_rel", {Attribute{"key", AttrType::kString},
                  Attribute{"payload", AttrType::kString}}));
  (void)db.CreateRelation(RelationSchema(
      "fk_rel", {Attribute{"id", AttrType::kInt},
                 Attribute{"ref", AttrType::kString},
                 Attribute{"amount", AttrType::kDouble}}));
  Rng rng(seed);
  txmod::Relation* keys = *db.FindMutable("key_rel");
  for (int i = 0; i < kKeys; ++i) {
    keys->Insert(Tuple({Value::String(txmod::StrCat("k", i)),
                        Value::String(txmod::StrCat("p", rng.Below(1'000'000)))}));
  }
  for (int i = 0; i < kSpareKeys; ++i) keys->Insert(SpareKey(seed, i));
  txmod::Relation* fks = *db.FindMutable("fk_rel");
  for (int i = 0; i < kFkRows; ++i) {
    std::string ref = txmod::StrCat("k", rng.Below(kKeys));
    fks->Insert(FkRow(i, std::move(ref), Amount(&rng)));
  }
  return db;
}

std::vector<TxnSpec> MakeServedStream(uint64_t seed, int conn,
                                      int connections, int count) {
  Rng rng(seed ^ (0xe7037ed1a0b428dbULL * static_cast<uint64_t>(conn + 1)));
  std::vector<int> present;  // owned spare keys currently in key_rel
  std::vector<int> deleted;
  for (int i = conn; i < kSpareKeys; i += connections) present.push_back(i);
  const auto take = [&rng](std::vector<int>* from) {
    const std::size_t at = rng.Below(from->size());
    const int index = (*from)[at];
    (*from)[at] = from->back();
    from->pop_back();
    return index;
  };

  std::vector<TxnSpec> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int64_t id = kServedIdBase + conn * kServedIdsPerConn + i;
    const uint64_t roll = rng.Below(100);
    TxnSpec spec;
    if (roll < 95) {
      std::string ref = txmod::StrCat("k", rng.Below(kKeys));
      double amount = Amount(&rng);
      if (roll >= 90 && roll < 93) {
        ref = txmod::StrCat("zz", id);
        spec.expect = Verdict::kAbortRefint;
      } else if (roll >= 93) {
        amount = -1 - amount;
        spec.expect = Verdict::kAbortDomain;
      }
      Tuple row = FkRow(id, std::move(ref), amount);
      spec.text = txmod::StrCat("insert(fk_rel, {", RowText(row), "});");
      spec.user_bytes = TupleBytes(row);
      spec.effects.fk_insert.push_back(std::move(row));
    } else {
      const bool remove =
          deleted.empty() || (!present.empty() && rng.Below(2) == 0);
      const int index = remove ? take(&present) : take(&deleted);
      (remove ? deleted : present).push_back(index);
      Tuple key = SpareKey(seed, index);
      spec.text = txmod::StrCat(remove ? "delete" : "insert", "(key_rel, {",
                                KeyText(key), "});");
      spec.user_bytes = TupleBytes(key);
      (remove ? spec.effects.key_delete : spec.effects.key_insert)
          .push_back(std::move(key));
    }
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<TxnSpec> MakeBulkCycle(uint64_t seed, int cycle) {
  Rng rng(seed ^ (0x8ebc6af09c88c6e3ULL * static_cast<uint64_t>(cycle + 1)));
  std::vector<TxnSpec> out;
  const auto batch = [&rng](int64_t id_base) {
    std::vector<Tuple> rows;
    rows.reserve(kBatchRows);
    for (int j = 0; j < kBatchRows; ++j) {
      std::string ref = txmod::StrCat("k", rng.Below(kKeys));
      rows.push_back(FkRow(id_base + j, std::move(ref), Amount(&rng)));
    }
    return rows;
  };

  if (cycle % kAbortEvery == kAbortEvery - 1) {
    const int64_t base = kBadBulkIdBase + int64_t{cycle} * kBatchRows;
    std::vector<Tuple> rows = batch(base);
    const std::size_t bad = rng.Below(kBatchRows);
    rows[bad].at(1) = Value::String(txmod::StrCat("zz", base + bad));
    TxnSpec spec;
    spec.expect = Verdict::kAbortRefint;
    spec.user_bytes = TuplesBytes(rows);
    spec.effects.fk_insert = rows;
    spec.txn = OneStatement(true, "fk_rel", std::move(rows), 3);
    out.push_back(std::move(spec));
  }

  const std::vector<Tuple> rows =
      batch(kBulkIdBase + int64_t{cycle} * kBatchRows);
  std::vector<Tuple> keys;
  std::vector<int> pool;
  for (int i = 0; i < kSpareKeys; ++i) pool.push_back(i);
  for (int j = 0; j < kKeyBatch; ++j) {
    const std::size_t at = rng.Below(pool.size() - static_cast<std::size_t>(j));
    std::swap(pool[at], pool[pool.size() - 1 - static_cast<std::size_t>(j)]);
    keys.push_back(SpareKey(seed, pool[pool.size() - 1 - static_cast<std::size_t>(j)]));
  }

  const auto add = [&out](bool insert, const char* relation,
                          const std::vector<Tuple>& tuples, int arity) {
    TxnSpec spec;
    spec.user_bytes = TuplesBytes(tuples);
    const bool fk = arity == 3;
    Effects& e = spec.effects;
    (fk ? (insert ? e.fk_insert : e.fk_delete)
        : (insert ? e.key_insert : e.key_delete)) = tuples;
    spec.txn = OneStatement(insert, relation, tuples, arity);
    out.push_back(std::move(spec));
  };
  add(true, "fk_rel", rows, 3);
  add(false, "fk_rel", rows, 3);
  add(false, "key_rel", keys, 2);
  add(true, "key_rel", keys, 2);
  return out;
}

}  // namespace perfbench

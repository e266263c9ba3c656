#include "src/model/database.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace mudb::model {

util::Status Relation::Insert(Tuple tuple) {
  MUDB_RETURN_IF_ERROR(schema_.ValidateTuple(tuple));
  tuples_.push_back(std::move(tuple));
  return util::Status::OK();
}

util::Status Relation::InsertDistinct(Tuple tuple) {
  MUDB_RETURN_IF_ERROR(schema_.ValidateTuple(tuple));
  if (std::find(tuples_.begin(), tuples_.end(), tuple) != tuples_.end()) {
    return util::Status::OK();
  }
  tuples_.push_back(std::move(tuple));
  return util::Status::OK();
}

util::Status Database::CreateRelation(RelationSchema schema) {
  const std::string name = schema.name();
  if (relations_.find(name) != relations_.end()) {
    return util::Status::InvalidArgument("relation already exists: " + name);
  }
  relations_.emplace(name, Relation(std::move(schema)));
  return util::Status::OK();
}

util::StatusOr<const Relation*> Database::GetRelation(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return util::Status::NotFound("no relation named " + name);
  }
  return &it->second;
}

util::StatusOr<Relation*> Database::GetMutableRelation(
    const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return util::Status::NotFound("no relation named " + name);
  }
  return &it->second;
}

util::Status Database::Insert(const std::string& relation, Tuple tuple) {
  MUDB_ASSIGN_OR_RETURN(Relation * rel, GetMutableRelation(relation));
  return rel->Insert(std::move(tuple));
}

namespace {

std::vector<NullId> CollectNullIds(const Database& db, Value::Kind kind) {
  std::vector<NullId> ids;
  std::unordered_set<NullId> seen;
  for (const auto& [name, rel] : db.relations()) {
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t) {
        if (v.kind() == kind && seen.insert(v.null_id()).second) {
          ids.push_back(v.null_id());
        }
      }
    }
  }
  return ids;
}

}  // namespace

std::vector<NullId> Database::CollectNumNullIds() const {
  return CollectNullIds(*this, Value::Kind::kNumNull);
}

std::vector<NullId> Database::CollectBaseNullIds() const {
  return CollectNullIds(*this, Value::Kind::kBaseNull);
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

std::string Database::ToString() const {
  std::ostringstream out;
  for (const auto& [name, rel] : relations_) {
    out << rel.schema().ToString() << " [" << rel.size() << " tuples]\n";
    for (const Tuple& t : rel.tuples()) {
      out << "  (";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ", ";
        out << t[i];
      }
      out << ")\n";
    }
  }
  return out.str();
}

Value Valuation::Apply(const Value& v) const {
  if (v.kind() == Value::Kind::kBaseNull) {
    auto it = base_.find(v.null_id());
    if (it != base_.end()) return Value::BaseConst(it->second);
  } else if (v.kind() == Value::Kind::kNumNull) {
    auto it = num_.find(v.null_id());
    if (it != num_.end()) return Value::NumConst(it->second);
  }
  return v;
}

Tuple Valuation::Apply(const Tuple& t) const {
  Tuple out;
  out.reserve(t.size());
  for (const Value& v : t) out.push_back(Apply(v));
  return out;
}

Database Valuation::Apply(const Database& db) const {
  Database out;
  for (const auto& [name, rel] : db.relations()) {
    MUDB_CHECK(out.CreateRelation(rel.schema()).ok());
    Relation* dst = out.GetMutableRelation(name).value();
    for (const Tuple& t : rel.tuples()) {
      MUDB_CHECK(dst->Insert(Apply(t)).ok());
    }
  }
  return out;
}

Valuation MakeBijectiveBaseValuation(
    const Database& db, const std::string& prefix,
    const std::vector<NullId>& extra_base_ids,
    const std::vector<std::string>& extra_constants) {
  // Ensure the range is disjoint from C_base(D) and `extra_constants`:
  // extend the prefix until none of those constants starts with it.
  std::string safe_prefix = prefix;
  bool collision = true;
  while (collision) {
    collision = false;
    for (const std::string& c : extra_constants) {
      if (c.rfind(safe_prefix, 0) == 0) collision = true;
    }
    for (const auto& [name, rel] : db.relations()) {
      if (collision) break;
      for (const Tuple& t : rel.tuples()) {
        for (const Value& v : t) {
          if (v.kind() == Value::Kind::kBaseConst &&
              v.base_const().rfind(safe_prefix, 0) == 0) {
            collision = true;
          }
        }
      }
    }
    if (collision) safe_prefix += "_";
  }
  Valuation val;
  for (NullId id : db.CollectBaseNullIds()) {
    val.SetBase(id, safe_prefix + std::to_string(id));
  }
  for (NullId id : extra_base_ids) {
    if (val.base_map().find(id) == val.base_map().end()) {
      val.SetBase(id, safe_prefix + std::to_string(id));
    }
  }
  return val;
}

}  // namespace mudb::model

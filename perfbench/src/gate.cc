#include "src/gate.h"

#include "src/baseline/posthoc_checker.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/relational/persist.h"

namespace perfbench {

using txmod::StrCat;
using txmod::Tuple;

namespace {

std::string TupleText(const Tuple& t) {
  std::string out = "(";
  for (std::size_t i = 0; i < t.arity(); ++i) {
    if (i > 0) out += " ";
    out += txmod::EncodeValueText(t.at(i));
  }
  return out + ")";
}

const char* RuleOf(Verdict verdict) {
  return verdict == Verdict::kAbortRefint ? "refint" : "domain";
}

}  // namespace

std::string VerdictMismatch(const TxnSpec& spec, const Observed& observed) {
  if (!observed.call_ok || observed.conflict) return "";
  if (spec.expect == Verdict::kCommit) {
    return observed.committed
               ? ""
               : StrCat("expected commit, got abort: ", observed.reason);
  }
  const std::string rule = StrCat("rule ", RuleOf(spec.expect));
  if (observed.committed) {
    return StrCat("expected abort naming ", rule, ", got commit");
  }
  if (observed.reason.find(rule) == std::string::npos) {
    return StrCat("expected abort naming ", rule, ", got: ", observed.reason);
  }
  return "";
}

bool IsFailure(const TxnSpec& spec, const Observed& observed) {
  return !observed.call_ok || observed.conflict ||
         !VerdictMismatch(spec, observed).empty();
}

ExpectedState::ExpectedState(uint64_t seed) : db_(MakeInitialState(seed)) {}

void ExpectedState::Record(const TxnSpec& spec, const Observed& observed) {
  if (!observed.call_ok) {
    MarkUncertain(spec.effects);
  } else if (observed.committed) {
    Apply(spec.effects);
  }
}

void ExpectedState::Apply(const Effects& effects) {
  txmod::Relation* fk = *db_.FindMutable("fk_rel");
  txmod::Relation* keys = *db_.FindMutable("key_rel");
  for (const Tuple& t : effects.fk_delete) fk->Erase(t);
  for (const Tuple& t : effects.key_delete) keys->Erase(t);
  for (const Tuple& t : effects.fk_insert) fk->Insert(t);
  for (const Tuple& t : effects.key_insert) keys->Insert(t);
}

void ExpectedState::MarkUncertain(const Effects& effects) {
  for (const auto* list : {&effects.fk_insert, &effects.fk_delete}) {
    uncertain_["fk_rel"].insert(list->begin(), list->end());
  }
  for (const auto* list : {&effects.key_insert, &effects.key_delete}) {
    uncertain_["key_rel"].insert(list->begin(), list->end());
  }
}

std::vector<std::string> ExpectedState::Diff(const txmod::Database& recovered,
                                             std::size_t limit) const {
  std::vector<std::string> out;
  std::size_t total = 0;
  const auto report = [&](std::string what) {
    if (out.size() < limit) out.push_back(std::move(what));
    ++total;
  };
  for (const std::string& name : db_.RelationNames()) {
    const txmod::Relation& want = **db_.Find(name);
    auto got_or = recovered.Find(name);
    if (!got_or.ok()) {
      report(StrCat("relation ", name, " missing after recovery"));
      continue;
    }
    const txmod::Relation& got = **got_or;
    const auto it = uncertain_.find(name);
    const auto certain = [&](const Tuple& t) {
      return it == uncertain_.end() || it->second.count(t) == 0;
    };
    for (const Tuple& t : want) {
      if (!got.Contains(t) && certain(t)) {
        report(StrCat("acked tuple lost: ", name, TupleText(t)));
      }
    }
    for (const Tuple& t : got) {
      if (!want.Contains(t) && certain(t)) {
        report(StrCat("unacknowledged tuple present: ", name, TupleText(t)));
      }
    }
  }
  if (total > out.size()) {
    out.push_back(StrCat("... ", total - out.size(), " more"));
  }
  return out;
}

std::string PostHocViolation(txmod::Database db) {
  txmod::core::IntegritySubsystem ics(&db);
  for (const auto& [name, text] :
       {std::pair<const char*, const char*>{"domain", DomainConstraint()},
        {"refint", RefIntConstraint()}}) {
    const txmod::Status st = ics.DefineConstraint(name, text);
    if (!st.ok()) return StrCat("DefineConstraint ", name, ": ", st.ToString());
  }
  txmod::baseline::PostHocOptions options;
  options.use_triggers = false;  // evaluate every constraint in full
  txmod::baseline::PostHocChecker checker(&ics, options);
  auto result = checker.Execute(txmod::algebra::Transaction{});
  if (!result.ok()) return result.status().ToString();
  return result->committed ? "" : result->abort_reason;
}

}  // namespace perfbench

#include "sum/user_model.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace spa::sum {

SmartUserModel::SmartUserModel(UserId user,
                               const AttributeCatalog* catalog)
    : user_(user), catalog_(catalog) {
  SPA_CHECK(catalog != nullptr);
}

const SmartUserModel::Slot* SmartUserModel::Find(AttributeId id) const {
  SPA_DCHECK(id >= 0 && static_cast<size_t>(id) < catalog_->size());
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, AttributeId key) { return slot.id < key; });
  return it != slots_.end() && it->id == id ? &*it : nullptr;
}

SmartUserModel::Slot& SmartUserModel::Touch(AttributeId id) {
  SPA_DCHECK(id >= 0 && static_cast<size_t>(id) < catalog_->size());
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), id,
      [](const Slot& slot, AttributeId key) { return slot.id < key; });
  if (it != slots_.end() && it->id == id) return *it;
  return *slots_.insert(
      it, Slot{id, catalog_->defs()[static_cast<size_t>(id)].default_value,
               0.0, 0.0});
}

double SmartUserModel::value(AttributeId id) const {
  const Slot* slot = Find(id);
  return slot != nullptr
             ? slot->value
             : catalog_->defs()[static_cast<size_t>(id)].default_value;
}

void SmartUserModel::set_value(AttributeId id, double v) {
  Touch(id).value = std::clamp(v, 0.0, 1.0);
}

double SmartUserModel::sensibility(AttributeId id) const {
  const Slot* slot = Find(id);
  return slot != nullptr ? slot->sensibility : 0.0;
}

void SmartUserModel::set_sensibility(AttributeId id, double w) {
  Touch(id).sensibility = std::clamp(w, 0.0, 1.0);
}

double SmartUserModel::evidence(AttributeId id) const {
  const Slot* slot = Find(id);
  return slot != nullptr ? slot->evidence : 0.0;
}

void SmartUserModel::add_evidence(AttributeId id, double amount) {
  Touch(id).evidence += amount;
}

std::vector<DominantAttribute> SmartUserModel::Dominant(
    AttributeKind kind, double threshold, size_t max_count) const {
  std::vector<DominantAttribute> out;
  for (AttributeId id : catalog_->ids_of(kind)) {
    const double w = sensibility(id);
    if (w >= threshold) out.push_back({id, w});
  }
  std::sort(out.begin(), out.end(),
            [](const DominantAttribute& a, const DominantAttribute& b) {
              if (a.sensibility != b.sensibility) {
                return a.sensibility > b.sensibility;
              }
              return a.id < b.id;
            });
  if (out.size() > max_count) out.resize(max_count);
  return out;
}

std::vector<double> SmartUserModel::EmotionalSensibilities() const {
  std::vector<double> out;
  out.reserve(eit::kNumEmotionalAttributes);
  for (eit::EmotionalAttribute emotion : eit::AllEmotionalAttributes()) {
    out.push_back(sensibility(catalog_->EmotionalId(emotion)));
  }
  return out;
}

void SmartUserModel::RegisterFeatures(const AttributeCatalog& catalog,
                                      lifelog::FeatureSpace* space) {
  for (const AttributeDef& def : catalog.defs()) {
    space->Intern(spa::StrFormat("sum.value.%s", def.name.c_str()));
    if (def.kind == AttributeKind::kEmotional) {
      space->Intern(spa::StrFormat("sum.sens.%s", def.name.c_str()));
    }
  }
}

ml::SparseVector SmartUserModel::Features(
    const lifelog::FeatureSpace& space, bool include_emotional) const {
  std::vector<ml::SparseEntry> entries;
  for (const AttributeDef& def : catalog_->defs()) {
    const bool emotional = def.kind == AttributeKind::kEmotional;
    if (emotional && !include_emotional) continue;
    const double v = value(def.id);
    if (v != 0.0) {
      const auto idx = space.IndexOf(
          spa::StrFormat("sum.value.%s", def.name.c_str()));
      SPA_CHECK(idx.ok());
      entries.push_back({idx.value(), v});
    }
    if (emotional) {
      const double w = sensibility(def.id);
      if (w != 0.0) {
        const auto idx = space.IndexOf(
            spa::StrFormat("sum.sens.%s", def.name.c_str()));
        SPA_CHECK(idx.ok());
        entries.push_back({idx.value(), w});
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ml::SparseEntry& a, const ml::SparseEntry& b) {
              return a.index < b.index;
            });
  return ml::SparseVector(entries);
}

}  // namespace spa::sum

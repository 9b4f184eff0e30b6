#ifndef SPA_SUM_USER_MODEL_H_
#define SPA_SUM_USER_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "lifelog/features.h"
#include "ml/sparse.h"
#include "sum/catalog.h"

/// \file
/// The Smart User Model (SUM): per-user attribute values plus learned
/// *sensibility* weights. The Attributes Manager Agent "automatically
/// detects the level of sensibility of each user for each of his/her
/// dominant attributes by automatically assigning weights (relevancies)"
/// (§4); dominant attributes above a threshold drive both the
/// recommender's activation/inhibition stage and the Messaging Agent.

namespace spa::sum {

/// A (attribute, sensibility) pair returned by dominance queries.
struct DominantAttribute {
  AttributeId id = -1;
  double sensibility = 0.0;
};

/// \brief One user's model over a shared catalog.
class SmartUserModel {
 public:
  SmartUserModel(UserId user, const AttributeCatalog* catalog);

  UserId user() const { return user_; }
  const AttributeCatalog& catalog() const { return *catalog_; }

  /// Current value of an attribute, in [0,1].
  double value(AttributeId id) const;
  /// Sets a value (clamped to [0,1]).
  void set_value(AttributeId id, double v);

  /// Sensibility (relevance weight) of an attribute, in [0,1].
  double sensibility(AttributeId id) const;
  void set_sensibility(AttributeId id, double w);

  /// Number of reinforcement events observed for an attribute.
  double evidence(AttributeId id) const;
  void add_evidence(AttributeId id, double amount);

  /// Dominant attributes of a kind: sensibility >= threshold, sorted by
  /// sensibility descending (ties by id), truncated to max_count.
  std::vector<DominantAttribute> Dominant(AttributeKind kind,
                                          double threshold,
                                          size_t max_count = SIZE_MAX) const;

  /// The ten emotional sensibilities in EmotionalAttribute order.
  std::vector<double> EmotionalSensibilities() const;

  /// Contributes SUM features into a shared feature space:
  /// `sum.value.<name>` for every non-default attribute value and
  /// `sum.sens.<name>` for every non-zero emotional sensibility.
  /// Feature names must have been registered with RegisterFeatures.
  ml::SparseVector Features(const lifelog::FeatureSpace& space,
                            bool include_emotional) const;

  /// Registers this catalog's feature names in the space (idempotent).
  static void RegisterFeatures(const AttributeCatalog& catalog,
                               lifelog::FeatureSpace* space);

 private:
  /// One touched attribute's state.
  struct Slot {
    AttributeId id;
    double value;
    double sensibility;
    double evidence;
  };

  /// The attribute's slot, or nullptr when it was never touched.
  const Slot* Find(AttributeId id) const;
  /// The attribute's slot, inserted with the untouched state (catalog
  /// default value, sensibility 0, evidence 0) when absent.
  Slot& Touch(AttributeId id);

  UserId user_;
  const AttributeCatalog* catalog_;
  /// Touched attributes, sorted by id.
  std::vector<Slot> slots_;
};

}  // namespace spa::sum

#endif  // SPA_SUM_USER_MODEL_H_

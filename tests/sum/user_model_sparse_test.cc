// Differential test of the sparse SmartUserModel against a test-local
// dense reference: three catalog-wide vectors, the representation the
// model stores only the touched part of. Both are driven through the
// same random set / reward / punish / decay / evidence ops, and every
// accessor, Dominant, EmotionalSensibilities, Features and the CSV rows
// must agree bit for bit (signed zeros included).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "lifelog/features.h"
#include "sum/reward_punish.h"
#include "sum/sum_store.h"
#include "sum/user_model.h"

namespace spa::sum {
namespace {

/// The dense model: every attribute stored, untouched ones at their
/// catalog default, sensibility 0 and evidence 0.
class DenseModel {
 public:
  DenseModel(UserId user, const AttributeCatalog* catalog,
             ReinforcementConfig config)
      : user_(user),
        catalog_(catalog),
        config_(config),
        sensibility_(catalog->size(), 0.0),
        evidence_(catalog->size(), 0.0) {
    for (const AttributeDef& def : catalog->defs()) {
      value_.push_back(def.default_value);
    }
  }

  double value(AttributeId id) const { return value_[Index(id)]; }
  double sensibility(AttributeId id) const {
    return sensibility_[Index(id)];
  }
  double evidence(AttributeId id) const { return evidence_[Index(id)]; }

  void set_value(AttributeId id, double v) {
    value_[Index(id)] = std::clamp(v, 0.0, 1.0);
  }
  void set_sensibility(AttributeId id, double w) {
    sensibility_[Index(id)] = std::clamp(w, 0.0, 1.0);
  }
  void add_evidence(AttributeId id, double amount) {
    evidence_[Index(id)] += amount;
  }
  void Reward(AttributeId id, double magnitude) {
    const double w = sensibility(id);
    const double step = std::min(1.0, config_.learning_rate * magnitude);
    set_sensibility(id, w + step * (1.0 - w));
    add_evidence(id, magnitude);
  }
  void Punish(AttributeId id, double magnitude) {
    const double w = sensibility(id);
    const double step = std::min(1.0, config_.learning_rate * magnitude);
    set_sensibility(id, std::max(config_.floor, w - step * w));
    add_evidence(id, magnitude);
  }
  void Decay(AttributeKind kind) {
    for (const AttributeId id : catalog_->ids_of(kind)) {
      const double w = sensibility(id);
      if (w > config_.floor) {
        set_sensibility(
            id, std::max(config_.floor, w * (1.0 - config_.decay_rate)));
      }
    }
  }

  std::vector<DominantAttribute> Dominant(AttributeKind kind,
                                          double threshold,
                                          size_t max_count) const {
    std::vector<DominantAttribute> out;
    for (const AttributeId id : catalog_->ids_of(kind)) {
      if (sensibility(id) >= threshold) out.push_back({id, sensibility(id)});
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

  /// (feature index, value) pairs in index order.
  std::vector<std::pair<int32_t, double>> Features(
      const lifelog::FeatureSpace& space, bool include_emotional) const {
    std::vector<std::pair<int32_t, double>> out;
    for (const AttributeDef& def : catalog_->defs()) {
      const bool emotional = def.kind == AttributeKind::kEmotional;
      if (emotional && !include_emotional) continue;
      if (value(def.id) != 0.0) {
        out.emplace_back(
            space.IndexOf(StrFormat("sum.value.%s", def.name.c_str()))
                .value(),
            value(def.id));
      }
      if (emotional && sensibility(def.id) != 0.0) {
        out.emplace_back(
            space.IndexOf(StrFormat("sum.sens.%s", def.name.c_str()))
                .value(),
            sensibility(def.id));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The model's rows in the SumStore CSV schema.
  std::string CsvRows() const {
    std::ostringstream out;
    CsvWriter writer(&out);
    size_t rows = 0;
    for (const AttributeDef& def : catalog_->defs()) {
      if (value(def.id) == def.default_value &&
          sensibility(def.id) == 0.0 && evidence(def.id) == 0.0) {
        continue;
      }
      writer.WriteRow({std::to_string(user_), def.name,
                       StrFormat("%.17g", value(def.id)),
                       StrFormat("%.17g", sensibility(def.id)),
                       StrFormat("%.17g", evidence(def.id))});
      ++rows;
    }
    if (rows == 0) writer.WriteRow({std::to_string(user_), "", "0", "0", "0"});
    return out.str();
  }

 private:
  static size_t Index(AttributeId id) { return static_cast<size_t>(id); }

  UserId user_;
  const AttributeCatalog* catalog_;
  ReinforcementConfig config_;
  std::vector<double> value_;
  std::vector<double> sensibility_;
  std::vector<double> evidence_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

class SparseModelDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SparseModelDifferentialTest()
      : catalog_(AttributeCatalog::EmagisterDefault()) {
    SmartUserModel::RegisterFeatures(catalog_, &space_);
  }

  void ExpectSame(const SmartUserModel& sparse, const DenseModel& dense) {
    for (const AttributeDef& def : catalog_.defs()) {
      ASSERT_EQ(Bits(sparse.value(def.id)), Bits(dense.value(def.id)))
          << def.name;
      ASSERT_EQ(Bits(sparse.sensibility(def.id)),
                Bits(dense.sensibility(def.id)))
          << def.name;
      ASSERT_EQ(Bits(sparse.evidence(def.id)), Bits(dense.evidence(def.id)))
          << def.name;
    }
    for (const AttributeKind kind :
         {AttributeKind::kObjective, AttributeKind::kSubjective,
          AttributeKind::kEmotional}) {
      for (const double threshold : {-1.0, 0.0, 0.3, 0.7}) {
        for (const size_t max_count : {size_t{3}, SIZE_MAX}) {
          const auto got = sparse.Dominant(kind, threshold, max_count);
          const auto want = dense.Dominant(kind, threshold, max_count);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id);
            EXPECT_EQ(Bits(got[i].sensibility), Bits(want[i].sensibility));
          }
        }
      }
    }
    const std::vector<double> emotional = sparse.EmotionalSensibilities();
    ASSERT_EQ(emotional.size(), eit::kNumEmotionalAttributes);
    for (size_t i = 0; i < emotional.size(); ++i) {
      const AttributeId id =
          catalog_.EmotionalId(eit::AllEmotionalAttributes()[i]);
      EXPECT_EQ(Bits(emotional[i]), Bits(dense.sensibility(id)));
    }
    for (const bool include_emotional : {false, true}) {
      const ml::SparseVector got = sparse.Features(space_, include_emotional);
      const auto want = dense.Features(space_, include_emotional);
      ASSERT_EQ(got.nnz(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.index(i), want[i].first);
        EXPECT_EQ(Bits(got.value(i)), Bits(want[i].second));
      }
    }
    std::ostringstream rows;
    CsvWriter writer(&rows);
    internal::WriteModelCsvRows(catalog_, sparse, &writer);
    EXPECT_EQ(rows.str(), dense.CsvRows());
  }

  AttributeCatalog catalog_;
  lifelog::FeatureSpace space_;
};

TEST_P(SparseModelDifferentialTest, RandomOpsMatchDenseReferenceBitwise) {
  std::mt19937_64 rng(GetParam());
  const ReinforcementConfig config{.learning_rate = 0.15,
                                   .decay_rate = 0.05,
                                   .floor = GetParam() % 2 == 0 ? 0.0 : 0.02};
  const ReinforcementUpdater updater(config);
  // Amounts outside [0,1] exercise the clamps; exact defaults and -0.0
  // make slots that are touched yet read like untouched ones.
  const auto amount = [&rng]() {
    switch (rng() % 6) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return 1.0;
      default:
        return std::uniform_real_distribution<double>(-0.5, 1.5)(rng);
    }
  };
  for (int user = 0; user < 20; ++user) {
    SmartUserModel sparse(user, &catalog_);
    DenseModel dense(user, &catalog_, config);
    ExpectSame(sparse, dense);
    const int ops = static_cast<int>(rng() % 60);
    for (int op = 0; op < ops; ++op) {
      // Mostly emotional attributes (the ones reinforcement drives),
      // sometimes any attribute of the catalog.
      const auto& emotional = catalog_.ids_of(AttributeKind::kEmotional);
      const AttributeId id =
          rng() % 3 == 0 ? static_cast<AttributeId>(rng() % catalog_.size())
                         : emotional[rng() % emotional.size()];
      switch (rng() % 7) {
        case 0: {
          const double v = rng() % 4 == 0
                               ? catalog_.defs()[static_cast<size_t>(id)]
                                     .default_value
                               : amount();
          sparse.set_value(id, v);
          dense.set_value(id, v);
          break;
        }
        case 1: {
          const double w = amount();
          sparse.set_sensibility(id, w);
          dense.set_sensibility(id, w);
          break;
        }
        case 2: {
          const double e = amount();
          sparse.add_evidence(id, e);
          dense.add_evidence(id, e);
          break;
        }
        case 3: {
          const double m = std::abs(amount());
          updater.Reward(&sparse, id, m);
          dense.Reward(id, m);
          break;
        }
        case 4: {
          const double m = std::abs(amount());
          updater.Punish(&sparse, id, m);
          dense.Punish(id, m);
          break;
        }
        case 5: {
          const auto kind = static_cast<AttributeKind>(rng() % 3);
          updater.Decay(&sparse, kind);
          dense.Decay(kind);
          break;
        }
        default:
          sparse.set_value(id, sparse.sensibility(id));
          dense.set_value(id, dense.sensibility(id));
          break;
      }
      if (op % 10 == 0) ExpectSame(sparse, dense);
    }
    ExpectSame(sparse, dense);
    // A copy is a value: mutating it leaves the original alone.
    SmartUserModel copy = sparse;
    copy.set_sensibility(catalog_.ids_of(AttributeKind::kEmotional).front(),
                         0.123);
    ExpectSame(sparse, dense);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseModelDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace spa::sum

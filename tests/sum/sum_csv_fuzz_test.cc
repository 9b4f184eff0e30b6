// Robustness of SumStore::FromCsv, the SUM's untrusted input: random
// bytes and mutated valid documents — out-of-catalog attributes, NaN
// and infinities, huge and negative ids, truncated rows — must come
// back as a Status, never a crash (the suite runs under ASan/UBSan in
// CI), and any document the loader accepts must round-trip: its
// re-serialization loads back to the same bytes, through a SumStore and
// through a SumService.

#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sum/sum_service.h"
#include "sum/sum_store.h"

namespace spa::sum {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->UniformInt(0, 255)));
  }
  return out;
}

/// A field drawn from the values a hostile or damaged file may hold.
std::string NumberField(Rng* rng) {
  static const char* const kOdd[] = {
      "nan",   "-nan", "inf",  "-inf", "infinity", "1e308", "-1e308",
      "1e999", "-0",   "0x1p3", "",    " 1",       "1 ",    "4.9e-324",
      "0.5",   "1",    "2",    "-3"};
  if (rng->Bernoulli(0.3)) {
    return kOdd[rng->UniformInt(0, std::size(kOdd) - 1)];
  }
  return std::to_string(rng->Uniform(-0.5, 1.5));
}

std::string UserField(Rng* rng) {
  static const char* const kOdd[] = {
      "-1", "0", "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", "99999999999999999999", "1.5", "+7", "0x10"};
  if (rng->Bernoulli(0.3)) {
    return kOdd[rng->UniformInt(0, std::size(kOdd) - 1)];
  }
  return std::to_string(rng->UniformInt(-1000, 1000));
}

std::string AttributeField(Rng* rng, const AttributeCatalog& catalog) {
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return "";  // presence row
    case 1:
      return "no_such_attribute";
    case 2:
      return "\"quoted,name\"";
    default:
      return catalog.defs()[static_cast<size_t>(rng->UniformInt(
                                0, static_cast<int64_t>(catalog.size()) - 1))]
          .name;
  }
}

/// A document in the SumStore schema with hostile field values.
std::string HostileDocument(Rng* rng, const AttributeCatalog& catalog) {
  std::string doc = "user,attribute,value,sensibility,evidence\n";
  const int rows = static_cast<int>(rng->UniformInt(0, 12));
  for (int i = 0; i < rows; ++i) {
    std::string row = UserField(rng) + "," + AttributeField(rng, catalog) +
                      "," + NumberField(rng) + "," + NumberField(rng) +
                      "," + NumberField(rng);
    if (rng->Bernoulli(0.1)) row.resize(row.size() / 2);  // truncated
    if (rng->Bernoulli(0.05)) row += ",extra";
    doc += row + "\n";
  }
  return doc;
}

/// The serialization of a genuine random store.
std::string ValidDocument(Rng* rng, const AttributeCatalog& catalog) {
  SumStore store(&catalog);
  const int users = static_cast<int>(rng->UniformInt(0, 6));
  for (int u = 0; u < users; ++u) {
    SmartUserModel* model = store.GetOrCreate(rng->UniformInt(-50, 50));
    const int touched = static_cast<int>(rng->UniformInt(0, 5));
    for (int t = 0; t < touched; ++t) {
      const AttributeId id = static_cast<AttributeId>(rng->UniformInt(
          0, static_cast<int64_t>(catalog.size()) - 1));
      model->set_value(id, rng->Uniform());
      model->set_sensibility(id, rng->Uniform());
      model->add_evidence(id, rng->Uniform(0.0, 5.0));
    }
  }
  return store.ToCsv();
}

void Mutate(Rng* rng, std::string* doc) {
  const int mutations = static_cast<int>(rng->UniformInt(1, 6));
  for (int m = 0; m < mutations && !doc->empty(); ++m) {
    const size_t pos = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(doc->size()) - 1));
    switch (rng->UniformInt(0, 3)) {
      case 0:
        (*doc)[pos] = static_cast<char>(rng->UniformInt(0, 255));
        break;
      case 1:
        doc->erase(pos, 1);
        break;
      case 2:
        doc->insert(pos, 1, ",\n\"0"[rng->UniformInt(0, 3)]);
        break;
      default:
        doc->resize(pos);  // truncated document
        break;
    }
  }
}

class SumCsvFuzzSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  SumCsvFuzzSweep() : catalog_(AttributeCatalog::EmagisterDefault()) {}

  /// Loads `doc`; when accepted, its serialization must load back to
  /// the same bytes through a store and through a service.
  void LoadAndRoundTrip(const std::string& doc) {
    const auto store = SumStore::FromCsv(doc, &catalog_);
    if (!store.ok()) {
      EXPECT_FALSE(store.status().message().empty());
      return;
    }
    ++accepted_;
    const std::string csv = store->ToCsv();
    const auto again = SumStore::FromCsv(csv, &catalog_);
    ASSERT_TRUE(again.ok()) << again.status() << "\n" << csv;
    EXPECT_EQ(again->ToCsv(), csv);
    SumService service(&catalog_);
    service.Reset(store.value());
    EXPECT_EQ(service.ToCsv(), csv);
    EXPECT_EQ(service.size(), store->size());
  }

  AttributeCatalog catalog_;
  size_t accepted_ = 0;
};

TEST_P(SumCsvFuzzSweep, RandomBytesReturnAStatus) {
  Rng rng(GetParam(), 1);
  for (int i = 0; i < 1000; ++i) {
    std::string doc = RandomBytes(&rng, 200);
    if (rng.Bernoulli(0.5)) {
      doc = "user,attribute,value,sensibility,evidence\n" + doc;
    }
    LoadAndRoundTrip(doc);
  }
}

TEST_P(SumCsvFuzzSweep, HostileFieldsReturnAStatusOrRoundTrip) {
  Rng rng(GetParam(), 2);
  for (int i = 0; i < 1000; ++i) {
    LoadAndRoundTrip(HostileDocument(&rng, catalog_));
  }
  // The generator must reach the accepting path too, or the round-trip
  // half of the property goes untested.
  EXPECT_GT(accepted_, 0u);
}

TEST_P(SumCsvFuzzSweep, MutatedValidDocumentsReturnAStatusOrRoundTrip) {
  Rng rng(GetParam(), 3);
  for (int i = 0; i < 1000; ++i) {
    std::string doc = ValidDocument(&rng, catalog_);
    Mutate(&rng, &doc);
    LoadAndRoundTrip(doc);
  }
  EXPECT_GT(accepted_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SumCsvFuzzSweep,
                         ::testing::Values(11, 12, 13));

}  // namespace
}  // namespace spa::sum

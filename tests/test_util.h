// Shared fixtures for xupd tests: the paper's running examples.
#ifndef XUPD_TESTS_TEST_UTIL_H_
#define XUPD_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/store.h"
#include "xml/document.h"
#include "xml/dtd.h"
#include "xml/parser.h"

namespace xupd::testing {

/// The bio-labs document of Figure 1 of the paper.
extern const char kBioXml[];

/// The customer DTD of Figure 4 of the paper (extended with the Status and
/// comment elements used by Example 8, and Name made repeatable-free).
extern const char kCustomerDtd[];

/// A small customer document conforming to kCustomerDtd.
extern const char kCustomerXml[];

/// Parses kBioXml with the ref-attribute declarations used in the paper
/// (managers, source, biologist, lab are IDREF/IDREFS attributes).
std::unique_ptr<xml::Document> ParseBioDocument();

/// Parses arbitrary XML and aborts the test on failure.
std::unique_ptr<xml::Document> MustParse(const std::string& text);

/// Parses a DTD or aborts.
xml::Dtd MustParseDtd(const std::string& text);

/// The 7 strategy pairs RelationalStore::Create accepts: each non-ASR delete
/// with each non-ASR insert, and (kAsr, kAsr).
std::vector<std::pair<engine::DeleteStrategy, engine::InsertStrategy>>
ValidStrategyPairs();

/// The partner of the strategy a test varies: the other kAsr strategy for
/// kAsr (a store keeps an ASR only when both are kAsr), else `other`.
engine::InsertStrategy PairedInsert(
    engine::DeleteStrategy del,
    engine::InsertStrategy other = engine::InsertStrategy::kTable);
engine::DeleteStrategy PairedDelete(
    engine::InsertStrategy ins,
    engine::DeleteStrategy other = engine::DeleteStrategy::kPerTupleTrigger);

}  // namespace xupd::testing

#endif  // XUPD_TESTS_TEST_UTIL_H_

#include "test_util.h"

#include <cstdlib>
#include <iostream>

namespace xupd::testing {

const char kBioXml[] = R"(<db lab="lalab">
  <university ID="ucla">
    <lab ID="lalab" managers="smith1 jones1">
      <name>UCLA Bio Lab</name>
      <city>Los Angeles</city>
    </lab>
  </university>
  <lab ID="baselab" managers="smith1">
    <name>Seattle Bio Lab</name>
    <location>
      <city>Seattle</city>
      <country>USA</country>
    </location>
  </lab>
  <lab ID="lab2">
    <name>PMBL</name>
    <city>Philadelphia</city>
    <country>USA</country>
  </lab>
  <paper ID="Smith991231" source="lab2" category="spectral" biologist="smith1">
    <title>Autocatalysis of Spectral...</title>
  </paper>
  <biologist ID="smith1">
    <lastname>Smith</lastname>
  </biologist>
  <biologist ID="jones1" age="32">
    <lastname>Jones</lastname>
  </biologist>
</db>)";

const char kCustomerDtd[] = R"(
<!ELEMENT CustDB (Customer*)>
<!ELEMENT Customer (Name, Address, Order*)>
<!ELEMENT Address (City, State)>
<!ELEMENT Order (Date, Status?, OrderLine*)>
<!ELEMENT OrderLine (ItemName, Qty, comment?)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT City (#PCDATA)>
<!ELEMENT State (#PCDATA)>
<!ELEMENT Date (#PCDATA)>
<!ELEMENT Status (#PCDATA)>
<!ELEMENT ItemName (#PCDATA)>
<!ELEMENT Qty (#PCDATA)>
<!ELEMENT comment (#PCDATA)>
)";

const char kCustomerXml[] = R"(<CustDB>
  <Customer>
    <Name>John</Name>
    <Address><City>Seattle</City><State>WA</State></Address>
    <Order>
      <Date>2000-05-01</Date>
      <Status>ready</Status>
      <OrderLine><ItemName>tire</ItemName><Qty>4</Qty></OrderLine>
      <OrderLine><ItemName>wrench</ItemName><Qty>1</Qty></OrderLine>
    </Order>
    <Order>
      <Date>2000-06-12</Date>
      <Status>shipped</Status>
      <OrderLine><ItemName>tire</ItemName><Qty>2</Qty></OrderLine>
    </Order>
  </Customer>
  <Customer>
    <Name>Mary</Name>
    <Address><City>Fresno</City><State>CA</State></Address>
    <Order>
      <Date>2000-07-04</Date>
      <Status>ready</Status>
      <OrderLine><ItemName>hammer</ItemName><Qty>1</Qty></OrderLine>
    </Order>
  </Customer>
  <Customer>
    <Name>John</Name>
    <Address><City>Portland</City><State>OR</State></Address>
  </Customer>
</CustDB>)";

std::unique_ptr<xml::Document> ParseBioDocument() {
  xml::ParseOptions options;
  options.ref_attributes = {"managers", "source", "biologist", "lab",
                            "worksAt"};
  auto parsed = xml::ParseXml(kBioXml, options);
  if (!parsed.ok()) {
    std::cerr << "ParseBioDocument failed: " << parsed.status() << "\n";
    std::abort();
  }
  return std::move(parsed.value().document);
}

std::unique_ptr<xml::Document> MustParse(const std::string& text) {
  auto parsed = xml::ParseXml(text);
  if (!parsed.ok()) {
    std::cerr << "MustParse failed: " << parsed.status() << "\n";
    std::abort();
  }
  return std::move(parsed.value().document);
}

xml::Dtd MustParseDtd(const std::string& text) {
  auto dtd = xml::Dtd::Parse(text);
  if (!dtd.ok()) {
    std::cerr << "MustParseDtd failed: " << dtd.status() << "\n";
    std::abort();
  }
  return std::move(dtd).value();
}

std::vector<std::pair<engine::DeleteStrategy, engine::InsertStrategy>>
ValidStrategyPairs() {
  using engine::DeleteStrategy;
  using engine::InsertStrategy;
  std::vector<std::pair<DeleteStrategy, InsertStrategy>> pairs;
  for (DeleteStrategy del :
       {DeleteStrategy::kPerTupleTrigger, DeleteStrategy::kPerStatementTrigger,
        DeleteStrategy::kCascade}) {
    for (InsertStrategy ins : {InsertStrategy::kTuple, InsertStrategy::kTable}) {
      pairs.emplace_back(del, ins);
    }
  }
  pairs.emplace_back(DeleteStrategy::kAsr, InsertStrategy::kAsr);
  return pairs;
}

engine::InsertStrategy PairedInsert(engine::DeleteStrategy del,
                                    engine::InsertStrategy other) {
  return del == engine::DeleteStrategy::kAsr ? engine::InsertStrategy::kAsr
                                             : other;
}

engine::DeleteStrategy PairedDelete(engine::InsertStrategy ins,
                                    engine::DeleteStrategy other) {
  return ins == engine::InsertStrategy::kAsr ? engine::DeleteStrategy::kAsr
                                             : other;
}

}  // namespace xupd::testing

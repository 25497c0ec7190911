// Relational-store walkthrough over the §5.1 customer database: shred a
// document into the Shared Inlining schema, run the paper's Examples 8-10
// through the XQuery-to-SQL translator under different strategies, and show
// the statement counts each strategy pays (§6).
#include <cstdio>
#include <string>

#include "engine/store.h"
#include "xml/parser.h"
#include "xml/serializer.h"

using namespace xupd;

static const char kCustomerDtd[] = R"(
<!ELEMENT CustDB (Customer*)>
<!ELEMENT Customer (Name, Address, Order*)>
<!ELEMENT Address (City, State)>
<!ELEMENT Order (Date, Status?, OrderLine*)>
<!ELEMENT OrderLine (ItemName, Qty, comment?)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT City (#PCDATA)> <!ELEMENT State (#PCDATA)>
<!ELEMENT Date (#PCDATA)> <!ELEMENT Status (#PCDATA)>
<!ELEMENT ItemName (#PCDATA)> <!ELEMENT Qty (#PCDATA)>
<!ELEMENT comment (#PCDATA)>
)";

static const char kCustomerXml[] = R"(<CustDB>
  <Customer>
    <Name>John</Name>
    <Address><City>Seattle</City><State>WA</State></Address>
    <Order><Date>2000-05-01</Date><Status>ready</Status>
      <OrderLine><ItemName>tire</ItemName><Qty>4</Qty></OrderLine>
      <OrderLine><ItemName>wrench</ItemName><Qty>1</Qty></OrderLine>
    </Order>
    <Order><Date>2000-06-12</Date><Status>shipped</Status>
      <OrderLine><ItemName>tire</ItemName><Qty>2</Qty></OrderLine>
    </Order>
  </Customer>
  <Customer>
    <Name>Mary</Name>
    <Address><City>Fresno</City><State>CA</State></Address>
    <Order><Date>2000-07-04</Date><Status>ready</Status>
      <OrderLine><ItemName>hammer</ItemName><Qty>1</Qty></OrderLine>
    </Order>
  </Customer>
</CustDB>)";

namespace {

std::unique_ptr<engine::RelationalStore> FreshStore(
    engine::DeleteStrategy del) {
  auto dtd = xml::Dtd::Parse(kCustomerDtd);
  if (!dtd.ok()) std::exit(1);
  engine::RelationalStore::Options options;
  options.delete_strategy = del;
  // The ASR delete keeps an ASR, which only the ASR copy maintains.
  if (del == engine::DeleteStrategy::kAsr) {
    options.insert_strategy = engine::InsertStrategy::kAsr;
  }
  auto store = engine::RelationalStore::Create(dtd.value(), options);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  auto doc = xml::ParseXml(kCustomerXml);
  if (!doc.ok()) std::exit(1);
  Status s = store.value()->Load(*doc.value().document);
  if (!s.ok()) std::exit(1);
  return std::move(store).value();
}

}  // namespace

int main() {
  {
    auto store = FreshStore(engine::DeleteStrategy::kPerTupleTrigger);
    std::printf("=== Shared Inlining schema (Figure 4 DTD) ===\n");
    for (const auto& t : store->mapping().tables()) {
      std::printf("  table %-10s <- element <%s>%s\n", t.table.c_str(),
                  t.element.c_str(),
                  t.parent_element.empty()
                      ? " (root)"
                      : (" (child of " + t.parent_element + ")").c_str());
    }

    std::printf("\n=== Example 8: suspend ready orders containing tires ===\n");
    Status s = store->ExecuteXQueryUpdate(R"(
        FOR $o IN document("custdb.xml")//Order[Status="ready" and
                                                OrderLine/ItemName="tire"]
        UPDATE $o {
          INSERT <Status>suspended</Status>,
          FOR $i IN $o/OrderLine[ItemName="tire"]
          UPDATE $i { INSERT <comment>recalled</comment> }
        })");
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    auto orders = store->db()->ExecuteQuery(
        "SELECT id, Status FROM Order ORDER BY id");
    std::printf("%s", orders.value().ToString().c_str());
  }

  std::printf("\n=== Example 9: delete customers named John, per strategy ===\n");
  for (auto del :
       {engine::DeleteStrategy::kPerTupleTrigger,
        engine::DeleteStrategy::kPerStatementTrigger,
        engine::DeleteStrategy::kCascade, engine::DeleteStrategy::kAsr}) {
    auto store = FreshStore(del);
    rdb::Stats before = store->stats();
    Status s = store->ExecuteXQueryUpdate(R"(
        FOR $d IN document("custdb.xml"),
            $c IN $d/Customer[Name="John"]
        UPDATE $d { DELETE $c })");
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      continue;
    }
    rdb::Stats delta = store->stats().Delta(before);
    std::printf("  %-10s: %s\n", engine::ToString(del),
                delta.ToString().c_str());
  }

  std::printf("\n=== Example 10: copy Californian customers (copy semantics) ===\n");
  {
    auto store = FreshStore(engine::DeleteStrategy::kPerTupleTrigger);
    Status s = store->ExecuteXQueryUpdate(R"(
        FOR $d IN document("custDB.xml"),
            $source IN $d/Customer[Address/State="CA"]
        UPDATE $d { INSERT $source })");
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    auto rebuilt = store->Reconstruct();
    if (rebuilt.ok()) {
      std::printf("%s\n", xml::Serialize(*rebuilt.value()).c_str());
    }
  }
  return 0;
}

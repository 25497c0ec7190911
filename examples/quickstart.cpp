// Quickstart: parse the paper's bio-lab document (Figure 1), run two update
// statements from §4 against the native tree, and print the results — then a
// short tour of the relational engine's observability surfaces (EXPLAIN
// ANALYZE and the metrics snapshot).
//
//   $ ./quickstart
#include <cstdio>
#include <string>

#include "rdb/database.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/executor.h"

static const char kBioXml[] = R"(<db lab="lalab">
  <university ID="ucla">
    <lab ID="lalab" managers="smith1 jones1">
      <name>UCLA Bio Lab</name><city>Los Angeles</city>
    </lab>
  </university>
  <lab ID="baselab" managers="smith1">
    <name>Seattle Bio Lab</name>
    <location><city>Seattle</city><country>USA</country></location>
  </lab>
  <lab ID="lab2">
    <name>PMBL</name><city>Philadelphia</city><country>USA</country>
  </lab>
  <paper ID="Smith991231" source="lab2" category="spectral" biologist="smith1">
    <title>Autocatalysis of Spectral...</title>
  </paper>
  <biologist ID="smith1"><lastname>Smith</lastname></biologist>
  <biologist ID="jones1" age="32"><lastname>Jones</lastname></biologist>
</db>)";

int main() {
  using namespace xupd;

  // 1. Parse. The bio document uses IDREF attributes without a DTD, so we
  //    declare them explicitly (managers/source/biologist/lab).
  xml::ParseOptions options;
  options.ref_attributes = {"managers", "source", "biologist", "lab",
                            "worksAt"};
  auto parsed = xml::ParseXml(kBioXml, options);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto doc = std::move(parsed.value().document);

  // 2. Example 1 of the paper: delete an attribute, an IDREF, and a
  //    subelement of the paper element.
  xquery::NativeExecutor exec(doc.get());
  Status s = exec.ExecuteString(R"(
      FOR $p IN document("bio.xml")/paper,
          $cat IN $p/@category,
          $bio IN $p/ref(biologist,"smith1"),
          $ti IN $p/title
      UPDATE $p {
        DELETE $cat,
        DELETE $bio,
        DELETE $ti
      })");
  if (!s.ok()) {
    std::fprintf(stderr, "update error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("After Example 1 (paper element stripped):\n%s\n",
              xml::Serialize(*doc->FindById("Smith991231")).c_str());

  // 3. Example 2: insert an attribute, two references and a subelement into
  //    biologist smith1.
  s = exec.ExecuteString(R"(
      FOR $bio IN document("bio.xml")/db/biologist[@ID="smith1"]
      UPDATE $bio {
        INSERT new_attribute(age,"29"),
        INSERT new_ref(worksAt,"ucla"),
        INSERT new_ref(worksAt,"baselab"),
        INSERT <firstname>Jeff</firstname>
      })");
  if (!s.ok()) {
    std::fprintf(stderr, "update error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("After Example 2 (biologist smith1 extended):\n%s\n",
              xml::Serialize(*doc->FindById("smith1")).c_str());

  // 4. Observability tour: the relational engine under the XML store keeps
  //    always-on latency histograms and can annotate any plan with actual
  //    per-operator rows and times.
  rdb::Database db;
  (void)db.ExecuteQuery("CREATE TABLE paper (id INT, parentId INT)");
  (void)db.ExecuteQuery("CREATE TABLE title (id INT, parentId INT)");
  (void)db.ExecuteQuery("CREATE INDEX title_parent ON title (parentId)");
  for (int i = 0; i < 8; ++i) {
    (void)db.ExecuteQuery("INSERT INTO paper VALUES (" + std::to_string(i) +
                          ", 0)");
    (void)db.ExecuteQuery("INSERT INTO title VALUES (" +
                          std::to_string(100 + i) + ", " + std::to_string(i) +
                          ")");
  }
  auto analyzed = db.ExecuteQuery(
      "EXPLAIN ANALYZE SELECT title.id FROM paper, title "
      "WHERE title.parentId = paper.id");
  if (!analyzed.ok()) {
    std::fprintf(stderr, "explain analyze error: %s\n",
                 analyzed.status().ToString().c_str());
    return 1;
  }
  std::printf("EXPLAIN ANALYZE of a parent/child join:\n");
  for (const rdb::Row& row : analyzed->rows) {
    std::printf("  %s\n", row[0].ToString().c_str());
  }
  std::printf("\nMetrics snapshot (statement histograms and counters):\n%s",
              db.metrics().ExportText().c_str());
  return 0;
}

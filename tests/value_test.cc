// Compact-Value representation tests (rdb/value.h): the 16-byte tagged
// layout, SSO boundary lengths, equality/hashing of shared and separate
// blocks, the mixed int/string coercion corners of Compare/Hash/operator==,
// and a HashIndex stress test that interleaves Insert/Erase/Lookup against
// a shadow map of each row id's key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "rdb/table.h"
#include "rdb/value.h"

namespace xupd::rdb {
namespace {

// ---------------------------------------------------------------------------
// Layout

TEST(ValueLayoutTest, ValueIs16Bytes) {
  EXPECT_LE(sizeof(Value), 16u);
}

TEST(ValueLayoutTest, SsoBoundaryLengths) {
  // 13 and 14 chars are inline (no heap block); 15 chars spill to the heap.
  for (size_t len : {size_t{0}, size_t{1}, size_t{13}, size_t{14}}) {
    Value v = Value::Str(std::string(len, 'x'));
    EXPECT_EQ(v.rep(), nullptr) << "len " << len << " should be inline";
    EXPECT_EQ(v.AsString().size(), len);
  }
  for (size_t len : {size_t{15}, size_t{16}, size_t{100}}) {
    Value v = Value::Str(std::string(len, 'x'));
    EXPECT_NE(v.rep(), nullptr) << "len " << len << " should be heap";
    EXPECT_EQ(v.AsString().size(), len);
    EXPECT_EQ(v.AsString(), std::string(len, 'x'));
  }
}

TEST(ValueLayoutTest, CopyAndMoveShareHeapBlocks) {
  Value a = Value::Str("this string is long enough to heap-allocate");
  ASSERT_NE(a.rep(), nullptr);
  Value b = a;  // copy: same block, bumped refcount
  EXPECT_EQ(a.rep(), b.rep());
  EXPECT_EQ(a.AsString(), b.AsString());
  Value c = std::move(a);  // move: steal, source becomes NULL
  EXPECT_EQ(c.rep(), b.rep());
  EXPECT_TRUE(a.is_null());  // NOLINT(bugprone-use-after-move): spec'd
  b = Value::Int(1);         // drop one reference
  EXPECT_EQ(c.AsString(), "this string is long enough to heap-allocate");
}

// ---------------------------------------------------------------------------
// Compare / Hash coercion corners

TEST(ValueCompareTest, MixedIntStringCoercion) {
  // A numeric-parsing string compares as its integer against an int...
  EXPECT_EQ(Value::Str("42").Compare(Value::Int(42)), 0);
  EXPECT_EQ(Value::Int(42).Compare(Value::Str("42")), 0);
  EXPECT_LT(Value::Str("41").Compare(Value::Int(42)), 0);
  EXPECT_GT(Value::Int(43).Compare(Value::Str("42")), 0);
  EXPECT_EQ(Value::Str("-7").Compare(Value::Int(-7)), 0);
  // ...a non-numeric string falls back to textual comparison.
  EXPECT_GT(Value::Str("abc").Compare(Value::Int(42)), 0);  // "abc" > "42"
  EXPECT_LT(Value::Int(42).Compare(Value::Str("abc")), 0);
  // Same-type comparisons are untouched by coercion: "042" != "42" as text.
  EXPECT_NE(Value::Str("042").Compare(Value::Str("42")), 0);
  // NULL sorts first and only equals NULL.
  EXPECT_LT(Value::Null().Compare(Value::Int(-999)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueCompareTest, EqualityAndHashAgreeOnCoercedPairs) {
  // "42" (string) and 42 (int) are one index key: equal AND same hash.
  EXPECT_TRUE(Value::Str("42") == Value::Int(42));
  EXPECT_EQ(Value::Str("42").Hash(), Value::Int(42).Hash());
  // SqlEquals matches too (NULL never does).
  EXPECT_TRUE(Value::Str("42").SqlEquals(Value::Int(42)));
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  // Long numeric-looking strings (> SSO) still coerce for hashing.
  EXPECT_EQ(Value::Str("123456789012345678").Hash(),
            Value::Int(123456789012345678LL).Hash());
  EXPECT_TRUE(Value::Str("123456789012345678") ==
              Value::Int(123456789012345678LL));
  // Textually different spellings of one integer hash together but stay
  // textually unequal as strings.
  EXPECT_EQ(Value::Str("042").Hash(), Value::Int(42).Hash());
  EXPECT_FALSE(Value::Str("042") == Value::Str("42"));
}

// A heap-backed Value holding `s` whatever its length: the raw words of a
// heap string with the block pointer swapped, materialized the way a
// snapshot reader copies a slab cell.
Value HeapValue(std::string_view s) {
  Value model = Value::Str(std::string(Value::kSsoMax + 1, 'x'));
  uint64_t w[2];
  Value::RacyLoadWords(&model, w);
  StrRep* rep = StrRep::New(s);
  std::memcpy(&w[0], &rep, sizeof(rep));
  Value out = Value::FromSnapshotWords(w);  // takes a second reference
  StrRep::Unref(rep);
  return out;
}

TEST(ValueCompareTest, SsoVsHeapEquality) {
  // The same logical string in inline and heap form must be equal and hash
  // identically (a 14-char SSO string vs the same bytes inside a heap
  // block can meet in one index).
  std::string s14(14, 'q');
  Value inline_v = Value::Str(s14);
  ASSERT_EQ(inline_v.rep(), nullptr);
  Value heap14 = HeapValue(s14);
  ASSERT_NE(heap14.rep(), nullptr);
  EXPECT_EQ(heap14.AsString(), s14);
  EXPECT_TRUE(inline_v == heap14);
  EXPECT_TRUE(heap14 == inline_v);
  EXPECT_EQ(inline_v.Compare(heap14), 0);
  EXPECT_EQ(inline_v.Hash(), heap14.Hash());
  // A 15-char string spills to the heap; two separate builds of it compare
  // and hash equal, and differ from the 14-char inline prefix.
  std::string s15(15, 'q');
  Value heap_v = Value::Str(s15);
  ASSERT_NE(heap_v.rep(), nullptr);
  EXPECT_TRUE(heap_v == Value::Str(s15));
  EXPECT_EQ(heap_v.Hash(), Value::Str(s15).Hash());
  EXPECT_FALSE(heap_v == inline_v);
}

TEST(ValueCompareTest, SeparateEqualBlocksCompareAndHashEqual) {
  std::string s = "a heap string well beyond the SSO limit";
  Value a = Value::Str(s);
  Value b = Value::Str(s);
  ASSERT_NE(a.rep(), nullptr);
  ASSERT_NE(b.rep(), nullptr);
  EXPECT_NE(a.rep(), b.rep());
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a.SqlEquals(b));
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_EQ(a.Hash(), b.Hash());
  // A copy shares the block and stays equal to the separate build.
  Value copy = a;
  EXPECT_EQ(copy.rep(), a.rep());
  EXPECT_TRUE(copy == b);
  EXPECT_EQ(copy.Hash(), b.Hash());
}

// ---------------------------------------------------------------------------
// HashIndex stress: random Insert/Erase/Lookup interleave vs a shadow map.

TEST(HashIndexStressTest, MatchesShadowMap) {
  HashIndex index("stress", 0);
  // Shadow: rowid -> its key (by ToString of the canonical form). A row
  // holds one key: inserting it under another key moves it, and erasing it
  // under a key it does not hold is a no-op.
  std::map<size_t, std::string> shadow;
  auto key_of = [](const Value& v) {
    // Canonicalize coercible strings onto their integer key, mirroring
    // Value::operator==/Hash (e.g. "7" and 7 are one index key).
    return v.ToString();
  };
  std::vector<Value> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(Value::Int(i % 25));
  for (int i = 0; i < 25; ++i) pool.push_back(Value::Str(std::to_string(i)));
  for (int i = 0; i < 20; ++i) {
    pool.push_back(Value::Str("short" + std::to_string(i % 10)));
    pool.push_back(Value::Str(
        "a deliberately long intername string #" + std::to_string(i % 10)));
  }

  Rng rng(2026);
  for (int step = 0; step < 20000; ++step) {
    const Value& v = pool[rng.Uniform(pool.size())];
    size_t rowid = rng.Uniform(64);
    uint64_t action = rng.Uniform(10);
    if (action < 5) {
      index.Insert(v, rowid);
      shadow[rowid] = key_of(v);
    } else if (action < 8) {
      index.Erase(v, rowid);
      auto it = shadow.find(rowid);
      if (it != shadow.end() && it->second == key_of(v)) shadow.erase(it);
    } else {
      std::vector<size_t> got;
      index.Lookup(v, &got);
      std::sort(got.begin(), got.end());
      std::vector<size_t> want;
      for (const auto& [row, key] : shadow) {
        if (key == key_of(v)) want.push_back(row);
      }
      ASSERT_EQ(got, want) << "step " << step << " key " << v.ToString();
    }
    ASSERT_EQ(index.size(), shadow.size()) << "step " << step;
  }
  // Drain: erase everything through the index and verify emptiness.
  for (const auto& [rowid, key] : shadow) {
    // Re-derive a Value for the key: all keys here render as their
    // canonical text, so Str(key) == the original key under SQL identity.
    index.Erase(Value::Str(key), rowid);
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(HashIndexStressTest, InsertUnderAnotherKeyMovesTheRow) {
  HashIndex index("move", 0);
  for (size_t r = 0; r < 4; ++r) index.Insert(Value::Int(1), r);
  // Row 3 heads key 1's chain (the newest entry), row 1 sits inside it.
  index.Insert(Value::Int(2), 3);
  index.Insert(Value::Str("2"), 1);  // "2" and 2 are one key
  EXPECT_EQ(index.size(), 4u);
  std::vector<size_t> got;
  index.Lookup(Value::Int(1), &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<size_t>{0, 2}));
  got.clear();
  index.Lookup(Value::Int(2), &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<size_t>{1, 3}));
}

TEST(HashIndexStressTest, EraseOfAKeyTheRowDoesNotHoldIsANoOp) {
  HashIndex index("erase", 0);
  index.Insert(Value::Int(1), 5);
  index.Erase(Value::Int(2), 5);  // row 5 holds key 1, not 2
  index.Erase(Value::Int(1), 4);  // row 4 has no entry
  index.Erase(Value::Int(1), 1000);  // beyond every row id inserted
  EXPECT_EQ(index.size(), 1u);
  std::vector<size_t> got;
  index.Lookup(Value::Int(1), &got);
  EXPECT_EQ(got, (std::vector<size_t>{5}));
  index.Erase(Value::Str("1"), 5);
  EXPECT_EQ(index.size(), 0u);
  got.clear();
  index.Lookup(Value::Int(1), &got);
  EXPECT_TRUE(got.empty());
}

TEST(HashIndexStressTest, KeyChurnKeepsTheKeyTableBounded) {
  // 64 rows whose keys are replaced 200,000 times by keys never seen
  // before: every replaced key leaves a tombstone in the key table, so the
  // table must rebuild in place rather than grow with the churn.
  constexpr size_t kRows = 64;
  HashIndex index("churn", 0);
  size_t max_cap = 0;
  for (int64_t i = 0; i < 200000; ++i) {
    const size_t rowid = static_cast<size_t>(i) % kRows;
    if (i >= static_cast<int64_t>(kRows)) {
      index.Erase(Value::Int(i - static_cast<int64_t>(kRows)), rowid);
    }
    index.Insert(Value::Int(i), rowid);
    max_cap = std::max(max_cap, index.key_capacity());
  }
  EXPECT_EQ(index.size(), kRows);
  EXPECT_LE(max_cap, 256u);
  for (int64_t i = 200000 - static_cast<int64_t>(kRows); i < 200000; ++i) {
    std::vector<size_t> got;
    index.Lookup(Value::Int(i), &got);
    EXPECT_EQ(got, (std::vector<size_t>{static_cast<size_t>(i) % kRows}));
  }
}

TEST(HashIndexStressTest, DuplicateInsertIsANoOp) {
  HashIndex index("dup", 0);
  index.Insert(Value::Int(7), 3);
  index.Insert(Value::Int(7), 3);
  index.Insert(Value::Str("7"), 3);  // same key under SQL identity
  EXPECT_EQ(index.size(), 1u);
  std::vector<size_t> got;
  index.Lookup(Value::Int(7), &got);
  EXPECT_EQ(got.size(), 1u);
}

TEST(HashIndexStressTest, LowCardinalityKeyEraseStaysExact) {
  // Thousands of rows under ONE key (the parentId shape the engine leans
  // on); erase from the middle, ends, and head, verifying membership.
  HashIndex index("parent", 0);
  Value key = Value::Int(1);
  for (size_t r = 0; r < 5000; ++r) index.Insert(key, r);
  EXPECT_EQ(index.size(), 5000u);
  for (size_t r = 0; r < 5000; r += 2) index.Erase(key, r);
  EXPECT_EQ(index.size(), 2500u);
  std::vector<size_t> got;
  index.Lookup(key, &got);
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), 2500u);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 2 * i + 1);
}

}  // namespace
}  // namespace xupd::rdb

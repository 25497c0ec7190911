// SQL values: NULL, INTEGER (int64), VARCHAR (string).
//
// Compact 16-byte tagged representation — every row of every table holds
// one Value per column, and the fig. 6-11 workloads stream millions of them
// through scans, probes, undo records and WAL serialization:
//
//   byte   0..13                    14     15
//   kNull  (unused)                        tag
//   kInt   int64 in bytes 0..7             tag
//   kSso   chars in bytes 0..13     len    tag   (strings <= 14 bytes, inline)
//   kHeap  StrRep* in bytes 0..7           tag   (longer strings, refcounted)
//
// Short strings (element/attribute names, path steps, small text) need no
// allocation at all. A longer string lives in one immutable refcounted heap
// block, and every copy of the Value shares that block: copying a row —
// a §6.2 subtree copy, an undo pre-image, a reader's snapshot copy — never
// copies string bytes. Two separately built equal strings get two blocks;
// equality and Hash compare content, so they still meet in one index key.
// Values are NOT thread-safe to mutate concurrently (nothing in this
// engine is); sharing immutable Values between reads is fine.
#ifndef XUPD_RDB_VALUE_H_
#define XUPD_RDB_VALUE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

namespace xupd::rdb {

enum class ValueType { kNull, kInt, kString };

/// Refcounted immutable heap block backing strings longer than the SSO
/// limit: header + character data in one allocation. The refcount is
/// atomic: epoch-snapshot reader sessions copy Values (Ref) concurrently
/// with the writer dropping its own references (Unref). Ref is relaxed —
/// a new reference is always cloned from an existing owned one; Unref is
/// acq_rel so the block's contents are fully visible to whichever thread
/// performs the final release and frees it.
struct StrRep {
  std::atomic<uint32_t> refs;
  uint32_t len;
  // Characters follow the header in the same allocation.
  char* data() { return reinterpret_cast<char*>(this + 1); }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }

  static StrRep* New(std::string_view s);
  static void Ref(StrRep* rep) {
    rep->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Unref(StrRep* rep) {
    if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ::operator delete(rep);
    }
  }
};

class Value {
 public:
  /// Longest string stored inline (bytes 0..13; byte 14 holds the length).
  static constexpr size_t kSsoMax = 14;

  Value() { raw_[kTagByte] = kTagNull; }
  ~Value() {
    if (tag() == kTagHeap) StrRep::Unref(heap_rep());
  }
  Value(const Value& other) {
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    if (tag() == kTagHeap) StrRep::Ref(heap_rep());
  }
  Value(Value&& other) noexcept {
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    other.raw_[kTagByte] = kTagNull;
  }
  Value& operator=(const Value& other) {
    if (this == &other) return *this;
    if (other.tag() == kTagHeap) StrRep::Ref(other.heap_rep());
    if (tag() == kTagHeap) StrRep::Unref(heap_rep());
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    if (tag() == kTagHeap) StrRep::Unref(heap_rep());
    std::memcpy(raw_, other.raw_, sizeof(raw_));
    other.raw_[kTagByte] = kTagNull;
    return *this;
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    std::memcpy(out.raw_, &v, sizeof(v));
    out.raw_[kTagByte] = kTagInt;
    return out;
  }
  static Value Str(std::string_view s) {
    Value out;
    if (s.size() <= kSsoMax) {
      std::memcpy(out.raw_, s.data(), s.size());
      out.raw_[kLenByte] = static_cast<char>(s.size());
      out.raw_[kTagByte] = kTagSso;
    } else {
      StrRep* rep = StrRep::New(s);
      std::memcpy(out.raw_, &rep, sizeof(rep));
      out.raw_[kTagByte] = kTagHeap;
    }
    return out;
  }

  ValueType type() const {
    switch (tag()) {
      case kTagNull:
        return ValueType::kNull;
      case kTagInt:
        return ValueType::kInt;
      default:
        return ValueType::kString;
    }
  }
  bool is_null() const { return tag() == kTagNull; }
  int64_t AsInt() const {
    int64_t v;
    std::memcpy(&v, raw_, sizeof(v));
    return v;
  }
  std::string_view AsString() const {
    if (tag() == kTagSso) {
      return {raw_, static_cast<size_t>(static_cast<unsigned char>(
                        raw_[kLenByte]))};
    }
    const StrRep* rep = heap_rep();
    return {rep->data(), rep->len};
  }
  /// The heap block backing a long string, or null for SSO/non-string
  /// values (copies of one Value return the same block).
  StrRep* rep() const {
    return tag() == kTagHeap ? heap_rep() : nullptr;
  }

  /// Three-way comparison for ORDER BY and joins. NULL sorts first; NULL is
  /// only equal to NULL here (SQL expression evaluation handles UNKNOWN
  /// separately). Mixed int/string: the string is coerced to int when it
  /// parses, else values compare by their textual form.
  int Compare(const Value& other) const;

  /// SQL equality (used by indexes and IN-sets): NULL never matches.
  bool SqlEquals(const Value& other) const {
    if (is_null() || other.is_null()) return false;
    return Compare(other) == 0;
  }

  /// Identity (NULL == NULL), for container keys. Mixed int/string pairs
  /// are equal when the string coerces to the same integer (so "42" and 42
  /// land on one hash-index key, matching Hash()).
  bool operator==(const Value& other) const {
    char t = tag(), ot = other.tag();
    if (t == ot) {
      switch (t) {
        case kTagNull:
          return true;
        case kTagInt:
          return AsInt() == other.AsInt();
        case kTagHeap:
          if (heap_rep() == other.heap_rep()) return true;  // shared block
          [[fallthrough]];
        default:
          return AsString() == other.AsString();
      }
    }
    // kSso vs kHeap are both strings; mixed int/string compares by coercion.
    if (t != kTagNull && ot != kTagNull && t != kTagInt && ot != kTagInt) {
      return AsString() == other.AsString();
    }
    if (is_null() || other.is_null()) return false;
    return Compare(other) == 0;
  }

  size_t Hash() const;

  /// Rendering for result display ("NULL", 42, abc).
  std::string ToString() const;

  /// Rendering as a SQL literal (quoted string / bare int / NULL).
  std::string ToSqlLiteral() const;

  // ---- Concurrent-slab support (epoch-snapshot readers) ----
  // Table slab cells may be overwritten in place by the writer while a
  // pinned reader copies them under a per-row seqlock (see table.h). These
  // helpers split a copy into (1) untorn word loads, (2) seqlock
  // validation by the caller, (3) materialization with a refcount
  // acquire — step 3 must only run on validated words, since bumping the
  // refcount of a torn pointer would be undefined behavior.

  /// Loads the 16 raw bytes of `src` as two relaxed-atomic words. The
  /// result is only meaningful after the caller's seqlock validation.
  static void RacyLoadWords(const Value* src, uint64_t out[2]) {
    // atomic_ref<const T> arrives in C++26; the loads themselves never
    // mutate.
    auto* words = reinterpret_cast<uint64_t*>(const_cast<char*>(src->raw_));
    out[0] =
        std::atomic_ref<uint64_t>(words[0]).load(std::memory_order_relaxed);
    out[1] =
        std::atomic_ref<uint64_t>(words[1]).load(std::memory_order_relaxed);
  }

  /// Materializes an owning Value from seqlock-validated raw words,
  /// acquiring a new heap reference when the words name a heap string.
  /// The source row is guaranteed alive by the caller's epoch pin.
  static Value FromSnapshotWords(const uint64_t w[2]) {
    Value ghost;
    std::memcpy(ghost.raw_, w, sizeof(ghost.raw_));
    Value out = ghost;                  // copy ctor acquires the reference
    ghost.raw_[kTagByte] = kTagNull;    // the ghost never owned one
    return out;
  }

  /// Moves *this into `*dst` with word-atomic stores (so a racing reader's
  /// RacyLoadWords never tears) and releases dst's previous reference.
  /// Writer-thread only; readers are fenced off by the row seqlock.
  void RacyPublishTo(Value* dst) && {
    uint64_t w[2];
    std::memcpy(w, raw_, sizeof(raw_));
    Value old;
    std::memcpy(old.raw_, dst->raw_, sizeof(old.raw_));  // adopt dst's ref
    auto* words = reinterpret_cast<uint64_t*>(dst->raw_);
    std::atomic_ref<uint64_t>(words[0]).store(w[0], std::memory_order_relaxed);
    std::atomic_ref<uint64_t>(words[1]).store(w[1], std::memory_order_relaxed);
    raw_[kTagByte] = kTagNull;  // our reference now lives in *dst
    // `old` releases dst's previous reference on scope exit.
  }

 private:
  static constexpr int kTagByte = 15;
  static constexpr int kLenByte = 14;
  static constexpr char kTagNull = 0;
  static constexpr char kTagInt = 1;
  static constexpr char kTagSso = 2;
  static constexpr char kTagHeap = 3;

  char tag() const { return raw_[kTagByte]; }
  StrRep* heap_rep() const {
    StrRep* rep;
    std::memcpy(&rep, raw_, sizeof(rep));
    return rep;
  }

  alignas(8) char raw_[16];
};

static_assert(sizeof(Value) <= 16, "Value must stay 16 bytes (one row slot "
                                   "spans arity*16 cache-friendly bytes)");

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace xupd::rdb

#endif  // XUPD_RDB_VALUE_H_

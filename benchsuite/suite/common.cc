#include "suite/common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory_resource>
#include <unordered_map>

namespace xupd::suite {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<uint64_t> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         frac * (static_cast<double>(sorted[hi]) - static_cast<double>(sorted[lo]));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

/// The hash-probe kernel's memory: a scratch area for the hash map it
/// builds, and a prebuilt chained hash table it probes. Both live in one
/// buffer of their own, resident from the first sample on, so the process
/// heap, which the engine shapes, does not change the kernel's time (the
/// scattered-writes kernel keeps its own heap for the same reason).
/// Running out of the buffer throws instead of falling back to the heap.
struct KernelData {
  static constexpr size_t kScratchBytes = 1 << 20;  // the build needs ~0.4 MiB
  static constexpr size_t kTableBytes = 6 << 20;    // the table needs ~4 MiB
  static constexpr uint64_t kTableKeys = 128 * 1024;
  static constexpr uint64_t kKeyStride = 2654435761ULL;

  KernelData()
      : buffer(kScratchBytes + kTableBytes),
        table_pool(buffer.data() + kScratchBytes, kTableBytes,
                   std::pmr::null_memory_resource()),
        table(&table_pool) {
    table.reserve(kTableKeys);
    for (uint64_t i = 0; i < kTableKeys; ++i) table.emplace(i * kKeyStride, i);
  }

  std::vector<std::byte> buffer;
  std::pmr::monotonic_buffer_resource table_pool;
  std::pmr::unordered_map<uint64_t, uint64_t> table;
};

std::unique_ptr<KernelData>& HashProbeData() {
  static std::unique_ptr<KernelData> data;
  return data;
}

/// The scattered-writes kernel's memory: a free-list heap of its own with
/// kBlocksPerClass blocks in each of kClasses size classes (16 to 512
/// bytes), whose free lists start in random order, and kLive live blocks.
/// Its state carries over from sample to sample and stays stationary:
/// every round frees one live block and allocates one.
struct ScatterData {
  static constexpr int kClasses = 32;
  static constexpr size_t kBlocksPerClass = 4096;  // twice the expected live
  static constexpr size_t kLive = 64 * 1024;

  ScatterData()
      : heap(kBlocksPerClass * 16 * (kClasses * (kClasses + 1) / 2)),
        heads(kClasses, nullptr),
        live(kLive),
        live_class(kLive) {
    uint64_t x = 0x2545f4914f6cdd1dULL;
    std::byte* next = heap.data();
    std::vector<std::byte*> blocks(kBlocksPerClass);
    for (int c = 0; c < kClasses; ++c) {
      for (std::byte*& b : blocks) {
        b = next;
        next += BlockBytes(c);
      }
      for (size_t i = blocks.size() - 1; i > 0; --i) {
        std::swap(blocks[i], blocks[XorShift(&x) % (i + 1)]);
      }
      for (std::byte* b : blocks) Push(c, b);
    }
    for (size_t k = 0; k < kLive; ++k) {
      live_class[k] = static_cast<int>(XorShift(&x) % kClasses);
      live[k] = Pop(&live_class[k]);
    }
  }

  static size_t BlockBytes(int c) { return 16 * static_cast<size_t>(c + 1); }
  void Push(int c, std::byte* b) {
    std::memcpy(b, &heads[c], sizeof(std::byte*));
    heads[c] = b;
  }
  /// A free block of class *c, or of the next class that has one.
  std::byte* Pop(int* c) {
    while (heads[*c] == nullptr) *c = (*c + 1) % kClasses;
    std::byte* b = heads[*c];
    std::memcpy(&heads[*c], b, sizeof(std::byte*));
    return b;
  }

  std::vector<std::byte> heap;
  std::vector<std::byte*> heads;
  std::vector<std::byte*> live;
  std::vector<int> live_class;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
};

std::unique_ptr<ScatterData>& ScatterHeap() {
  static std::unique_ptr<ScatterData> data;
  return data;
}

uint64_t TimeScatteredWrites() {
  constexpr int kRounds = 36000;
  std::unique_ptr<ScatterData>& d = ScatterHeap();
  if (d == nullptr) d = std::make_unique<ScatterData>();
  const uint64_t t0 = NowNs();
  uint64_t x = d->rng;
  for (int i = 0; i < kRounds; ++i) {
    const size_t k = XorShift(&x) % ScatterData::kLive;
    d->Push(d->live_class[k], d->live[k]);
    int c = static_cast<int>((x >> 32) % ScatterData::kClasses);
    std::byte* b = d->Pop(&c);
    b[sizeof(std::byte*)] = static_cast<std::byte>(i);  // fill the block
    d->live[k] = b;
    d->live_class[k] = c;
  }
  d->rng = x;
  return NowNs() - t0;
}

uint64_t TimeHashProbe() {
  constexpr int kKeys = 3000;      // strings hashed into a new map
  constexpr int kLookups = 10000;  // probes into the prebuilt table
  std::unique_ptr<KernelData>& k = HashProbeData();
  if (k == nullptr) k = std::make_unique<KernelData>();
  const uint64_t t0 = NowNs();
  std::pmr::monotonic_buffer_resource pool(k->buffer.data(),
                                           KernelData::kScratchBytes,
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::pmr::string, uint64_t> map(&pool);
  std::pmr::vector<uint64_t> values(&pool);
  uint64_t x = 0x9e3779b97f4a7c15ULL;  // the same keys every time
  for (int i = 0; i < kKeys; ++i) {
    XorShift(&x);
    map[std::pmr::string(std::to_string(x % 100000), &pool)] += x;
    values.push_back(x);
  }
  std::sort(values.begin(), values.end());
  uint64_t sum = map.size() + values[kKeys / 2];
  for (int i = 0; i < kLookups; ++i) {
    const uint64_t key =
        XorShift(&x) % KernelData::kTableKeys * KernelData::kKeyStride;
    sum += k->table.find(key)->second;
  }
  // Keeps the work observable, so the compiler cannot drop it.
  volatile uint64_t sink = sum;
  (void)sink;
  return NowNs() - t0;
}

}  // namespace

void HostSpeed::Sample() {
  times_.Add(kernel_ == Kernel::kHashProbe ? TimeHashProbe()
                                           : TimeScatteredWrites());
}

double HostSpeed::Scale() const {
  const double median = MedianNs();
  return median > 0 ? kNominalNs / median : 1.0;
}

double HostSpeed::ArenaMb() {
  double bytes = 0;
  if (const auto& k = HashProbeData(); k != nullptr) bytes += k->buffer.size();
  if (const auto& d = ScatterHeap(); d != nullptr) {
    bytes += d->heap.size() + d->heads.size() * sizeof(std::byte*) +
             d->live.size() * sizeof(std::byte*) + d->live_class.size() * sizeof(int);
  }
  return bytes / (1024.0 * 1024.0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void ResetPeakRss() {
  malloc_trim(0);  // return freed heap first: the peak starts from live data
  std::ofstream("/proc/self/clear_refs") << "5";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonRow::Key(const std::string& key) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
}

JsonRow& JsonRow::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += '"' + JsonEscape(value) + '"';
  return *this;
}

JsonRow& JsonRow::Num(const std::string& key, double value) {
  Key(key);
  body_ += FormatNumber(value);
  return *this;
}

JsonRow& JsonRow::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonRow& JsonRow::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonRow& JsonRow::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

void Checks::Expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Checks::ExpectOk(const Status& s, const std::string& what) {
  if (!s.ok()) failures_.push_back(what + ": " + s.ToString());
}

void Checks::ExpectClean(const std::vector<std::string>& violations,
                         const std::string& what) {
  if (violations.empty()) return;
  std::string msg = what + ": " + std::to_string(violations.size()) +
                    " violation(s), first: " + violations.front();
  failures_.push_back(msg);
}

void Checks::Merge(const Checks& other) {
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

Result<BuiltStore> BuildStore(const xml::Dtd& dtd, const xml::Document& doc,
                              const engine::RelationalStore::Options& options) {
  BuiltStore out;
  const uint64_t t0 = NowNs();
  auto store = engine::RelationalStore::Create(dtd, options);
  if (!store.ok()) return store.status();
  const uint64_t t1 = NowNs();
  Status loaded = store.value()->Load(doc);
  if (!loaded.ok()) return loaded;
  out.create_ns = t1 - t0;
  out.load_ns = NowNs() - t1;
  out.store = std::move(store).value();
  return out;
}

double SlotsPerLiveRow(engine::RelationalStore* store) {
  size_t slots = 0;
  size_t live = 0;
  for (const shred::TableMapping& t : store->mapping().tables()) {
    const rdb::Table* table = store->db()->FindTable(t.table);
    if (table == nullptr) continue;
    slots += table->capacity();
    live += table->live_count();
  }
  return live == 0 ? static_cast<double>(slots)
                   : static_cast<double>(slots) / static_cast<double>(live);
}

std::string LevelElement(int k) {
  std::string name = "n";
  name += std::to_string(k);
  return name;
}

size_t LiveRows(engine::RelationalStore* store, const std::string& element) {
  const shred::TableMapping* tm = store->mapping().ForElement(element);
  if (tm == nullptr) return 0;
  const rdb::Table* table = store->db()->FindTable(tm->table);
  return table == nullptr ? 0 : table->live_count();
}

std::string DumpDurableState(rdb::Database* db) {
  std::string out = "next_id=" + std::to_string(db->next_id()) + "\n";
  for (const std::string& name : db->TableNames()) {
    const rdb::Table* table = db->FindTable(name);
    if (table == nullptr || !table->durable()) continue;
    out += name + " capacity=" + std::to_string(table->capacity()) +
           " live=" + std::to_string(table->live_count()) + "\n";
    for (size_t r = 0; r < table->capacity(); ++r) {
      if (!table->is_live(r)) continue;
      out += std::to_string(r);
      for (const rdb::Value& v : table->row_span(r)) {
        out += '|';
        out += v.ToSqlLiteral();
      }
      out += '\n';
    }
  }
  return out;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace xupd::suite

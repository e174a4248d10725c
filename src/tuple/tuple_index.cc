#include "tuple/tuple_index.h"

namespace bagc {

namespace {

constexpr size_t kMinCapacity = 16;

size_t NextPowerOfTwo(size_t n) {
  size_t p = kMinCapacity;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void TupleIndex::Reserve(size_t expected_keys) {
  // Keep the load factor below ~0.7.
  size_t needed = NextPowerOfTwo(expected_keys + expected_keys / 2 + 1);
  if (needed > slots_.size()) Rehash(needed);
  groups_.reserve(expected_keys);
}

size_t TupleIndex::ProbeSlot(const Tuple& key, uint64_t hash) const {
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t tag = slots_[i];
    if (tag == 0) return i;
    const Group& g = groups_[tag - 1];
    if (g.hash == hash && g.key == key) return i;
    i = (i + 1) & mask;
  }
}

void TupleIndex::Rehash(size_t new_capacity) {
  slots_.assign(new_capacity, 0);
  size_t mask = new_capacity - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t i = static_cast<size_t>(groups_[g].hash) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(g + 1);
  }
}

void TupleIndex::Insert(Tuple key, uint32_t id) {
  if (slots_.empty() || (groups_.size() + 1) * 10 > slots_.size() * 7) {
    Rehash(NextPowerOfTwo(slots_.empty() ? kMinCapacity : slots_.size() * 2));
  }
  uint64_t hash = key.Hash();
  size_t slot = ProbeSlot(key, hash);
  if (slots_[slot] == 0) {
    Group g;
    g.key = std::move(key);
    g.hash = hash;
    g.ids.push_back(id);
    groups_.push_back(std::move(g));
    slots_[slot] = static_cast<uint32_t>(groups_.size());
  } else {
    groups_[slots_[slot] - 1].ids.push_back(id);
  }
  ++size_;
}

const std::vector<uint32_t>* TupleIndex::Find(const Tuple& key) const {
  if (slots_.empty()) return nullptr;
  size_t slot = ProbeSlot(key, key.Hash());
  if (slots_[slot] == 0) return nullptr;
  return &groups_[slots_[slot] - 1].ids;
}

ColumnIndex::ColumnIndex(ColumnView keys) : keys_(std::move(keys)) {
  size_t n = keys_.num_rows();
  // All rows are inserted up front, so size the table once (load < ~0.7)
  // and never rehash.
  slots_.assign(NextPowerOfTwo(n + n / 2 + 1), 0);
  groups_.reserve(n);
  std::vector<uint64_t> hashes;
  keys_.HashRows(&hashes);
  for (size_t r = 0; r < n; ++r) {
    size_t slot = FindSlot(hashes[r], keys_, r);
    if (slots_[slot] == 0) {
      ColumnGroup g;
      g.lead = static_cast<uint32_t>(r);
      g.hash = hashes[r];
      g.rows.push_back(static_cast<uint32_t>(r));
      groups_.push_back(std::move(g));
      slots_[slot] = static_cast<uint32_t>(groups_.size());
    } else {
      groups_[slots_[slot] - 1].rows.push_back(static_cast<uint32_t>(r));
    }
  }
}

size_t ColumnIndex::FindSlot(uint64_t hash, const ColumnView& view,
                             size_t row) const {
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (true) {
    uint32_t tag = slots_[i];
    if (tag == 0) return i;
    const ColumnGroup& g = groups_[tag - 1];
    if (g.hash == hash && keys_.RowsEqual(g.lead, view, row)) return i;
    i = (i + 1) & mask;
  }
}

void ColumnIndex::ProbeAll(const ColumnView& probes,
                           std::vector<uint32_t>* out) const {
  size_t n = probes.num_rows();
  out->assign(n, kNoGroup);
  if (n == 0 || slots_.empty()) return;  // slots_ empty: default-constructed
  std::vector<uint64_t> hashes;
  probes.HashRows(&hashes);
  for (size_t r = 0; r < n; ++r) {
    size_t slot = FindSlot(hashes[r], probes, r);
    if (slots_[slot] != 0) (*out)[r] = slots_[slot] - 1;
  }
}

}  // namespace bagc

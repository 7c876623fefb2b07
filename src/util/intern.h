// Interning pool: maps values of T to dense 32-bit ids and back.
//
// TAMP and Stemming both operate over millions of prefixes and AS paths;
// interning turns set operations on them into operations on dense integer
// ids, which is where most of the performance in the paper's Table I
// comes from.
//
// The index is open-addressed (linear probing over id+1 slots, dense
// values as the backing store) rather than an std::unordered_map: the
// stemming encoder calls Intern for every symbol of every event — tens
// of millions of times on Table I streams — and node-based maps were the
// single hottest thing in that profile.  Hashes are passed through a
// 64-bit finalizer because std::hash is the identity for integers, which
// would make linear probing degenerate on dense keys.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace ranomaly::util {

template <typename T, typename Hash = std::hash<T>>
class InternPool {
 public:
  using Id = std::uint32_t;

  // Returns the id for `value`, inserting it if new.
  Id Intern(const T& value) {
    if (slots_.empty() || (values_.size() + 1) * 10 > slots_.size() * 7) {
      Grow(slots_.empty() ? 64 : slots_.size() * 2);
    }
    std::size_t i = Mix(Hash{}(value)) & mask_;
    while (slots_[i] != 0) {
      const Id id = slots_[i] - 1;
      if (values_[id] == value) return id;
      i = (i + 1) & mask_;
    }
    const Id id = static_cast<Id>(values_.size());
    values_.push_back(value);
    slots_[i] = id + 1;
    return id;
  }

  // Returns the id for `value` or `kNotFound` if it was never interned.
  static constexpr Id kNotFound = 0xffffffffu;
  Id Find(const T& value) const {
    if (slots_.empty()) return kNotFound;
    std::size_t i = Mix(Hash{}(value)) & mask_;
    while (slots_[i] != 0) {
      const Id id = slots_[i] - 1;
      if (values_[id] == value) return id;
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  bool Contains(const T& value) const { return Find(value) != kNotFound; }

  const T& Lookup(Id id) const {
    if (id >= values_.size()) throw std::out_of_range("InternPool::Lookup");
    return values_[id];
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Iteration over all interned values, id order.
  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

 private:
  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  void Grow(std::size_t cap) {
    slots_.assign(cap, 0u);
    mask_ = cap - 1;
    for (Id id = 0; id < static_cast<Id>(values_.size()); ++id) {
      std::size_t i = Mix(Hash{}(values_[id])) & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = id + 1;
    }
  }

  std::vector<std::uint32_t> slots_;  // id + 1; 0 = empty
  std::vector<T> values_;
  std::size_t mask_ = 0;
};

}  // namespace ranomaly::util

// Symbolic memory: objects with byte-granular symbolic contents.
//
// Pointers at run time are (object id, offset expression) pairs; address
// arithmetic never escapes an object, so aliasing is exact (the KLEE model).
// Reads and writes at symbolic offsets materialize select chains over the
// object's bytes — complete (no concretization) for the small buffers the
// workload suite uses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

struct MemoryObject {
  uint64_t id = 0;
  uint64_t size = 0;
  bool read_only = false;
  bool is_alloca = false;
  std::string name;
};

// The byte contents of one object. Shared copy-on-write between forked
// states.
class ObjectState {
 public:
  ObjectState(ExprContext& ctx, uint64_t size);

  const Expr* Byte(uint64_t index) const { return bytes_[index]; }
  void SetByte(uint64_t index, const Expr* value) { bytes_[index] = value; }
  uint64_t size() const { return bytes_.size(); }

 private:
  std::vector<const Expr*> bytes_;
};

class AddressSpace {
 public:
  // Allocates a fresh zero-initialized object.
  uint64_t Allocate(ExprContext& ctx, uint64_t size, bool read_only, bool is_alloca,
                    std::string name);
  void Free(uint64_t object_id);
  bool Exists(uint64_t object_id) const { return meta_.count(object_id) != 0; }

  const MemoryObject& Meta(uint64_t object_id) const { return meta_.at(object_id); }

  const ObjectState& Read(uint64_t object_id) const { return *contents_.at(object_id); }
  // Returns a mutable object state, cloning if it is shared with a forked
  // sibling (copy-on-write).
  ObjectState& Write(uint64_t object_id);

  size_t NumObjects() const { return meta_.size(); }

  // Read-only visit of every object's byte expressions (the scheduler's
  // steal-validation walk).
  void ForEachByte(const std::function<void(const Expr*)>& fn) const {
    for (const auto& [id, state] : contents_) {
      for (uint64_t i = 0; i < state->size(); ++i) {
        fn(state->Byte(i));
      }
    }
  }

 private:
  // Hash maps: object ids are dense and lookups sit on the engine's
  // per-instruction path; states fork by copying these tables, so flat
  // buckets also clone faster than node-based trees.
  std::unordered_map<uint64_t, MemoryObject> meta_;
  std::unordered_map<uint64_t, std::shared_ptr<ObjectState>> contents_;
  uint64_t next_id_ = 1;  // id 0 is the null object
};

}  // namespace overify

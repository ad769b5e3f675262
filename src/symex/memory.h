// Symbolic memory: objects with byte-granular symbolic contents.
//
// Pointers at run time are (object id, offset expression) pairs; address
// arithmetic never escapes an object, so aliasing is exact (the KLEE model).
// Reads and writes at symbolic offsets materialize select chains over the
// object's bytes — complete (no concretization) for the small buffers the
// workload suite uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "src/symex/expr.h"

namespace overify {

struct MemoryObject {
  uint64_t id = 0;
  uint64_t size = 0;
  bool read_only = false;
  bool is_alloca = false;
  // Borrowed: the IR name of the global or alloca (owned by the module,
  // which is immutable while the engine runs) or a string literal such as
  // "alloca" or "input".
  std::string_view name;
};

// The byte contents of one object, shared copy-on-write between forked
// states through an intrusive atomic reference count (see ObjectRef).
class ObjectState {
 public:
  ObjectState(ExprContext& ctx, uint64_t size);
  ObjectState(const ObjectState& other) : bytes_(other.bytes_) {}
  ObjectState& operator=(const ObjectState&) = delete;

  const Expr* Byte(uint64_t index) const { return bytes_[index]; }
  void SetByte(uint64_t index, const Expr* value) { bytes_[index] = value; }
  uint64_t size() const { return bytes_.size(); }

 private:
  friend class ObjectRef;
  std::vector<const Expr*> bytes_;
  std::atomic<uint32_t> refs_{1};
};

// An owning reference to a shared ObjectState. Copies take a relaxed
// increment (the copy is published to other threads only through the
// worker queues, which synchronize); dropping a reference is an acq_rel
// decrement, so a writer that later sees a count of 1 with an acquire load
// (SoleOwner) happens-after every read made through the dropped reference —
// an edge ThreadSanitizer can see, which a standalone fence is not.
class ObjectRef {
 public:
  explicit ObjectRef(ObjectState* state) : state_(state) {}
  ObjectRef(const ObjectRef& other) : state_(other.state_) {
    state_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  ObjectRef(ObjectRef&& other) noexcept : state_(other.state_) { other.state_ = nullptr; }
  ObjectRef& operator=(ObjectRef other) noexcept {
    std::swap(state_, other.state_);
    return *this;
  }
  ~ObjectRef() {
    // state_ is null only in a moved-from reference.
    if (state_ != nullptr && state_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete state_;
    }
  }

  ObjectState& operator*() const { return *state_; }
  bool SoleOwner() const { return state_->refs_.load(std::memory_order_acquire) == 1; }

 private:
  ObjectState* state_;
};

// A state's objects: one flat vector sorted by object id. Ids are handed
// out monotonically, so Allocate appends and Free erases near the back
// (allocas die in reverse order); forking a state copies the vector, one
// reference-count increment per object and no per-object allocation.
class AddressSpace {
 public:
  // Allocates a fresh zero-initialized object.
  uint64_t Allocate(ExprContext& ctx, uint64_t size, bool read_only, bool is_alloca,
                    std::string_view name);
  void Free(uint64_t object_id);
  bool Exists(uint64_t object_id) const { return Find(object_id) != nullptr; }

  const MemoryObject& Meta(uint64_t object_id) const { return Get(object_id).meta; }

  const ObjectState& Read(uint64_t object_id) const { return *Get(object_id).state; }
  // Returns a mutable object state, cloning if it is shared with a forked
  // sibling (copy-on-write).
  ObjectState& Write(uint64_t object_id);

  size_t NumObjects() const { return objects_.size(); }

  // Read-only visit of every object's byte expressions (the scheduler's
  // steal-validation walk).
  template <typename Fn>
  void ForEachByte(Fn&& fn) const {
    for (const Object& object : objects_) {
      const ObjectState& state = *object.state;
      for (uint64_t i = 0; i < state.size(); ++i) {
        fn(state.Byte(i));
      }
    }
  }

 private:
  struct Object {
    MemoryObject meta;
    ObjectRef state;
  };

  const Object* Find(uint64_t object_id) const;
  Object& Get(uint64_t object_id);
  const Object& Get(uint64_t object_id) const;

  std::vector<Object> objects_;  // sorted by meta.id
  uint64_t next_id_ = 1;         // id 0 is the null object
};

}  // namespace overify

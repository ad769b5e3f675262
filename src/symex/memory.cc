#include "src/symex/memory.h"

#include <algorithm>

namespace overify {

ObjectState::ObjectState(ExprContext& ctx, uint64_t size) : bytes_(size, ctx.Constant(0, 8)) {}

uint64_t AddressSpace::Allocate(ExprContext& ctx, uint64_t size, bool read_only, bool is_alloca,
                                std::string_view name) {
  uint64_t id = next_id_++;
  objects_.push_back(Object{MemoryObject{id, size, read_only, is_alloca, name},
                            ObjectRef(new ObjectState(ctx, size))});
  return id;
}

const AddressSpace::Object* AddressSpace::Find(uint64_t object_id) const {
  auto it = std::lower_bound(
      objects_.begin(), objects_.end(), object_id,
      [](const Object& object, uint64_t id) { return object.meta.id < id; });
  return it != objects_.end() && it->meta.id == object_id ? &*it : nullptr;
}

const AddressSpace::Object& AddressSpace::Get(uint64_t object_id) const {
  const Object* object = Find(object_id);
  OVERIFY_ASSERT(object != nullptr, "access to a freed or unknown object");
  return *object;
}

AddressSpace::Object& AddressSpace::Get(uint64_t object_id) {
  return const_cast<Object&>(static_cast<const AddressSpace*>(this)->Get(object_id));
}

void AddressSpace::Free(uint64_t object_id) {
  if (const Object* object = Find(object_id)) {
    objects_.erase(objects_.begin() + (object - objects_.data()));
  }
}

ObjectState& AddressSpace::Write(uint64_t object_id) {
  ObjectRef& state = Get(object_id).state;
  if (!state.SoleOwner()) {
    state = ObjectRef(new ObjectState(*state));
  }
  return *state;
}

}  // namespace overify

#include "src/symex/memory.h"

#include <atomic>

namespace overify {

ObjectState::ObjectState(ExprContext& ctx, uint64_t size) {
  bytes_.assign(size, ctx.Constant(0, 8));
}

uint64_t AddressSpace::Allocate(ExprContext& ctx, uint64_t size, bool read_only, bool is_alloca,
                                std::string name) {
  uint64_t id = next_id_++;
  meta_[id] = MemoryObject{id, size, read_only, is_alloca, std::move(name)};
  contents_[id] = std::make_shared<ObjectState>(ctx, size);
  return id;
}

void AddressSpace::Free(uint64_t object_id) {
  meta_.erase(object_id);
  contents_.erase(object_id);
}

ObjectState& AddressSpace::Write(uint64_t object_id) {
  std::shared_ptr<ObjectState>& state = contents_.at(object_id);
  if (state.use_count() > 1) {
    state = std::make_shared<ObjectState>(*state);
  } else {
    // Sole owner: mutate in place. A count of 1 may have just been
    // produced by another worker dropping its reference after reading the
    // object (a stolen sibling state finishing on a thief); that drop is a
    // release decrement, so pair it with an acquire before writing over the
    // bytes it read.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *state;
}

}  // namespace overify

#pragma once
// Small-buffer-optimized, move-only callable for the event-queue hot path.
//
// std::function heap-allocates any closure bigger than its inline buffer
// (16 bytes on libstdc++), and simulator callbacks routinely capture `this`
// plus a couple of ids — just over that line, so the old engine paid one
// malloc/free round trip per scheduled event. InplaceFunction stores any
// nothrow-movable callable up to `Capacity` bytes directly in the object and
// only boxes larger (or throwing-move) ones on the heap, so the
// schedule/fire/cancel path makes zero allocations for typical lambdas.
//
// Move-only by design: a queued callback owns its captures and is invoked
// (or destroyed on cancel) exactly once; copying one is never meaningful.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ampom::sim {

template <class Signature, std::size_t Capacity = 64>
class InplaceFunction;

template <class R, class... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // implicit, mirroring std::function

  // Implicit like std::function's converting constructor; the enable_if
  // keeps it from hijacking moves of InplaceFunction itself.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept { steal(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }
  [[nodiscard]] friend bool operator==(const InplaceFunction& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  [[nodiscard]] friend bool operator!=(const InplaceFunction& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

  // True when a callable of type D lives in the inline buffer (exposed so
  // tests and the perf harness can pin which captures stay allocation-free).
  template <class D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  // Manual vtable: one static Ops instance per erased type. `relocate` is a
  // destructive move (move-construct into `to`, destroy `from`) so the owner
  // can be moved without touching the heap.
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return (*static_cast<D*>(s))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        ::new (to) D(std::move(*static_cast<D*>(from)));
        static_cast<D*>(from)->~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); }};

  template <class D>
  static constexpr Ops kBoxedOps{
      [](void* s, Args&&... args) -> R {
        return (**static_cast<D**>(s))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        ::new (to) D*(*static_cast<D**>(from));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); }};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  void steal(InplaceFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  // The vtable pointer leads, so it shares a cache line with the start of a
  // small closure: moving or invoking one touches a single line.
  const Ops* ops_{nullptr};
  alignas(std::max_align_t) unsigned char storage_[Capacity < sizeof(void*)
                                                       ? sizeof(void*)
                                                       : Capacity]{};
};

}  // namespace ampom::sim

/**
 * @file
 * Small-buffer, move-only event callback.
 *
 * The DES hot path schedules millions of closures per simulated
 * second, and almost all of them are a member-function call bound to a
 * `this` pointer plus a word or two of arguments ([this], [this, key],
 * [this, flow], ...).  std::function copies, type-erases through a
 * 16-byte SBO, and heap-allocates everything bigger; EventClosure
 * stores every callable inline, up to kInlineBytes (48 B), so
 * scheduling never touches the allocator.  An oversized or
 * throwing-move callable does not compile: park its state in a
 * sim::SlotTable and capture the slot instead.
 *
 * Move-only on purpose: an event fires exactly once, and copyability
 * is what forced the old queue to deep-copy closures on every pop.
 * Constructing an EventClosure from an EventClosure rvalue is a plain
 * move (no re-wrap), so handing a completion callback onwards is free.
 */

#ifndef DAGGER_SIM_EVENT_CLOSURE_HH
#define DAGGER_SIM_EVENT_CLOSURE_HH

#include <cstddef>
#include <cstring>
// <new> is needed for placement construction into the inline buffer
// and std::launder; the token-level linter flags the header name.
#include <new> // dagger-lint: allow(no-raw-new-in-sim)
#include <type_traits>
#include <utility>

namespace dagger::sim {

/** Type-erased, move-only `void()` callable with 48 B inline storage. */
class EventClosure
{
  public:
    /** Inline buffer size: fits a member pointer + `this` + 3 words. */
    static constexpr std::size_t kInlineBytes = 48;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    /** True when @p F fits the inline buffer, i.e. can be held at all. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using D = std::decay_t<F>;
        return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
            std::is_nothrow_move_constructible_v<D>;
    }

    /** True when @p F is held and relocates by a byte copy. */
    template <typename F>
    static constexpr bool
    relocatesByMemcpy()
    {
        return fitsInline<F>() &&
            std::is_trivially_copyable_v<std::decay_t<F>>;
    }

    EventClosure() noexcept = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, EventClosure> &&
                 std::is_invocable_r_v<void, std::decay_t<F> &> &&
                 fitsInline<F>())
    EventClosure(F &&f)
    {
        using D = std::decay_t<F>;
        // Placement-construct into the inline buffer: no ownership is
        // created here, so the raw-new lint rule does not apply.
        ::new (bufPtr()) D(std::forward<F>(f)); // dagger-lint: allow(no-raw-new-in-sim)
        _ops = &kOps<D>;
    }

    EventClosure(EventClosure &&other) noexcept { moveFrom(other); }

    EventClosure &
    operator=(EventClosure &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventClosure(const EventClosure &) = delete;
    EventClosure &operator=(const EventClosure &) = delete;

    ~EventClosure() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** Invoke the callable (undefined when empty; the queue asserts). */
    void operator()() const { _ops->invoke(bufPtr()); }

  private:
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move-construct dst's storage from src's, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *storage) noexcept;
        /** Relocation is a plain byte copy (trivially copyable
         *  callable).  The hot path tests this flag and inlines a
         *  fixed-size memcpy instead of dispatching through `relocate`
         *  — moving an event is then a branch plus a few vector
         *  stores, no indirect call. */
        bool trivial_relocate;
        /** Destruction is a no-op (trivially destructible callable);
         *  lets `reset` skip the indirect `destroy` call. */
        bool trivial_destroy;
    };

    template <typename D>
    static D *
    objAs(void *storage) noexcept
    {
        return std::launder(static_cast<D *>(storage));
    }

    template <typename D>
    static void
    invokeAs(void *storage)
    {
        (*objAs<D>(storage))();
    }

    template <typename D>
    static void
    relocateAs(void *dst, void *src) noexcept
    {
        D *obj = objAs<D>(src);
        // Relocation within pre-sized buffers; no allocation.
        ::new (dst) D(std::move(*obj)); // dagger-lint: allow(no-raw-new-in-sim)
        obj->~D();
    }

    template <typename D>
    static void
    destroyAs(void *storage) noexcept
    {
        objAs<D>(storage)->~D();
    }

    // Trivially copyable callables (a captured `this` plus value
    // arguments — essentially every hot-path event) relocate by memcpy
    // and destroy as a no-op.
    template <typename D>
    static constexpr Ops kOps{&invokeAs<D>, &relocateAs<D>,
                              &destroyAs<D>,
                              std::is_trivially_copyable_v<D>,
                              std::is_trivially_destructible_v<D>};

    void *bufPtr() const noexcept { return _storage; }

    void
    moveFrom(EventClosure &other) noexcept
    {
        _ops = other._ops;
        if (_ops) {
            if (_ops->trivial_relocate)
                std::memcpy(_storage, other._storage, kInlineBytes);
            else
                _ops->relocate(bufPtr(), other.bufPtr());
            other._ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (_ops) {
            if (!_ops->trivial_destroy)
                _ops->destroy(bufPtr());
            _ops = nullptr;
        }
    }

    /** mutable: invoking through a const EventClosure may mutate the
     *  callable's own captured state, like std::function does. */
    alignas(kInlineAlign) mutable std::byte _storage[kInlineBytes];
    const Ops *_ops = nullptr;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_EVENT_CLOSURE_HH

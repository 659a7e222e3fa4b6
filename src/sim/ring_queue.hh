/**
 * @file
 * Ring queue: a growable power-of-two circular FIFO.
 *
 * The data path queues frames, packets, messages and transactions at
 * every hop.  std::deque allocates and frees a 512 B node every few
 * elements as a FIFO slides through it, so a steady stream of frames
 * costs a steady stream of mallocs.  A
 * RingQueue grows to its high-water mark once and then reuses that
 * storage forever: steady-state pushes and pops allocate nothing.
 *
 * Elements are constructed in place on push and destroyed on pop, so a
 * queued value is exactly as alive as it would be in a deque (payload
 * handles are released on pop, not when the slot is next overwritten).
 * The queue never shrinks; size it by its peak.
 */

#ifndef DAGGER_SIM_RING_QUEUE_HH
#define DAGGER_SIM_RING_QUEUE_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/check.hh"

namespace dagger::sim {

template <typename T>
class RingQueue
{
    // Growth relocates elements; a throwing move would leave the queue
    // half in the old storage and half in the new.
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "RingQueue elements must be nothrow-movable");

  public:
    RingQueue() = default;

    RingQueue(RingQueue &&other) noexcept
        : _store(std::move(other._store)),
          _head(std::exchange(other._head, 0)),
          _size(std::exchange(other._size, 0))
    {}

    RingQueue &
    operator=(RingQueue &&other) noexcept
    {
        if (this != &other) {
            clear();
            _store = std::move(other._store);
            _head = std::exchange(other._head, 0);
            _size = std::exchange(other._size, 0);
        }
        return *this;
    }

    RingQueue(const RingQueue &) = delete;
    RingQueue &operator=(const RingQueue &) = delete;

    ~RingQueue() { clear(); }

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }
    std::size_t capacity() const { return _store.cap; }

    T &front() { return at(0); }
    const T &front() const { return at(0); }
    T &back() { return at(_size - 1); }
    const T &back() const { return at(_size - 1); }

    /** Construct an element at the back; returns it. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (_size == _store.cap)
            grow(_size + 1);
        T *slot = _store.data + ((_head + _size) & (_store.cap - 1));
        std::construct_at(slot, std::forward<Args>(args)...);
        ++_size;
        return *slot;
    }

    void push_back(T &&value) { emplace_back(std::move(value)); }
    void push_back(const T &value) { emplace_back(value); }

    /** Destroy the front element. */
    void
    pop_front()
    {
        DAGGER_DCHECK(_size > 0, "pop_front on an empty RingQueue");
        std::destroy_at(&at(0));
        _head = (_head + 1) & (_store.cap - 1);
        --_size;
    }

    /** Destroy every element; the storage stays. */
    void
    clear()
    {
        while (_size > 0)
            pop_front();
        _head = 0;
    }

    /** Grow the storage so @p n elements fit without reallocating. */
    void
    reserve(std::size_t n)
    {
        if (n > _store.cap)
            grow(n);
    }

  private:
    /** Raw element storage; owns the allocation, not the elements. */
    struct Storage
    {
        T *data = nullptr;
        std::size_t cap = 0;

        Storage() = default;
        explicit Storage(std::size_t n)
            : data(std::allocator<T>().allocate(n)), cap(n)
        {}
        Storage(Storage &&other) noexcept
            : data(std::exchange(other.data, nullptr)),
              cap(std::exchange(other.cap, 0))
        {}
        Storage &
        operator=(Storage &&other) noexcept
        {
            std::swap(data, other.data);
            std::swap(cap, other.cap);
            return *this;
        }
        ~Storage()
        {
            if (data)
                std::allocator<T>().deallocate(data, cap);
        }
    };

    T &
    at(std::size_t i)
    {
        DAGGER_DCHECK(i < _size, "RingQueue index ", i, " beyond size ",
                      _size);
        return _store.data[(_head + i) & (_store.cap - 1)];
    }

    const T &
    at(std::size_t i) const
    {
        DAGGER_DCHECK(i < _size, "RingQueue index ", i, " beyond size ",
                      _size);
        return _store.data[(_head + i) & (_store.cap - 1)];
    }

    /** Relocate into power-of-two storage of at least @p n slots,
     *  front first, so the queue is contiguous from index 0 after. */
    void
    grow(std::size_t n)
    {
        std::size_t cap = _store.cap ? _store.cap : 8;
        while (cap < n)
            cap *= 2;
        Storage next(cap);
        for (std::size_t i = 0; i < _size; ++i) {
            T &src = at(i);
            std::construct_at(next.data + i, std::move(src));
            std::destroy_at(&src);
        }
        _store = std::move(next);
        _head = 0;
    }

    Storage _store;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_RING_QUEUE_HH

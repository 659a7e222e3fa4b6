/**
 * @file
 * Slot table: parks move-only values behind small integer handles.
 *
 * A scheduled closure must fit EventClosure's 48 B inline buffer, or
 * it does not compile.  Closures that would otherwise capture a whole
 * message, packet or payload, or a nested EventClosure, instead park
 * that value here and capture only the slot number; the event takes it
 * back when it fires.  Use it where completions can fire out of order (a FIFO side
 * queue is enough where one hardware thread serialises the events).
 *
 * Values only ever move in and out: parking never copies, so handle
 * counters such as sim.payload.handle_passes see exactly what the
 * captured value would have cost.  Freed slots are reused LIFO, so the
 * table grows only to the peak number of parked values and steady-state
 * parking allocates nothing.
 */

#ifndef DAGGER_SIM_SLOT_TABLE_HH
#define DAGGER_SIM_SLOT_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/check.hh"

namespace dagger::sim {

template <typename T>
class SlotTable
{
  public:
    using Slot = std::uint32_t;

    /** Park @p value; returns the slot to hand to take(). */
    Slot
    park(T &&value)
    {
        if (_free.empty()) {
            _slots.push_back(std::move(value));
            return static_cast<Slot>(_slots.size() - 1);
        }
        const Slot slot = _free.back();
        _free.pop_back();
        _slots[slot] = std::move(value);
        return slot;
    }

    /** The value parked in @p slot, left in place. */
    T &
    at(Slot slot)
    {
        DAGGER_DCHECK(slot < _slots.size(), "bad slot ", slot);
        return _slots[slot];
    }

    /** Move the value out of @p slot and free the slot. */
    T
    take(Slot slot)
    {
        DAGGER_DCHECK(slot < _slots.size(), "bad slot ", slot);
        T value = std::move(_slots[slot]);
        _free.push_back(slot);
        return value;
    }

  private:
    std::vector<T> _slots;
    std::vector<Slot> _free;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_SLOT_TABLE_HH

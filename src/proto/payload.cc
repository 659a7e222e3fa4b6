#include "proto/payload.hh"

#include <mutex>

namespace dagger::proto {

namespace {

// Guards the registry below; taken only on a thread's first payload
// touch and at stats collection, never on the copy hot path.
// dagger-lint: allow(shared-mutable-static-in-sim)
std::mutex g_cellMutex;

/**
 * All counter cells ever created, one per thread that ever touched a
 * payload.  The registry owns the cells outright so a cell's totals
 * survive its thread's exit (a bench's --jobs workers finish before
 * stats are read, but the numbers must not vanish with them).
 */
std::vector<std::unique_ptr<detail::PayloadCounterCell>> &
cellRegistry()
{
    // Mutated only under g_cellMutex; shared by every thread by design
    // so cell totals survive worker-thread exit.
    // dagger-lint: allow(shared-mutable-static-in-sim)
    static std::vector<std::unique_ptr<detail::PayloadCounterCell>> cells;
    return cells;
}

} // namespace

detail::PayloadCounterCell &
detail::registerPayloadCounterCell()
{
    auto cell = std::make_unique<PayloadCounterCell>();
    PayloadCounterCell &ref = *cell;
    std::lock_guard<std::mutex> lock(g_cellMutex);
    cellRegistry().push_back(std::move(cell));
    return ref;
}

PayloadStats
payloadStats()
{
    std::lock_guard<std::mutex> lock(g_cellMutex);
    PayloadStats s;
    for (const auto &c : cellRegistry()) {
        s.bytesCopied += c->bytesCopied.load(std::memory_order_relaxed);
        s.handlePasses += c->handlePasses.load(std::memory_order_relaxed);
    }
    return s;
}

} // namespace dagger::proto

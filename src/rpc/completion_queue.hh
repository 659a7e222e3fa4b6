/**
 * @file
 * Client-side completion queue (§4.2).
 *
 * "each RpcClient contains the associated CompletionQueue object
 * which accumulates completed requests. The CompletionQueue might
 * also invoke arbitrary continuation callback functions upon
 * receiving RPC responses, if so desired."
 */

#ifndef DAGGER_RPC_COMPLETION_QUEUE_HH
#define DAGGER_RPC_COMPLETION_QUEUE_HH

#include <cstdint>
#include <functional>

#include "proto/wire.hh"
#include "sim/ring_queue.hh"

namespace dagger::rpc {

/** Accumulates completed RPCs; optionally fires a continuation. */
class CompletionQueue
{
  public:
    using Continuation = std::function<void(const proto::RpcMessage &)>;

    /** Deliver a completed response (called by the client runtime). */
    void
    push(proto::RpcMessage resp)
    {
        ++_completed;
        if (_continuation) {
            _continuation(resp);
            return; // consumed by the continuation, not queued
        }
        _queue.push_back(std::move(resp));
    }

    /** Poll for a completed response. */
    bool
    pop(proto::RpcMessage &out)
    {
        if (_queue.empty())
            return false;
        out = std::move(_queue.front());
        _queue.pop_front();
        return true;
    }

    /** Install a continuation invoked on every completion. */
    void
    setContinuation(Continuation fn)
    {
        _continuation = std::move(fn);
    }

    std::size_t size() const { return _queue.size(); }
    std::uint64_t completed() const { return _completed; }

  private:
    sim::RingQueue<proto::RpcMessage> _queue;
    Continuation _continuation;
    std::uint64_t _completed = 0;
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_COMPLETION_QUEUE_HH

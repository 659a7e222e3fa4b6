#include "rpc/server.hh"

#include "sim/logging.hh"

namespace dagger::rpc {

WorkerPool::WorkerPool(DaggerSystem &sys, std::vector<HwThread *> workers)
    : _sys(sys), _workers(std::move(workers))
{
    dagger_assert(!_workers.empty(), "worker pool needs threads");
}

void
WorkerPool::submit(sim::Tick cost, sim::EventFn fn)
{
    ++_submitted;
    ++_inflight;
    const sim::Tick delay = _sys.swCost().workerHandoffDelay;
    _handoff.push_back(Handoff{cost, std::move(fn)});
    _sys.eq().schedule(delay, [this] { dispatchOne(); });
}

void
WorkerPool::dispatchOne()
{
    dagger_assert(!_handoff.empty(), "handoff event without queued work");
    Handoff h = std::move(_handoff.front());
    _handoff.pop_front();
    // Pick the least-loaded worker at wakeup time.
    HwThread *best = _workers.front();
    for (HwThread *w : _workers)
        if (w->busyUntil() < best->busyUntil())
            best = w;
    // Workers finish out of order, so the work waits in a slot table
    // rather than inside the (then oversized) closure.
    const auto slot = _work.park(std::move(h.fn));
    auto run = [this, slot] {
        sim::EventFn fn = _work.take(slot);
        --_inflight;
        fn();
    };
    best->execute(h.cost, std::move(run));
}

RpcServerThread::RpcServerThread(DaggerNode &node, unsigned flow,
                                 HwThread &dispatch)
    : _node(node), _flow(flow), _dispatch(dispatch)
{
    dagger_assert(flow < node.numFlows(), "server flow out of range");
    node.flow(flow).rx.setNotify([this] {
        if (_rxScheduled)
            return;
        _rxScheduled = true;
        processNext();
    });
    node.flow(flow).tx.setSpaceNotify([this] { flushResponses(); });
}

void
RpcServerThread::registerHandler(proto::FnId fn, Handler handler)
{
    dagger_assert(handler, "null handler for fn ", fn);
    _handlers[fn] = std::move(handler);
}

void
RpcServerThread::resume()
{
    if (!_paused)
        return;
    _paused = false;
    if (!_rxScheduled) {
        _rxScheduled = true;
        processNext();
    }
}

void
RpcServerThread::processNext()
{
    if (_paused) {
        _rxScheduled = false;
        return;
    }
    proto::RpcMessage msg;
    RxRing &rx = _node.flow(_flow).rx;
    if (!rx.popMessage(msg)) {
        _rxScheduled = false;
        return;
    }
    const SwCost &costs = _node.system().swCost();

    // Admission control: with more than maxQueue requests still backed
    // up behind this one — RX frames plus work parked in the worker
    // pool — serving it only adds queueing delay to everything after
    // it.  Drop it at poll cost and let the caller's retry/degraded
    // path take over.
    const std::size_t backlog =
        rx.occupied() + (_pool ? _pool->inflight() : 0);
    if (_shed.enabled() && backlog > _shed.maxQueue) {
        ++_shedCalls;
        _dispatch.execute(costs.pollCost, [this] { processNext(); });
        return;
    }

    auto it = _handlers.find(msg.fnId());
    if (it == _handlers.end()) {
        ++_unhandled;
        _dispatch.execute(costs.pollCost, [this] { processNext(); });
        return;
    }

    // The handler runs functionally now; its simulated cost is charged
    // on the executing thread below.
    HandlerOutcome outcome = it->second(msg);
    ++_processed;

    // The request and its outcome wait in _dispatchJobs until the
    // dispatch thread gets to them: _dispatch runs its events in
    // execute() order, so each event below pops the job pushed with it.
    _dispatchJobs.push_back(Job{std::move(msg), std::move(outcome)});
    if (_pool) {
        // Optimized model: dispatch pays poll + deser + handoff; the
        // worker pays the handler and response-send costs.
        const sim::Tick dispatch_cost = costs.pollCost +
            costs.deserializeCost + costs.workerHandoffCpu;
        auto handoff = [this] {
            Job job = popDispatchJob();
            const sim::Tick worker_cost = job.outcome.cost +
                (job.outcome.respond ? _node.system().sendCpuCost(_node)
                                     : 0);
            // Workers finish out of order: park the job by slot.
            const auto slot = _workerJobs.park(std::move(job));
            auto work = [this, slot] {
                Job done = _workerJobs.take(slot);
                finishRequest(done.req, std::move(done.outcome));
            };
            _pool->submit(worker_cost, std::move(work));
            processNext();
        };
        _dispatch.execute(dispatch_cost, std::move(handoff));
        return;
    }

    // Simple model: everything in the dispatch thread.
    const HandlerOutcome &queued = _dispatchJobs.back().outcome;
    const sim::Tick total = costs.pollCost + costs.deserializeCost +
        queued.cost +
        (queued.respond ? _node.system().sendCpuCost(_node) : 0);
    auto handle = [this] {
        Job job = popDispatchJob();
        finishRequest(job.req, std::move(job.outcome));
        processNext();
    };
    _dispatch.execute(total, std::move(handle));
}

RpcServerThread::Job
RpcServerThread::popDispatchJob()
{
    Job job = std::move(_dispatchJobs.front());
    _dispatchJobs.pop_front();
    return job;
}

void
RpcServerThread::respondLater(proto::ConnId conn, proto::RpcId rpc,
                              proto::FnId fn, const void *data,
                              std::size_t len)
{
    // Like the dispatch jobs, the response waits in a FIFO side queue
    // that the dispatch thread's events drain in order.
    _lateResponses.emplace_back(conn, rpc, fn, proto::MsgType::Response,
                                data, len);
    auto send = [this] {
        proto::RpcMessage resp = std::move(_lateResponses.front());
        _lateResponses.pop_front();
        TxRing &tx = _node.flow(_flow).tx;
        if (!_txBacklog.empty() || !tx.push(resp))
            _txBacklog.push_back(std::move(resp));
    };
    _dispatch.execute(_node.system().sendCpuCost(_node), std::move(send));
}

void
RpcServerThread::finishRequest(const proto::RpcMessage &req,
                               HandlerOutcome outcome)
{
    if (!outcome.respond)
        return;
    proto::RpcMessage resp(req.connId(), req.rpcId(), req.fnId(),
                           proto::MsgType::Response,
                           std::move(outcome.response));
    TxRing &tx = _node.flow(_flow).tx;
    if (!_txBacklog.empty() || !tx.push(resp))
        _txBacklog.push_back(std::move(resp));
}

void
RpcServerThread::flushResponses()
{
    TxRing &tx = _node.flow(_flow).tx;
    while (!_txBacklog.empty() && tx.push(_txBacklog.front()))
        _txBacklog.pop_front();
}

RpcServerThread &
RpcThreadedServer::addThread(unsigned flow, HwThread &thread)
{
    _threads.push_back(
        std::make_unique<RpcServerThread>(_node, flow, thread));
    return *_threads.back();
}

void
RpcThreadedServer::registerHandler(proto::FnId fn, const Handler &handler)
{
    dagger_assert(!_threads.empty(),
                  "register handlers after adding server threads");
    for (auto &t : _threads)
        t->registerHandler(fn, handler);
}

void
RpcThreadedServer::setShedPolicy(ShedPolicy policy)
{
    for (auto &t : _threads)
        t->setShedPolicy(policy);
}

std::uint64_t
RpcThreadedServer::totalProcessed() const
{
    std::uint64_t n = 0;
    for (const auto &t : _threads)
        n += t->processed();
    return n;
}

std::uint64_t
RpcThreadedServer::totalShed() const
{
    std::uint64_t n = 0;
    for (const auto &t : _threads)
        n += t->shedCalls();
    return n;
}

} // namespace dagger::rpc

#include "ic/channel.hh"

#include "sim/logging.hh"

namespace dagger::ic {

Channel::Channel(EventQueue &eq, Tick line_service, Tick txn_overhead,
                 unsigned ports)
    : _eq(eq), _lineService(line_service), _txnOverhead(txn_overhead),
      _queues(ports), _grants(ports, 0)
{
}

unsigned
Channel::addPort()
{
    _queues.emplace_back();
    _grants.push_back(0);
    return static_cast<unsigned>(_queues.size() - 1);
}

void
Channel::request(unsigned port, unsigned lines, EventFn done, bool streamed)
{
    dagger_assert(port < _queues.size(), "bad channel port ", port);
    dagger_assert(lines >= 1, "empty transaction");
    _queues[port].push_back(Txn{std::move(done), lines, streamed});
    if (!_busy)
        grantNext();
}

void
Channel::grantNext()
{
    // Guard against re-entrant grants: a completion callback that
    // (transitively) enqueues new work must not start a second
    // transaction while one is already in service.
    if (_busy)
        return;
    // Round-robin scan starting at _rrNext.
    const unsigned n = static_cast<unsigned>(_queues.size());
    for (unsigned i = 0; i < n; ++i) {
        const unsigned p = (_rrNext + i) % n;
        if (_queues[p].empty())
            continue;
        Txn txn = std::move(_queues[p].front());
        _queues[p].pop_front();
        ++_grants[p];
        _rrNext = (p + 1) % n;
        _busy = true;
        const Tick service = (txn.streamed ? 0 : _txnOverhead) +
                             txn.lines * _lineService;
        _busyTicks += service;
        _linesServiced += txn.lines;
        ++_txnsServiced;
        _inService = std::move(txn.done);
        _eq.schedule(service, [this] { serviceDone(); },
                     sim::Priority::Hardware);
        return;
    }
    _busy = false;
}

void
Channel::serviceDone()
{
    _busy = false;
    // Move the completion out first: it may request more work, which
    // would start the next transaction and overwrite _inService.
    EventFn done = std::move(_inService);
    if (done)
        done();
    grantNext();
}

} // namespace dagger::ic

#include "ic/channel.hh"

#include "sim/logging.hh"

namespace dagger::ic {

Channel::Channel(EventQueue &eq, Tick line_service, Tick txn_overhead,
                 unsigned ports, ServicedFn serviced)
    : _eq(eq), _lineService(line_service), _txnOverhead(txn_overhead),
      _serviced(std::move(serviced)), _queues(ports), _grants(ports, 0)
{
    dagger_assert(_serviced, "channel needs a serviced callback");
}

unsigned
Channel::addPort()
{
    _queues.emplace_back();
    _grants.push_back(0);
    return static_cast<unsigned>(_queues.size() - 1);
}

void
Channel::request(unsigned port, unsigned lines, std::uint32_t tag,
                 bool streamed)
{
    dagger_assert(port < _queues.size(), "bad channel port ", port);
    dagger_assert(lines >= 1, "empty transaction");
    _queues[port].push_back(Txn{tag, lines, streamed});
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
        const Txn txn = _queues[p].front();
        _queues[p].pop_front();
        ++_grants[p];
        _rrNext = (p + 1) % n;
        _busy = true;
        const Tick service = (txn.streamed ? 0 : _txnOverhead) +
                             txn.lines * _lineService;
        _busyTicks += service;
        _linesServiced += txn.lines;
        ++_txnsServiced;
        _inServicePort = p;
        _inServiceTag = txn.tag;
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
    // The callback may request more work, which starts the next
    // transaction at once and overwrites the in-service fields; they
    // are read before the call.
    _serviced(_inServicePort, _inServiceTag);
    grantNext();
}

} // namespace dagger::ic

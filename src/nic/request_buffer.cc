#include "nic/request_buffer.hh"

#include "sim/check.hh"

namespace dagger::nic {

RequestBuffer::RequestBuffer(std::size_t slots, unsigned flows,
                             std::size_t stall_frames)
    : _capacity(slots), _free(slots), _stallFrames(stall_frames),
      _flows(flows)
{
    dagger_assert(slots > 0, "request buffer needs slots");
    dagger_assert(flows > 0, "request buffer needs flows");
}

bool
RequestBuffer::push(unsigned flow, std::vector<proto::Frame> &&frames)
{
    dagger_assert(flow < _flows.size(), "bad flow ", flow);
    Flow &f = _flows[flow];
    if (f.frames.size() - f.resident + frames.size() > _stallFrames) {
        ++_rejections;
        return false;
    }
    f.frames.pushBurst(std::move(frames));
    admit(f);
    return true;
}

std::size_t
RequestBuffer::flowDepth(unsigned flow) const
{
    dagger_assert(flow < _flows.size(), "bad flow ", flow);
    return _flows[flow].resident;
}

std::size_t
RequestBuffer::stalled(unsigned flow) const
{
    dagger_assert(flow < _flows.size(), "bad flow ", flow);
    return _flows[flow].frames.size() - _flows[flow].resident;
}

std::vector<proto::Frame>
RequestBuffer::pop(unsigned flow, std::size_t n)
{
    dagger_assert(flow < _flows.size(), "bad flow ", flow);
    Flow &f = _flows[flow];
    std::vector<proto::Frame> out = f.frames.popBurst(std::min(n, f.resident));
    f.resident -= out.size();
    _free += out.size();
    // Slots are conserved: every entry is either free or held by a
    // resident frame, so the free count can never outgrow the table.
    DAGGER_INVARIANT(_free <= _capacity, "free slots (", _free,
                     ") outgrew the request table (", _capacity, ")");
    admit(f);
    return out;
}

void
RequestBuffer::admit(Flow &f)
{
    const std::size_t k = std::min(f.frames.size() - f.resident, _free);
    f.resident += k;
    _free -= k;
    _pushes += k;
}

} // namespace dagger::nic

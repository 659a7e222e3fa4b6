#include "proto/wire.hh"

#include <array>

namespace dagger::proto {

void
Frame::corruptPayloadByte(std::size_t i)
{
    const std::size_t n = liveBytes();
    std::uint8_t tmp[kFramePayload] = {};
    for (std::size_t j = 0; j < n; ++j)
        tmp[j] = view.byteAt(j);
    if (i < n)
        tmp[i] ^= 0xff;
    // PayloadBuf's copying constructor counts these <= 48 bytes: the
    // corrupt edge is one of the three sanctioned copy sites.
    view = PayloadView(PayloadBuf(tmp, n), 0, n);
}

void
Frame::setPayload(const void *src, std::size_t len)
{
    dagger_assert(len <= kFramePayload, "frame payload too large: ", len);
    view = PayloadView(PayloadBuf(src, len), 0, len);
}

RpcMessage::RpcMessage(ConnId conn, RpcId rpc, FnId fn, MsgType type,
                       const void *payload, std::size_t len)
    : _connId(conn), _rpcId(rpc), _fnId(fn), _type(type),
      _payload(payload, len)
{
    dagger_assert(len <= kMaxPayloadBytes, "RPC payload too large: ", len);
}

RpcMessage::RpcMessage(ConnId conn, RpcId rpc, FnId fn, MsgType type,
                       PayloadBuf payload)
    : _connId(conn), _rpcId(rpc), _fnId(fn), _type(type),
      _payload(std::move(payload))
{
    dagger_assert(_payload.size() <= kMaxPayloadBytes,
                  "RPC payload too large: ", _payload.size());
}

std::size_t
RpcMessage::frameCount() const
{
    if (_payload.empty())
        return 1;
    return (_payload.size() + kFramePayload - 1) / kFramePayload;
}

std::vector<Frame>
RpcMessage::toFrames() const
{
    std::vector<Frame> frames;
    frames.reserve(frameCount());
    appendFrames(frames);
    return frames;
}

namespace {

/// Burst vectors kept per thread and size: enough for the bursts a
/// busy node has in flight.
constexpr std::size_t kBurstsPerSize = 32;

/// Frames of storage kept per thread, over all sizes: few enough
/// (80 KB) that peak RSS does not move.  The bound counts frames, not
/// vectors, so an earlier rig's many one-frame bursts cannot fill the
/// cache and refuse a later rig's 4-frame ones.
constexpr std::size_t kBurstCacheFrames = 1024;

/// Set once this thread's cache is destroyed: a frame vector released
/// by a static destructor after that is simply freed.
thread_local bool tBurstCacheGone = false;

/**
 * Recycled storage, by exact capacity.  A batch of n frames gets a
 * vector of capacity n, never a larger one: doorbell batches of 4
 * frames sit in CCI-P queues a hundred deep, and 16-frame storage
 * under each would quadruple their memory.
 */
struct BurstCache
{
    /// bySize[c - 1]: vectors of capacity exactly c
    std::array<std::vector<std::vector<Frame>>, kBurstFrames> bySize;
    std::size_t frames = 0; ///< capacity held, over all sizes

    ~BurstCache() { tBurstCacheGone = true; }
};

BurstCache &
burstCache()
{
    thread_local BurstCache cache;
    return cache;
}

} // namespace

std::vector<Frame>
takeBurst(std::size_t n)
{
    std::vector<Frame> frames;
    if (n >= 1 && n <= kBurstFrames && !tBurstCacheGone) {
        BurstCache &cache = burstCache();
        auto &free = cache.bySize[n - 1];
        if (!free.empty()) {
            frames = std::move(free.back());
            free.pop_back();
            cache.frames -= n;
            return frames;
        }
    }
    frames.reserve(n);
    return frames;
}

void
recycleBurst(std::vector<Frame> &&frames)
{
    const std::size_t cap = frames.capacity();
    if (cap == 0 || cap > kBurstFrames || tBurstCacheGone)
        return;
    BurstCache &cache = burstCache();
    auto &free = cache.bySize[cap - 1];
    // A per-size cap too, so a draining ring of full bursts cannot
    // crowd out the small batches in flight beside it.
    if (free.size() >= kBurstsPerSize ||
        cache.frames + cap > kBurstCacheFrames)
        return;
    frames.clear();
    free.push_back(std::move(frames));
    cache.frames += cap;
}

namespace {

/** Frame @p i of a message whose first frame carries @p h0. */
bool
headerMatches(const FrameHeader &h, const FrameHeader &h0, std::size_t i)
{
    return h.frameIdx == i && h.connId == h0.connId &&
        h.rpcId == h0.rpcId && h.payloadLen == h0.payloadLen;
}

} // namespace

bool
RpcMessage::framesConsistent(const std::vector<Frame> &frames)
{
    if (frames.empty())
        return false;
    const FrameHeader &h0 = frames.front().header;
    if (h0.frameCount() != frames.size())
        return false;
    for (std::size_t i = 0; i < frames.size(); ++i)
        if (!headerMatches(frames[i].header, h0, i))
            return false;
    return true;
}

bool
RpcMessage::fromFrames(const std::vector<Frame> &frames, RpcMessage &out)
{
    if (frames.empty())
        return false;
    const FrameHeader &h0 = frames.front().header;
    if (h0.frameCount() != frames.size())
        return false;
    const std::size_t len = h0.payloadLen;
    const PayloadBuf &buf = frames.front().view.buffer();
    // One pass checks each frame's header and checksum, and whether
    // every frame views the same buffer at exactly its wire offset —
    // the invariant toFrames() establishes and every handle-passing
    // hop preserves.  Multi-frame messages are > 48 B and therefore
    // heap-backed, so handle identity is heap-pointer identity.
    bool one_buffer = len > 0 && buf.size() == len;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Frame &f = frames[i];
        if (!headerMatches(f.header, h0, i) || !f.verifyChecksum())
            return false;
        if (one_buffer) {
            const std::size_t off = i * kFramePayload;
            one_buffer = f.view.offset() == off &&
                f.view.size() == std::min(kFramePayload, len - off) &&
                (i == 0 || f.view.buffer().sharesBufferWith(buf));
        }
    }

    out._connId = h0.connId;
    out._rpcId = h0.rpcId;
    out._fnId = h0.fnId;
    out._type = h0.type;

    if (len == 0) {
        out._payload = PayloadBuf();
        return true;
    }
    if (one_buffer) {
        // Zero-copy reassembly: the message re-adopts the buffer whole.
        out._payload = buf;
        return true;
    }
    // Gather fallback: frames carry foreign or partial views (hand-
    // built tests, CoW-corrupted fragments that still checksum).
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const std::size_t off = i * kFramePayload;
        const std::size_t chunk = std::min(kFramePayload, len - off);
        for (std::size_t j = 0; j < chunk; ++j)
            bytes[off + j] = frames[i].payloadByte(j);
    }
    detail::addBytesCopied(len);
    out._payload = PayloadBuf::adopt(std::move(bytes));
    return true;
}

bool
RpcMessage::fromFrame(const Frame &f, RpcMessage &out)
{
    const FrameHeader &h = f.header;
    if (h.frameCount() != 1 || h.frameIdx != 0)
        return false;
    if (!f.verifyChecksum())
        return false;
    out._connId = h.connId;
    out._rpcId = h.rpcId;
    out._fnId = h.fnId;
    out._type = h.type;
    const std::size_t len = h.payloadLen;
    if (len == 0) {
        out._payload = PayloadBuf();
        return true;
    }
    const PayloadBuf &buf = f.view.buffer();
    if (buf.size() == len && f.view.offset() == 0 && f.view.size() == len) {
        // Zero-copy: the view covers its buffer whole; re-adopt it.
        out._payload = buf;
        return true;
    }
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t j = 0; j < len; ++j)
        bytes[j] = f.payloadByte(j);
    detail::addBytesCopied(len);
    out._payload = PayloadBuf::adopt(std::move(bytes));
    return true;
}

bool
Reassembler::push(Frame &&frame, RpcMessage &out)
{
    const FrameHeader &h = frame.header;
    const std::size_t count = h.frameCount();
    if (count == 1) {
        // Fast path: single-line RPC, no state needed.
        if (RpcMessage::fromFrame(frame, out))
            return true;
        ++_malformed;
        return false;
    }
    const Key key{h.connId, h.rpcId, h.type};
    std::vector<Frame> &frames = partialFor(key);
    if (h.frameIdx == 0 && !frames.empty()) {
        // A fresh first frame behind a stale partial: an earlier copy
        // of this RPC lost its tail (an RX-ring overflow drop) and this
        // is a resend.  Count the stale copy once and start over, or
        // the leftover would make every frame of the resend malformed.
        ++_malformed;
        frames.clear();
    }
    if (h.frameIdx != frames.size()) {
        // Out-of-sequence frame within a flow: the fabric preserves
        // per-flow FIFO order, so this indicates corruption.  Drop the
        // whole partial message.
        ++_malformed;
        finish(key, frames);
        return false;
    }
    if (frames.empty())
        frames.reserve(count);
    frames.push_back(std::move(frame));
    if (frames.size() < count)
        return false;
    const bool ok = RpcMessage::fromFrames(frames, out);
    finish(key, frames);
    if (!ok)
        ++_malformed;
    return ok;
}

std::vector<Frame> &
Reassembler::partialFor(const Key &key)
{
    if (!_current.empty() && key == _currentKey)
        return _current; // the direct hit: the next frame of this RPC
    if (auto it = _others.find(key); it != _others.end())
        return it->second;
    if (_current.empty()) {
        _currentKey = key;
        return _current;
    }
    return _others[key];
}

void
Reassembler::finish(const Key &key, std::vector<Frame> &frames)
{
    if (&frames == &_current)
        _current.clear(); // keeps its storage for the next message
    else
        _others.erase(key);
}

} // namespace dagger::proto

/**
 * @file
 * Dagger wire format.
 *
 * The CPU–NIC MTU of a coherent memory interconnect is one cache line
 * (64 B, paper §4.7).  Every RPC therefore travels as one or more
 * 64-byte frames.  Each frame carries a 16-byte header and up to 48
 * bytes of payload; RPCs larger than 48 B are split into multiple
 * frames and reassembled in software (the paper's stated limitation —
 * hardware CAM-based reassembly is future work there and here).
 *
 * Frames model the wire, they do not own payload bytes: a Frame holds
 * a PayloadView into the message's refcounted PayloadBuf, so slicing a
 * message into frames, queueing them through rings and the switch, and
 * reassembling them at the receiver are all handle operations.  The
 * wire *model* is unchanged — liveBytes(), checksums, and the 64 B
 * per-frame accounting are computed over the viewed bytes exactly as
 * they were over the old owned 48 B array.
 */

#ifndef DAGGER_PROTO_WIRE_HH
#define DAGGER_PROTO_WIRE_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "proto/payload.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "sim/ring_queue.hh"

namespace dagger::proto {

/** Request vs. response marker (paper §4.4: "request type field"). */
enum class MsgType : std::uint8_t {
    Request = 1,
    Response = 2,
};

/** Connection identifier (c_id in the paper's connection table). */
using ConnId = std::uint32_t;

/** Per-connection RPC sequence number; pairs responses to requests. */
using RpcId = std::uint32_t;

/** Remote function identifier assigned by the IDL code generator. */
using FnId = std::uint16_t;

/**
 * Frame header, 16 bytes, packed.  Every 64 B frame of a multi-frame
 * RPC repeats the header with an incremented frame_idx so that frames
 * are self-describing (the reassembler needs no per-flow state beyond
 * a map keyed by (conn_id, rpc_id)).  The frame count is derived from
 * payloadLen rather than stored: a 16-bit frameIdx lets one RPC span
 * up to ceil(kMaxPayloadBytes / 48) = 1366 frames.
 */
struct FrameHeader
{
    ConnId connId = 0;
    RpcId rpcId = 0;
    FnId fnId = 0;
    std::uint16_t payloadLen = 0; ///< total RPC payload bytes
    MsgType type = MsgType::Request;
    std::uint8_t checksum = 0;    ///< xor over this frame's live payload
                                  ///< bytes, mixed with frameIdx
    std::uint16_t frameIdx = 0;

    /** Frames the whole message occupies (derived from payloadLen). */
    std::uint16_t
    frameCount() const
    {
        if (payloadLen == 0)
            return 1;
        return static_cast<std::uint16_t>(
            (payloadLen + kFramePayload - 1) / kFramePayload);
    }

    bool operator==(const FrameHeader &) const = default;
};

/**
 * Transport-layer header a Protocol unit stamps on a wire packet
 * (nic::AckProtocol).  This is the sequence field reliable transports
 * need: a per-connection packet sequence number plus the cumulative
 * acknowledgement piggybacked on ACK frames.  It rides next to the
 * 64 B frames the way a real transport header would precede them; it
 * is not counted in wireBytes() so that installing a protocol never
 * perturbs the serialization model of protocol-free runs.
 */
struct TransportHeader
{
    std::uint32_t seq = 0;    ///< per-connection packet sequence (1-based)
    std::uint32_t ackCum = 0; ///< ACKs only: all seq <= ackCum received
    bool reliable = false;    ///< seq is valid (a protocol stamped it)

    bool operator==(const TransportHeader &) const = default;
};

static_assert(sizeof(FrameHeader) == kHeaderBytes,
              "FrameHeader must be exactly 16 bytes");

/**
 * One frame: 16 B header plus a view of the message payload slice it
 * carries.  On the wire this is exactly one cache line (kWireBytes);
 * in host memory the payload bytes live once in the message's
 * PayloadBuf and every frame references them.
 */
struct Frame
{
    /** Bytes this frame occupies on the modeled wire. */
    static constexpr std::size_t kWireBytes = kCacheLineBytes;

    FrameHeader header;
    PayloadView view; ///< this frame's live payload bytes

    /** Payload bytes of the message that live in this frame. */
    std::size_t
    liveBytes() const
    {
        const std::size_t off =
            static_cast<std::size_t>(header.frameIdx) * kFramePayload;
        if (off >= header.payloadLen)
            return 0;
        return std::min(kFramePayload,
                        static_cast<std::size_t>(header.payloadLen) - off);
    }

    /**
     * Payload byte @p i as it appears on the wire: the viewed bytes,
     * zero-padded to the frame boundary.
     */
    std::uint8_t payloadByte(std::size_t i) const { return view.byteAt(i); }

    /** Checksum over this frame's live bytes, mixed with its index. */
    std::uint8_t
    computeChecksum() const
    {
        // The wire bytes are the view zero-padded to liveBytes(); the
        // padding XORs to identity, so only the viewed prefix counts.
        // XOR is associative, so fold a word at a time — this runs
        // twice per frame per hop and the byte-serial loop was the
        // single hottest instruction stream in the whole echo path.
        const std::size_t n = std::min(liveBytes(), view.size());
        const std::uint8_t *p = view.data();
        std::uint64_t acc = 0;
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, p + i, 8);
            acc ^= w;
        }
        std::uint8_t sum = static_cast<std::uint8_t>(header.frameIdx);
        for (; i < n; ++i)
            sum ^= p[i];
        acc ^= acc >> 32;
        acc ^= acc >> 16;
        acc ^= acc >> 8;
        return sum ^ static_cast<std::uint8_t>(acc);
    }

    /**
     * Ingress integrity gate: true iff the stored checksum matches
     * the payload.  A reliable transport must run this *before*
     * acknowledging, so a corrupted frame looks like a loss to the
     * sender and is retransmitted.
     */
    bool verifyChecksum() const { return computeChecksum() == header.checksum; }

    /**
     * Copy-on-write corruption (FaultInjector and tests): materialize
     * a private copy of this frame's live bytes, flip byte @p i, and
     * repoint the view at the copy.  Other frames — duplicates in
     * flight, the sender's retransmission copy — keep referencing the
     * original intact bytes.  The stored checksum is left stale so the
     * ingress gate detects the damage.
     */
    void corruptPayloadByte(std::size_t i);

    /**
     * Test-construction helper: point this frame at @p len bytes of
     * @p src (copied into a private buffer).  toFrames() is the real
     * producer; tests building frames by hand use this.
     */
    void setPayload(const void *src, std::size_t len);
};

/**
 * Frames per burst: the CCI-P transaction cap (the NIC's auto-batch
 * limit), and so the most frames a fetch claim, a request-buffer pop or
 * a one-transaction RX delivery carries.
 */
constexpr std::size_t kBurstFrames = 16;

/**
 * Recycled frame bursts.  Frame batches hop through short-lived
 * vectors — fetch claims, request-buffer pops, RX deliveries, packets
 * — and a fresh vector per batch per hop was most of the data path's
 * heap traffic.  takeBurst() hands out an empty vector of capacity
 * @p n; for n <= kBurstFrames it reuses storage of that capacity that
 * recycleBurst() returned on this thread.  recycleBurst() destroys the
 * frames and keeps storage of at most kBurstFrames frames on a small
 * bounded per-thread free list (larger batches are simply freed).
 * Neither call touches a payload handle, so no counter sees the
 * difference.
 */
std::vector<Frame> takeBurst(std::size_t n);
void recycleBurst(std::vector<Frame> &&frames);

/**
 * A FIFO of frames kept in the bursts they arrived in.  A whole burst
 * (a packet's frame vector, an RX delivery) joins the back without its
 * frames moving; frames leave from the front one at a time, and a
 * drained burst goes back to the burst cache.  The TX ring, the RX
 * ring and the NIC request buffer all queue frames this way, so a
 * frame moves once per queue: when it leaves.
 */
class FrameFifo
{
  public:
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Append every frame of @p burst. */
    void
    pushBurst(std::vector<Frame> &&burst)
    {
        if (burst.empty()) {
            recycleBurst(std::move(burst));
            return;
        }
        _size += burst.size();
        _bursts.push_back(std::move(burst));
    }

    /**
     * Construct one frame at the back (an RpcMessage::appendFrames()
     * sink).  A full back burst is never grown: the frame opens a
     * fresh kBurstFrames burst from the cache instead.
     */
    template <typename... Args>
    Frame &
    emplace_back(Args &&...args)
    {
        if (_bursts.empty() ||
            _bursts.back().size() == _bursts.back().capacity())
            _bursts.push_back(takeBurst(kBurstFrames));
        ++_size;
        return _bursts.back().emplace_back(std::forward<Args>(args)...);
    }

    Frame &front() { return _bursts.front()[_head]; }

    /** Drop the front frame (move it out through front() first). */
    void
    pop_front()
    {
        DAGGER_DCHECK(_size > 0, "pop_front on an empty frame FIFO");
        --_size;
        if (++_head == _bursts.front().size()) {
            recycleBurst(std::move(_bursts.front()));
            _bursts.pop_front();
            _head = 0;
        }
    }

    /** Move up to @p n frames from the front into a recyclable burst. */
    std::vector<Frame>
    popBurst(std::size_t n)
    {
        const std::size_t take = std::min(n, _size);
        std::vector<Frame> out = takeBurst(take);
        for (std::size_t i = 0; i < take; ++i) {
            out.push_back(std::move(front()));
            pop_front();
        }
        return out;
    }

  private:
    sim::RingQueue<std::vector<Frame>> _bursts;
    /// frames of _bursts.front() already popped
    std::size_t _head = 0;
    std::size_t _size = 0;
};

/**
 * A complete RPC message: header metadata plus a refcounted flat
 * payload.  This is the unit the software API and the NIC RPC unit
 * operate on.  Copying a message passes the payload handle.
 */
class RpcMessage
{
  public:
    RpcMessage() = default;

    /** Build a message from raw payload bytes (the copying API edge). */
    RpcMessage(ConnId conn, RpcId rpc, FnId fn, MsgType type,
               const void *payload, std::size_t len);

    /** Build a message around an existing payload handle (no copy). */
    RpcMessage(ConnId conn, RpcId rpc, FnId fn, MsgType type,
               PayloadBuf payload);

    ConnId connId() const { return _connId; }
    RpcId rpcId() const { return _rpcId; }
    FnId fnId() const { return _fnId; }
    MsgType type() const { return _type; }

    const PayloadBuf &payload() const { return _payload; }
    std::size_t payloadLen() const { return _payload.size(); }

    /** Number of 64 B frames this message occupies on the wire. */
    std::size_t frameCount() const;

    /** Total wire bytes (frames * 64). */
    std::size_t wireBytes() const { return frameCount() * kCacheLineBytes; }

    /**
     * The in-place frame writer: append this message's wire frames to
     * @p out (a std::vector or sim::RingQueue of Frame), constructing
     * each frame in the container's own storage.  Slicing passes one
     * payload handle per frame that carries bytes, never a byte copy.
     */
    template <typename FrameQueue>
    void
    appendFrames(FrameQueue &out) const
    {
        FrameHeader h;
        h.connId = _connId;
        h.rpcId = _rpcId;
        h.fnId = _fnId;
        h.payloadLen = static_cast<std::uint16_t>(_payload.size());
        h.type = _type;
        const std::size_t n = frameCount();
        for (std::size_t i = 0; i < n; ++i) {
            h.frameIdx = static_cast<std::uint16_t>(i);
            const std::size_t off = i * kFramePayload;
            Frame &f = off < _payload.size()
                ? out.emplace_back(
                      h, PayloadView(_payload, off,
                                     std::min(kFramePayload,
                                              _payload.size() - off)))
                : out.emplace_back(h, PayloadView());
            // Per-frame checksum so a receiver can validate each
            // fragment of a multi-packet RPC independently, before
            // acknowledging.
            f.header.checksum = f.computeChecksum();
        }
    }

    /** Slice into a fresh vector of wire frames (appendFrames()). */
    std::vector<Frame> toFrames() const;

    /**
     * Reassemble from frames, checking header consistency and every
     * frame's checksum on the way.  Frames may arrive in order within
     * one message (per-flow FIFO order is preserved by the fabric).
     * When every frame views the same underlying buffer at its wire
     * offset — the invariant toFrames() establishes — the buffer is
     * adopted outright; otherwise the bytes are gathered into a fresh
     * buffer (and counted as copies).
     * @retval false malformed input (count/len/checksum mismatch).
     */
    static bool fromFrames(const std::vector<Frame> &frames,
                           RpcMessage &out);

    /**
     * Single-frame fast path (the common small-RPC case): identical
     * semantics to fromFrames() on a one-element vector, without
     * materializing the vector.
     */
    static bool fromFrame(const Frame &frame, RpcMessage &out);

    /**
     * Header-consistency check alone: frameIdx sequence, shared
     * connId/rpcId/payloadLen, complete frame count — no checksum
     * work.  Hardware stages that only route or batch on headers
     * (NIC steering, egress packetization) use this; payload
     * integrity is enforced where the architecture places the gates —
     * the transport's pre-ACK check and receive-side reassembly.
     */
    static bool framesConsistent(const std::vector<Frame> &frames);

    /** Copy payload into a POD @p T (the read-side API edge). */
    template <typename T>
    bool
    payloadAs(T &out) const
    {
        if (_payload.size() != sizeof(T))
            return false;
        detail::addBytesCopied(sizeof(T));
        std::memcpy(&out, _payload.data(), sizeof(T));
        return true;
    }

    /** Build a message whose payload is the bytes of POD @p value. */
    template <typename T>
    static RpcMessage
    ofPod(ConnId conn, RpcId rpc, FnId fn, MsgType type, const T &value)
    {
        return RpcMessage(conn, rpc, fn, type, &value, sizeof(T));
    }

  private:
    ConnId _connId = 0;
    RpcId _rpcId = 0;
    FnId _fnId = 0;
    MsgType _type = MsgType::Request;
    PayloadBuf _payload;
};

/**
 * Software frame reassembler (paper §4.7: "Dagger only features
 * software-based RPC reassembling").  Keyed by (conn, rpc, type);
 * complete() fires the instant the last frame of a message arrives.
 * Buffered frames keep their payload views, so the source buffer
 * stays alive for as long as any message is under assembly.
 *
 * Frames of one RPC arrive back to back on a flow, so the message
 * under assembly when no other is pending lives outside the hash map:
 * its frames hit it directly, and its frame storage is kept for the
 * next message.  Messages interleaved with it go to the map.
 */
class Reassembler
{
  public:
    /**
     * Feed one frame.  Callers that own the frame move it in, and the
     * buffered frame is a handle steal, not a handle pass.
     * @retval true @p out now holds a complete message.
     */
    bool push(Frame &&frame, RpcMessage &out);

    /** Feed a copy of @p frame (one handle pass). */
    bool
    push(const Frame &frame, RpcMessage &out)
    {
        return push(Frame(frame), out);
    }

    /** Messages currently under assembly. */
    std::size_t
    inFlight() const
    {
        return _others.size() + (_current.empty() ? 0 : 1);
    }

    /** Frames dropped due to malformed sequences. */
    std::uint64_t malformed() const { return _malformed; }

  private:
    struct Key
    {
        ConnId conn;
        RpcId rpc;
        MsgType type;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            std::uint64_t v = (static_cast<std::uint64_t>(k.conn) << 32) ^
                              (static_cast<std::uint64_t>(k.rpc) << 2) ^
                              static_cast<std::uint64_t>(k.type);
            v *= 0x9e3779b97f4a7c15ull;
            return static_cast<std::size_t>(v ^ (v >> 32));
        }
    };

    /** The frames buffered for @p key's message (possibly none yet). */
    std::vector<Frame> &partialFor(const Key &key);
    /** Forget @p key's message, whose frames are @p frames. */
    void finish(const Key &key, std::vector<Frame> &frames);

    /// the direct-hit message (none when empty) and its key
    std::vector<Frame> _current;
    Key _currentKey{};
    /// every other message under assembly
    std::unordered_map<Key, std::vector<Frame>, KeyHash> _others;
    std::uint64_t _malformed = 0;
};

} // namespace dagger::proto

#endif // DAGGER_PROTO_WIRE_HH

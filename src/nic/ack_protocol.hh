/**
 * @file
 * A reliable-delivery Protocol unit.
 *
 * The paper leaves the Protocol block of the RPC unit idle ("it
 * simply forwards all packets to the network") and lists reliable
 * transports with piggybacked acknowledgements as follow-up work
 * (§4.5).  This extension implements an at-most-once transport:
 * every data packet carries a per-connection sequence number
 * (proto::TransportHeader), the receiver keeps a dedup window and
 * acknowledges each packet with its sequence plus a cumulative ACK,
 * and the sender retransmits unacked packets on a timeout with a
 * bounded retry budget.  Multi-frame RPCs can be fragmented into
 * independently sequenced (and independently retransmitted) wire
 * packets, reassembled out of order on ingress.  Corrupted frames
 * (per-frame checksum mismatch) are dropped *before* the ACK, so they
 * look like losses to the sender.
 *
 * Off by default, exactly like the paper's artifact; install with
 * DaggerNic::setProtocol(std::make_unique<AckProtocol>(...)).
 */

#ifndef DAGGER_NIC_ACK_PROTOCOL_HH
#define DAGGER_NIC_ACK_PROTOCOL_HH

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>

#include "nic/pipeline.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace dagger::nic {

class DaggerNic;

/** Positive-ACK reliability with dedup and timeout retransmission. */
class AckProtocol final : public ProtocolUnit
{
  public:
    /**
     * @param retransmit_timeout resend an unacked packet after this
     * @param max_retries        give up (and count a loss) after this
     *                           many resends
     * @param mtu_frames         fragment egress packets larger than
     *                           this many frames into independently
     *                           sequenced wire packets (0 = never
     *                           fragment: one packet per RPC)
     */
    explicit AckProtocol(sim::Tick retransmit_timeout = sim::usToTicks(10),
                         unsigned max_retries = 4,
                         std::size_t mtu_frames = 0)
        : _timeout(retransmit_timeout), _maxRetries(max_retries),
          _mtuFrames(mtu_frames)
    {}

    void attach(DaggerNic &nic) override;

    bool onEgress(net::Packet &pkt) override;
    bool onIngress(net::Packet &pkt) override;

    const char *name() const override { return "ack"; }

    /**
     * Fault injection: silently discard the next @p n ingress data
     * packets (no delivery, no ACK) — simulates wire loss for tests
     * and failure-injection benches.
     */
    void dropNextIngress(unsigned n) { _dropNext = n; }

    /**
     * Fault injection: silently discard the next @p n ingress *ACK*
     * packets — exercises the lost-ACK path (the peer retransmits a
     * packet this side already delivered; dedup must suppress it).
     */
    void dropNextIngressAcks(unsigned n) { _dropNextAcks = n; }

    /** Exposed for tests: the pending-map hash over (conn, seq).  Must
     *  mix every connection-id bit (a shift past bit 32 of a 64-bit
     *  lane would silently drop high conn bits). */
    static std::size_t
    hashKey(std::uint32_t conn, std::uint32_t seq)
    {
        return KeyHash{}(Key{conn, seq});
    }

    std::uint64_t acksSent() const { return _acksSent; }
    std::uint64_t acksReceived() const { return _acksReceived; }
    std::uint64_t retransmissions() const { return _retransmissions; }
    std::uint64_t lost() const { return _lost; }
    /** Duplicate data packets re-ACKed but not re-delivered. */
    std::uint64_t dupSuppressed() const { return _dupSuppressed; }
    /** Ingress frames failing the checksum gate (dropped, unACKed). */
    std::uint64_t corruptDropped() const { return _corruptDropped; }
    std::size_t unacked() const { return _pending.size(); }

  private:
    /** Retransmission key: a per-connection packet sequence number. */
    struct Key
    {
        std::uint32_t conn;
        std::uint32_t seq;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            // splitmix64 finalizer over the full (conn, seq) pair; a
            // plain shift-xor mix must not shift a 32-bit lane past
            // bit 32, or high connection ids silently collide.
            std::uint64_t v = (static_cast<std::uint64_t>(k.conn) << 32) |
                              static_cast<std::uint64_t>(k.seq);
            v ^= v >> 30;
            v *= 0xbf58476d1ce4e5b9ull;
            v ^= v >> 27;
            v *= 0x94d049bb133111ebull;
            v ^= v >> 31;
            return static_cast<std::size_t>(v);
        }
    };

    struct Pending
    {
        net::Packet pkt;
        unsigned retries = 0;
    };

    /** Receiver-side per-connection delivery state. */
    struct RxConn
    {
        std::uint32_t cum = 0;        ///< all seq <= cum delivered
        std::set<std::uint32_t> ooo;  ///< delivered out-of-order seqs
    };

    /** Reassembly key for fragmented multi-frame RPCs. */
    struct FragKey
    {
        std::uint32_t conn;
        std::uint32_t rpc;
        std::uint8_t type;
        bool operator==(const FragKey &) const = default;
    };
    struct FragKeyHash
    {
        std::size_t
        operator()(const FragKey &k) const
        {
            std::uint64_t v = (static_cast<std::uint64_t>(k.conn) << 32) |
                              static_cast<std::uint64_t>(k.rpc);
            v ^= static_cast<std::uint64_t>(k.type) << 17;
            v ^= v >> 30;
            v *= 0xbf58476d1ce4e5b9ull;
            v ^= v >> 27;
            return static_cast<std::size_t>(v);
        }
    };
    struct FragBuf
    {
        std::map<std::uint16_t, proto::Frame> byIdx; ///< ordered by frameIdx
    };

    /** Bound on per-connection out-of-order dedup state. */
    static constexpr std::size_t kDedupWindow = 4096;

    void trackEgress(net::Packet &pkt);
    void armTimer(const Key &key);
    void sendAck(const net::Packet &data);
    void onAck(const net::Packet &ack);
    /** @retval true seq admitted (first delivery); false = duplicate. */
    bool admitSeq(std::uint32_t conn, std::uint32_t seq);
    /** @retval true @p pkt now holds a complete, in-order frame set. */
    bool reassemble(net::Packet &pkt);

    /** fnId marker distinguishing ACK frames from data. */
    static constexpr std::uint16_t kAckFn = 0xffff;

    DaggerNic *_nic = nullptr;
    sim::Tick _timeout;
    unsigned _maxRetries;
    std::size_t _mtuFrames;

    /// per conn
    std::unordered_map<std::uint32_t, std::uint32_t> _txSeq;
    std::unordered_map<Key, Pending, KeyHash> _pending;
    std::unordered_map<std::uint32_t, RxConn> _rx;
    std::unordered_map<FragKey, FragBuf, FragKeyHash> _frags;

    unsigned _dropNext = 0;
    unsigned _dropNextAcks = 0;
    std::uint64_t _acksSent = 0;
    std::uint64_t _acksReceived = 0;
    std::uint64_t _retransmissions = 0;
    std::uint64_t _lost = 0;
    std::uint64_t _dupSuppressed = 0;
    std::uint64_t _corruptDropped = 0;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_ACK_PROTOCOL_HH

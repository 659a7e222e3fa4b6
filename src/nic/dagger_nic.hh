/**
 * @file
 * The Dagger NIC: the paper's green-bitstream user logic (Fig. 6).
 *
 * Receiving path (RX, host -> network): the RX FSM watches the
 * per-flow TX rings, pulls request frames over the CCI-P port in
 * batches of B, runs them through the RPC-unit pipeline (serializer,
 * connection lookup), and ships packets to the ToR switch.  The paper's
 * Protocol unit is idle (§4.5), so packets go straight to the wire
 * unless enableAck() turned on the optional AckProtocol.  Bookkeeping
 * messages release ring entries asynchronously.
 *
 * Transmitting path (TX, network -> host): incoming packets run
 * through the deserializer, are steered by the load balancer
 * (requests) or the connection table's src_flow (responses) into flow
 * FIFOs backed by the request buffer (Fig. 9B), and the flow
 * scheduler posts full batches into the host RX rings.
 */

#ifndef DAGGER_NIC_DAGGER_NIC_HH
#define DAGGER_NIC_DAGGER_NIC_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "ic/cci_fabric.hh"
#include "mem/hcc.hh"
#include "net/tor_switch.hh"
#include "nic/ack_protocol.hh"
#include "nic/config.hh"
#include "nic/connection_manager.hh"
#include "nic/pipeline.hh"
#include "nic/request_buffer.hh"
#include "proto/wire.hh"
#include "rpc/rings.hh"
#include "sim/event_queue.hh"
#include "sim/slot_table.hh"

namespace dagger::nic {

/** One virtual-but-physical NIC instance (§6, Fig. 14). */
class DaggerNic
{
  public:
    /**
     * @param eq    event queue
     * @param cfg   hard configuration (the "bitstream")
     * @param soft  initial soft-register values
     * @param port  this instance's CCI-P port
     * @param net   this instance's ToR switch port
     */
    DaggerNic(sim::EventQueue &eq, NicConfig cfg, SoftConfig soft,
              ic::CciPort &port, net::SwitchPort &net);

    DaggerNic(const DaggerNic &) = delete;
    DaggerNic &operator=(const DaggerNic &) = delete;

    /** Bind flow @p flow to its software ring pair. */
    void attachFlow(unsigned flow, rpc::TxRing *tx, rpc::RxRing *rx);

    /** Register a connection in the hardware connection manager. */
    bool openConnection(proto::ConnId id, const ConnTuple &tuple);

    /** Remove a connection. */
    void closeConnection(proto::ConnId id);

    /**
     * Mutable soft registers; writes take effect on the next FSM
     * decision, like MMIO CSR writes (§4.1 soft configuration).
     */
    SoftConfig &softConfig() { return _soft; }
    const SoftConfig &softConfig() const { return _soft; }

    /**
     * Place the key that Object-Level connections steer on (§5.7,
     * MICA): @p key_len payload bytes from @p key_offset (default 0
     * and 8).
     */
    void setObjectLevelKey(std::size_t key_offset, std::size_t key_len);

    /**
     * Turn on the reliable transport (off by default, like the paper's
     * idle Protocol unit); call at most once.  Parameters as in
     * AckProtocol's constructor.
     */
    AckProtocol &enableAck(sim::Tick retransmit_timeout = sim::usToTicks(10),
                           unsigned max_retries = 4,
                           std::size_t mtu_frames = 0);

    const NicConfig &config() const { return _cfg; }
    net::NodeId node() const { return _net.node(); }
    /** Read-only: tuples open through openConnection(), which checks
     *  src_flow against the flow count the steering relies on. */
    const ConnectionManager &connectionManager() const { return _cm; }

    /**
     * The Host Coherent Cache (§4.1): holds per-connection transport
     * state on the NIC, coherently backed by host memory.  Every RPC
     * touches its connection's state line; a miss costs a coherent
     * fill.
     */
    mem::Hcc &hcc() { return _hcc; }

    PacketMonitor &monitor() { return _monitor; }
    const PacketMonitor &monitor() const { return _monitor; }
    ic::CciPort &cciPort() { return _port; }

    /**
     * Register all NIC statistics under @p scope: the Packet Monitor
     * first, then the connection cache, HCC, and the TX-path request
     * buffer as child scopes.
     */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        _monitor.registerMetrics(scope);
        _cm.registerMetrics(scope.sub("conn_cache"));
        _hcc.registerMetrics(scope.sub("hcc"));
        _reqBuffer.registerMetrics(scope.sub("req_buffer"));
    }

  private:
    struct FlowState
    {
        rpc::TxRing *tx = nullptr;
        rpc::RxRing *rx = nullptr;
        /// a partial-batch flush is scheduled, indexed by Dir
        std::array<bool, 2> flushArmed{};
        unsigned outstandingFetches = 0;
        /// egress grouping of multi-frame messages; becomes the packet
        std::vector<proto::Frame> partial;
    };

    using BatchSlot = sim::SlotTable<std::vector<proto::Frame>>::Slot;

    unsigned effectiveBatch() const { return std::max(1u, _soft.batchSize); }

    // --- CCI-P batching, one policy for both directions (§4.4) ---
    /** Fetch: host TX ring -> NIC.  Post: request buffer -> host RX ring. */
    enum class Dir : std::uint8_t { Fetch, Post };
    /** Frames @p dir could move for @p flow now. */
    std::size_t readyFrames(Dir dir, unsigned flow) const;
    void issue(Dir dir, unsigned flow, std::size_t frames);
    /** Issue full batches (or, auto-batching, whatever is ready) until
     *  none remain; a partial batch arms the timeout flush. */
    void drain(Dir dir, unsigned flow);
    void armFlush(Dir dir, unsigned flow);

    // --- RX path (host -> network) ---
    void issueFetch(unsigned flow, std::size_t frames);
    void onFetched(unsigned flow, BatchSlot slot);
    void serializeBatch(unsigned flow, BatchSlot slot);
    void egressFrames(std::vector<proto::Frame> frames);

    // --- TX path (network -> host) ---
    void onNetReceive(net::Packet pkt);
    void steerMessage(std::vector<proto::Frame> frames);
    /** The flow a request joins under its connection's scheme;
     *  nullopt if an Object-Level request does not reassemble. */
    std::optional<unsigned> pickFlow(const std::vector<proto::Frame> &frames,
                                     const ConnTuple &tuple);
    void issuePost(unsigned flow, std::size_t frames);

    // --- poll-mode management (§4.4.1) ---
    void pollModeTick();

    sim::EventQueue &_eq;
    NicConfig _cfg;
    SoftConfig _soft;
    ic::CciPort &_port;
    net::SwitchPort &_net;
    ConnectionManager _cm;
    mem::Hcc _hcc;
    RequestBuffer _reqBuffer;
    std::vector<FlowState> _flows;
    /// frame batches carried by a pending CCI-P transaction or NIC
    /// pipeline stage, parked so every NIC closure is a few words
    sim::SlotTable<std::vector<proto::Frame>> _batches;
    PacketMonitor _monitor;
    /// the optional reliable transport; null while the Protocol unit
    /// idles and forwards every packet
    std::unique_ptr<AckProtocol> _ack;
    /// round-robin cursor, shared by every round-robin connection
    unsigned _rrNext = 0;
    /// where Object-Level connections find the key in a payload
    std::size_t _objKeyOffset = 0;
    std::size_t _objKeyLen = 8;
    std::uint64_t _fetchesInWindow = 0;
    sim::Tick _lastPollEval = 0;
    /// in-order egress pipeline head
    sim::Tick _egressFreeAt = 0;

    /// RPC-unit pipeline latency per direction: 6 cycles (serializer/
    /// deserializer, connection lookup, load balancer) of the 200 MHz
    /// unit clock (Table 1)
    static constexpr sim::Tick kPipelineDelay = 6 * sim::nsToTicks(5);

    /// cap on per-flow outstanding fetches; creates natural batching
    /// in auto mode while keeping the bus pipelined (§4.4: "Dagger
    /// sends multiple asynchronous requests")
    static constexpr unsigned kMaxFlowFetches = 8;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_DAGGER_NIC_HH

/**
 * @file
 * Zero-copy payload storage for the Dagger data path.
 *
 * The paper's NIC moves RPC payloads at cache-line granularity by
 * reading TX-ring lines directly from host memory (§4.4) — bytes are
 * written once by the application and then *referenced*, not re-copied,
 * as they traverse rings, the NIC pipeline, and the switch.  This file
 * provides the simulator-side analogue:
 *
 *  - PayloadBuf: an immutable, refcounted flat buffer.  Payloads of up
 *    to one frame (48 B) live inline in the handle itself (the way a
 *    single-line RPC rides in one flit); larger payloads live on the
 *    heap behind an atomically refcounted handle, so copies of the
 *    handle are cheap.
 *
 *  - PayloadView: a (handle, offset, length) slice of a PayloadBuf.
 *    Frames carry views into the message buffer instead of owned byte
 *    arrays, so fragmentation, ring hops, switch queues, and
 *    retransmission copies all pass handles.
 *
 * Real byte copies happen only at the API edges (message construction,
 * payloadAs() delivery) and in FaultInjector::corrupt's copy-on-write;
 * the global counters below make that auditable: bytes_copied must stay
 * O(payload) per RPC no matter how many hops the frames take, while
 * handle_passes grows with hop count.
 */

#ifndef DAGGER_PROTO_PAYLOAD_HH
#define DAGGER_PROTO_PAYLOAD_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <vector>

namespace dagger::proto {

/** Cache line size of the host CPU and the interconnect MTU. */
constexpr std::size_t kCacheLineBytes = 64;

/** Header bytes per frame. */
constexpr std::size_t kHeaderBytes = 16;

/** Payload bytes per frame (also the PayloadBuf inline capacity). */
constexpr std::size_t kFramePayload = kCacheLineBytes - kHeaderBytes;

/**
 * Largest RPC payload the wire format can carry: payloadLen is a
 * uint16_t in every frame header.  The client API rejects larger
 * payloads recoverably (CallStatus::Rejected); the RpcMessage
 * constructor asserts, since reaching it oversize means a layer above
 * skipped the check.
 */
constexpr std::size_t kMaxPayloadBytes = 0xffff;

namespace detail {
/**
 * Per-thread data-path copy accounting.  A handle pass happens for
 * every frame of every hop, so the increment must not cost a
 * lock-prefixed RMW; each thread owns a cell and bumps it with
 * single-writer load+store (plain MOVs on x86), while payloadStats()
 * sums the cells with atomic loads (race-free under TSan).
 */
struct PayloadCounterCell
{
    std::atomic<std::uint64_t> bytesCopied{0};
    std::atomic<std::uint64_t> handlePasses{0};
};

/** Create and register a fresh cell owned by the global registry. */
PayloadCounterCell &registerPayloadCounterCell();

/** This thread's cell (registered on first use, kept past exit). */
inline PayloadCounterCell &
payloadCounterCell()
{
    // Cache the raw pointer per thread so the increment below inlines
    // to a guard check plus two MOVs — no call on the data path.
    thread_local PayloadCounterCell *cell = &registerPayloadCounterCell();
    return *cell;
}

inline void
addBytesCopied(std::uint64_t n)
{
    auto &c = payloadCounterCell().bytesCopied;
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

inline void
addHandlePass()
{
    auto &c = payloadCounterCell().handlePasses;
    c.store(c.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}
} // namespace detail

/** Snapshot of the payload data-path counters. */
struct PayloadStats
{
    std::uint64_t bytesCopied = 0;  ///< real payload bytes memcpy'd
    std::uint64_t handlePasses = 0; ///< buffer handles copied instead
};

/** Read the process-wide counters (monotonic; diff two snapshots). */
PayloadStats payloadStats();

/**
 * Immutable refcounted flat payload buffer with small-buffer-optimized
 * inline storage for payloads <= 48 B (one frame) and heap storage
 * beyond.  Copying a PayloadBuf never copies heap payload bytes — it
 * bumps an atomic refcount (or replicates the 48 B inline array, which
 * is part of the handle itself).
 *
 * The inline bytes and the heap handle share storage (the length says
 * which is live), so a handle is 56 B and a frame 80 B: every frame
 * queue at every hop holds a few hundred of them.
 */
class PayloadBuf
{
  public:
    /** Empty payload (an RPC with no argument bytes). */
    PayloadBuf() noexcept {}

    /** Copying constructor: the write-side API edge. */
    PayloadBuf(const void *src, std::size_t len) : _len(len)
    {
        if (len == 0)
            return;
        detail::addBytesCopied(len);
        if (len <= kFramePayload) {
            std::memcpy(_inline.data(), src, len);
            return;
        }
        auto heap = std::make_shared<std::vector<std::uint8_t>>(len);
        std::memcpy(heap->data(), src, len);
        std::construct_at(&_heap, std::move(heap));
    }

    /** @p len zero bytes (sized-but-unfilled responses). */
    explicit PayloadBuf(std::size_t len) : _len(len)
    {
        if (len == 0)
            return;
        detail::addBytesCopied(len);
        if (len > kFramePayload)
            std::construct_at(
                &_heap, std::make_shared<std::vector<std::uint8_t>>(len));
        else
            std::memset(_inline.data(), 0, len);
    }

    PayloadBuf(std::initializer_list<std::uint8_t> bytes)
        : PayloadBuf(bytes.begin() == bytes.end() ? nullptr : bytes.begin(),
                     bytes.size())
    {}

    PayloadBuf(const PayloadBuf &other) { copyFrom(other); }

    PayloadBuf &
    operator=(const PayloadBuf &other)
    {
        if (this != &other) {
            reset();
            copyFrom(other);
        }
        return *this;
    }

    /** Moving never counts a handle pass; a moved-from heap handle is
     *  left empty, a moved-from inline one keeps its bytes. */
    PayloadBuf(PayloadBuf &&other) noexcept { stealFrom(other); }

    PayloadBuf &
    operator=(PayloadBuf &&other) noexcept
    {
        if (this != &other) {
            reset();
            stealFrom(other);
        }
        return *this;
    }

    ~PayloadBuf() { reset(); }

    /** Buffer whose payload is the bytes of POD @p value. */
    template <typename T>
    static PayloadBuf
    ofPod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return PayloadBuf(&value, sizeof(T));
    }

    /**
     * Adopt already-materialized bytes without recounting them as a
     * copy (the caller gathered them and did its own accounting).
     */
    static PayloadBuf
    adopt(std::vector<std::uint8_t> &&bytes)
    {
        PayloadBuf buf;
        buf._len = bytes.size();
        if (buf._len == 0)
            return buf;
        if (buf._len <= kFramePayload) {
            std::memcpy(buf._inline.data(), bytes.data(), buf._len);
            return buf;
        }
        std::construct_at(&buf._heap,
                          std::make_shared<std::vector<std::uint8_t>>(
                              std::move(bytes)));
        return buf;
    }

    const std::uint8_t *
    data() const
    {
        return onHeap() ? _heap->data() : _inline.data();
    }

    std::size_t size() const { return _len; }
    bool empty() const { return _len == 0; }

    /** Read-only byte access; the buffer is immutable by design. */
    std::uint8_t operator[](std::size_t i) const { return data()[i]; }

    /** True when the bytes live inline in the handle (<= 48 B). */
    bool inlined() const { return !onHeap(); }

    /** Heap refcount (0 for inline/empty buffers) — test hook. */
    long heapUseCount() const { return onHeap() ? _heap.use_count() : 0; }

    /** True when both handles reference the same heap bytes. */
    bool
    sharesBufferWith(const PayloadBuf &other) const
    {
        return onHeap() && other.onHeap() && _heap == other._heap;
    }

    bool
    operator==(const PayloadBuf &other) const
    {
        if (_len != other._len)
            return false;
        return _len == 0 ||
            std::memcmp(data(), other.data(), _len) == 0;
    }

    bool
    operator==(const std::vector<std::uint8_t> &bytes) const
    {
        if (_len != bytes.size())
            return false;
        return _len == 0 || std::memcmp(data(), bytes.data(), _len) == 0;
    }

  private:
    using Heap = std::shared_ptr<const std::vector<std::uint8_t>>;

    /** Payloads beyond one frame live on the heap; _heap is live. */
    bool onHeap() const { return _len > kFramePayload; }

    void
    copyFrom(const PayloadBuf &other)
    {
        _len = other._len;
        // Copy only the live prefix of inline bytes.
        if (onHeap())
            std::construct_at(&_heap, other._heap);
        else if (_len)
            std::memcpy(_inline.data(), other._inline.data(), _len);
        if (_len)
            detail::addHandlePass();
    }

    void
    stealFrom(PayloadBuf &other) noexcept
    {
        _len = other._len;
        if (onHeap()) {
            std::construct_at(&_heap, std::move(other._heap));
            other.reset();
        } else if (_len) {
            std::memcpy(_inline.data(), other._inline.data(), _len);
        }
    }

    void
    reset() noexcept
    {
        if (onHeap())
            std::destroy_at(&_heap);
        _len = 0;
    }

    std::size_t _len = 0;
    union
    {
        // Deliberately NOT value-initialized: every inline path writes
        // before reading, and zeroing 48 B per handle construction was
        // measurable on the frame hot path.
        std::array<std::uint8_t, kFramePayload> _inline;
        Heap _heap; ///< live iff onHeap()
    };
};

/**
 * A cheap slice of a PayloadBuf: handle + offset + length.  Keeps the
 * underlying buffer alive; copying a view is a handle pass, never a
 * byte copy.
 */
class PayloadView
{
  public:
    /** Empty view (frames with no live payload bytes, e.g. ACKs). */
    PayloadView() = default;

    PayloadView(PayloadBuf buf, std::size_t offset, std::size_t len)
        : _buf(std::move(buf)), _off(static_cast<std::uint32_t>(offset)),
          _len(static_cast<std::uint32_t>(len))
    {}

    /** Whole-buffer view. */
    explicit PayloadView(PayloadBuf buf)
        : _buf(std::move(buf)), _off(0),
          _len(static_cast<std::uint32_t>(_buf.size()))
    {}

    const std::uint8_t *data() const { return _buf.data() + _off; }
    std::size_t size() const { return _len; }
    bool empty() const { return _len == 0; }

    /** Byte @p i of the slice; reads 0 beyond the end (wire padding). */
    std::uint8_t
    byteAt(std::size_t i) const
    {
        return i < _len ? _buf.data()[_off + i] : 0;
    }

    const PayloadBuf &buffer() const { return _buf; }
    std::size_t offset() const { return _off; }

  private:
    PayloadBuf _buf;
    // 32-bit: a frame is queued at every hop, and two words fewer per
    // frame is 8% of every frame queue's memory.
    std::uint32_t _off = 0;
    std::uint32_t _len = 0;
};

} // namespace dagger::proto

#endif // DAGGER_PROTO_PAYLOAD_HH

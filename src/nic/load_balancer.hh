/**
 * @file
 * Request steering of the RPC unit (§4.4.2, §5.7).
 *
 * "The Load Balancer currently supports two request distribution
 * schemes: dynamic uniform steering and static load balancing. In
 * addition, we leave some room in the design for implementation of
 * application-specific load balancers (e.g. the Object-Level core
 * affinity mechanism in MICA)."  Each connection's tuple names its
 * scheme (LbScheme, §4.2) and DaggerNic::pickFlow applies it; the
 * Object-Level scheme hashes the request key on the NIC exactly as
 * §5.7 describes for the MICA tiers, with the hash below.
 */

#ifndef DAGGER_NIC_LOAD_BALANCER_HH
#define DAGGER_NIC_LOAD_BALANCER_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dagger::nic {

namespace detail {

/** FNV-1a's offset basis and its step over one byte. */
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

constexpr std::uint64_t
fnvStep(std::uint64_t h, std::uint8_t byte)
{
    return (h ^ byte) * 0x100000001b3ull;
}

} // namespace detail

/** FNV-1a over the key bytes: the Object-Level steering hash, exposed
 *  so apps can pre-shard. */
std::uint64_t objectKeyHash(const std::uint8_t *data, std::size_t len);

/**
 * objectKeyHash() over a run of keys that share prefixes, such as
 * sequentially numbered keys.  Each call returns exactly
 * objectKeyHash(data, len), but resumes FNV-1a from the state after
 * the prefix the key shares with the previous call's key, so keys that
 * differ only in their last digit cost one step each.  Prefix states
 * are kept for the first kPrefixMax bytes; bytes past them are hashed
 * on every call.
 */
class ObjectKeyHasher
{
  public:
    static constexpr std::size_t kPrefixMax = 32;

    std::uint64_t
    operator()(const std::uint8_t *data, std::size_t len)
    {
        const std::size_t kept = std::min(len, kPrefixMax);
        const std::size_t shared = std::min(kept, _prevLen);
        // The shared prefix: whole words while they match, then bytes
        // (on little-endian hosts the first differing word's lowest set
        // bit names its first differing byte).
        std::size_t i = 0;
        for (std::uint64_t a, b; i + 8 <= shared; i += 8) {
            std::memcpy(&a, data + i, 8);
            std::memcpy(&b, _prev + i, 8);
            if (a != b) {
                if constexpr (std::endian::native == std::endian::little)
                    i += static_cast<std::size_t>(std::countr_zero(a ^ b)) / 8;
                break;
            }
        }
        while (i < shared && data[i] == _prev[i])
            ++i;
        std::uint64_t h = _state[i];
        for (; i < kept; ++i) {
            h = detail::fnvStep(h, data[i]);
            _prev[i] = data[i];
            _state[i + 1] = h;
        }
        _prevLen = kept;
        for (; i < len; ++i)
            h = detail::fnvStep(h, data[i]);
        return h;
    }

  private:
    std::uint8_t _prev[kPrefixMax]; ///< the previous key's head
    std::size_t _prevLen = 0;       ///< valid bytes of _prev
    /// _state[i] is the FNV-1a state after _prev's first i bytes.
    std::uint64_t _state[kPrefixMax + 1] = {detail::kFnvBasis};
};

} // namespace dagger::nic

#endif // DAGGER_NIC_LOAD_BALANCER_HH

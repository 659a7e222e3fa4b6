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

#include <cstddef>
#include <cstdint>

namespace dagger::nic {

/** FNV-1a over the key bytes: the Object-Level steering hash, exposed
 *  so apps can pre-shard. */
std::uint64_t objectKeyHash(const std::uint8_t *data, std::size_t len);

} // namespace dagger::nic

#endif // DAGGER_NIC_LOAD_BALANCER_HH

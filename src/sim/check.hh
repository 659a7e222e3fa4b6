/**
 * @file
 * Runtime invariant checks for the discrete-event core.
 *
 * dagger_assert() (logging.hh) is always on and guards conditions that
 * are cheap and externally reachable (bad user config, API misuse).
 * The macros here guard *internal* model invariants — monotonic event
 * time, transaction-window bounds, ring occupancy arithmetic — that
 * are hot enough that Release builds compile them out entirely:
 *
 *   DAGGER_DCHECK(cond, ...)     debug check on a hot path; no side
 *                                effects allowed in the condition.
 *   DAGGER_INVARIANT(cond, ...)  named model invariant; same build
 *                                gating, but reads as documentation of
 *                                a paper-level property (e.g. "<=128
 *                                outstanding CCI-P transactions",
 *                                §4.4) and should cite context.
 *
 * Both abort with file/line and a formatted message when
 * DAGGER_ENABLE_CHECKS is defined — which CMake sets for Debug builds
 * and for every DAGGER_SANITIZE preset — and expand to nothing
 * otherwise.  The condition is NOT evaluated in Release, so it must be
 * side-effect free.
 */

#ifndef DAGGER_SIM_CHECK_HH
#define DAGGER_SIM_CHECK_HH

#include "sim/logging.hh"

#ifdef DAGGER_ENABLE_CHECKS

#define DAGGER_DCHECK(cond, ...) \
    do { \
        if (!(cond)) { \
            ::dagger::sim::detail::panicImpl(__FILE__, __LINE__, \
                ::dagger::sim::detail::format("DCHECK '" #cond \
                    "' failed. ", ##__VA_ARGS__)); \
        } \
    } while (0)

#define DAGGER_INVARIANT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::dagger::sim::detail::panicImpl(__FILE__, __LINE__, \
                ::dagger::sim::detail::format("invariant '" #cond \
                    "' violated. ", ##__VA_ARGS__)); \
        } \
    } while (0)

#else

#define DAGGER_DCHECK(cond, ...) \
    do { \
    } while (0)

#define DAGGER_INVARIANT(cond, ...) \
    do { \
    } while (0)

#endif // DAGGER_ENABLE_CHECKS

/**
 * Shard-ownership annotation for domain-owned mutable state.
 *
 * Placed in front of a member declaration, it names the execution
 * domain that may touch the member during a sharded round:
 *
 *   DAGGER_OWNED_BY(node)   std::uint64_t _forwarded = 0;
 *   DAGGER_OWNED_BY(fabric) std::vector<sim::RingQueue<Txn>> _queues;
 *
 * Domains: `node` (a DaggerNode's parallel shard: NIC pipeline, rings,
 * ToR-port egress, CCI window), `fabric` (shard 0: channel arbitration,
 * serial-phase state), `engine` (sharded-engine internals, owned by the
 * coordinator/worker protocol itself).  The macro expands to nothing —
 * it exists for tools/dagger_lint's whole-program ownership pass and
 * for human readers; sim::OwnershipGuard (sim/ownership.hh) is the
 * runtime twin.  Grammar and rule semantics: docs/ANALYSIS.md.
 */
#define DAGGER_OWNED_BY(domain)

#endif // DAGGER_SIM_CHECK_HH

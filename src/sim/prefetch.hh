/**
 * @file
 * Cache-warming hint shared by the event queue and the MICA store.
 *
 * DAGGER_PREFETCH_W(addr) starts a line fill for a write to @p addr.
 * It is only a hint: correctness never depends on it, and compilers
 * without the builtin expand it to nothing.
 */

#ifndef DAGGER_SIM_PREFETCH_HH
#define DAGGER_SIM_PREFETCH_HH

#if defined(__GNUC__)
#define DAGGER_PREFETCH_W(addr) __builtin_prefetch((addr), 1)
#else
#define DAGGER_PREFETCH_W(addr) ((void)0)
#endif

#endif // DAGGER_SIM_PREFETCH_HH

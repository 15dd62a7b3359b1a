/**
 * @file
 * The deterministic parallel-for.
 *
 * Work is partitioned statically: chunk c of C always receives the
 * same contiguous index range of [0, n), so the mapping of iterations
 * to threads never depends on scheduling. Combined with the
 * order-independent read sequencing of nandsim/read_seq.hh this lets
 * the evaluators produce bit-identical results at any thread count:
 * each iteration writes only its own output slot and the reduction
 * runs sequentially afterwards.
 */

#ifndef SENTINELFLASH_UTIL_THREAD_POOL_HH
#define SENTINELFLASH_UTIL_THREAD_POOL_HH

#include <functional>

namespace flash::util
{

/** Worker threads available on this machine (always >= 1). */
int hardwareThreads();

/**
 * Run fn(i) for every i in [0, n) and block until done. With
 * C = min(threads, n) chunks, chunk c covers the ceil(n/C) indices
 * starting at c * ceil(n/C); chunk 0 runs on the caller and chunks
 * 1…C−1 each on a thread of their own, joined before return. An
 * exception thrown by fn is rethrown here: that of the lowest
 * throwing chunk. threads <= 1 or n <= 1 runs inline.
 */
void parallelFor(int threads, int n, const std::function<void(int)> &fn);

} // namespace flash::util

#endif // SENTINELFLASH_UTIL_THREAD_POOL_HH

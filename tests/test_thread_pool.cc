#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace flash::util
{
namespace
{

TEST(ParallelFor, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(hardwareThreads(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (int threads = 1; threads <= 8; ++threads) {
        for (int n : {0, 1, threads - 1, threads, threads + 1, 1000}) {
            // Each slot is written by exactly one chunk, so plain ints.
            std::vector<int> hits(static_cast<std::size_t>(n), 0);
            parallelFor(threads, n, [&](int i) {
                ++hits[static_cast<std::size_t>(i)];
            });
            for (int i = 0; i < n; ++i) {
                EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
                    << "threads=" << threads << " n=" << n << " i=" << i;
            }
        }
    }
}

TEST(ParallelFor, EachChunkRunsOnOneThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (int threads = 1; threads <= 8; ++threads) {
        for (int n : {1, threads - 1, threads, threads + 1, 1000}) {
            if (n < 1)
                continue;
            std::vector<std::thread::id> ran(static_cast<std::size_t>(n));
            parallelFor(threads, n, [&](int i) {
                ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
            });
            const int chunks = std::min(threads, n);
            const int per = (n + chunks - 1) / chunks;
            std::set<std::thread::id> distinct;
            for (int i = 0; i < n; ++i) {
                const auto id = ran[static_cast<std::size_t>(i)];
                // Chunk 0 is the caller's; every index shares its
                // chunk's first thread.
                const auto want = i < per
                    ? caller
                    : ran[static_cast<std::size_t>(i / per * per)];
                EXPECT_EQ(id, want)
                    << "threads=" << threads << " n=" << n << " i=" << i;
                distinct.insert(id);
            }
            // Every thread is joined only after the last chunk, so no
            // two live chunks share an id.
            EXPECT_EQ(static_cast<int>(distinct.size()), (n + per - 1) / per)
                << "threads=" << threads << " n=" << n;
            EXPECT_LE(static_cast<int>(distinct.size()), chunks);
        }
    }
}

TEST(ParallelFor, HandlesFewerItemsThanThreads)
{
    std::vector<int> out(3, 0);
    parallelFor(8, 3, [&](int i) {
        out[static_cast<std::size_t>(i)] = i + 1;
    });
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelFor, ZeroItemsIsNoop)
{
    int calls = 0;
    parallelFor(4, 0, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ResultsMatchSerialRun)
{
    std::vector<double> serial(200), parallel(200);
    for (int i = 0; i < 200; ++i)
        serial[static_cast<std::size_t>(i)] = i * 0.5 + 1.0;

    parallelFor(4, 200, [&](int i) {
        parallel[static_cast<std::size_t>(i)] = i * 0.5 + 1.0;
    });
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, ExceptionsPropagate)
{
    // 4 chunks of 25: chunk 2 is [50, 75), chunk 3 is [75, 100). Chunk
    // 3 throws on its first index, chunk 2 late in its range; the
    // lowest throwing chunk's exception is the one rethrown.
    std::vector<int> ran(100, 0);
    try {
        parallelFor(4, 100, [&](int i) {
            ran[static_cast<std::size_t>(i)] = 1;
            if (i == 75)
                throw std::runtime_error("chunk 3");
            if (i == 70)
                throw std::runtime_error("chunk 2");
        });
        FAIL() << "no exception";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "chunk 2");
    }
    // Chunks 0 and 1 ran to the end before the rethrow.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(ran[static_cast<std::size_t>(i)], 1) << "i=" << i;
}

TEST(FreeParallelFor, InlineAndPooledAgree)
{
    std::vector<int> inline_out(50), pooled_out(50);
    parallelFor(1, 50, [&](int i) {
        inline_out[static_cast<std::size_t>(i)] = i * i;
    });
    parallelFor(4, 50, [&](int i) {
        pooled_out[static_cast<std::size_t>(i)] = i * i;
    });
    EXPECT_EQ(inline_out, pooled_out);
}

} // namespace
} // namespace flash::util

#include "util/thread_pool.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace flash::util
{

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

void
parallelFor(int threads, int n, const std::function<void(int)> &fn)
{
    const int chunks = std::min(threads, n);
    if (chunks <= 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    const int per = (n + chunks - 1) / chunks;
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chunks));
    const auto run = [&](int chunk) {
        try {
            const int end = std::min(n, (chunk + 1) * per);
            for (int i = chunk * per; i < end; ++i)
                fn(i);
        } catch (...) {
            errors[static_cast<std::size_t>(chunk)] = std::current_exception();
        }
    };
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(chunks - 1));
    const auto join = [&workers] {
        for (auto &t : workers)
            t.join();
    };
    try {
        for (int chunk = 1; chunk < chunks; ++chunk)
            workers.emplace_back(run, chunk);
    } catch (...) {
        // A thread that could not start: the started ones still read
        // fn and errors, and an unjoined std::thread ends the program.
        join();
        throw;
    }
    run(0);
    join();
    for (const auto &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace flash::util

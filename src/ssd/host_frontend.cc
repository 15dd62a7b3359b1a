#include "ssd/host_frontend.hh"

#include <algorithm>
#include <queue>

#include "util/rng.hh"

namespace flash::ssd
{

namespace
{

/** One submission queue's host stream and outstanding state. */
struct QueueState
{
    std::vector<trace::TraceRecord> stream; ///< round-robin slice
    std::size_t next = 0;                   ///< next stream index

    /** Outstanding completion times; the min frees a slot first. */
    std::priority_queue<double, std::vector<double>,
                        std::greater<double>>
        outstanding;

    double nextArrivalUs = 0.0; ///< open modes: generated arrival
    double lastSubmitUs = 0.0;  ///< clamp: submissions non-decreasing
    util::Rng rng{0};

    bool done() const { return next >= stream.size(); }
};

} // namespace

HostFrontend::HostFrontend(const FrontendConfig &config, SsdSim &sim)
    : config_(config), sim_(&sim)
{
    config_.validate();
}

FrontendReport
HostFrontend::run(const std::vector<trace::TraceRecord> &trace)
{
    const int nq = config_.queues;
    const int qd = config_.queueDepth;
    const bool closed = config_.mode == ArrivalMode::Closed;

    std::vector<QueueState> queues(static_cast<std::size_t>(nq));
    for (int q = 0; q < nq; ++q) {
        queues[static_cast<std::size_t>(q)].rng = util::Rng(
            util::hashCombine(config_.seed,
                              static_cast<std::uint64_t>(q)));
    }
    for (std::size_t i = 0; i < trace.size(); ++i)
        queues[i % static_cast<std::size_t>(nq)].stream.push_back(
            trace[i]);

    // Open modes generate each queue's arrival sequence up front:
    // fixed-rate ticks or a Poisson process, independent per queue.
    if (!closed) {
        const double mean_gap = 1.0 / config_.ratePerQueueUs;
        for (QueueState &qs : queues) {
            double t = 0.0;
            for (trace::TraceRecord &r : qs.stream) {
                t += config_.mode == ArrivalMode::OpenPoisson
                    ? qs.rng.exponential(mean_gap)
                    : mean_gap;
                r.timestampUs = t;
            }
        }
    }

    util::MetricsRegistry &metrics = sim_->metrics();
    metrics.add("frontend.queues", static_cast<std::uint64_t>(nq));
    metrics.add("frontend.queue_depth", static_cast<std::uint64_t>(qd));
    // Per-request updates go through handles bound once. They stay
    // valid until finishRun() moves the registry, after the loop.
    util::CounterHandle requests(metrics, "frontend.requests");
    util::HistogramHandle queue_wait(metrics, "frontend.queue_wait_us");
    util::HistogramHandle read_latency(metrics, "frontend.read_latency_us");

    FrontendReport rep;
    double first_submit = 0.0, last_done = 0.0;
    bool any = false;

    // A queue's next submission time: closed mode issues the moment a
    // slot frees (or immediately while filling); open modes wait for
    // the generated arrival, pushed back while the queue is at cap.
    const auto nextSubmit = [&](const QueueState &qs) {
        double s = closed ? qs.lastSubmitUs
                          : qs.stream[qs.next].timestampUs;
        if (static_cast<int>(qs.outstanding.size()) >= qd)
            s = std::max(s, qs.outstanding.top());
        return std::max(s, qs.lastSubmitUs);
    };

    for (;;) {
        int best = -1;
        double best_us = 0.0;
        for (int q = 0; q < nq; ++q) {
            const QueueState &qs =
                queues[static_cast<std::size_t>(q)];
            if (qs.done())
                continue;
            const double s = nextSubmit(qs);
            if (best < 0 || s < best_us) {
                best = q;
                best_us = s;
            }
        }
        if (best < 0)
            break;

        QueueState &qs = queues[static_cast<std::size_t>(best)];
        const trace::TraceRecord &req = qs.stream[qs.next];
        const double arrival =
            closed ? best_us : req.timestampUs;
        if (static_cast<int>(qs.outstanding.size()) >= qd)
            qs.outstanding.pop();

        const double done = sim_->submit(req, best_us, best);
        qs.outstanding.push(done);
        qs.lastSubmitUs = best_us;
        ++qs.next;

        requests.add();
        queue_wait.observe(best_us - arrival);
        if (req.isRead)
            read_latency.observe(done - arrival);

        if (!any) {
            first_submit = best_us;
            any = true;
        }
        last_done = std::max(last_done, done);
        ++rep.requests;
    }

    rep.device = sim_->finishRun();
    rep.makespanUs = any ? last_done - first_submit : 0.0;
    if (rep.makespanUs > 0.0) {
        rep.iops = static_cast<double>(rep.requests)
            / (rep.makespanUs * 1e-6);
    }
    if (const util::LatencyHistogram *h =
            rep.device.metrics.findHistogram("frontend.read_latency_us")) {
        rep.readP50Us = h->percentile(0.50);
        rep.readP99Us = h->percentile(0.99);
        rep.readP999Us = h->percentile(0.999);
    }
    return rep;
}

} // namespace flash::ssd

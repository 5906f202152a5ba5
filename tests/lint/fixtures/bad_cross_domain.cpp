// Fixture: raw concurrency primitives the lbsim-cross-domain check
// must flag. The model is single-threaded (DESIGN.md §13) and
// parallelism lives across sweep cells; an ad-hoc std:: primitive in
// model code would make results depend on thread scheduling.

#include <atomic>
#include <future>
#include <mutex>
#include <thread>

struct ShardScratch
{
    std::atomic<unsigned> retired{0}; // EXPECT(lbsim-cross-domain)
    std::mutex lock;                  // EXPECT(lbsim-cross-domain)
};

void
tickAllSms(ShardScratch &scratch)
{
    std::thread worker([&scratch] { // EXPECT(lbsim-cross-domain)
        scratch.retired.fetch_add(1);
    });
    std::atomic_thread_fence(std::memory_order_seq_cst); // EXPECT(lbsim-cross-domain)
    worker.join();
}

int
prefetchOffThread()
{
    auto pending = std::async([] { return 42; }); // EXPECT(lbsim-cross-domain)
    return pending.get();
}

struct DrainGate
{
    std::condition_variable readyCv; // EXPECT(lbsim-cross-domain)
    std::promise<void> drained;      // EXPECT(lbsim-cross-domain)
};

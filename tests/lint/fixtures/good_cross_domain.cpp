// Fixture: model-style code with no raw concurrency primitives; the
// lbsim-cross-domain check must stay silent. The model is
// single-threaded: per-SM queues are plain containers drained in
// SM-index order, and parallelism lives across sweep cells in the
// experiment engine, outside the model dirs.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

struct StagedRequest
{
    std::uint32_t smId = 0;
    std::uint64_t addr = 0;
};

class StagingLanes
{
  public:
    explicit StagingLanes(std::size_t sms) : lanes_(sms) {}

    /** Each SM appends only to its own lane. */
    void stage(const StagedRequest &req)
    {
        lanes_[req.smId].push_back(req);
    }

    /** Drain lanes in SM-index order. */
    std::vector<StagedRequest> drainInOrder()
    {
        std::vector<StagedRequest> drained;
        for (std::deque<StagedRequest> &lane : lanes_) {
            for (const StagedRequest &req : lane)
                drained.push_back(req);
            lane.clear();
        }
        return drained;
    }

  private:
    std::vector<std::deque<StagedRequest>> lanes_;
};

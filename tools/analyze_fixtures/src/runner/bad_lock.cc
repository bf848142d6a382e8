/**
 * @file
 * lock-discipline fixture (tools/fscache_analyze.py --self-test):
 * a mutex-holding class with one unannotated shared field and one
 * unguarded access to an FS_GUARDED_BY field.
 *
 * Expected findings:
 *   - unannotated_: no synchronization contract declared
 *   - bump: writes counter_ (FS_GUARDED_BY(mu_)) without the lock
 *   - emptyWhy_: its allow() exemption has no justification
 *
 * Must stay quiet:
 *   - bumpSafe (lexically under lock_guard on mu_)
 *   - drainLocked (*Locked naming: caller holds the lock)
 *   - name_ (allow() exemption with justification)
 *   - generation_ (std::atomic needs no guard)
 *   - the constructor (init before publication is exempt)
 */

#include <atomic>
#include <mutex>
#include <string>

#include "common/annotations.hh"

namespace fscache
{

class Pool
{
  public:
    explicit Pool(long start)
    {
        counter_ = start; // quiet: ctor runs before publication
    }

    void
    bump()
    {
        counter_ += 1; // BAD: guarded field, no lock held
    }

    void
    bumpSafe()
    {
        std::lock_guard<std::mutex> lk(mu_);
        counter_ += 1; // fine: mu_ lexically held
    }

    void
    drainLocked()
    {
        counter_ = 0; // fine: *Locked documents caller-holds-lock
    }

    void
    retire()
    {
        generation_.fetch_add(1); // fine: atomic
    }

  private:
    std::mutex mu_;
    long counter_ FS_GUARDED_BY(mu_) = 0;
    long unannotated_ = 0; // BAD: shared mutable, no contract
    // fs-analyze: allow(lock-discipline) const after construction.
    std::string name_;
    std::atomic<long> generation_{0};
    // fs-analyze: allow(lock-discipline)
    long emptyWhy_ = 0;
};

} // namespace fscache

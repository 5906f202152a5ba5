/**
 * @file
 * Clang thread-safety capability annotations (the compile-time race
 * detector behind -Wthread-safety) plus the annotated mutex the
 * simulator uses.
 *
 * lbsim::Mutex / lbsim::MutexLock wrap std::mutex for the state that is
 * shared across threads: the memo cache and the experiment engine's
 * report path, where sweep cells run concurrently. Members tagged
 * LB_GUARDED_BY a Mutex may only be touched while it is held; clang
 * proves it. The cycle model itself is single-threaded (one serial SM
 * loop per cycle, DESIGN.md §13), so it carries no capabilities.
 *
 * Under gcc, or under clang without thread-safety attributes, every
 * macro expands to nothing and the primitives cost exactly a
 * std::mutex.
 */

#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef LB_THREAD_ANNOTATION
#define LB_THREAD_ANNOTATION(x)
#endif

/** Declares a class to be a capability (lockable) type. */
#define LB_CAPABILITY(x) LB_THREAD_ANNOTATION(capability(x))
/** Declares an RAII class that acquires in its ctor, releases in dtor. */
#define LB_SCOPED_CAPABILITY LB_THREAD_ANNOTATION(scoped_lockable)
/** Member may only be accessed while holding capability @p x. */
#define LB_GUARDED_BY(x) LB_THREAD_ANNOTATION(guarded_by(x))
/** Pointee may only be accessed while holding capability @p x. */
#define LB_PT_GUARDED_BY(x) LB_THREAD_ANNOTATION(pt_guarded_by(x))
/** Function requires the listed capabilities to already be held. */
#define LB_REQUIRES(...) \
    LB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/** Function acquires the listed capabilities. */
#define LB_ACQUIRE(...) \
    LB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/** Function releases the listed capabilities. */
#define LB_RELEASE(...) \
    LB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/** Function acquires the capability when it returns @p success. */
#define LB_TRY_ACQUIRE(...) \
    LB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/** Caller must NOT hold the listed capabilities (deadlock guard). */
#define LB_EXCLUDES(...) LB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/** Asserts (without acquiring) that the capability is held. */
#define LB_ASSERT_CAPABILITY(x) LB_THREAD_ANNOTATION(assert_capability(x))
/** Function returns a reference to the named capability. */
#define LB_RETURN_CAPABILITY(x) LB_THREAD_ANNOTATION(lock_returned(x))
/** Escape hatch: skip analysis for one function (justify in a comment). */
#define LB_NO_THREAD_SAFETY_ANALYSIS \
    LB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace lbsim
{

/** std::mutex with capability annotations; use with MutexLock. */
class LB_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() LB_ACQUIRE() { m_.lock(); }
    void unlock() LB_RELEASE() { m_.unlock(); }
    bool try_lock() LB_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /** Underlying mutex for condition-variable waits. */
    std::mutex &native() { return m_; }

  private:
    std::mutex m_;
};

/** RAII lock for Mutex (annotated std::lock_guard equivalent). */
class LB_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) LB_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() LB_RELEASE() { m_.unlock(); }
    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

} // namespace lbsim

// Clang Thread Safety Analysis attribute macros — the compile-time half of
// the concurrency-correctness story (the TSan lane is the runtime half).
// Under Clang every PP_GUARDED_BY / PP_REQUIRES declaration below becomes a
// build error when violated (`-Werror=thread-safety` in the clang CI lane);
// under GCC and other compilers the macros expand to nothing, so the
// annotated tree still builds everywhere.
//
// The vocabulary (see https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//  * PP_CAPABILITY marks a class as a lockable capability (pp::Mutex).
//  * PP_SCOPED_CAPABILITY marks an RAII holder (pp::MutexLock).
//  * PP_GUARDED_BY(mu) on a member: reads and writes require holding `mu`.
//  * PP_REQUIRES(mu) on a function: callers must already hold `mu`.
//  * PP_EXCLUDES(mu) on a function: callers must NOT hold `mu`
//    (self-deadlock documentation; the analysis checks it where it can).
//  * PP_ACQUIRE / PP_RELEASE / PP_TRY_ACQUIRE on lock primitives.
//  * PP_RETURN_CAPABILITY(mu) on an accessor that hands out a reference to
//    the capability `mu` (PrecomputePolicy::serial_token()).
//  * PP_ASSERT_CAPABILITY on a runtime assertion that a lock is held —
//    the escape valve for call graphs the intra-procedural analysis cannot
//    follow (e.g. a std::function callback invoked under a lock).
//
// Only attach these through the pp::Mutex / pp::MutexLock / pp::CondVar
// wrappers in util/mutex.hpp — raw std::mutex outside src/util/ is rejected
// by the source lint (ci/lint.sh), so annotated code cannot silently bypass
// the analysis.
#pragma once

#if defined(__clang__)
#define PP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PP_THREAD_ANNOTATION(x)  // no-op off-Clang
#endif

#define PP_CAPABILITY(x) PP_THREAD_ANNOTATION(capability(x))
#define PP_SCOPED_CAPABILITY PP_THREAD_ANNOTATION(scoped_lockable)

#define PP_GUARDED_BY(x) PP_THREAD_ANNOTATION(guarded_by(x))
#define PP_PT_GUARDED_BY(x) PP_THREAD_ANNOTATION(pt_guarded_by(x))

#define PP_ACQUIRE(...) \
  PP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PP_RELEASE(...) \
  PP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PP_TRY_ACQUIRE(...) \
  PP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define PP_REQUIRES(...) \
  PP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PP_EXCLUDES(...) PP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define PP_RETURN_CAPABILITY(x) PP_THREAD_ANNOTATION(lock_returned(x))
#define PP_ASSERT_CAPABILITY(x) PP_THREAD_ANNOTATION(assert_capability(x))

#define PP_ACQUIRED_BEFORE(...) \
  PP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PP_ACQUIRED_AFTER(...) \
  PP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Deliberately not defined: NO_THREAD_SAFETY_ANALYSIS. The clang lane runs
// with zero suppressions; a call graph the analysis cannot follow gets a
// PP_ASSERT_CAPABILITY at the boundary (a checkable claim), not a blanket
// opt-out.

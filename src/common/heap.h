#ifndef DSKS_COMMON_HEAP_H_
#define DSKS_COMMON_HEAP_H_

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace dsks {

/// Returns the heap that free() kept for reuse to the system (glibc's
/// malloc_trim; nothing elsewhere). For right after a step that frees far
/// more than it keeps: glibc otherwise keeps most of it resident for the
/// life of the process.
inline void ReturnFreedHeap() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

}  // namespace dsks

#endif  // DSKS_COMMON_HEAP_H_

# Sanitizer configuration for the GRAPE-6 software twin.
#
# Exposed as an interface target (grape6_sanitizers) so the flags apply
# uniformly; the top-level list file attaches it with link_libraries()
# before any subdirectory is added, covering libraries, tests, tools,
# benches and examples alike.
#
# Select with the cache variable:
#
#   -DGRAPE6_SANITIZE=address,undefined   # ASan + UBSan + float-cast-overflow
#                                         # (asan-ubsan preset)
#   -DGRAPE6_SANITIZE=thread              # TSan        (tsan preset)
#   -DGRAPE6_SANITIZE=memory              # MSan        (clang only, no preset yet)
#
# ASan/TSan are mutually exclusive; UBSan is folded into the address run.
# -fno-sanitize-recover=all turns every UBSan diagnostic into a hard
# failure so ctest goes red on the first finding instead of logging and
# continuing.

set(GRAPE6_SANITIZE "" CACHE STRING
    "Sanitizer set: empty, 'address,undefined', 'thread', or 'memory'")
set_property(CACHE GRAPE6_SANITIZE PROPERTY STRINGS
             "" "address,undefined" "thread" "memory")

add_library(grape6_sanitizers INTERFACE)

if(GRAPE6_SANITIZE)
  if(GRAPE6_SANITIZE STREQUAL "address,undefined")
    # GCC's -fsanitize=undefined leaves float-cast-overflow out: without
    # it a double-to-integer cast out of range (a JSON number read with
    # a bare static_cast) is silent undefined behaviour.
    set(_g6_san_flags -fsanitize=address,undefined,float-cast-overflow
                      -fno-sanitize-recover=all)
  elseif(GRAPE6_SANITIZE STREQUAL "thread")
    set(_g6_san_flags -fsanitize=thread)
  elseif(GRAPE6_SANITIZE STREQUAL "memory")
    if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
      message(FATAL_ERROR
        "GRAPE6_SANITIZE=memory requires clang (an instrumented standard "
        "library); configure with CMAKE_CXX_COMPILER=clang++")
    endif()
    set(_g6_san_flags -fsanitize=memory -fsanitize-memory-track-origins)
  else()
    message(FATAL_ERROR
      "unknown GRAPE6_SANITIZE value '${GRAPE6_SANITIZE}' "
      "(expected 'address,undefined', 'thread', or 'memory')")
  endif()

  target_compile_options(grape6_sanitizers INTERFACE
    ${_g6_san_flags} -fno-omit-frame-pointer -g)
  target_link_options(grape6_sanitizers INTERFACE ${_g6_san_flags})
  message(STATUS "Sanitizers enabled: ${GRAPE6_SANITIZE}")
endif()

# Clang Thread Safety Analysis (-Wthread-safety): checks the
# G6_GUARDED_BY / G6_REQUIRES annotations from util/thread_annotations.hpp
# at compile time. Clang-only — the annotations are no-op macros on GCC —
# so requesting it under another compiler is a configuration error, not a
# silent skip. -Wthread-safety-beta adds the lock-ordering checks
# (G6_ACQUIRED_BEFORE/AFTER). Enabled by the clang-analysis preset.
option(GRAPE6_THREAD_SAFETY
       "Enable clang -Wthread-safety analysis (clang only)" OFF)

if(GRAPE6_THREAD_SAFETY)
  if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
    message(FATAL_ERROR
      "GRAPE6_THREAD_SAFETY requires clang (the thread safety attributes "
      "are no-ops elsewhere); configure with CMAKE_CXX_COMPILER=clang++")
  endif()
  target_compile_options(grape6_sanitizers INTERFACE
    -Wthread-safety -Wthread-safety-beta -Werror=thread-safety-analysis
    -Werror=thread-safety-attributes -Werror=thread-safety-precise)
  message(STATUS "Clang thread safety analysis enabled")
endif()

# Parse the kernel sources with __x86_64__ undefined, so the non-x86
# branches of the backend sources -- which an x86-64 build never
# compiles -- still compile. glibc then wants its 32-bit stubs header;
# an empty one will do. backend.cpp is left out: <atomic> and <memory>
# do not parse in this mode inside libstdc++.
#
#   cmake -DCXX=<g++> -DSRC=<repo>/src -DWORK=<scratch dir> \
#         -P non_x86_syntax.cmake
file(MAKE_DIRECTORY "${WORK}/gnu")
file(WRITE "${WORK}/gnu/stubs-32.h" "")
file(GLOB sources "${SRC}/dsp/backend_*.cpp")
list(APPEND sources "${SRC}/dsp/kernels.cpp" "${SRC}/common/rng.cpp")
set(failed "")
foreach(source IN LISTS sources)
  execute_process(
    COMMAND "${CXX}" -std=c++20 -U__x86_64__ -isystem "${WORK}"
            -fsyntax-only "-I${SRC}" "${source}"
    RESULT_VARIABLE result
    ERROR_VARIABLE errors)
  if(NOT result EQUAL 0)
    message("${source}:\n${errors}")
    list(APPEND failed "${source}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "does not compile with __x86_64__ undefined: ${failed}")
endif()
list(LENGTH sources count)
message("${count} sources compile with __x86_64__ undefined")

# Build-time provenance stamp: writes `git describe --always --dirty --tags`
# of SOURCE_DIR into the header OUTPUT as FPISA_BUILD_GIT_DESCRIBE, and
# rewrites it only when the text changes, so an unchanged stamp recompiles
# nothing. Run by the fpisa_git_describe target on every build:
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P cmake/git_describe.cmake
execute_process(
    COMMAND git describe --always --dirty --tags
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE describe
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
if(NOT describe)
  set(describe "unknown")
endif()
set(text "#define FPISA_BUILD_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()

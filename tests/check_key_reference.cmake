# README check: the fenced block under
# <summary><code>run_scenario --list-keys</code></summary> in README.md must
# equal what `run_scenario --list-keys` prints, byte for byte. CMakeLists.txt
# registers it as the readme_key_reference test:
#
#   cmake -DRUNNER=<run_scenario> -DREADME=<README.md> -DOUT=<prefix> \
#         -P check_key_reference.cmake
#
# On a mismatch it writes <prefix>.readme.txt and <prefix>.keys.txt and shows
# their diff. After a key changes, paste the binary's output into the block.
execute_process(COMMAND ${RUNNER} --list-keys OUTPUT_VARIABLE keys
                RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "run_scenario --list-keys failed (${run_rc})")
endif()

file(READ ${README} readme)
set(summary "<summary><code>run_scenario --list-keys</code></summary>")
string(FIND "${readme}" "${summary}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${README} has no ${summary} block")
endif()
string(SUBSTRING "${readme}" ${at} -1 rest)
set(fence "```text\n")
string(FIND "${rest}" "${fence}" open)
if(open EQUAL -1)
  message(FATAL_ERROR "${README}: no ${fence} fence after ${summary}")
endif()
string(LENGTH "${fence}" fence_len)
math(EXPR begin "${open} + ${fence_len}")
string(SUBSTRING "${rest}" ${begin} -1 rest)
# The closing fence starts a line; the block keeps the newline before it.
string(FIND "${rest}" "\n```" close)
if(close EQUAL -1)
  message(FATAL_ERROR "${README}: the --list-keys block is never closed")
endif()
math(EXPR close "${close} + 1")
string(SUBSTRING "${rest}" 0 ${close} block)

if(NOT block STREQUAL keys)
  file(WRITE ${OUT}.readme.txt "${block}")
  file(WRITE ${OUT}.keys.txt "${keys}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${OUT}.readme.txt ${OUT}.keys.txt)
  endif()
  message(FATAL_ERROR "README's key reference differs from run_scenario --list-keys "
                      "(${OUT}.readme.txt vs ${OUT}.keys.txt)")
endif()

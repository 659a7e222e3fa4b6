# ctest script for test_bench_goldens: run every bench binary once at
# a fixed --jobs count, strip the fields that measure the host rather
# than the simulation, and compare the SHA-256 of each normalized
# BENCH_<name>.json against the committed digest in goldens.txt.
#
# Stripped before hashing:
#   - "wall_clock_sec" (every bench): host wall time;
#   - "events_per_sec" / "wall_ms" (perf_sim_throughput only): the
#     engine self-benchmark's host-time rates.
# Every other byte — config, points, anchors, checks — is simulated
# output and must not move.  Every executable in BENCH_DIR must have a
# golden line, so a new bench cannot slip past unguarded.
#
# To re-take a golden after an intended change to simulated output,
# replace its line with the one printed for it on failure (the full
# set is also written to WORKDIR/bench_goldens.actual.txt), and say
# why in the commit.
#
# Expects: -DBENCH_DIR=<dir of bench binaries> -DWORKDIR=<scratch dir>
#          -DGOLDENS=<tests/bench/goldens.txt>

cmake_minimum_required(VERSION 3.16) # IN_LIST in script mode

if(NOT BENCH_DIR OR NOT WORKDIR OR NOT GOLDENS)
    message(FATAL_ERROR
        "usage: cmake -DBENCH_DIR=... -DWORKDIR=... -DGOLDENS=... -P ...")
endif()

set(jobs 4)

file(STRINGS ${GOLDENS} lines REGEX "^[a-z0-9_]+ [0-9a-f]+$")
set(expected_names "")
foreach(line IN LISTS lines)
    string(REPLACE " " ";" pair "${line}")
    list(GET pair 0 name)
    list(GET pair 1 digest)
    list(APPEND expected_names ${name})
    set(golden_${name} ${digest})
endforeach()

file(GLOB binaries LIST_DIRECTORIES false ${BENCH_DIR}/*)
set(names "")
foreach(bin IN LISTS binaries)
    get_filename_component(name ${bin} NAME)
    # Bench binaries have bare names; anything else there (a JSON
    # export from a run started in that directory) is not a bench.
    if(name MATCHES "^[a-z0-9_]+$")
        list(APPEND names ${name})
    endif()
endforeach()
list(SORT names)

set(failures "")
set(actual "")
foreach(name IN LISTS names)
    set(json ${WORKDIR}/bench_goldens_${name}.json)
    execute_process(
        COMMAND ${BENCH_DIR}/${name} --jobs ${jobs} --json ${json}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        list(APPEND failures "${name}: exited with ${rc}")
        continue()
    endif()

    file(READ ${json} text)
    string(REGEX REPLACE "\"wall_clock_sec\": [0-9.eE+-]+,\n" ""
           text "${text}")
    if(name STREQUAL "perf_sim_throughput")
        string(REGEX REPLACE ", \"(events_per_sec|wall_ms)\": [0-9.eE+-]+"
               "" text "${text}")
    endif()
    file(WRITE ${json}.normalized "${text}")
    file(SHA256 ${json}.normalized digest)
    string(APPEND actual "${name} ${digest}\n")

    if(NOT DEFINED golden_${name})
        string(CONCAT msg "${name}: no golden; add the line\n"
               "    ${name} ${digest}")
        list(APPEND failures "${msg}")
    elseif(NOT digest STREQUAL golden_${name})
        string(CONCAT msg "${name}: simulated output moved (normalized "
               "JSON in ${json}.normalized)\n"
               "    golden ${name} ${golden_${name}}\n"
               "    actual ${name} ${digest}")
        list(APPEND failures "${msg}")
    endif()
endforeach()

foreach(name IN LISTS expected_names)
    if(NOT name IN_LIST names)
        list(APPEND failures
             "${name}: golden listed but no such bench in ${BENCH_DIR}")
    endif()
endforeach()

file(WRITE ${WORKDIR}/bench_goldens.actual.txt "${actual}")
if(failures)
    list(JOIN failures "\n" report)
    message(FATAL_ERROR "bench goldens differ:\n${report}")
endif()

list(LENGTH names count)
message(STATUS "${count} bench JSON digests match ${GOLDENS}")

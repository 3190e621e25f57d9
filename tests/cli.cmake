# Drive the binaries' command lines: an example's run takes the
# observability flags it is given, and a mistyped argument stops a
# binary before it simulates. Called by the cli_args test as
#
#   cmake -DQUICKSTART=<binary> -DREALTIME_RNC=<binary>
#         -DMAPREDUCE_WORDCOUNT=<binary> -DCDN_OFFLOAD=<binary>
#         -DTABLE2=<binary> -DFIG17=<binary> -DFIG01=<binary>
#         -DFIG20=<binary> -DWORK=<dir> -P cli.cmake

file(MAKE_DIRECTORY "${WORK}")

# `bin --stats-json=F` exits 0, and F is JSON holding at least one run.
function(expect_stats_json bin)
    get_filename_component(name "${bin}" NAME)
    set(out "${WORK}/${name}.stats.json")
    file(REMOVE "${out}")
    execute_process(COMMAND "${bin}" "--stats-json=${out}"
        WORKING_DIRECTORY "${WORK}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} --stats-json=${out} exited with "
            "${rc}:\n${err}")
    endif()
    if(NOT EXISTS "${out}")
        message(FATAL_ERROR "${name} --stats-json=${out} wrote no file")
    endif()
    file(READ "${out}" json)
    string(JSON runs ERROR_VARIABLE bad LENGTH "${json}" runs)
    if(bad OR runs LESS 1)
        message(FATAL_ERROR "${out} is not a stats dump with a run: "
            "${bad}")
    endif()
endfunction()

# `bin arg` exits non-zero with nothing on stdout, naming arg on stderr.
function(expect_rejected bin arg)
    get_filename_component(name "${bin}" NAME)
    execute_process(COMMAND "${bin}" "${arg}"
        WORKING_DIRECTORY "${WORK}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(rc EQUAL 0 OR NOT out STREQUAL "")
        message(FATAL_ERROR "${name} ${arg} exited with ${rc} after "
            "printing:\n${out}")
    endif()
    string(FIND "${err}" "'${arg}'" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${name} ${arg}: stderr does not name "
            "'${arg}':\n${err}")
    endif()
endfunction()

expect_rejected("${TABLE2}" "--stats_json=x")
expect_rejected("${TABLE2}" "--sample-interval=abc")
expect_rejected("${CDN_OFFLOAD}" "abc")
expect_stats_json("${QUICKSTART}")
expect_stats_json("${REALTIME_RNC}")
expect_stats_json("${MAPREDUCE_WORDCOUNT}")

# `bin --faults=F` exits 0, where F is a file named name holding spec.
function(expect_drains bin name spec)
    get_filename_component(bin_name "${bin}" NAME)
    set(path "${WORK}/${name}")
    file(WRITE "${path}" "${spec}\n")
    execute_process(COMMAND "${bin}" "--faults=${path}"
        WORKING_DIRECTORY "${WORK}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bin_name} --faults=${path} exited with "
            "${rc}:\n${err}")
    endif()
endfunction()

# Fig. 17 attaches its tasks to a core by hand; a kill campaign on
# them must still let the run drain (no scheduler owns their exits).
expect_drains("${FIG17}" fig17_kills.json "{\"core\": {\"killRate\": 40}}")
# Fig. 1's baseline runs keep creating threads after their last task
# ends, and the baseline finds no victim for a NoC fault: the fault
# watchdog must count creations as progress and let each run drain.
expect_drains("${FIG01}" fig01_noc_dram.json
    "{\"noc\": {\"degradeRate\": 40}, \"dram\": {\"stallRate\": 40}}")

# `bin --faults=F --stats-json=S` exits 0, where F is a file named
# name holding spec, and every run in S carries the campaign's
# fault.injected stat: the campaign reached every chip bin built.
function(expect_faults_in_every_run bin name spec)
    get_filename_component(bin_name "${bin}" NAME)
    set(path "${WORK}/${name}")
    set(out "${WORK}/${name}.stats.json")
    file(WRITE "${path}" "${spec}\n")
    file(REMOVE "${out}")
    execute_process(COMMAND "${bin}" "--faults=${path}"
        "--stats-json=${out}"
        WORKING_DIRECTORY "${WORK}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bin_name} --faults=${path} exited with "
            "${rc}:\n${err}")
    endif()
    file(READ "${out}" json)
    string(JSON runs ERROR_VARIABLE bad LENGTH "${json}" runs)
    if(bad OR runs LESS 1)
        message(FATAL_ERROR "${out} is not a stats dump with a run: "
            "${bad}")
    endif()
    math(EXPR last "${runs} - 1")
    foreach(i RANGE ${last})
        string(JSON run ERROR_VARIABLE bad GET "${json}" runs ${i} run)
        string(JSON injected ERROR_VARIABLE bad
            GET "${json}" runs ${i} stats fault.injected)
        if(bad)
            message(FATAL_ERROR "${bin_name} --faults=${path}: run "
                "${run} has no fault.injected stat: the campaign "
                "never reached its chip")
        endif()
    endforeach()
endfunction()

# Fig. 20 builds its chips through runSmarco and, for its direct-path
# ablation, by hand: a campaign must arm both.
expect_faults_in_every_run("${FIG20}" fig20_kills.json
    "{\"core\": {\"killRate\": 40}}")

#!/usr/bin/env bash
# Build + test sweep across sanitizer modes, plus repo hygiene lints.
#
# Usage:
#   tools/check.sh              # plain, address (ASan+UBSan), thread (TSan)
#   tools/check.sh plain        # one mode only
#   tools/check.sh --quick      # lint + plain mode only (no sanitizer rebuilds)
#   tools/check.sh thread 'ThreadPool*:ParallelSweep*'   # mode + ctest -R filter
#   tools/check.sh --fuzz-seconds 60   # add a time-boxed fuzz soak (plain leg)
#   tools/check.sh perf         # throughput gate: bench_simspeed vs
#                               # BENCH_simspeed.json (tools/perf_compare.py)
#   tools/check.sh sampling     # the sampled engine under ASan+UBSan
#                               # (UB fatal, libstdc++ assertions on):
#                               # the SampledDifferential dual-replay
#                               # on the reduced fuzz corpus + paper
#                               # workloads, warming-state equality,
#                               # CI math, the restored and parallel
#                               # window replays against the warmed
#                               # one, and the boundary grid over
#                               # every stream length
#   tools/check.sh stack        # stack-vs-exact differential under ASan:
#                               # the single-pass stack engine against
#                               # exact replay on presets + fuzz corpus,
#                               # Mattson properties, analytic oracle,
#                               # and the shared three-C shadow pass
#                               # (SharedShadow) against live
#                               # classifiers
#   tools/check.sh traces       # trace generation under ASan+UBSan
#                               # (UB fatal, libstdc++ assertions
#                               # on): the golden trace
#                               # hashes, the delta sampler against
#                               # the upper_bound reference, and the
#                               # loop-nest interpreter tests, since
#                               # lowered references do raw address
#                               # arithmetic
#   tools/check.sh telemetry    # observability pipeline smoke: a plain
#                               # sweep with --interval and
#                               # --heatmap, then sac_report.py
#                               # check/render/diff over the manifests
#                               # (diff must catch an injected
#                               # regression and survive a zero
#                               # baseline)
#   tools/check.sh checkpoint   # live-point library end to end: the
#                               # Checkpoint differential tests, a
#                               # cold sampled sweep that writes the
#                               # .saclp library, a warm re-sweep that
#                               # must serve every cell from it with
#                               # byte-identical tables, and a
#                               # corrupt-library probe that must
#                               # silently warm and rewrite
#   tools/check.sh parallel     # intra-trace parallelism under TSan:
#                               # the Parallel/Sharded/IntraJobs/
#                               # SweepRequest/SharedShadow
#                               # differential tests (the
#                               # last racing shadow passes against
#                               # the cells that read them), the nested-
#                               # submission ThreadPool regressions,
#                               # then a CLI livepoint sweep whose
#                               # --intra-jobs 4 manifests must be
#                               # byte-identical to --intra-jobs 1
#                               # (modulo "timing") and a live sacd
#                               # sweep that must count
#                               # sacd_parallel_windows > 0 in the
#                               # metrics verb
#   tools/check.sh figures      # every figure/ablation bench at
#                               # --jobs 1 and --jobs 4 with
#                               # --emit-json (Release): stdout and
#                               # the manifest file names must be
#                               # identical, each manifest identical
#                               # modulo "timing" (not in the default
#                               # modes; several minutes)
#   tools/check.sh service      # sweep service end to end: the
#                               # Service* tests, then a live sacd
#                               # driven by sacctl — submit/status/
#                               # metrics verbs, streamed manifests
#                               # byte-identical to the CLI bench
#                               # path (modulo wall-clock timing),
#                               # and a SIGTERM mid-request that
#                               # must drain gracefully (client
#                               # still gets its full response)
#
# Each mode builds into build-check-<mode>/ with -DSAC_SANITIZE=<mode>
# (empty for plain) and runs ctest. The script stops at the first
# failing mode.
#
# Fuzzing: the structural invariant auditor observes every case of
# the differential fuzz sweep in every build (no build option). The
# address (ASan+UBSan) leg additionally replays the fixed-seed fuzz
# budget through examples/fuzz_replay; --fuzz-seconds N appends a
# randomized soak of N seconds to the plain leg.

set -euo pipefail
cd "$(dirname "$0")/.."

# Tracked-artifact lint: build outputs must never be committed. This
# catches re-additions of what .gitignore is meant to keep out.
tracked_artifacts="$(git ls-files | grep -E '^build[^/]*/|\.o$' || true)"
if [[ -n "${tracked_artifacts}" ]]; then
    echo "error: build artifacts are tracked by git:" >&2
    echo "${tracked_artifacts}" | head -20 >&2
    echo "(run: git rm -r --cached <path> and commit)" >&2
    exit 1
fi

fuzz_seconds=0
args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
      --fuzz-seconds)
        [[ $# -ge 2 ]] || { echo "--fuzz-seconds needs a value" >&2; exit 2; }
        fuzz_seconds="$2"
        shift 2 ;;
      --fuzz-seconds=*)
        fuzz_seconds="${1#*=}"
        shift ;;
      *)
        args+=("$1")
        shift ;;
    esac
done
set -- "${args[@]+"${args[@]}"}"

if [[ "${1:-}" == "--quick" ]]; then
    modes=(plain)
    filter="${2:-}"
else
    modes=("${1:-}")
    if [[ -z "${modes[0]}" ]]; then
        modes=(plain address thread)
    fi
    filter="${2:-}"
fi

for mode in "${modes[@]}"; do
    if [[ "$mode" == "perf" ]]; then
        # Perf leg: compare simulator throughput against the committed
        # baseline and the within-run fast-vs-general ratios. Fails on
        # >15% regression.
        build_dir="build-check-perf"
        echo "=== [perf] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" --target bench_simspeed
        echo "=== [perf] bench_simspeed ==="
        "${build_dir}/bench/bench_simspeed" \
            --benchmark_out="${build_dir}/simspeed.json" \
            --benchmark_out_format=json \
            --emit-json "${build_dir}/manifests"
        echo "=== [perf] compare vs BENCH_simspeed.json ==="
        python3 tools/perf_compare.py check "${build_dir}/simspeed.json"
        echo "=== [perf] OK ==="
        continue
    fi
    if [[ "$mode" == "sampling" ]]; then
        # Sampling leg: prove the statistical sampling engine against
        # ground truth under ASan+UBSan, with UB fatal — sampled-vs-
        # full dual replay on the reduced fuzz corpus and the paper
        # workloads, warming-vs-detailed bit-for-bit state equality,
        # the interval-coverage math, and the one period walker in all
        # three modes: the restored and parallel window replays
        # against the warmed one, at every stream length of a tiny
        # geometry.
        build_dir="build-check-sampling"
        echo "=== [sampling] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="address" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
            > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_sampling_test \
            --target sac_test_checkpoint_test \
            --target sac_test_parallel_test
        echo "=== [sampling] ctest (sampled dual-replay, walker modes) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" \
            -R 'Sampl|Warming|CheckpointDifferential|ParallelWindowDifferential|SampledBoundaries'
        echo "=== [sampling] OK ==="
        continue
    fi
    if [[ "$mode" == "stack" ]]; then
        # Stack leg: prove the single-pass stack-distance engine under
        # ASan+UBSan — bit-identical miss counts against exact replay
        # on the preset lattice and the standard-config subset of the
        # fuzz corpus, Mattson inclusion properties, the closed-form
        # independent-reference oracle, and the one-traversal harness
        # dispatch.
        build_dir="build-check-stack"
        echo "=== [stack] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="address" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_stack_engine_test \
            --target sac_test_shared_shadow_test
        echo "=== [stack] ctest (stack-vs-exact differential) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Stack|SharedShadow'
        echo "=== [stack] OK ==="
        continue
    fi
    if [[ "$mode" == "traces" ]]; then
        # Traces leg: the loop-nest interpreter walks lowered
        # references with raw pointer and address arithmetic, so pin
        # every golden trace hash, the sampler equivalence and the
        # interpreter's own tests (bounds and record-cap panics
        # included) under ASan+UBSan, with UB fatal.
        build_dir="build-check-traces"
        echo "=== [traces] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="address" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
            > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_trace_golden_test \
            --target sac_test_sampler_test \
            --target sac_test_loopnest_test
        echo "=== [traces] ctest (golden hashes, sampler, interpreter) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" \
            -R '^(TraceGolden|SamplerEquivalence|AffineExpr|ProgramTest|GeneratorTest)\.'
        echo "=== [traces] OK ==="
        continue
    fi
    if [[ "$mode" == "telemetry" ]]; then
        # Telemetry leg: drive the full observability pipeline end to
        # end in a plain build — run the interval differential tests
        # and the observer tests, sweep Figure 7 with
        # --interval/--heatmap, then validate + render the output with
        # sac_report.py and prove `diff` catches a planted regression.
        build_dir="build-check-telemetry"
        echo "=== [telemetry] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target bench_fig07_traffic_missratio \
            --target sac_test_interval_test \
            --target sac_test_telemetry_test \
            --target sac_test_observer_test
        echo "=== [telemetry] ctest (interval differential) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Interval|SetProfiler|Histogram|Prometheus|EventTrace|Observers'
        echo "=== [telemetry] instrumented sweep ==="
        run_dir="${build_dir}/telemetry-run"
        rm -rf "${run_dir}"
        "${build_dir}/bench/bench_fig07_traffic_missratio" \
            --jobs 2 --emit-json "${run_dir}" \
            --interval 2000 --heatmap > /dev/null
        ls "${run_dir}"/*.intervals.jsonl > /dev/null
        echo "=== [telemetry] sac_report.py check + render ==="
        python3 tools/sac_report.py check "${run_dir}"
        python3 tools/sac_report.py render "${run_dir}" \
            -o "${build_dir}/sac-report.html"
        echo "=== [telemetry] sac_report.py diff (self = clean) ==="
        python3 tools/sac_report.py diff "${run_dir}" "${run_dir}"
        echo "=== [telemetry] sac_report.py diff (planted regression) ==="
        perturbed="${build_dir}/telemetry-run-perturbed"
        rm -rf "${perturbed}"
        cp -r "${run_dir}" "${perturbed}"
        python3 - "${perturbed}" <<'EOF'
import glob, json, sys
path = sorted(glob.glob(sys.argv[1] + "/*.json"))[0]
with open(path) as f:
    doc = json.load(f)
doc["metrics"]["miss_ratio"] = doc["metrics"]["miss_ratio"] * 1.5 + 0.01
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
EOF
        if python3 tools/sac_report.py diff "${run_dir}" "${perturbed}" \
            > /dev/null 2>&1; then
            echo "error: sac_report.py diff missed the planted regression" >&2
            exit 1
        fi
        echo "=== [telemetry] sac_report.py diff (zero baseline) ==="
        # A baseline metric of exactly 0 used to divide to inf and fail
        # every diff; the comparison must fall back to the absolute
        # delta, so a drift inside the threshold still passes.
        zero_a="${build_dir}/telemetry-run-zero-a"
        zero_b="${build_dir}/telemetry-run-zero-b"
        rm -rf "${zero_a}" "${zero_b}"
        cp -r "${run_dir}" "${zero_a}"
        cp -r "${run_dir}" "${zero_b}"
        python3 - "${zero_a}" "${zero_b}" <<'EOF'
import glob, json, sys
for run, value in ((sys.argv[1], 0.0), (sys.argv[2], 0.01)):
    path = sorted(glob.glob(run + "/*.json"))[0]
    with open(path) as f:
        doc = json.load(f)
    doc["metrics"]["miss_ratio"] = value
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
EOF
        zero_out="$(python3 tools/sac_report.py diff \
            "${zero_a}" "${zero_b}")" || {
            echo "error: zero-baseline diff failed (inf regression?)" >&2
            echo "${zero_out}" >&2
            exit 1
        }
        if echo "${zero_out}" | grep -qi 'inf'; then
            echo "error: zero-baseline diff still emits inf:" >&2
            echo "${zero_out}" >&2
            exit 1
        fi
        echo "=== [telemetry] OK ==="
        continue
    fi
    if [[ "$mode" == "checkpoint" ]]; then
        # Checkpoint leg: prove the live-point library end to end —
        # the Checkpoint differential + invalidation tests, then a
        # cold sampled sweep that builds and persists the library, a
        # warm re-sweep that must serve every cell from it (hits > 0,
        # zero misses) with byte-identical figure tables, and a
        # corrupt-library probe that must silently warm and rewrite
        # (stale counted, same tables) instead of restoring garbage.
        build_dir="build-check-checkpoint"
        echo "=== [checkpoint] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_checkpoint_test \
            --target sac_test_trace_test \
            --target bench_fig07_traffic_missratio
        echo "=== [checkpoint] ctest (differential + invalidation) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Checkpoint|ArchState|TraceIoSkip'
        lib_dir="${build_dir}/checkpoint-lib"
        rm -rf "${lib_dir}" "${build_dir}"/checkpoint-run-* \
            "${build_dir}"/checkpoint-*.txt
        ck_sweep() {
            "${build_dir}/bench/bench_fig07_traffic_missratio" \
                --jobs 2 --sample --checkpoint-dir "${lib_dir}" \
                --emit-json "${build_dir}/checkpoint-run-$1" \
                > "${build_dir}/checkpoint-$1.txt"
        }
        ck_counters() {
            # Sum the library-outcome counters over one run's sampled
            # manifests and assert the expected outcome mix.
            python3 - "${build_dir}/checkpoint-run-$1" "$2" <<'EOF'
import glob, json, sys
run_dir, expect = sys.argv[1], sys.argv[2]
blocks = []
for path in sorted(glob.glob(run_dir + "/*.json")):
    with open(path) as f:
        doc = json.load(f)
    ck = doc.get("metrics", {}).get("checkpoint")
    if ck is None:
        continue
    if doc.get("engine") != "sampled-livepoint":
        sys.exit(f"{path}: checkpoint block without livepoint engine")
    blocks.append(ck)
if not blocks:
    sys.exit(f"{run_dir}: no sampled-livepoint manifests")
# Each manifest carries its own cell's outcome; the run totals are
# their sum.
ck = {key: sum(b.get(key, 0) for b in blocks)
      for key in ("hits", "misses", "stale", "bytes")}
hits, misses, stale = ck["hits"], ck["misses"], ck["stale"]
if any(b.get("bytes", 0) <= 0 for b in blocks):
    sys.exit(f"{run_dir}: checkpoint.bytes not accounted")
if expect == "cold" and not (misses > 0 and hits == 0 and stale == 0):
    sys.exit(f"{run_dir}: cold run expected all misses, got {ck}")
if expect == "warm" and not (hits > 0 and misses == 0 and stale == 0):
    sys.exit(f"{run_dir}: warm run expected all hits, got {ck}")
if expect == "stale" and not (stale >= 1 and misses >= 1):
    sys.exit(f"{run_dir}: stale run expected a rewrite, got {ck}")
print(f"  {expect}: hits={hits} misses={misses} stale={stale}")
EOF
        }
        echo "=== [checkpoint] cold sweep (builds the library) ==="
        ck_sweep cold
        ck_counters cold cold
        echo "=== [checkpoint] warm re-sweep (must hit the library) ==="
        ck_sweep warm
        ck_counters warm warm
        diff "${build_dir}/checkpoint-cold.txt" \
            "${build_dir}/checkpoint-warm.txt"
        echo "=== [checkpoint] corrupt-library probe (must warm) ==="
        victim="$(find "${lib_dir}" -name '*.saclp' | head -1)"
        [[ -n "${victim}" ]] || { echo "no .saclp written" >&2; exit 1; }
        python3 - "${victim}" <<'EOF'
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(40)
    byte = f.read(1)
    f.seek(40)
    f.write(bytes([byte[0] ^ 0x20]))
EOF
        ck_sweep stale
        ck_counters stale stale
        diff "${build_dir}/checkpoint-cold.txt" \
            "${build_dir}/checkpoint-stale.txt"
        echo "=== [checkpoint] OK ==="
        continue
    fi
    if [[ "$mode" == "parallel" ]]; then
        # Parallel leg: prove the parallel sweep paths — the
        # concurrent live-point window replay, the engine-level
        # set-sharded stack pass, stack passes running side by side
        # on the sweep pool and every SweepRequest path through
        # Runner::run() — race-clean under TSan and bit-identical to
        # their serial counterparts end to end. The CLI differential
        # runs the same warm livepoint sweep with --intra-jobs 1 and
        # 4; every manifest must match modulo the wall-clock "timing"
        # object and the parallel run must attach timing.parallel.
        # The live daemon run must serve identical tables and count
        # parallel windows through the metrics verb.
        build_dir="build-check-parallel"
        echo "=== [parallel] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="thread" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_parallel_test \
            --target sac_test_shared_shadow_test \
            --target sac_test_sweep_request_test \
            --target sac_test_thread_pool_test \
            --target sac_test_service_test \
            --target sacd --target sacctl \
            --target bench_fig07_traffic_missratio
        echo "=== [parallel] ctest (differentials, TSan) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" \
            -R 'Parallel|Sharded|IntraJobs|ThreadPool|MergeAlgebra|SharedShadow|SweepRequest|ServiceServer.ConcurrentClientsShareOneStackPass'
        par_dir="${build_dir}/parallel-run"
        rm -rf "${par_dir}"
        mkdir -p "${par_dir}"
        echo "=== [parallel] CLI differential: --intra-jobs 4 vs 1 ==="
        par_sweep() {
            "${build_dir}/bench/bench_fig07_traffic_missratio" \
                --jobs 2 --sample --sample-window 256 \
                --sample-stride 1024 --sample-warmup 512 \
                --checkpoint-dir "${par_dir}/lib" \
                --intra-jobs "$1" \
                --emit-json "${par_dir}/run-$2" \
                > "${par_dir}/table-$2.txt"
        }
        par_sweep 1 cold # builds the live-point libraries
        par_sweep 1 serial
        par_sweep 4 parallel
        diff "${par_dir}/table-serial.txt" \
            "${par_dir}/table-parallel.txt"
        python3 tools/sac_report.py same "${par_dir}/run-serial" \
            "${par_dir}/run-parallel"
        python3 - "${par_dir}/run-parallel" <<'EOF'
import glob, json, sys
counted = 0
for path in sorted(glob.glob(sys.argv[1] + "/*.json")):
    with open(path) as f:
        par = json.load(f).get("timing", {}).get("parallel")
    if par is not None:
        if par.get("windows", 0) <= 0:
            sys.exit(f"{path}: timing.parallel without windows")
        counted += 1
if counted == 0:
    sys.exit("no parallel-run manifest carries timing.parallel")
print(f"  {counted} manifests carry timing.parallel")
EOF
        echo "=== [parallel] live sacd sweep (metrics must count) ==="
        sock="${par_dir}/sacd.sock"
        ctl() { "${build_dir}/examples/sacctl" --socket="${sock}" "$@"; }
        "${build_dir}/examples/sacd" --socket="${sock}" \
            --workers=2 --queue-cap=4 > "${par_dir}/sacd.log" 2>&1 &
        sacd_pid=$!
        trap 'kill "${sacd_pid}" 2>/dev/null || true' EXIT
        for _ in $(seq 1 100); do
            [[ -S "${sock}" ]] && break
            kill -0 "${sacd_pid}" 2>/dev/null \
                || { cat "${par_dir}/sacd.log" >&2; exit 1; }
            sleep 0.1
        done
        [[ -S "${sock}" ]] || { echo "sacd never bound ${sock}" >&2; exit 1; }
        svc_submit() {
            ctl submit --workloads=MV,SpMV --presets=standard,soft \
                --metric=miss-ratio --engine=sampled-livepoint \
                --jobs=2 --intra-jobs="$1" \
                --sample-window=256 --sample-stride=1024 \
                --sample-warmup=512 \
                --checkpoint-dir="${par_dir}/svc-lib" \
                > "${par_dir}/svc-table-$1.txt"
        }
        # The parallel submit must come first: the daemon's shared
        # runner latches finished cells in its in-memory store, so
        # whichever request runs second is served from the store
        # without replaying any windows. Cold library builds route
        # through the parallel replay too, so request #1 is the one
        # that counts sacd_parallel_windows.
        svc_submit 4
        svc_submit 1
        diff "${par_dir}/svc-table-1.txt" "${par_dir}/svc-table-4.txt"
        ctl metrics > "${par_dir}/metrics.prom"
        windows="$(awk '$1 == "sacd_parallel_windows" { print $2 }' \
            "${par_dir}/metrics.prom")"
        [[ -n "${windows}" && "${windows}" -gt 0 ]] || {
            echo "sacd_parallel_windows not counted: '${windows:-absent}'" >&2
            exit 1
        }
        ctl shutdown > /dev/null
        wait "${sacd_pid}" || { echo "sacd exited non-zero" >&2; exit 1; }
        trap - EXIT
        echo "=== [parallel] OK ==="
        continue
    fi
    if [[ "$mode" == "service" ]]; then
        # Service leg: prove the sweep daemon end to end — the
        # Service* unit/integration tests, then a live sacd driven
        # over its Unix socket by sacctl. The streamed manifests must
        # be byte-identical to what the CLI bench path writes with
        # --emit-json (modulo the wall-clock "timing" object), the
        # status/metrics verbs must report the admitted request, and
        # a SIGTERM while a request is in flight must drain
        # gracefully: the client still receives its full response and
        # the daemon exits 0 after "sacd: stopped".
        build_dir="build-check-service"
        echo "=== [service] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sacd --target sacctl \
            --target sac_test_service_test \
            --target sac_test_sweep_request_test \
            --target bench_fig07_traffic_missratio
        echo "=== [service] ctest (protocol + server + request API) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Service|SweepRequest'
        svc_dir="${build_dir}/service-run"
        rm -rf "${svc_dir}"
        mkdir -p "${svc_dir}"
        sock="${svc_dir}/sacd.sock"
        ctl() { "${build_dir}/examples/sacctl" --socket="${sock}" "$@"; }
        echo "=== [service] CLI reference sweep (--emit-json) ==="
        "${build_dir}/bench/bench_fig07_traffic_missratio" \
            --jobs 2 --emit-json "${svc_dir}/cli-manifests" \
            > "${svc_dir}/cli-table.txt"
        echo "=== [service] start sacd ==="
        "${build_dir}/examples/sacd" --socket="${sock}" \
            --workers=2 --queue-cap=4 > "${svc_dir}/sacd.log" 2>&1 &
        sacd_pid=$!
        trap 'kill "${sacd_pid}" 2>/dev/null || true' EXIT
        for _ in $(seq 1 100); do
            [[ -S "${sock}" ]] && break
            kill -0 "${sacd_pid}" 2>/dev/null \
                || { cat "${svc_dir}/sacd.log" >&2; exit 1; }
            sleep 0.1
        done
        [[ -S "${sock}" ]] || { echo "sacd never bound ${sock}" >&2; exit 1; }
        echo "=== [service] submit: streamed vs CLI manifests ==="
        ctl submit --workloads=MV,SpMV \
            --presets=standard,soft-temporal,soft-spatial,soft \
            --metric=miss-ratio --jobs=2 \
            --out="${svc_dir}/streamed" > "${svc_dir}/svc-table.txt"
        # Every streamed manifest must match its CLI counterpart; the
        # CLI run also wrote the Figure 7 cells the submit did not ask
        # for.
        python3 tools/sac_report.py same --subset "${svc_dir}/streamed" \
            "${svc_dir}/cli-manifests"
        echo "=== [service] status + metrics verbs ==="
        ctl status > "${svc_dir}/status.json"
        python3 - "${svc_dir}/status.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc.get("requests", doc)
if counters.get("accepted", 0) < 1:
    sys.exit(f"status did not count the accepted request: {doc}")
if counters.get("completed", 0) < 1:
    sys.exit(f"status did not count the completed request: {doc}")
EOF
        ctl metrics > "${svc_dir}/metrics.prom"
        grep -q 'sacd_request_accepted' "${svc_dir}/metrics.prom"
        grep -q 'sacd_request_completed' "${svc_dir}/metrics.prom"
        echo "=== [service] SIGTERM mid-request drains gracefully ==="
        ctl submit --workloads=MDG,BDN,DYF --presets=victim,2way \
            --metric=amat --jobs=2 \
            --out="${svc_dir}/drain" > "${svc_dir}/drain-table.txt" &
        client_pid=$!
        sleep 0.5
        kill -TERM "${sacd_pid}"
        wait "${client_pid}" \
            || { echo "client lost its in-flight sweep" >&2; exit 1; }
        [[ -s "${svc_dir}/drain-table.txt" ]] \
            || { echo "drained client received no table" >&2; exit 1; }
        wait "${sacd_pid}" \
            || { echo "sacd exited non-zero" >&2; exit 1; }
        trap - EXIT
        grep -q 'sacd: stopped' "${svc_dir}/sacd.log"
        [[ ! -S "${sock}" ]] \
            || { echo "socket not unlinked on drain" >&2; exit 1; }
        echo "=== [service] OK ==="
        continue
    fi
    if [[ "$mode" == "figures" ]]; then
        # Figures leg: every table a bench prints is independent of the
        # worker count. Each figure/ablation bench runs at --jobs 1 and
        # --jobs 4 with --emit-json; stdout must be byte-identical and
        # the manifests identical modulo "timing".
        build_dir="build-check-figures"
        benches=(bench_fig01_locality bench_fig03_bypass_victim
                 bench_fig04_instrumentation bench_fig06_amat
                 bench_fig07_traffic_missratio bench_fig08_linesize
                 bench_fig09_size_assoc bench_fig10_latency_subr
                 bench_fig11_blocking_copying bench_fig12_prefetch
                 bench_profile_tags bench_related_work bench_robustness
                 bench_ablation_design)
        echo "=== [figures] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=Release > /dev/null
        targets=()
        for b in "${benches[@]}"; do
            targets+=(--target "$b")
        done
        cmake --build "${build_dir}" -j "$(nproc)" "${targets[@]}"
        fig_dir="${build_dir}/figures-run"
        rm -rf "${fig_dir}"
        for b in "${benches[@]}"; do
            echo "=== [figures] ${b}: --jobs 1 vs --jobs 4 ==="
            for jobs in 1 4; do
                mkdir -p "${fig_dir}/jobs${jobs}"
                "${build_dir}/bench/${b}" --jobs "${jobs}" \
                    --emit-json "${fig_dir}/jobs${jobs}/${b}" \
                    > "${fig_dir}/jobs${jobs}/${b}.txt"
            done
            cmp "${fig_dir}/jobs1/${b}.txt" "${fig_dir}/jobs4/${b}.txt"
            if [[ -d "${fig_dir}/jobs1/${b}" ]]; then
                python3 tools/sac_report.py same \
                    "${fig_dir}/jobs1/${b}" "${fig_dir}/jobs4/${b}"
            elif [[ -d "${fig_dir}/jobs4/${b}" ]]; then
                echo "${b}: manifests only at --jobs 4" >&2
                exit 1
            fi
        done
        echo "=== [figures] OK ==="
        continue
    fi
    case "$mode" in
      plain)   sanitize="" ;;
      address) sanitize="address" ;;
      thread)  sanitize="thread" ;;
      *) echo "unknown mode '$mode' (plain|address|thread|perf|sampling|stack|telemetry|checkpoint|parallel|service|figures|--quick)" >&2; exit 2 ;;
    esac
    build_dir="build-check-${mode}"
    echo "=== [${mode}] configure + build (${build_dir}) ==="
    cmake -B "${build_dir}" -S . -DSAC_SANITIZE="${sanitize}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    cmake --build "${build_dir}" -j "$(nproc)"
    echo "=== [${mode}] ctest ==="
    ctest_args=(--test-dir "${build_dir}" --output-on-failure -j "$(nproc)")
    if [[ -n "${filter}" ]]; then
        ctest_args+=(-R "${filter}")
    fi
    ctest "${ctest_args[@]}"
    if [[ "$mode" == "address" ]]; then
        echo "=== [${mode}] fixed-seed fuzz budget ==="
        "${build_dir}/examples/fuzz_replay" --cases 5000
    fi
    if [[ "$mode" == "plain" && "${fuzz_seconds}" -gt 0 ]]; then
        echo "=== [${mode}] fuzz soak (${fuzz_seconds}s) ==="
        "${build_dir}/examples/fuzz_replay" --seconds "${fuzz_seconds}"
    fi
    echo "=== [${mode}] OK ==="
done

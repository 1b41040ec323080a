#!/bin/sh
# Tier-1 verification: full build + test suite, as required by ROADMAP.md.
# Usage: bench/check.sh  (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== smoke: campaign determinism across shard counts =="
# --shards 1 runs every cell inline; 2 and 4 deal them to worker
# processes.  stdout must be byte-identical at every count.
CLI=_build/default/bin/metamut_cli.exe
if [ -x "$CLI" ]; then
  "$CLI" campaign --iterations 10 --shards 1 > /tmp/campaign_1.txt
  for K in 2 4; do
    "$CLI" campaign --iterations 10 --shards "$K" > "/tmp/campaign_$K.txt"
    if cmp -s /tmp/campaign_1.txt "/tmp/campaign_$K.txt"; then
      echo "campaign output identical for --shards 1 and --shards $K"
    else
      echo "FAIL: campaign output differs between --shards 1 and --shards $K" >&2
      diff /tmp/campaign_1.txt "/tmp/campaign_$K.txt" >&2 || true
      exit 1
    fi
  done
fi

echo "== smoke: the removed --jobs and --trace flags and worker subcommand are refused =="
if [ -x "$CLI" ]; then
  if "$CLI" campaign --iterations 5 --jobs 2 > /dev/null 2>&1; then
    echo "FAIL: campaign --jobs 2 was accepted" >&2
    exit 1
  fi
  echo "campaign --jobs 2 exits non-zero"
  if "$CLI" fuzz -n 3 --trace > /dev/null 2>&1; then
    echo "FAIL: fuzz --trace was accepted" >&2
    exit 1
  fi
  echo "fuzz --trace exits non-zero"
  # workers are forked by the pool; there is no exec'd worker entry point
  if "$CLI" worker < /dev/null > /dev/null 2>&1; then
    echo "FAIL: metamut_cli worker was accepted" >&2
    exit 1
  fi
  echo "metamut_cli worker exits non-zero"
fi

echo "== smoke: bad input fails with a diagnostic =="
# Malformed programs, fault specs, mutator and corpus names, and
# out-of-range numbers must each print a one-line diagnostic and exit
# non-zero, never cmdliner's exit-125 "internal error, uncaught
# exception" banner.
if [ -x "$CLI" ]; then
  BAD=$(mktemp -d)
  printf 'int main(void) { return undeclared; }\n' > "$BAD/type.c"
  printf 'int main( {\n' > "$BAD/parse.c"
  # usage: bad_input LABEL EXPECTED-STDERR-TEXT COMMAND...
  bad_input() {
    LABEL=$1
    EXPECT=$2
    shift 2
    set +e
    "$@" > /dev/null 2> "$BAD/err"
    RC=$?
    set -e
    if [ "$RC" -eq 0 ] || [ "$RC" -eq 125 ] \
        || grep -q 'internal error' "$BAD/err" \
        || ! grep -q -- "$EXPECT" "$BAD/err"; then
      echo "FAIL: $LABEL exited $RC without the expected diagnostic" >&2
      cat "$BAD/err" >&2
      exit 1
    fi
    echo "$LABEL: exit $RC, $(head -n 1 "$BAD/err")"
  }
  bad_input "compile --emit-ir (type error)" "undeclared" \
    "$CLI" compile --emit-ir "$BAD/type.c"
  bad_input "compile --emit-ir (parse error)" "expected" \
    "$CLI" compile --emit-ir "$BAD/parse.c"
  bad_input "--faults crash=0.1" "--faults" \
    "$CLI" fuzz -n 3 --faults crash=0.1
  bad_input "METAMUT_FAULTS=crash=0.1" "METAMUT_FAULTS" \
    env METAMUT_FAULTS=crash=0.1 "$CLI" fuzz -n 3
  bad_input "METAMUT_FAULT_SEED=abc" "METAMUT_FAULT_SEED" \
    env METAMUT_FAULT_SEED=abc "$CLI" fuzz -n 3
  bad_input "mutate -m NoSuch" "NoSuch" \
    "$CLI" mutate -m NoSuch "$BAD/type.c"
  bad_input "fuzz --corpus nosuch" "--corpus" \
    "$CLI" fuzz -n 3 --corpus nosuch
  bad_input "passes -O 9" "'-O'" \
    "$CLI" passes -O 9
  bad_input "campaign --opt-matrix=-1" "--opt-matrix" \
    "$CLI" campaign --iterations 5 --opt-matrix=-1
  bad_input "campaign --shards=-2" "--shards" \
    "$CLI" campaign --iterations 5 --shards=-2
  # shard limits: a hang timeout that is not > 0 would leave the pool
  # spinning, and a zero deadline or budget would kill every lease
  bad_input "campaign --hang-timeout 0" "--hang-timeout" \
    "$CLI" campaign --iterations 5 --hang-timeout 0
  bad_input "campaign --hang-timeout=-1" "--hang-timeout" \
    "$CLI" campaign --iterations 5 --hang-timeout=-1
  bad_input "campaign --hang-timeout nan" "--hang-timeout" \
    "$CLI" campaign --iterations 5 --hang-timeout nan
  bad_input "campaign --lease-deadline=0" "--lease-deadline" \
    "$CLI" campaign --iterations 5 --lease-deadline=0
  bad_input "campaign --alloc-budget=0" "--alloc-budget" \
    "$CLI" campaign --iterations 5 --alloc-budget=0
  # negative counts: refused, never run, clamped or crashed on
  bad_input "fuzz --iterations=-5" "--iterations" \
    "$CLI" fuzz --iterations=-5
  bad_input "fuzz --pool-max=-3" "--pool-max" \
    "$CLI" fuzz -n 5 --pool-max=-3
  bad_input "fuzz --sample-every=-2" "--sample-every" \
    "$CLI" fuzz -n 5 --sample-every=-2
  bad_input "generate -n-2" "'-n'" \
    "$CLI" generate -n-2
  bad_input "generate --retry-budget=-4" "--retry-budget" \
    "$CLI" generate -n 2 --retry-budget=-4
  bad_input "campaign --iterations=-1" "--iterations" \
    "$CLI" campaign --iterations=-1
  bad_input "campaign --sample-every=-1" "--sample-every" \
    "$CLI" campaign --iterations 5 --sample-every=-1
  rm -rf "$BAD"
fi

echo "== smoke: faulted campaign determinism across shard counts =="
if [ -x "$CLI" ]; then
  FAULTS="hang=0.05,oom=0.2"
  "$CLI" campaign --iterations 10 --shards 1 --faults "$FAULTS" --fault-seed 3 \
    > /tmp/campaign_f1.txt 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 4 --faults "$FAULTS" --fault-seed 3 \
    > /tmp/campaign_f4.txt 2> /dev/null
  if cmp -s /tmp/campaign_f1.txt /tmp/campaign_f4.txt; then
    echo "faulted campaign output identical for --shards 1 and --shards 4"
  else
    echo "FAIL: faulted campaign output differs between shard counts" >&2
    diff /tmp/campaign_f1.txt /tmp/campaign_f4.txt >&2 || true
    exit 1
  fi
fi

echo "== smoke: campaign checkpoint/resume round-trip =="
if [ -x "$CLI" ]; then
  CKPT=$(mktemp -d)
  "$CLI" campaign --iterations 10 --shards 2 --checkpoint "$CKPT" \
    > /tmp/campaign_ckpt.txt 2> /dev/null
  # lose one completed cell, as a mid-run kill would
  rm "$CKPT/journal-uCFuzz.s-GCC.ckpt"
  "$CLI" campaign --iterations 10 --shards 2 --checkpoint "$CKPT" --resume \
    > /tmp/campaign_resume.txt 2> /dev/null
  if cmp -s /tmp/campaign_ckpt.txt /tmp/campaign_resume.txt; then
    echo "resumed campaign output identical to the uninterrupted run"
  else
    echo "FAIL: resumed campaign output differs from the original" >&2
    diff /tmp/campaign_ckpt.txt /tmp/campaign_resume.txt >&2 || true
    exit 1
  fi
  rm -rf "$CKPT"
fi

echo "== smoke: telemetry artifacts =="
if [ -x "$CLI" ]; then
  TEL=$(mktemp -d)
  # Telemetry must be a pure observer: the fuzz result printed on
  # stdout has to be byte-identical with and without --telemetry.
  "$CLI" fuzz -n 40 --seed 7 > /tmp/fuzz_plain.txt 2> /dev/null
  "$CLI" fuzz -n 40 --seed 7 --telemetry "$TEL" \
    > /tmp/fuzz_tel.txt 2> /dev/null
  if ! cmp -s /tmp/fuzz_plain.txt /tmp/fuzz_tel.txt; then
    echo "FAIL: --telemetry changed the fuzz output" >&2
    diff /tmp/fuzz_plain.txt /tmp/fuzz_tel.txt >&2 || true
    exit 1
  fi
  for f in trace.jsonl metrics.prom metrics.json campaign-report.md; do
    if [ ! -s "$TEL/$f" ]; then
      echo "FAIL: telemetry artifact $f missing or empty" >&2
      exit 1
    fi
  done
  # Chrome trace and JSON snapshot must each be one valid JSON document.
  if command -v jq > /dev/null 2>&1; then
    jq -e . "$TEL/trace.jsonl" > /dev/null || {
      echo "FAIL: trace.jsonl is not valid JSON" >&2
      exit 1
    }
    jq -e '.counters and .gauges and .histograms' "$TEL/metrics.json" \
      > /dev/null || {
      echo "FAIL: metrics.json missing counters/gauges/histograms" >&2
      exit 1
    }
  else
    echo "jq not found; skipping JSON validation"
  fi
  # Prometheus text exposition: TYPE comments and sane sample lines.
  grep -q '^# TYPE metamut_compile_total counter' "$TEL/metrics.prom" || {
    echo "FAIL: metrics.prom missing compile counter TYPE line" >&2
    exit 1
  }
  grep -q '^metamut_.*_bucket{le="+Inf"} ' "$TEL/metrics.prom" || {
    echo "FAIL: metrics.prom missing histogram +Inf bucket" >&2
    exit 1
  }
  grep -q '"name":"compile.' "$TEL/trace.jsonl" || {
    echo "FAIL: trace.jsonl has no compile spans" >&2
    exit 1
  }
  grep -q '^## ' "$TEL/campaign-report.md" || {
    echo "FAIL: campaign-report.md has no sections" >&2
    exit 1
  }
  rm -rf "$TEL"
  echo "telemetry artifacts well-formed; fuzz output unchanged"
fi

echo "== smoke: campaign determinism with telemetry enabled =="
if [ -x "$CLI" ]; then
  TEL1=$(mktemp -d)
  TEL4=$(mktemp -d)
  "$CLI" campaign --iterations 10 --shards 1 --telemetry "$TEL1" \
    > /tmp/campaign_t1.txt 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 4 --telemetry "$TEL4" \
    > /tmp/campaign_t4.txt 2> /dev/null
  if cmp -s /tmp/campaign_t1.txt /tmp/campaign_t4.txt \
      && cmp -s /tmp/campaign_1.txt /tmp/campaign_t1.txt; then
    echo "campaign output identical with telemetry at --shards 1 and 4"
  else
    echo "FAIL: telemetry perturbed campaign output across shard counts" >&2
    diff /tmp/campaign_t1.txt /tmp/campaign_t4.txt >&2 || true
    exit 1
  fi
  # The report is deterministic up to its wall-clock tail, which starts
  # at the span table.
  sed '/^## Time by span/,$d' "$TEL1/campaign-report.md" > /tmp/report_1.md
  sed '/^## Time by span/,$d' "$TEL4/campaign-report.md" > /tmp/report_4.md
  grep -q '^## Run summary' /tmp/report_1.md || {
    echo "FAIL: campaign-report.md lost its deterministic sections" >&2
    exit 1
  }
  if cmp -s /tmp/report_1.md /tmp/report_4.md; then
    echo "campaign-report.md identical at --shards 1 and 4 (before the span table)"
  else
    echo "FAIL: campaign-report.md differs between shard counts" >&2
    diff /tmp/report_1.md /tmp/report_4.md >&2 || true
    exit 1
  fi
  rm -rf "$TEL1" "$TEL4"
fi

echo "== smoke: faulted resume with telemetry stays byte-identical =="
if [ -x "$CLI" ]; then
  CKPT=$(mktemp -d)
  TELA=$(mktemp -d)
  TELB=$(mktemp -d)
  FAULTS="hang=0.05,oom=0.2"
  "$CLI" campaign --iterations 10 --shards 2 --faults "$FAULTS" \
    --fault-seed 3 --checkpoint "$CKPT" --telemetry "$TELA" \
    > /tmp/campaign_ftel.txt 2> /dev/null
  rm "$CKPT/journal-uCFuzz.s-GCC.ckpt"
  "$CLI" campaign --iterations 10 --shards 2 --faults "$FAULTS" \
    --fault-seed 3 --checkpoint "$CKPT" --resume --telemetry "$TELB" \
    > /tmp/campaign_ftel_resume.txt 2> /dev/null
  if cmp -s /tmp/campaign_ftel.txt /tmp/campaign_ftel_resume.txt; then
    echo "faulted resumed campaign with telemetry identical to uninterrupted"
  else
    echo "FAIL: telemetry+faults+resume changed the campaign output" >&2
    diff /tmp/campaign_ftel.txt /tmp/campaign_ftel_resume.txt >&2 || true
    exit 1
  fi
  rm -rf "$CKPT" "$TELA" "$TELB"
fi

echo "== smoke: culprit-pass bisection =="
if [ -x "$CLI" ]; then
  # A canned wrong-code finding (the seeded reassociation miscompile):
  # bisection must name constfold, deterministically.
  WC=$(mktemp /tmp/wrongcode_XXXXXX.c)
  cat > "$WC" <<'EOF'
int r[6];
int total;
int main(void) {
  int a = (int)(char)100;
  for (int i = 0; i < 3; i++) total += i;
  for (int j = 0; j < 3; j++) total += j;
  r[1] += r[0];
  r[2] += r[1];
  r[3] += r[2];
  total = a - 7;
  return total & 255;
}
EOF
  "$CLI" bisect "$WC" -c gcc -O 2 > /tmp/bisect_1.txt
  grep -q '^culprit passes:  constfold$' /tmp/bisect_1.txt || {
    echo "FAIL: bisect did not name constfold as the culprit" >&2
    cat /tmp/bisect_1.txt >&2
    exit 1
  }
  grep -q '^first divergent: constfold$' /tmp/bisect_1.txt || {
    echo "FAIL: per-pass differential did not flag constfold" >&2
    cat /tmp/bisect_1.txt >&2
    exit 1
  }
  "$CLI" bisect "$WC" -c gcc -O 2 > /tmp/bisect_2.txt
  if cmp -s /tmp/bisect_1.txt /tmp/bisect_2.txt; then
    echo "bisect verdict deterministic: constfold"
  else
    echo "FAIL: bisect verdict not deterministic" >&2
    exit 1
  fi
  rm -f "$WC"
fi

echo "== smoke: campaign --bisect determinism across shard counts =="
if [ -x "$CLI" ]; then
  "$CLI" campaign --iterations 10 --shards 1 --bisect > /tmp/campaign_b1.txt
  "$CLI" campaign --iterations 10 --shards 4 --bisect > /tmp/campaign_b4.txt
  if cmp -s /tmp/campaign_b1.txt /tmp/campaign_b4.txt; then
    echo "campaign --bisect output identical for --shards 1 and --shards 4"
  else
    echo "FAIL: campaign --bisect output differs between shard counts" >&2
    diff /tmp/campaign_b1.txt /tmp/campaign_b4.txt >&2 || true
    exit 1
  fi
fi

echo "== smoke: fuzz-throughput bench =="
# Smoke mode keeps CI fast.  Timings are informational, not gating;
# the JSON's shape, minor words per compile and the fuzzing counts are.
# Written under _build/ so a local run never tramples the committed
# full-mode BENCH_fuzz_throughput.json at the repository root.
BENCH=_build/default/bench/throughput.exe
if [ -x "$BENCH" ]; then
  "$BENCH" --smoke --out _build/BENCH_fuzz_throughput.json
  grep -q '"bench": "fuzz_throughput"' _build/BENCH_fuzz_throughput.json || {
    echo "FAIL: _build/BENCH_fuzz_throughput.json malformed" >&2
    exit 1
  }
  # Allocation-regression gate: the smoke run's minor-words/compile is
  # deterministic for a given build, so compare it against the recorded
  # baseline with 15% headroom.  Improvements should lower the baseline
  # (bench/BASELINE_smoke_minor_words) in the same PR.
  BASELINE=$(cat bench/BASELINE_smoke_minor_words)
  SMOKE_WORDS=$(sed -n 's/.*"minor_words_per_compile": \([0-9.]*\).*/\1/p' \
    _build/BENCH_fuzz_throughput.json | head -n 1)
  if [ -z "$SMOKE_WORDS" ]; then
    echo "FAIL: minor_words_per_compile missing from bench JSON" >&2
    exit 1
  fi
  if awk -v w="$SMOKE_WORDS" -v b="$BASELINE" 'BEGIN { exit !(w > b * 1.15) }'
  then
    echo "FAIL: smoke minor-words/compile $SMOKE_WORDS exceeds baseline $BASELINE x 1.15" >&2
    exit 1
  fi
  echo "smoke minor-words/compile $SMOKE_WORDS within baseline $BASELINE x 1.15"
  # Determinism gate: the smoke run's fuzzing outcome is fixed by its
  # seeds, so these counts must match exactly.  A change that moves them
  # changes what the fuzzer decides, and must update the pins and say why.
  for PIN in covered_branches=1920 unique_crashes=8 compiles=757 \
      compiles_cached=16; do
    KEY=${PIN%%=*}
    WANT=${PIN#*=}
    GOT=$(sed -n "s/.*\"$KEY\": \([0-9]*\).*/\1/p" \
      _build/BENCH_fuzz_throughput.json | head -n 1)
    if [ "$GOT" != "$WANT" ]; then
      echo "FAIL: smoke $KEY is ${GOT:-missing}, pinned at $WANT" >&2
      exit 1
    fi
  done
  echo "smoke covered_branches/unique_crashes/compiles/compiles_cached match the pins"
  # bad arguments exit 2 with a usage line instead of running the budget
  set +e
  "$BENCH" --iterations 5 > /dev/null 2> /tmp/throughput_usage.err
  RC=$?
  set -e
  if [ "$RC" -ne 2 ] || ! grep -q '^usage:' /tmp/throughput_usage.err; then
    echo "FAIL: throughput.exe --iterations 5 exited $RC, want 2 with usage" >&2
    exit 1
  fi
  echo "throughput.exe rejects an unknown flag with exit 2"
fi

echo "== smoke: scheduled fuzzing determinism across shard counts =="
# The corpus scheduler (favored-entry picks + pool trimming) must be
# deterministic at any shard count, like the default path.
if [ -x "$CLI" ]; then
  "$CLI" campaign --iterations 10 --shards 1 --schedule > /tmp/campaign_s1.txt
  "$CLI" campaign --iterations 10 --shards 4 --schedule > /tmp/campaign_s4.txt
  if cmp -s /tmp/campaign_s1.txt /tmp/campaign_s4.txt; then
    echo "scheduled campaign output identical for --shards 1 and --shards 4"
  else
    echo "FAIL: scheduled campaign output differs between shard counts" >&2
    diff /tmp/campaign_s1.txt /tmp/campaign_s4.txt >&2 || true
    exit 1
  fi
fi

echo "== smoke: sharded worker-kill recovery =="
# Kill the worker holding one lease mid-campaign (test hook fires on the
# first attempt only): the coordinator must requeue the lease, respawn,
# and still produce byte-identical stdout; the intervention is reported
# on stderr only.
if [ -x "$CLI" ]; then
  METAMUT_SHARD_KILL="uCFuzz.s-GCC" \
    "$CLI" campaign --iterations 10 --shards 2 \
    > /tmp/campaign_kill.txt 2> /tmp/campaign_kill.err
  if cmp -s /tmp/campaign_2.txt /tmp/campaign_kill.txt; then
    echo "campaign output identical after a mid-lease worker kill"
  else
    echo "FAIL: worker-kill recovery changed the campaign output" >&2
    diff /tmp/campaign_2.txt /tmp/campaign_kill.txt >&2 || true
    exit 1
  fi
  grep -q 'shard recovery: 1 worker death' /tmp/campaign_kill.err || {
    echo "FAIL: worker kill was not reported on stderr" >&2
    cat /tmp/campaign_kill.err >&2
    exit 1
  }
fi

echo "== smoke: the allocation governor quarantines, nothing runs inline =="
# Every lease blows a 1 Mword budget, in every attempt: each one must
# die in a worker until its breaker trips, never finish on the
# coordinator, where the governor does not apply.
if [ -x "$CLI" ]; then
  "$CLI" campaign --iterations 5 --shards 2 --alloc-budget 1 --metrics \
    > /tmp/campaign_gov.txt 2> /tmp/campaign_gov.err
  grep -q ', [1-9][0-9]* quarantined,' /tmp/campaign_gov.err || {
    echo "FAIL: the allocation governor quarantined nothing" >&2
    cat /tmp/campaign_gov.err >&2
    exit 1
  }
  if grep -q '^inline  *[0-9]' /tmp/campaign_gov.txt; then
    echo "FAIL: leases ran inline, out of the governor's reach" >&2
    exit 1
  fi
  grep 'shard governor' /tmp/campaign_gov.err
fi

echo "== smoke: opt-matrix determinism across shard counts =="
# The -O axis multiplies the unit list; the shards:1 = shards:K
# byte-identity contract must hold there too.
if [ -x "$CLI" ]; then
  "$CLI" campaign --iterations 10 --shards 1 --opt-matrix 0,2 \
    > /tmp/campaign_om1.txt 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 2 --opt-matrix 0,2 \
    > /tmp/campaign_om2.txt 2> /dev/null
  if cmp -s /tmp/campaign_om1.txt /tmp/campaign_om2.txt; then
    echo "opt-matrix campaign output identical for --shards 1 and --shards 2"
  else
    echo "FAIL: opt-matrix campaign output differs between shard counts" >&2
    diff /tmp/campaign_om1.txt /tmp/campaign_om2.txt >&2 || true
    exit 1
  fi
fi

echo "== smoke: chaos-armed sharded campaign =="
# Every shard-layer fault site armed at once: injected frame garbles,
# mid-frame stalls, worker OOM kills and coordinator crash-restarts must
# all be recovered (or quarantined) without touching stdout, which stays
# byte-identical to the clean sharded run at every shard count.
if [ -x "$CLI" ]; then
  CHAOS="frame=0.2,stall=0.1,oom=0.2,coord=0.3"
  "$CLI" campaign --iterations 10 --shards 1 --faults "$CHAOS" \
    --fault-seed 17 --hang-timeout 2 \
    > /tmp/campaign_ch1.txt 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 2 --faults "$CHAOS" \
    --fault-seed 17 --hang-timeout 2 \
    > /tmp/campaign_ch2.txt 2> /tmp/campaign_ch2.err
  if cmp -s /tmp/campaign_ch1.txt /tmp/campaign_ch2.txt \
      && cmp -s /tmp/campaign_2.txt /tmp/campaign_ch2.txt; then
    echo "chaos-armed campaign output identical across shard counts and to clean"
  else
    echo "FAIL: shard-layer chaos changed the campaign output" >&2
    diff /tmp/campaign_ch1.txt /tmp/campaign_ch2.txt >&2 || true
    diff /tmp/campaign_2.txt /tmp/campaign_ch2.txt >&2 || true
    exit 1
  fi
  grep -q 'shard recovery:' /tmp/campaign_ch2.err || {
    echo "FAIL: armed chaos never fired (no recovery line on stderr)" >&2
    cat /tmp/campaign_ch2.err >&2
    exit 1
  }
fi

echo "== smoke: coordinator SIGKILL + --resume byte-identity =="
# Kill the coordinator process mid-campaign; per-lease result journaling
# must let --resume reproduce the uninterrupted run's stdout exactly.
if [ -x "$CLI" ]; then
  CKPT=$(mktemp -d)
  "$CLI" campaign --iterations 10 --shards 2 --opt-matrix 0,2 \
    --checkpoint "$CKPT" > /tmp/campaign_crash.txt 2> /dev/null &
  COORD_PID=$!
  sleep 1
  WORKERS=""
  if command -v pgrep > /dev/null 2>&1; then
    WORKERS=$(pgrep -P "$COORD_PID" || true)
  fi
  kill -9 "$COORD_PID" 2> /dev/null || true
  wait "$COORD_PID" 2> /dev/null || true
  # orphaned workers see EOF on their socket once their current lease
  # ends, and exit by themselves (a zombie awaiting its reaper counts
  # as exited)
  running() {
    ST=$(ps -o stat= -p "$1" 2> /dev/null || true)
    [ -n "$ST" ] && [ "${ST#Z}" = "$ST" ]
  }
  LEAKED=""
  for W in $WORKERS; do
    i=0
    while running "$W" && [ $i -lt 100 ]; do
      sleep 0.1
      i=$((i + 1))
    done
    if running "$W"; then LEAKED="$LEAKED $W"; fi
  done
  if [ -n "$LEAKED" ]; then
    kill -9 $LEAKED 2> /dev/null || true
    echo "FAIL: worker(s)$LEAKED outlived their SIGKILLed coordinator" >&2
    exit 1
  fi
  "$CLI" campaign --iterations 10 --shards 2 --opt-matrix 0,2 \
    --checkpoint "$CKPT" --resume \
    > /tmp/campaign_crash_resume.txt 2> /dev/null
  if cmp -s /tmp/campaign_om2.txt /tmp/campaign_crash_resume.txt; then
    echo "resumed campaign after coordinator SIGKILL identical to uninterrupted"
  else
    echo "FAIL: coordinator SIGKILL + resume changed the campaign output" >&2
    diff /tmp/campaign_om2.txt /tmp/campaign_crash_resume.txt >&2 || true
    exit 1
  fi
  rm -rf "$CKPT"
fi

echo "== smoke: structured log determinism =="
# The --log body carries no wall clock and renders grouped by scope, so
# it must be byte-identical across shard counts, including under
# in-process faults and worker-process chaos (in-worker and shard-level
# fault records are pure functions of the per-lease fault stream).
if [ -x "$CLI" ]; then
  # in-process faults, worker OOM kills and checkpointing at :debug, so
  # the logs hold real records (fault.injected, lease.infra,
  # checkpoint.saved) to compare, not two empty files
  CKL1=$(mktemp -d)
  CKL4=$(mktemp -d)
  "$CLI" campaign --iterations 10 --shards 1 --faults "hang=0.05,oom=0.2" \
    --fault-seed 3 --checkpoint "$CKL1" \
    --log /tmp/campaign_lg_f1.jsonl:debug > /dev/null 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 4 --faults "hang=0.05,oom=0.2" \
    --fault-seed 3 --checkpoint "$CKL4" \
    --log /tmp/campaign_lg_f4.jsonl:debug > /dev/null 2> /dev/null
  rm -rf "$CKL1" "$CKL4"
  if cmp -s /tmp/campaign_lg_f1.jsonl /tmp/campaign_lg_f4.jsonl; then
    echo "faulted :debug log body identical for --shards 1 and --shards 4"
  else
    echo "FAIL: faulted --log body differs between shard counts" >&2
    diff /tmp/campaign_lg_f1.jsonl /tmp/campaign_lg_f4.jsonl >&2 || true
    exit 1
  fi
  grep -q '"event":"fault.injected"' /tmp/campaign_lg_f1.jsonl || {
    echo "FAIL: faulted log has no fault.injected records" >&2
    exit 1
  }
  "$CLI" campaign --iterations 10 --shards 1 --log /tmp/campaign_lg_sh1.jsonl \
    > /dev/null 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 2 --log /tmp/campaign_lg_sh2.jsonl \
    > /dev/null 2> /dev/null
  if cmp -s /tmp/campaign_lg_sh1.jsonl /tmp/campaign_lg_sh2.jsonl; then
    echo "log body identical for --shards 1 and --shards 2"
  else
    echo "FAIL: --log body differs between shard counts" >&2
    diff /tmp/campaign_lg_sh1.jsonl /tmp/campaign_lg_sh2.jsonl >&2 || true
    exit 1
  fi
  # chaos: worker-OOM kills produce lease.infra / lease.retry /
  # lease.verdict records keyed to the (lease, attempt) fault stream
  "$CLI" campaign --iterations 10 --shards 1 --faults oom=0.5 --fault-seed 5 \
    --log /tmp/campaign_lg_ch1.jsonl > /dev/null 2> /dev/null
  "$CLI" campaign --iterations 10 --shards 2 --faults oom=0.5 --fault-seed 5 \
    --log /tmp/campaign_lg_ch2.jsonl > /dev/null 2> /dev/null
  if cmp -s /tmp/campaign_lg_ch1.jsonl /tmp/campaign_lg_ch2.jsonl; then
    echo "chaos log body identical for --shards 1 and --shards 2"
  else
    echo "FAIL: chaos --log body differs between shard counts" >&2
    diff /tmp/campaign_lg_ch1.jsonl /tmp/campaign_lg_ch2.jsonl >&2 || true
    exit 1
  fi
  grep -q '"event":"lease.verdict"' /tmp/campaign_lg_ch2.jsonl || {
    echo "FAIL: chaos log has no lease.verdict records" >&2
    exit 1
  }
fi

echo "== smoke: profiling export (profile.folded, mutator yield) =="
if [ -x "$CLI" ]; then
  TEL=$(mktemp -d)
  "$CLI" fuzz -n 40 --seed 7 --telemetry "$TEL" > /dev/null 2> /dev/null
  for f in profile.folded mutator-yield.json; do
    if [ ! -s "$TEL/$f" ]; then
      echo "FAIL: telemetry artifact $f missing or empty" >&2
      exit 1
    fi
  done
  # every folded line is "stack;frames NNN" — the exact grammar
  # flamegraph.pl and speedscope consume
  if grep -qvE '^[^ ]+ [0-9]+$' "$TEL/profile.folded"; then
    echo "FAIL: profile.folded has malformed folded-stack lines" >&2
    head "$TEL/profile.folded" >&2
    exit 1
  fi
  grep -q 'compile' "$TEL/profile.folded" || {
    echo "FAIL: profile.folded has no compile stacks" >&2
    exit 1
  }
  if command -v flamegraph.pl > /dev/null 2>&1; then
    flamegraph.pl "$TEL/profile.folded" > /tmp/flame.svg || {
      echo "FAIL: flamegraph.pl rejected profile.folded" >&2
      exit 1
    }
  fi
  if command -v jq > /dev/null 2>&1; then
    jq -e '.[0].mutator and (.[0].fresh_edges >= 0)' "$TEL/mutator-yield.json" \
      > /dev/null || {
      echo "FAIL: mutator-yield.json malformed" >&2
      exit 1
    }
  fi
  grep -q '## Where the time goes' "$TEL/campaign-report.md" || {
    echo "FAIL: report is missing the self-time table" >&2
    exit 1
  }
  rm -rf "$TEL"
  echo "profile.folded and mutator-yield.json well-formed"
fi

echo "== smoke: live observability endpoints (--serve) =="
# Scrape the campaign during its post-run linger window: /status.json
# must report done, /healthz must be 200, and /metrics must match the
# final metrics.prom modulo the wall-clock families (span./gc./
# telemetry.).  Serving must not perturb stdout.
if [ -x "$CLI" ] && command -v curl > /dev/null 2>&1; then
  TEL=$(mktemp -d)
  : > /tmp/campaign_serve.err
  METAMUT_SERVE_LINGER=10 "$CLI" campaign --iterations 10 --shards 1 \
    --serve 127.0.0.1:0 --telemetry "$TEL" \
    > /tmp/campaign_serve.txt 2> /tmp/campaign_serve.err &
  SRV_PID=$!
  ADDR=""
  i=0
  while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^serving on //p' /tmp/campaign_serve.err | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$ADDR" ]; then
    echo "FAIL: --serve never reported its bound address" >&2
    exit 1
  fi
  DONE=""
  i=0
  while [ $i -lt 150 ]; do
    if curl -fsS "http://$ADDR/status.json" 2> /dev/null \
        | grep -q '"done": true'; then
      DONE=yes
      break
    fi
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$DONE" ]; then
    echo "FAIL: /status.json never reported done" >&2
    kill "$SRV_PID" 2> /dev/null || true
    exit 1
  fi
  HB=$(curl -fsS "http://$ADDR/healthz")
  [ "$HB" = "ok" ] || {
    echo "FAIL: /healthz was not ok on a clean run" >&2
    exit 1
  }
  curl -fsS "http://$ADDR/metrics" > /tmp/serve_metrics.prom || {
    echo "FAIL: /metrics scrape failed" >&2
    exit 1
  }
  grep -q '^# TYPE metamut_compile_total counter' /tmp/serve_metrics.prom || {
    echo "FAIL: live /metrics is not Prometheus text exposition" >&2
    exit 1
  }
  wait "$SRV_PID"
  grep -Ev 'metamut_(span|gc|telemetry)_' /tmp/serve_metrics.prom \
    > /tmp/serve_metrics_f.prom
  grep -Ev 'metamut_(span|gc|telemetry)_' "$TEL/metrics.prom" \
    > /tmp/final_metrics_f.prom
  if cmp -s /tmp/serve_metrics_f.prom /tmp/final_metrics_f.prom; then
    echo "live /metrics matches metrics.prom modulo wall-clock families"
  else
    echo "FAIL: live /metrics diverged from the final metrics.prom" >&2
    diff /tmp/serve_metrics_f.prom /tmp/final_metrics_f.prom >&2 || true
    exit 1
  fi
  if cmp -s /tmp/campaign_1.txt /tmp/campaign_serve.txt; then
    echo "serving did not perturb campaign stdout"
  else
    echo "FAIL: --serve changed the campaign output" >&2
    diff /tmp/campaign_1.txt /tmp/campaign_serve.txt >&2 || true
    exit 1
  fi
  rm -rf "$TEL"
else
  echo "curl not found; skipping serve smoke"
fi

echo "== smoke: quarantine flight recorder + degraded /healthz =="
# Guaranteed-lethal faults: every lease OOMs until its breaker trips,
# so every unit must leave a flight-<unit>.json in the telemetry dir,
# and a live /healthz must serve 503 once the first breaker trips.
if [ -x "$CLI" ]; then
  TELF=$(mktemp -d)
  : > /tmp/campaign_flight.err
  if command -v curl > /dev/null 2>&1; then
    METAMUT_SERVE_LINGER=10 "$CLI" campaign --iterations 10 --shards 2 \
      --faults oom=1.0 --fault-seed 9 --telemetry "$TELF" \
      --serve 127.0.0.1:0 \
      > /tmp/campaign_flight.txt 2> /tmp/campaign_flight.err &
    FL_PID=$!
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
      ADDR=$(sed -n 's/^serving on //p' /tmp/campaign_flight.err | head -n 1)
      [ -n "$ADDR" ] && break
      sleep 0.1
      i=$((i + 1))
    done
    DONE=""
    i=0
    while [ $i -lt 300 ]; do
      if curl -fsS "http://$ADDR/status.json" 2> /dev/null \
          | grep -q '"done": true'; then
        DONE=yes
        break
      fi
      sleep 0.1
      i=$((i + 1))
    done
    if [ -z "$DONE" ]; then
      echo "FAIL: flight-smoke /status.json never reported done" >&2
      kill "$FL_PID" 2> /dev/null || true
      exit 1
    fi
    CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
    [ "$CODE" = "503" ] || {
      echo "FAIL: /healthz served $CODE after breaker trips (want 503)" >&2
      exit 1
    }
    echo "/healthz degraded to 503 after breaker trips"
    wait "$FL_PID"
  else
    "$CLI" campaign --iterations 10 --shards 2 --faults oom=1.0 \
      --fault-seed 9 --telemetry "$TELF" \
      > /tmp/campaign_flight.txt 2> /tmp/campaign_flight.err
  fi
  if ! ls "$TELF"/flight-*.json > /dev/null 2>&1; then
    echo "FAIL: quarantined leases left no flight-<unit>.json" >&2
    ls "$TELF" >&2 || true
    exit 1
  fi
  FLIGHT=$(ls "$TELF"/flight-*.json | head -n 1)
  grep -q '"reason"' "$FLIGHT" && grep -q '"events"' "$FLIGHT" || {
    echo "FAIL: flight record missing reason/events" >&2
    cat "$FLIGHT" >&2
    exit 1
  }
  if command -v jq > /dev/null 2>&1; then
    jq -e '.unit and .reason and (.events | type == "array")' "$FLIGHT" \
      > /dev/null || {
      echo "FAIL: flight record is not valid JSON" >&2
      exit 1
    }
  fi
  grep -q 'QUARANTINED' /tmp/campaign_flight.err || {
    echo "FAIL: quarantine was not reported on stderr" >&2
    exit 1
  }
  rm -rf "$TELF"
  echo "flight recorder dumped for quarantined leases"
fi

echo "OK"

#!/usr/bin/env bash
# Self-time profile of any command, with no profiler installed.
#
# Builds a small LD_PRELOAD sampler, runs the command under it, and reports
# where the program counter sat: by function, and by source line. The
# sampler arms setitimer(ITIMER_PROF) with a 1 ms CPU-time period (the
# kernel may round it up to its tick) and records the interrupted PC of
# every SIGPROF. There is no unwinding, so the shares are *self* time and
# every sample counts. At exit it writes one "count module offset" line per
# distinct PC; addr2line then names each offset.
#
# Build the target with -g (the default RelWithDebInfo build has it) for
# line numbers; -fno-omit-frame-pointer is not needed. Inclusive time is out
# of scope: use in-program timers for that.
#
# Usage: profile_self.sh [-o DIR] [-n TOP] [--] COMMAND [ARGS...]
#   -o DIR  keep the sampler, raw samples and report in DIR (default: a
#           temporary directory, removed on exit)
#   -n TOP  rows per table (default 25)
# The command's own output passes through; the report follows it on stdout
# and is also written to DIR/report.txt. Exits with the command's status,
# or 3 when no sample was taken.
#
# Example:
#   scripts/profile_self.sh -n 15 -- build/tools/jitgc_cli --workload=ycsb \
#       --policy=jit --seconds=600
set -euo pipefail

usage() { sed -n '/^# Usage:/,/^# or 3/p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }

OUT_DIR=""
TOP=25
while [[ $# -gt 0 ]]; do
  case "$1" in
    -o) OUT_DIR=${2:?-o needs a directory}; shift 2 ;;
    -n) TOP=${2:?-n needs a row count}; shift 2 ;;
    --) shift; break ;;
    -h|--help) usage ;;
    -*) echo "profile_self.sh: unknown option $1" >&2; usage ;;
    *) break ;;
  esac
done
[[ $# -gt 0 ]] || usage
[[ "$TOP" =~ ^[1-9][0-9]*$ ]] || { echo "profile_self.sh: -n needs a positive row count" >&2; exit 2; }

if [[ -z "$OUT_DIR" ]]; then
  OUT_DIR=$(mktemp -d)
  trap 'rm -rf "$OUT_DIR"' EXIT
else
  mkdir -p "$OUT_DIR"
fi

# The sampler. It writes through file descriptor 9, which the script opens
# on the samples file, so the profiled program sees no new setting.
cat > "$OUT_DIR/profself.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PROFSELF_FD 9
#define PROFSELF_MAX (1u << 21)

static uintptr_t g_pcs[PROFSELF_MAX];
static unsigned long g_count;

static void on_sigprof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)ctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "profile_self.sh: unsupported architecture"
#endif
  const unsigned long slot = __atomic_fetch_add(&g_count, 1, __ATOMIC_RELAXED);
  if (slot < PROFSELF_MAX) g_pcs[slot] = pc;
}

static int cmp_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a;
  const uintptr_t y = *(const uintptr_t*)b;
  return x < y ? -1 : x > y;
}

__attribute__((constructor)) static void profself_start(void) {
  if (fcntl(PROFSELF_FD, F_GETFD) < 0) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = 1000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void profself_stop(void) {
  if (fcntl(PROFSELF_FD, F_GETFD) < 0) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  unsigned long n = __atomic_load_n(&g_count, __ATOMIC_RELAXED);
  if (n > PROFSELF_MAX) n = PROFSELF_MAX;
  qsort(g_pcs, n, sizeof g_pcs[0], cmp_pc);
  FILE* out = fdopen(dup(PROFSELF_FD), "w");
  if (out == NULL) return;
  for (unsigned long i = 0; i < n;) {
    unsigned long j = i;
    while (j < n && g_pcs[j] == g_pcs[i]) ++j;
    Dl_info dl;
    if (dladdr((void*)g_pcs[i], &dl) != 0 && dl.dli_fname != NULL && dl.dli_fname[0] != '\0') {
      // addr2line wants file offsets for shared objects and PIE executables
      // (ET_DYN) and absolute addresses for fixed-address executables.
      const ElfW(Ehdr)* eh = (const ElfW(Ehdr)*)dl.dli_fbase;
      const uintptr_t base = eh->e_type == ET_EXEC ? 0 : (uintptr_t)dl.dli_fbase;
      fprintf(out, "%lu %s 0x%lx\n", j - i, dl.dli_fname, (unsigned long)(g_pcs[i] - base));
    } else {
      fprintf(out, "%lu ? 0x%lx\n", j - i, (unsigned long)g_pcs[i]);
    }
    i = j;
  }
  fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$OUT_DIR/libprofself.so" "$OUT_DIR/profself.c" -ldl

SAMPLES="$OUT_DIR/samples.txt"
: > "$SAMPLES"
status=0
LD_PRELOAD="$OUT_DIR/libprofself.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" 9>"$SAMPLES" || status=$?

# The main executable reports itself under its argv[0] spelling (or as an
# empty name, mapped to "?" above); resolve it to the real path.
EXE=$(command -v "$1" || true)

# Symbolise: "count<TAB>function<TAB>file:line" per distinct PC.
SYMBOLISED="$OUT_DIR/symbolised.tsv"
: > "$SYMBOLISED"
for module in $(awk '{print $2}' "$SAMPLES" | sort -u); do
  object=$module
  if [[ "$object" == "?" || ! -f "$object" ]]; then object=$EXE; fi
  awk -v m="$module" '$2 == m {print $1}' "$SAMPLES" > "$OUT_DIR/counts"
  if [[ -n "$object" && -f "$object" ]]; then
    awk -v m="$module" '$2 == m {print $3}' "$SAMPLES" |
      addr2line -C -f -e "$object" | paste - - > "$OUT_DIR/names"
  else
    awk -v m="$module" '$2 == m {print "??\t??:0"}' "$SAMPLES" > "$OUT_DIR/names"
  fi
  # Frames without line info are often misnamed (the nearest exported
  # symbol of a stripped library), so they carry their module's name.
  paste "$OUT_DIR/counts" "$OUT_DIR/names" |
    awk -F'\t' -v OFS='\t' -v m="${object:-$module}" \
        '$3 ~ /^\?\?:/ {n = split(m, p, "/"); $2 = $2 " [" p[n] "]"} {print}' >> "$SYMBOLISED"
done

TOTAL=$(awk '{s += $1} END {print s + 0}' "$SAMPLES")
{
  echo "profile_self: $TOTAL SIGPROF samples (self time) of: $*"
  if [[ "$TOTAL" -gt 0 ]]; then
    echo
    echo "By function:"
    awk -F'\t' '{c[$2] += $1} END {for (f in c) printf "%d\t%s\n", c[f], f}' "$SYMBOLISED" |
      sort -t$'\t' -k1,1nr -k2,2 | awk -v n="$TOP" 'NR <= n' |
      awk -F'\t' -v t="$TOTAL" '{printf "  %6.2f%%  %7d  %s\n", 100 * $1 / t, $1, $2}'
    echo
    echo "By line:"
    awk -F'\t' '{sub(/ \(discriminator [0-9]+\)$/, "", $3); c[$2 "\t" $3] += $1}
                END {for (k in c) printf "%d\t%s\n", c[k], k}' "$SYMBOLISED" |
      sort -t$'\t' -k1,1nr -k2,3 | awk -v n="$TOP" 'NR <= n' |
      awk -F'\t' -v t="$TOTAL" '{n = split($3, p, "/");
                                 printf "  %6.2f%%  %7d  %s  %s\n", 100 * $1 / t, $1, p[n], $2}'
  fi
} | tee "$OUT_DIR/report.txt"

if [[ "$TOTAL" -eq 0 && "$status" -eq 0 ]]; then
  echo "profile_self.sh: no samples taken (the command used too little CPU?)" >&2
  exit 3
fi
exit "$status"

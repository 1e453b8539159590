#!/usr/bin/env bash
# Tier-1 line coverage of src/*/*.cpp with gcc --coverage and gcov.
#
# Builds the whole tree in Debug (-O0) with --coverage, runs every ctest
# (the tier-1 suites, bench goldens and examples), then asks gcov
# for each src/*/*.cpp file's executable lines. Prints the unexecuted
# count per file, worst first, and the total; lists every unexecuted line
# as file:line in <build-dir>/coverage-unexecuted.txt. Lines of headers
# are not counted. Exits 1 when total line coverage is below the floor in
# tools/coverage_floor.txt, a ratchet: raise it with the change that adds
# coverage, never lower it. Needs gcc, gcov and python3; the clang-only
# fuzz/coverage.sh measures the fuzz corpora instead.
#
# Usage: tools/coverage.sh [build-dir]    # default build-gcov
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-gcov}"
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4

# Atomic counter updates: the campaigns, parallel audits and shards run on
# worker threads, and racy increments of the instrumented arcs make gcov
# derive some executed lines as never run, differently on every run.
cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_COMPILER=g++ \
  -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$build" -j"$jobs" > /dev/null
find "$build" -name '*.gcda' -delete
# A failing test still leaves its counts; the CI test jobs gate failures,
# this one only reports them (an -O0 build can miss a golden's wall-clock
# floor).
if ! ctest --test-dir "$build" -j"$jobs" > "$build/coverage-ctest.log"; then
  echo "coverage: some tests failed (see $build/coverage-ctest.log):" >&2
  grep -E '^\s+[0-9]+ - ' "$build/coverage-ctest.log" >&2 || true
fi

# One gcov JSON report per object: gcov reads the .gcno (and .gcda, when
# the object ran at all) and reports every source file the object pulls
# in; only the object's own .cpp is kept.
report="$build/coverage-gcov.jsonl"
: > "$report"
for src in "$repo"/src/*/*.cpp; do
  dir="$(basename "$(dirname "$src")")"
  gcno="$(find "$build/src/$dir" -name "$(basename "$src").gcno" | head -n 1)"
  if [ -z "$gcno" ]; then
    echo "coverage: no object for $src" >&2
    exit 1
  fi
  (cd "$(dirname "$gcno")" && gcov --json-format --stdout "$gcno" 2> /dev/null) >> "$report"
done

python3 - "$repo" "$report" "$repo/tools/coverage_floor.txt" \
  "$build/coverage-unexecuted.txt" <<'EOF'
import json, os, sys

repo, report, floor_path, list_path = sys.argv[1:5]
missed = {}    # src-relative path -> sorted unexecuted line numbers
total = {}     # src-relative path -> executable line count
for raw in open(report):
    raw = raw.strip()
    if not raw:
        continue
    for entry in json.loads(raw)["files"]:
        path = os.path.normpath(os.path.join(repo, entry["file"]))
        rel = os.path.relpath(path, repo)
        parts = rel.split(os.sep)
        if len(parts) != 3 or parts[0] != "src" or not rel.endswith(".cpp"):
            continue
        counts = {}
        for line in entry["lines"]:
            n = line["line_number"]
            counts[n] = counts.get(n, 0) + line["count"]
        total[rel] = len(counts)
        missed[rel] = sorted(n for n, c in counts.items() if c == 0)

rows = sorted(total, key=lambda f: (-len(missed[f]), f))
width = max(len(f) for f in rows)
print(f"{'file':<{width}}  unexecuted  executable")
for f in rows:
    if missed[f]:
        print(f"{f:<{width}}  {len(missed[f]):>10}  {total[f]:>10}")
all_lines = sum(total.values())
all_missed = sum(len(m) for m in missed.values())
percent = 100.0 * (all_lines - all_missed) / all_lines
print(f"{'total':<{width}}  {all_missed:>10}  {all_lines:>10}  "
      f"({percent:.2f}% of executable lines run)")
with open(list_path, "w") as out:
    for f in rows:
        for n in missed[f]:
            out.write(f"{f}:{n}\n")
print(f"unexecuted lines listed in {list_path}")
floor = float(next(l for l in open(floor_path) if not l.startswith("#")).strip())
if percent < floor:
    print(f"coverage: {percent:.2f}% is below the floor {floor:.2f}%", file=sys.stderr)
    sys.exit(1)
print(f"coverage: {percent:.2f}% meets the floor {floor:.2f}%")
EOF

#!/usr/bin/env bash
# Every -run pattern in the CI workflow names tests that exist. `go test -run`
# with a pattern that matches nothing passes silently, so a gate whose test was
# renamed or deleted would go on passing while checking nothing. For each
# `go test [-race] <pkg> -run <pattern>` line of the workflow this lists the
# package's tests, benchmarks, fuzz targets and examples with `go test -list`
# and fails on every |-separated term of the pattern that matches none of them.
#
# Run with: bash scripts/ci_run_patterns.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workflow=.github/workflows/ci.yml
declare -A listed
invocations=0
status=0
while read -r pkg pattern; do
  [ "$pattern" = '^$' ] && continue
  invocations=$((invocations + 1))
  if [ -z "${listed[$pkg]+set}" ]; then
    listed[$pkg]=$(go test -list . "$pkg" | grep -v '^ok ')
  fi
  IFS='|' read -ra terms <<< "$pattern"
  for term in "${terms[@]}"; do
    if ! grep -qE -- "$term" <<< "${listed[$pkg]}"; then
      echo "$workflow: -run term '$term' matches no test in $pkg"
      status=1
    fi
  done
done < <(sed -nE "s/.*go test (-race )?([^ ]+) -run '?([^' ]+)'?.*/\2 \3/p" "$workflow")
echo "checked $invocations -run patterns over ${#listed[@]} packages"
exit $status

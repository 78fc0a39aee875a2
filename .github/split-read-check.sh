#!/usr/bin/env bash
# A file of several MB is read as two byte ranges, one by a forked
# worker; stdin is always read serially.  The two must print the same
# bytes for rotate, fit, means and measures, with Python's development
# mode on and every warning an error.  The same rows under a quoted header are read
# serially from the path too, after the scan for quotes.  The same rows
# followed by as many blank lines leave the worker's range without rows,
# so the path is read serially after the fork.
#
# Usage: bash .github/split-read-check.sh  (from any directory; the CSV
# files and reports are written to a temporary directory, removed on exit)
set -eu
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
python -c "
import numpy as np
rows = np.random.default_rng(7).normal(3.0, 2.0, size=(150_000, 3))
np.savetxt('big.csv', rows, fmt='%.17g', delimiter=',', header='x,y,z', comments='')
np.savetxt('quoted.csv', rows, fmt='%.17g', delimiter=',', header='\"x\",\"y\",\"z\"', comments='')
raw = open('big.csv', 'rb').read()
open('blank.csv', 'wb').write(raw + b'\n' * len(raw))
"
# fit sends a product direction through the worker's pipe.
check() {
  for name in big quoted blank; do
    python -X dev -W error -m latreg "$@" --input $name.csv \
      --format json > $name-path.json
    python -X dev -W error -m latreg "$@" --input - \
      --format json < $name.csv > $name-stdin.json
    cmp $name-path.json $name-stdin.json
  done
}
check rotate --columns x,y,z
check fit --model "1 = x + y + x*y"
check means --columns x,y,z
check measures --columns x,y,z

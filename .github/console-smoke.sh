#!/usr/bin/env bash
# Smoke run of the installed `bestsubset` console script, in the current
# directory: gen, fit (one, sequential path as JSON and CSV, gsection) and
# oracle for each family, and the input checks of gen and fit.  gsection
# reports are piped into a JSON parser, since its trace lines go to stderr.
# Usage: bash console-smoke.sh
set -eo pipefail

must_fail() {
  if "$@"; then
    echo "expected a nonzero exit: $*" >&2
    exit 1
  fi
}

bestsubset gen --family gaussian --n 60 --p 8 --q 2 --seed 1 --output d.csv
bestsubset gen --family gaussian --n 60 --p 8 --q 2 --seed 1 --output d2.csv
cmp d.csv d2.csv
bestsubset fit --input d.csv --family gaussian --method one -k 2 --format csv
bestsubset fit --input d.csv --family gaussian --method gsection --k-max 5 \
  | python3 -c 'import json,sys; json.load(sys.stdin)'
bestsubset fit --input d.csv --family gaussian --method sequential --k-max 5
bestsubset fit --input d.csv --family gaussian --method sequential --k-max 5 --format csv
bestsubset fit --input d.csv --family gaussian --method one -k 2 --eta 1.5
bestsubset oracle --input d.csv --family gaussian -k 2 --format csv
for fam in binomial cox; do
  bestsubset gen --family $fam --n 80 --p 8 --q 2 --seed 1 --output $fam.csv
  bestsubset fit --input $fam.csv --family $fam --method one -k 2 --format csv
  bestsubset fit --input $fam.csv --family $fam --method sequential --k-max 5
  bestsubset fit --input $fam.csv --family $fam --method sequential --k-max 5 --format csv
  bestsubset fit --input $fam.csv --family $fam --method gsection --k-max 5 \
    | python3 -c 'import json,sys; json.load(sys.stdin)'
  tail -n +2 $fam.csv > $fam-nh.csv
  bestsubset fit --input $fam-nh.csv --family $fam --no-header --method one -k 2
  bestsubset oracle --input $fam.csv --family $fam -k 2
done
# magnitudes matter only when coefficients are drawn
bestsubset gen --family gaussian --n 60 --p 8 --q 0 --b 2 --B 1 --output q0.csv
must_fail bestsubset gen --family gaussian --n 60 --p 8 --q 2 --b -1 --B 1 --output bad.csv
must_fail bestsubset gen --family gaussian --n 60 --p 8 --q 2 --sigma nan --output bad.csv
must_fail bestsubset fit --input d.csv --family gaussian --method sequential --epsilon nan
printf 'x1,x2,y\n1,2,3\n4,5\n' > ragged.csv
must_fail bestsubset fit --input ragged.csv --family gaussian --method one -k 1
printf 'x1,x2,y\n1,2,3\n4,abc,6\n' > text.csv
must_fail bestsubset fit --input text.csv --family gaussian --method one -k 1
cp d.csv tail.csv
printf '1,2,3,4,5,6,7,8,oops\r\n' >> tail.csv
must_fail bestsubset fit --input tail.csv --family gaussian --method one -k 1 2> tail.err
grep -q "non-numeric value 'oops' at row 61, column 'y'" tail.err
# --epsilon is checked before the input is read
must_fail bestsubset fit --input missing.csv --family gaussian --method sequential \
  --epsilon nan 2> eps.err
grep -q "^error: epsilon must be nonnegative and finite, got nan$" eps.err
# with no --k-max (the default k_max is p = 8 here) the sweep says why it
# ended, and its path has at most k_max + 1 rows
bestsubset fit --input binomial.csv --family binomial --method sequential \
  | python3 -c '
import json, sys
report = json.load(sys.stdin)
assert report["stop"] in ("k_max", "epsilon", "certified"), report["stop"]
assert len(report["path"]) <= 8 + 1, len(report["path"])
'

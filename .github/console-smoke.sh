#!/usr/bin/env bash
# Smoke run of the installed `bestsubset` console script, in the current
# directory: gen, fit (one, sequential path as JSON and CSV, gsection) and
# oracle for each family, two cox searches run twice with the same bytes,
# a cox oracle whose refused bound fits stay silent, the oracle past the
# default p cap, CSVs with a byte-order mark, and the input checks of gen
# and fit, with the exact refusals of a repeated header name and of an
# out-of-range size.  gsection reports are piped into a JSON parser, since
# its trace lines go to stderr.
# Usage: bash console-smoke.sh
set -eo pipefail

must_fail() {
  if "$@"; then
    echo "expected a nonzero exit: $*" >&2
    exit 1
  fi
}

# refused "<reason>" command...: a nonzero exit with the line "error: <reason>"
refused() {
  local reason=$1
  shift
  must_fail "$@" 2> refused.err
  if ! grep -qxF "error: $reason" refused.err; then
    echo "expected 'error: $reason' from: $*" >&2
    cat refused.err >&2
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
# cox searches warm start their fits: the same CSV gives the same bytes
for method in sequential gsection; do
  for run in 1 2; do
    bestsubset fit --input cox.csv --family cox --method $method --k-max 5 \
      --output cox-$method-$run.json 2> cox-$method-$run.err
  done
  cmp cox-$method-1.json cox-$method-2.json
  cmp cox-$method-1.err cox-$method-2.err
done
# 7 of the 22 bound fits of this cox oracle raise or warn; the search
# refuses them without a word on stderr
bestsubset gen --family cox --n 40 --p 12 --q 3 --rho 0.5 --censor-rate 0.7 --seed 2 \
  --output silent.csv
bestsubset oracle --input silent.csv --family cox -k 3 2> silent.err
test ! -s silent.err
# magnitudes matter only when coefficients are drawn
bestsubset gen --family gaussian --n 60 --p 8 --q 0 --b 2 --B 1 --output q0.csv
must_fail bestsubset gen --family gaussian --n 60 --p 8 --q 2 --b -1 --B 1 --output bad.csv
must_fail bestsubset gen --family gaussian --n 60 --p 8 --q 2 --sigma nan --output bad.csv
must_fail bestsubset fit --input d.csv --family gaussian --method sequential --epsilon nan
printf 'x1,x2,y\n1,2,3\n4,5\n' > ragged.csv
must_fail bestsubset fit --input ragged.csv --family gaussian --method one -k 1
printf 'x1,x2,y\n1,2,3\n4,abc,6\n' > text.csv
must_fail bestsubset fit --input text.csv --family gaussian --method one -k 1
# a leading UTF-8 byte-order mark is dropped, whichever column comes first
{ printf '\xef\xbb\xbf'; cat d.csv; } > bom.csv
bestsubset fit --input d.csv --family gaussian --method one -k 2 --output plain.json
bestsubset fit --input bom.csv --family gaussian --method one -k 2 --output bom.json
cmp plain.json bom.json
printf '\xef\xbb\xbfy,x1,x2\n3,1,2\n6,4,0\n9,7,8\n2,1,5\n' > bom-first.csv
bestsubset fit --input bom-first.csv --family gaussian --method one -k 1
printf 'y,a,y\n1,2,3\n4,5,6\n' > repeated.csv
refused "column 'y' appears more than once in the header" \
  bestsubset fit --input repeated.csv --family gaussian --method one -k 1
cp d.csv tail.csv
printf '1,2,3,4,5,6,7,8,oops\r\n' >> tail.csv
must_fail bestsubset fit --input tail.csv --family gaussian --method one -k 1 2> tail.err
grep -q "non-numeric value 'oops' at row 61, column 'y'" tail.err
# --epsilon is checked before the input is read
must_fail bestsubset fit --input missing.csv --family gaussian --method sequential \
  --epsilon nan 2> eps.err
grep -q "^error: epsilon must be nonnegative and finite, got nan$" eps.err
# a size outside [low, cap] is refused in one wording; the gaussian cap is
# min(n, p), so 8 on the 60-row d.csv and 6 on six.csv
refused "k must be in [1, 8], got 0" \
  bestsubset fit --input d.csv --family gaussian --method one -k 0
refused "k_max must be in [1, 8], got 9" \
  bestsubset fit --input d.csv --family gaussian --method sequential --k-max 9
refused "k must be in [0, 8], got 9" bestsubset oracle --input d.csv --family gaussian -k 9
bestsubset gen --family gaussian --n 6 --p 8 --q 2 --seed 1 --output six.csv
refused "k must be in [1, 6], got 7" \
  bestsubset fit --input six.csv --family gaussian --method one -k 7
refused "k_max must be in [1, 6], got 7" \
  bestsubset fit --input six.csv --family gaussian --method sequential --k-max 7
refused "k must be in [0, 6], got 7" bestsubset oracle --input six.csv --family gaussian -k 7
# with no --k-max (the default k_max is p = 8 here) the sweep says why it
# ended, and its path has at most k_max + 1 rows
bestsubset fit --input binomial.csv --family binomial --method sequential \
  | python3 -c '
import json, sys
report = json.load(sys.stdin)
assert report["stop"] in ("k_max", "epsilon", "certified"), report["stop"]
assert len(report["path"]) <= 8 + 1, len(report["path"])
'
# the branch-and-bound oracle at p = 40, where enumeration would fit 658 008
# sets, finds the planted support that the fixed-k fit misses on this seed
bestsubset gen --family gaussian --n 200 --p 40 --q 5 --seed 1 --output p40.csv
bestsubset oracle --input p40.csv --family gaussian --p-cap 40 -k 5 --output p40-oracle.json
bestsubset fit --input p40.csv --family gaussian --method one -k 5 --output p40-one.json
python3 -c '
import json
oracle = json.load(open("p40-oracle.json"))["loss"]
one = json.load(open("p40-one.json"))["loss"]
assert oracle <= one, (oracle, one)
'

#!/usr/bin/env bash
# Smoke run of the installed `bestsubset` console script, in the current
# directory: gen, fit (one, sequential path as JSON and CSV, gsection) and
# oracle for each family, two cox searches run twice with the same bytes,
# fit and bench runs with the search defaults spelled out, which give the
# same bytes as the runs that leave them unset,
# a separated binomial dataset whose gsection and fixed-k (k = 12) fits stop
# at their certificate and, run twice, give the same bytes,
# a cox oracle whose refused bound fits stay silent, the oracle past the
# default p cap, CSVs with a byte-order mark, and the input checks of gen,
# fit and bench, with the exact refusals of a repeated header name, a
# response that names one column twice, a repeated bench method, a bench
# --methods with an empty field, a --q that contradicts --beta, a --beta
# with an empty field or a non-finite value, a bench --k-max above spdas's
# cap (refused before any replication draws), a gen --n below 2, a negative
# gen --seed and an out-of-range size, a p > n gaussian dataset whose
# sequential search gives the same bytes twice and whose gsection search,
# where memo hits recompute sacrifices, gives the same report and stderr
# bytes twice, and a gen --rho 1e200 whose
# columns' squares overflow yet keep sqrt(n) norm with nothing on stderr.
# gsection reports are piped into a JSON parser, since
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
  # not must_fail, whose message would land in refused.err unseen
  if "$@" 2> refused.err; then
    echo "expected a nonzero exit: $*" >&2
    exit 1
  fi
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
# an unset search option keeps the library default: --criterion auto,
# --epsilon 0 and --eta 0.01 spelled out change no byte
bestsubset fit --input d.csv --family gaussian --method sequential --k-max 5 > seq-unset.json
bestsubset fit --input d.csv --family gaussian --method sequential --k-max 5 \
  --criterion auto --epsilon 0 > seq-spelled.json
cmp seq-unset.json seq-spelled.json
bestsubset fit --input d.csv --family gaussian --method gsection --k-max 5 \
  > gs-unset.json 2> gs-unset.err
bestsubset fit --input d.csv --family gaussian --method gsection --k-max 5 --eta 0.01 \
  > gs-spelled.json 2> gs-spelled.err
cmp gs-unset.json gs-spelled.json
cmp gs-unset.err gs-spelled.err
small_bench=(bestsubset bench --family gaussian --n 60 --p 8 --q 2 --reps 2
  --methods spdas,gpdas --no-timing)
"${small_bench[@]}" --details bench-unset.json > bench-unset.csv
"${small_bench[@]}" --criterion auto --epsilon 0 --eta 0.01 \
  --details bench-spelled.json > bench-spelled.csv
cmp bench-unset.csv bench-spelled.csv
cmp bench-unset.json bench-spelled.json
# n 60 at p 40: most binomial sizes separate the classes, and each such fit
# stops at its separation certificate; the same CSV gives the same bytes
bestsubset gen --family binomial --n 60 --p 40 --q 3 --seed 1 --output sep.csv
for method in gsection one; do
  k=()
  if [ $method = one ]; then k=(-k 12); fi
  for run in 1 2; do
    bestsubset fit --input sep.csv --family binomial --method $method "${k[@]}" \
      --output sep-$method-$run.json 2> sep-$method-$run.err
  done
  cmp sep-$method-1.json sep-$method-2.json
  cmp sep-$method-1.err sep-$method-2.err
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
refused "column 'time' appears more than once in the response" \
  bestsubset fit --input cox.csv --family cox --response time,time --method one -k 1
refused "repeated methods: ['spdas']" \
  bestsubset bench --family gaussian --n 60 --p 8 --q 2 --reps 1 --methods spdas,spdas
refused "--methods has an empty field: 'spdas,,gpdas'" \
  bestsubset bench --family gaussian --n 60 --p 8 --q 2 --reps 1 --methods spdas,,gpdas \
  --output methods-empty.csv
test ! -e methods-empty.csv
# the truth file's q is the support size: --beta's nonzeros when --q is unset
bestsubset gen --family gaussian --n 200 --p 20 --rho 0.2 --sigma 1.0 \
  --beta 3,1.5,0,0,-2,0,0,0,-1 --seed 123 --output beta.csv
python3 -c '
import json
truth = json.load(open("beta.csv.truth.json"))
assert truth["config"]["q"] == len(truth["support"]) == 4, truth
'
refused "q=5 but explicit beta has 3 nonzeros" \
  bestsubset gen --family gaussian --n 20 --p 5 --beta 1,2,3 --q 5 --output beta-q.csv
test ! -e beta-q.csv
refused "--beta has an empty field: '3,,1'" \
  bestsubset gen --family gaussian --n 20 --p 4 --beta 3,,1 --output beta-empty.csv
test ! -e beta-empty.csv
refused "explicit beta must be finite, got nan" \
  bestsubset gen --family binomial --n 20 --p 3 --beta nan,1 --seed 1 --output beta-nan.csv
test ! -e beta-nan.csv
# the gaussian cap is min(n, p) = 50; bench checks it before any draw
refused "k_max must be in [1, 50], got 80" \
  bestsubset bench --family gaussian --n 50 --p 100 --q 3 --k-max 80 --methods spdas \
  --output wide.csv
test ! -e wide.csv
refused "n must be in [2, inf], got 1" \
  bestsubset gen --family gaussian --n 1 --p 3 --q 1 --output bad.csv
test ! -e bad.csv
refused "seed must be in [0, inf], got -1" \
  bestsubset gen --family gaussian --n 20 --p 4 --q 1 --seed -1 --output seed.csv
test ! -e seed.csv
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
# p > n: 400 columns on 40 rows, where a memo hit recomputes its set's
# sacrifices; the sequential and gsection searches each give the same bytes
# twice (gsection's stderr trace too), and the gsection report parses
bestsubset gen --family gaussian --n 40 --p 400 --q 3 --seed 1 --output wide400.csv
for run in 1 2; do
  bestsubset fit --input wide400.csv --family gaussian --method sequential \
    --criterion ebic --k-max 10 > wide400-seq-$run.json
  bestsubset fit --input wide400.csv --family gaussian --method gsection --k-max 10 \
    > wide400-gs-$run.json 2> wide400-gs-$run.err
done
cmp wide400-seq-1.json wide400-seq-2.json
cmp wide400-gs-1.json wide400-gs-2.json
cmp wide400-gs-1.err wide400-gs-2.err
python3 -c 'import json,sys; json.load(sys.stdin)' < wide400-gs-1.json
# at --rho 1e200 every column's sum of squares overflows; each column still
# gets sqrt(n) norm, and nothing is written to stderr
bestsubset gen --family gaussian --n 6 --p 3 --q 1 --rho 1e200 --seed 0 \
  --output huge-rho.csv 2> huge-rho.err
test ! -s huge-rho.err
python3 -c '
import csv, math
rows = list(csv.reader(open("huge-rho.csv")))[1:]
for j in range(3):
    norm = math.sqrt(sum(float(row[j]) ** 2 for row in rows))
    assert abs(norm - math.sqrt(6)) <= 1e-12 * math.sqrt(6), (j, norm)
'

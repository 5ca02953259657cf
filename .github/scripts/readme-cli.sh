#!/usr/bin/env bash
# Runs every `hermgabor` line of README.md through the installed console
# script, then a few requests at the edges of what the CLI admits. Each run
# must exit 0 unless stated otherwise. Files the commands write land in a
# temporary directory.
#
#   .github/scripts/readme-cli.sh [--validate-only]
#
# With --validate-only, each README line must also print exactly "ok" under
# --validate-only before it runs.
set -eu

validate=
case "${1-}" in
  --validate-only) validate=1 ;;
  "") ;;
  *) echo "usage: $0 [--validate-only]" >&2; exit 2 ;;
esac

readme="$(cd "$(dirname "$0")/../.." && pwd)/README.md"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

grep '^hermgabor ' "$readme" | sed 's/ *#.*//' > readme-cli.txt
test "$(wc -l < readme-cli.txt)" -ge 7
while read -r line; do
  if [ -n "$validate" ]; then
    eval "$line --validate-only" < /dev/null | grep -qx ok
  fi
  eval "$line" < /dev/null
done < readme-cli.txt

hermgabor bounds --d 0 --matrix 0.001,0,0,0.001 --K 16
hermgabor certify --d 18 --matrix 0.1,0,0,0.1
hermgabor certify --d 0 --matrix 1000,0,0,1000
# a degree whose ambiguity function underflows e^{-s/2}, past the
# Nyquist guard of the sampling grid certificates once carried
hermgabor certify --d 400 --matrix 0.2,0,0,0.2
# an ambiguity field of several blocks of the Laguerre recurrence
hermgabor certify --d 1000 --matrix 0.2,0,0,0.2
# h_1000(40), where exp(-40^2/2) underflows (mpmath: 0.172250520733)
hermgabor hermite --n 1000 --x 40 \
  | python3 -c 'import json, sys; sys.exit(abs(json.load(sys.stdin)["h"][0] - 0.172250520733) > 1e-9)'
# the direct side at K = 128, whose points reach the largest shifts and
# the highest rotation phases e^{i(m-r)theta}: the bounds the
# complex-arithmetic projection gave
hermgabor bounds --d 1 --matrix 0.7,0.2,-0.1,0.6 --K 128 \
  | python3 -c 'import json, sys; r = json.load(sys.stdin); B = 4.6145218634421035; sys.exit(max(abs(r["A_est"] - 0.026566706476710448), abs(r["B_est"] - B)) > 1e-9 * B)'
# the adjoint side at K = 128 with a dilated window: the bounds the
# modulated quadrature gave before the projection became a rotated shift
hermgabor bounds --d 2 --matrix 0.25,0.05,-0.03,0.22 --K 128 --dilation 1.7 \
  | python3 -c 'import json, sys; r = json.load(sys.stdin); B = 19.12266991199733; sys.exit(max(abs(r["A_est"] - 16.275562485250244), abs(r["B_est"] - B)) > 1e-9 * B)'
# the README certificate on its default region, which ends inside the
# numerical support of F, so the oscillation runs on the whole quadrant
hermgabor certify --d 1 --matrix 0.05,0,0,0.05 --region-step 0.03125 \
  | python3 -c 'import json, sys; R = 0.5450288425665097; sys.exit(abs(json.load(sys.stdin)["R"] - R) > 1e-12 * R)'
# small dilations, read as the lattice diag(1/sqrt a, sqrt a) M at
# dilation 1 (0.033 was refused for its grid step): the bounds of the
# mapped lattice within 1e-13 B
for a in 0.033 1e-6; do
  hermgabor bounds --d 0 --matrix 0.5,0,0,0.5 --K 64 --dilation "$a" > dilated.json
  mapped="$(python3 -c 'import math, sys; r = math.sqrt(float(sys.argv[1])); print(f"{0.5 / r!r},0,0,{0.5 * r!r}")' "$a")"
  hermgabor bounds --d 0 --matrix "$mapped" --K 64 > mapped.json
  python3 -c 'import json, sys; r, s = (json.load(open(f)) for f in sys.argv[1:]); sys.exit(max(abs(r["A_est"] - s["A_est"]), abs(r["B_est"] - s["B_est"])) > 1e-13 * s["B_est"])' dilated.json mapped.json
done
# lattices at the edges of the float range: ||M||_F^2 overflows, yet the
# matrix is invertible; bounds ~1/|det M| = 1e300 still answer, and past
# the floats the run exits 2 naming the overflow, not a singular matrix
hermgabor norm --matrix 1e155,0,0,1e155
hermgabor bounds --matrix 1e-150,0,0,1e-150 --K 16 > tiny.json
code=0
hermgabor bounds --matrix 1e-160,0,0,1e-160 --K 16 2> overflow.txt || code=$?
test "$code" -eq 2
grep -q overflow overflow.txt
if grep -q invertible overflow.txt; then exit 1; fi
# a frame matrix of (cK)^2 = 2.6e9 entries (~42 GB) exceeds the point
# budget: rejected with exit 3 before any work, and reported by
# --validate-only
if [ -n "$validate" ]; then
  hermgabor bounds --d 200 --K 256 --matrix 0.01,0,0,0.01 --validate-only | grep -q "exceeds point budget"
fi
code=0
hermgabor bounds --d 200 --K 256 --matrix 0.01,0,0,0.01 2> matrix-budget.txt || code=$?
test "$code" -eq 3
grep -q budget matrix-budget.txt
# the glgrid row at det = 1/(d+1) is not a frame (the criterion is
# strict), and a ladder over the point budget is rejected with exit 3
hermgabor glgrid --d 4 --det-max 0.2 --steps 1 | tail -n 1 | grep -qx '0.20000000000000001,0.20000000000000001,false'
code=0
hermgabor glgrid --d 0 --steps 10000001 2> budget.txt || code=$?
test "$code" -eq 3
grep -q "exceeds point budget" budget.txt

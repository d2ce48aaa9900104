#!/usr/bin/env bash
# Runs the stewart66 console script that pyproject.toml installs, on small
# input files written to a temporary directory, and checks its output and
# exit codes.  The tests run the CLI in-process or as python -m; this runs
# the installed entry point.  Needs `stewart66` and `python` on PATH:
#   bash .github/scripts/console_script_checks.sh
set -eo pipefail
dir="$(mktemp -d)"
python - "$dir" <<'PY'
import json, math, sys
angles = [k * math.pi / 3 for k in range(6)]
for name, mu in (("hex.json", 0.5), ("bad_mu.json", 1.5), ("str_mu.json", "0.5")):
    with open(f"{sys.argv[1]}/{name}", "w") as fh:
        json.dump({"circle_angles": angles, "mu": mu}, fh)
# a circle through the base origin: its family is indexed by arc length
t = [0.3, 1.2, 2.2, 3.3, 4.2, 5.4]
with open(f"{sys.argv[1]}/origin.json", "w") as fh:
    json.dump({"base": [[1 + math.cos(a), math.sin(a)] for a in t], "mu": 0.5}, fh)
# the hexagon with vertex 0 pushed out: off every conic, so fk has isolated poses
base = [[math.cos(a), math.sin(a)] for a in angles]
base[0][0] = 1.2
with open(f"{sys.argv[1]}/perturbed.json", "w") as fh:
    json.dump({"base": base, "mu": 0.5}, fh)
# the same base under a quarter turn of the top plate (A != I)
with open(f"{sys.argv[1]}/turned.json", "w") as fh:
    json.dump({"base": base, "mu": 0.5, "A": [[0, -1, 0], [1, 0, 0], [0, 0, 1]]}, fh)
with open(f"{sys.argv[1]}/pose.json", "w") as fh:
    json.dump({"q": [1, 0, 0, 0], "P": [0, 0, 1]}, fh)
# bases far below unit size: the hexagon at radius 1e-4 with its resting
# legs, and a circle at radius 1e-12
with open(f"{sys.argv[1]}/small_hex.json", "w") as fh:
    json.dump({"base": [[1e-4 * math.cos(a), 1e-4 * math.sin(a)] for a in angles],
               "mu": 0.5}, fh)
with open(f"{sys.argv[1]}/small_legs.json", "w") as fh:
    json.dump({"L": [1e-4 * math.sqrt(1.25)] * 6}, fh)
# a circle of radius 1e-6 about the base origin, and its identity pose at height 1e-6
with open(f"{sys.argv[1]}/small_circle.json", "w") as fh:
    json.dump({"base": [[1e-6 * math.cos(a), 1e-6 * math.sin(a)] for a in t], "mu": 0.5}, fh)
with open(f"{sys.argv[1]}/small_pose.json", "w") as fh:
    json.dump({"q": [1, 0, 0, 0], "P": [0, 0, 1e-6]}, fh)
with open(f"{sys.argv[1]}/tiny.json", "w") as fh:
    json.dump({"base": [[1e-12 * math.cos(1.1 * k), 1e-12 * math.sin(1.1 * k)]
                        for k in range(6)], "mu": 0.5}, fh)
# files no JSON reader takes: Latin-1 bytes, and brackets past the recursion limit
with open(f"{sys.argv[1]}/latin1.json", "wb") as fh:
    fh.write(b'{"mu": 0.5, "name": "\xe9"}')
with open(f"{sys.argv[1]}/deep.json", "w") as fh:
    fh.write("[" * 100000 + "]" * 100000)
PY
# the conic margin s5/s0: at most linalg.RANK_EPS on the hexagon, about 0.028 off it
stewart66 check --geom "$dir/hex.json" > "$dir/check.json"
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["margin"] <= 1.65e-10' \
  "$dir/check.json"
stewart66 check --geom "$dir/perturbed.json" > "$dir/pcheck.json"
python -c 'import json, sys; out = json.load(open(sys.argv[1])); assert "detQ" not in out
assert 0.027 < out["margin"] < 0.029' "$dir/pcheck.json"
code=0
stewart66 check --geom "$dir/bad_mu.json" || code=$?
test "$code" -eq 2
# a string is not a number: the message names the file and the key
code=0
stewart66 check --geom "$dir/str_mu.json" 2> "$dir/str_mu.err" || code=$?
test "$code" -eq 2
grep -qF "$dir/str_mu.json: 'mu'" "$dir/str_mu.err"
stewart66 ik --geom "$dir/origin.json" --pose "$dir/pose.json" > "$dir/legs.json"
stewart66 sweep --geom "$dir/origin.json" --legs "$dir/legs.json" --w1-min -0.2 \
  --w1-max 0.2 --samples 5 --out "$dir/origin.csv" > "$dir/sweep.json"
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["parameterized_by_w1"] is False' \
  "$dir/sweep.json"
test "$(wc -l < "$dir/origin.csv")" -eq 21
# the family parameter does not depend on the base's scale: a small hexagon is a w1 family
stewart66 sweep --geom "$dir/small_hex.json" --legs "$dir/small_legs.json" --w1-min 0 \
  --w1-max 1e-8 --samples 5 --out "$dir/small.csv" > "$dir/small_sweep.json"
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["parameterized_by_w1"] is True' \
  "$dir/small_sweep.json"
# nor does the tangency rule: every sample of the small circle's family up to its seed's
# w1 = 1e-12, where the sphere touches the position line to within rounding, has poses
stewart66 ik --geom "$dir/small_circle.json" --pose "$dir/small_pose.json" > "$dir/small_circle_legs.json"
stewart66 sweep --geom "$dir/small_circle.json" --legs "$dir/small_circle_legs.json" --w1-min 0 \
  --w1-max 1e-12 --samples 5 --out "$dir/small_circle.csv" > "$dir/small_circle_sweep.json"
python -c 'import json, sys; out = json.load(open(sys.argv[1]))
assert out["feasible_count"] == out["sample_count"] == 5, out' "$dir/small_circle_sweep.json"
# nor does the distinct-vertex rule: a circle of radius 1e-12 is read as a conic
stewart66 check --geom "$dir/tiny.json" > "$dir/tiny_check.json"
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["rank"] == 5' "$dir/tiny_check.json"
stewart66 ik --geom "$dir/perturbed.json" --pose "$dir/pose.json" > "$dir/plegs.json"
stewart66 fk --geom "$dir/perturbed.json" --legs "$dir/plegs.json" > "$dir/fk.json"
python -c 'import json, sys; assert json.load(open(sys.argv[1]))["mode"] == "nonsingular"' \
  "$dir/fk.json"
stewart66 ik --geom "$dir/turned.json" --pose "$dir/pose.json" > "$dir/tlegs.json"
stewart66 fk --geom "$dir/turned.json" --legs "$dir/tlegs.json" > "$dir/tfk.json"
python -c 'import json, sys; out = json.load(open(sys.argv[1])); assert out["mode"] == "nonsingular"
assert len(out["solutions"]) >= 1' "$dir/tfk.json"
# every pose handed out is a unit quaternion and a finite position; the
# library checks this once, in the kernel, so this is its end-to-end test
python -c 'import json, math, sys
for path in sys.argv[1:]:
    for s in json.load(open(path))["solutions"]:
        assert abs(math.sqrt(sum(x * x for x in s["q"])) - 1.0) <= 1e-12, s
        assert all(map(math.isfinite, s["P"])), s' "$dir/fk.json" "$dir/tfk.json"
# an unreadable file is an input error that names the file, not a traceback
for name in latin1 deep; do
  code=0
  stewart66 check --geom "$dir/$name.json" 2> "$dir/$name.err" || code=$?
  test "$code" -eq 2
  grep -qF "error: cannot read $dir/$name.json as JSON" "$dir/$name.err"
  test "$(grep -c Traceback "$dir/$name.err")" -eq 0
done
# no pose, for either cause: w fits no rotation, or no position of one passes the audit
for legs in '[1, 1, 1, 1, 1, 1]' '[1.3, 1.3, 0.9, 0.9, 1.1, 0.8]'; do
  echo "{\"L\": $legs}" > "$dir/none.json"
  code=0
  stewart66 fk --geom "$dir/perturbed.json" --legs "$dir/none.json" > "$dir/none.out" \
    2> "$dir/none.err" || code=$?
  test "$code" -eq 3
  test ! -s "$dir/none.out"
  test "$(cat "$dir/none.err")" = "error: no pose reproduces the requested leg lengths"
done
# a count no array can hold is an input error, not a traceback
code=0
stewart66 sweep --geom "$dir/origin.json" --legs "$dir/legs.json" --w1-min 0 --w1-max 1 \
  --samples 100000000000000000000 --out "$dir/huge.csv" || code=$?
test "$code" -eq 2

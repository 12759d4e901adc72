#!/usr/bin/env bash
# Checks of the installed fracstab command, run from a fresh temporary
# directory: every subcommand once, byte-identical reruns, the exit codes of
# bad configs, and the messages of RHS faults and too-deep expressions.
# Usage: bash .github/cli-checks.sh  (with fracstab on PATH)
set -e
cd "$(mktemp -d)"
printf 'preset = example1\nt_end = 1\nh_list = [0.01, 0.005]\nchecks = [nr1:2, nr1_increasing:2, nr2:2, lemma3:2, lemma4:2, nr4_identity:2, nr6:2, nr7:2, nr8:2, nr9:2, nr10:2, nr11:2, nr12:2]\n' > small.cfg
fracstab simulate small.cfg --out sim
fracstab check small.cfg --out check
fracstab convergence small.cfg --out conv
fracstab reproduce 1 --out rep1
fracstab reproduce 2 --out rep2
fracstab reproduce 3 --out rep3
code=0; fracstab reproduce 1 --phi "exp(-t)" --out bad || code=$?
test "$code" -eq 1
fracstab plotscript sim/trajectory.csv
test -s sim/trajectory.gp
test -s check/check_summary.csv
test -s conv/convergence.csv
test -s rep1/stability_summary.txt
test -s rep3/stability_summary.txt
test ! -e bad
fracstab check small.cfg --out check_again
grep '^checks' small.cfg > onlychecks.cfg
fracstab check onlychecks.cfg --out oc
diff -r check oc
fracstab reproduce 1 --out rep1_again
fracstab reproduce 2 --out rep2_again
fracstab reproduce 3 --out rep3_again
fracstab reproduce 3 --phi "0.5+0*t" --out rep3phi
fracstab reproduce 3 --phi "0.5+0*t" --out rep3phi_again
fracstab simulate small.cfg --out sim_again
fracstab plotscript sim_again/trajectory.csv
fracstab convergence small.cfg --out conv_again
# 1200- to 4800-step solves: the steps past the first 1024 add FFT-folded history sums
printf 'preset = example1\nt_end = 12\nh_list = [0.01, 0.005]\n' > long.cfg
fracstab simulate long.cfg --out lsim
fracstab simulate long.cfg --out lsim_again
fracstab convergence long.cfg --out lconv
fracstab convergence long.cfg --out lconv_again
for d in sim check conv rep1 rep2 rep3 rep3phi lsim lconv; do diff -r "$d" "${d}_again"; done
for d in rep1 rep2 rep3 rep3phi; do grep -qx 'dissipation: pass max_violation=0 tol=0' "$d/stability_summary.txt"; done
printf 'preset = example1\nt_end = 1\nh_list = [0.01, 0.0031]\n' > nondividing.cfg
code=0; fracstab convergence nondividing.cfg --out nd || code=$?
test "$code" -eq 1
printf 'order = 0.9\ndim = 2\nx0 = [-10, 10]\nrhs1 = "-x1 - x2/(1+t)"\nrhs2 = "x1 - x2"\nt_end = 1\nh = 0.01\n' > explicit.cfg
printf 'preset = example1\nt_end = 1\n' > preset.cfg
fracstab simulate explicit.cfg --out explicit
fracstab simulate preset.cfg --out preset
diff explicit/trajectory.csv preset/trajectory.csv
printf 'preset = example1\nlabel = "x"\n' > label.cfg
code=0; fracstab simulate label.cfg --out lbl || code=$?
test "$code" -eq 1
# an RHS fault names its component, time and node, exits 1, and prints no traceback
printf 'order = 0.9\ndim = 2\nx0 = [1, 1]\nrhs1 = "-x1"\nrhs2 = "sqrt(x1 - 0.99) + x2"\nt_end = 1\nh = 0.01\n' > fault.cfg
code=0; fracstab simulate fault.cfg --out fault 2> fault.err || code=$?
test "$code" -eq 1
printf '%s\n' "error: rhs2 failed at t=0.01: sqrt of negative value in 'sqrt(x1 - 0.99)' in 'sqrt(x1 - 0.99) + x2'" > fault.want
diff fault.want fault.err
test ! -e fault
# so does the convergence study, and neither creates its output directory
cp fault.cfg fconv.cfg
printf 'h_list = [0.01, 0.005]\n' >> fconv.cfg
code=0; fracstab convergence fconv.cfg --out fconv || code=$?
test "$code" -eq 1
test ! -e fconv
# a tree taller than 256 levels is a config error at its line, not a RecursionError
python3 -c 'print("order = 0.9\ndim = 1\nx0 = [1]\nrhs1 = \"" + " + ".join(["x1"] * 3000) + "\"\nt_end = 1\nh = 0.01")' > deep.cfg
code=0; fracstab simulate deep.cfg --out deep 2> deep.err || code=$?
test "$code" -eq 1
grep -q 'expression too deeply nested' deep.err
if grep -q Traceback deep.err; then exit 1; fi

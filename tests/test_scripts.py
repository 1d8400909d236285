"""Smoke runs of the scripts in scripts/, each in its own process as a user
would start it."""
import re
import subprocess
import sys

from helpers import GRAMMARS

SCRIPTS = GRAMMARS.parent / "scripts"


def run_script(name, *args):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_budget_demo():
    lines = run_script("budget_demo.py", "--budgets", "10", "100")
    assert lines[0] == "input: 'aabbcc'"
    assert len(lines) == 3
    for line, budget in zip(lines[1:], (10, 100)):
        assert re.fullmatch(rf"  budget +{budget}: tripped after +[0-9.]+s "
                            rf"\(instantiation budget of {budget} exhausted\)", line)


def test_scaling_benchmark():
    lines = run_script("scaling_benchmark.py", "--sizes", "4", "8")
    assert [line for line in lines if not line.startswith(" ")] == [
        "S1 (s1.g)", "S2 (s2.g)", "E (e.g)"]
    rows = [line for line in lines if line.startswith(" ")]
    assert len(rows) == 6
    # E on a^4: its descriptor and forest counts are fixed by the grammar
    assert re.fullmatch(r"  n= +4 +[0-9.]+s +64 descriptors +94 bsrs", rows[4])

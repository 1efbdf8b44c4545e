"""What each `verify` check catches: a mutation matrix.

Each mutant is one exact source edit to a copy of the package, and
`python -m donaldson_cp2 --format csv verify` runs on the copy in a fresh
process.  The mutant must exit 1 with exactly its listed checks failing.
So a check that stops catching a mutant fails here, and so does an edit
that no longer matches its source once, say after a refactor moves the
code, instead of testing nothing.
"""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from donaldson_cp2 import verify

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "donaldson_cp2"

# the checks that integrate: a wrong weight fails them all
INTEGRALS = {"published_invariants", "specialization_independence", "vanishing",
             "run_determinism", "closed_forms"}

# (id, module, source text, mutated text, the checks that fail)
MUTANTS = [
    ("t2_arm_plus_1", "engine.py",
     "t2 = (leg + 1) * v - arm * u", "t2 = (leg + 1) * v - (arm + 1) * u", INTEGRALS),
    ("t1_leg_plus_1", "engine.py",
     "t1 = (arm + 1) * u - leg * v", "t1 = (arm + 1) * u - (leg + 1) * v", INTEGRALS),
    ("chart2_v_is_w2", "engine.py",
     "((-1, 0), (-1, 1), (1 + s1, s2))", "((-1, 0), (0, 1), (1 + s1, s2))", INTEGRALS),
    ("lambda_chart3_reads_chart2", "engine.py",
     "c * lines[2]", "c * lines[1]", INTEGRALS),
    ("e_row_col_swapped", "engine.py",
     "e = col * u + row * v - line", "e = row * u + col * v - line", INTEGRALS),
    ("e_col_plus_1", "engine.py",
     "e = col * u + row * v - line", "e = (col + 1) * u + row * v - line", INTEGRALS),
    ("e_twice_col", "engine.py",
     "e = col * u + row * v - line", "e = 2 * col * u + row * v - line", INTEGRALS),
    ("e_line_sign_flipped", "engine.py",
     "e = col * u + row * v - line", "e = col * u + row * v + line",
     INTEGRALS - {"vanishing"}),
    # every E-weight of a partition of size 10 or more: only an integral
    # above Hilb^9 sees it
    ("e_wrong_from_size_10", "engine.py",
     "e = col * u + row * v - line", "e = col * u + row * v - line + (len(table) >= 9)",
     {"closed_forms"}),
    ("segre_row_m_plus_k", "engine.py",
     "comb(m - 1 + k, k - l)", "comb(m + k, k - l)",
     {"published_invariants", "specialization_independence", "run_determinism",
      "closed_forms"}),
    # specializations drawn from the seed and the state of a cache, which
    # every pass moves: the values hold, the pair drawn at one seed does not
    ("specializations_not_seed_alone", "engine.py",
     "random.Random(seed).sample(", "random.Random(seed + _level.cache_info().hits).sample(",
     {"run_determinism"}),
    ("prefactor_n6_one_half", "invariants.py",
     "return 0, (2, 5)", "return 0, (1, 2)", {"published_invariants"}),
]


@pytest.mark.parametrize("module, source, mutated, failing",
                         [mutant[1:] for mutant in MUTANTS],
                         ids=[mutant[0] for mutant in MUTANTS])
def test_verify_fails_each_mutant_on_its_checks(tmp_path, module, source, mutated, failing):
    copy = tmp_path / "donaldson_cp2"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / module
    text = path.read_text(encoding="utf-8")
    assert text.count(source) == 1, f"{source!r} must occur once in {module}"
    path.write_text(text.replace(source, mutated), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}

    def child(*args):
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    loaded = child("-c", "import donaldson_cp2; print(donaldson_cp2.__file__)")
    assert loaded.stdout.strip() == str(copy / "__init__.py"), loaded.stderr
    run = child("-m", "donaldson_cp2", "--format", "csv", "verify")
    assert run.returncode == 1, run.stdout + run.stderr
    records = list(csv.DictReader(run.stdout.splitlines()))
    assert [r["name"] for r in records] == [name for name, _ in verify.CRITERIA]
    assert {r["name"] for r in records if r["ok"] == "False"} == failing

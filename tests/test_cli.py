import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icosian.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_command_shows_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out.lower()


def test_verify_exit_code_reflects_failures(capsys):
    code, out, _ = run(capsys, "verify")
    # two documented defects keep the full run red
    assert code == 1
    assert "failed" in out


def test_verify_only_prefix(capsys):
    code, out, _ = run(capsys, "verify", "--only", "chars")
    assert code == 0
    assert "chars.table" in out
    assert "coincidence" not in out


def test_verify_only_unknown_prefix(capsys):
    code, _, err = run(capsys, "verify", "--only", "nope")
    assert code == 2
    assert "no checks match" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--only", "group", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    ids = {r["id"] for r in data["results"]}
    assert ids == {"group.order", "group.relations"}


def test_table_text(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "2a" in out and "√5" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["irreducibles"]) == 9
    assert len(data["classes"]) == 9


def test_branch(capsys):
    code, out, _ = run(capsys, "branch")
    assert code == 0
    assert "spin  7/2: 2b+6" in out


def test_branch_rejects_negative_max_two_j(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["branch", "--max-two-j", "-1"])
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "2b", "4b")
    assert code == 0
    assert out.strip() == "3b+5"


def test_decompose_three_factors(capsys):
    code, out, _ = run(capsys, "decompose", "2a", "2a", "2a")
    assert code == 0
    assert out.strip() == "2a+2a+4b"


def test_decompose_unknown_label(capsys):
    code, _, err = run(capsys, "decompose", "9z")
    assert code == 2
    assert "unknown character label" in err


def test_roots(capsys):
    code, out, _ = run(capsys, "roots")
    assert code == 0
    assert "neutrino-like" in out
    assert "10 classes x 12 roots" in out


def test_roots_full_json(capsys):
    code, out, _ = run(capsys, "roots", "--full", "--json")
    data = json.loads(out)
    assert code == 0
    assert sum(len(c["members"]) for c in data["classes"]) == 120


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits")
    assert code == 0
    assert "orbit sizes (3, 3, 3, 6)" in out
    assert "quaternion subgroups: 5 total, 2 normalized by g" in out


def test_algebra(capsys):
    code, out, _ = run(capsys, "algebra")
    assert code == 0
    assert "37 -> 15 kept, 22 lost as 2 + 7 + 13" in out
    assert "fail" not in out


def test_coincidence(capsys):
    code, out, _ = run(capsys, "coincidence")
    assert code == 0
    assert "1.001369" in out
    assert "0.000544558" in out
    assert "23° 26′ 33.7″" in out


def test_verify_only_coincidence_builds_no_group():
    # a filtered verify runs only the selected checks, so the group's
    # cached layers stay empty
    script = (
        "from icosian.cli import main\n"
        "from icosian.reflgroup import build_o1\n"
        "code = main(['verify', '--only', 'coincidence'])\n"
        "print(code, build_o1.cache_info().currsize)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 0"
    assert "coincidence.tilt" in out

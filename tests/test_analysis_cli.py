"""CLI, pragma, and report-schema tests for repro.analysis.

The checker semantics themselves (which lines each rule flags) live in
``tests/test_analysis_checkers.py``; this file pins the *surfaces*:
``python -m repro lint`` exit codes, the pragma suppression
machinery, and the JSON report schema that CI uploads as
an artifact.
"""

import json
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis.engine import run_lint
from repro.analysis.pragmas import is_allowed, parse_pragmas
from repro.analysis.reporters import JSON_SCHEMA_VERSION

ALL_RULE_IDS = {
    "wall-clock", "global-random", "salted-hash",
    "dangling-task", "event-loop", "blocking-async",
    "frozen-mutation",
    "key-reach", "digest-outside-crypto",
    "quorum-literal",
    "wire-parity",
    "fs-outside-storage",
}


def write_snippet(tmp_path, relpath, code):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# pragmas


def test_pragma_same_line():
    allowed = parse_pragmas([
        "import time",
        "t = time.time()  # repro: allow[wall-clock]",
    ])
    assert is_allowed(allowed, 2, "wall-clock")
    assert not is_allowed(allowed, 2, "global-random")
    assert not is_allowed(allowed, 1, "wall-clock")


def test_pragma_comment_line_covers_next_code_line():
    allowed = parse_pragmas([
        "# repro: allow[wall-clock] -- reporting-only stopwatch",
        "t = time.time()",
        "u = time.time()",
    ])
    assert is_allowed(allowed, 2, "wall-clock")
    assert not is_allowed(allowed, 3, "wall-clock")


def test_pragma_carries_through_comment_chains():
    allowed = parse_pragmas([
        "# repro: allow[wall-clock]",
        "# second explanatory comment line",
        "t = time.time()",
    ])
    assert is_allowed(allowed, 3, "wall-clock")


def test_pragma_multiple_ids_and_wildcard():
    allowed = parse_pragmas([
        "x()  # repro: allow[wall-clock, global-random]",
        "y()  # repro: allow[*]",
    ])
    assert is_allowed(allowed, 1, "wall-clock")
    assert is_allowed(allowed, 1, "global-random")
    assert not is_allowed(allowed, 1, "salted-hash")
    assert is_allowed(allowed, 2, "anything-at-all")


def test_pragma_suppresses_finding_and_is_counted(tmp_path):
    write_snippet(tmp_path, "src/repro/core/clock.py", """\
        import time

        def now():
            return time.time()  # repro: allow[wall-clock] -- test
    """)
    report = run_lint(paths=["src/repro/core/clock.py"],
                      root=str(tmp_path))
    assert report.findings == []
    assert report.pragma_suppressed == 1


def test_pragma_for_wrong_rule_does_not_suppress(tmp_path):
    write_snippet(tmp_path, "src/repro/core/clock.py", """\
        import time

        def now():
            return time.time()  # repro: allow[global-random]
    """)
    report = run_lint(paths=["src/repro/core/clock.py"],
                      root=str(tmp_path))
    assert [f.rule for f in report.findings] == ["wall-clock"]
    assert report.pragma_suppressed == 0


# ---------------------------------------------------------------------------
# python -m repro lint: exit codes and wiring


def test_lint_self_check_repo_tree_is_clean(capsys):
    # The acceptance gate: the shipped tree lints clean without any
    # baseline (sanctioned exceptions carry inline pragmas).
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_with_committed_baseline_is_clean(capsys):
    # CI's lint gate: the bare run over the whole tree.
    assert main(["lint"]) == 0


BAD_FIXTURES = {
    "wall-clock": "import time\nt = time.time()\n",
    "global-random": "import random\nx = random.random()\n",
    "dangling-task":
        "import asyncio\n\n\nasync def go(c):\n"
        "    asyncio.create_task(c())\n",
    "frozen-mutation":
        "def poke(msg):\n"
        "    object.__setattr__(msg, 'sender', 'evil')\n",
    "key-reach":
        "def leak(registry, node):\n"
        "    return registry._keys[node]\n",
    "quorum-literal":
        "def ready(votes, f):\n"
        "    return len(votes) >= 2 * f + 1\n",
}


@pytest.mark.parametrize("rule", sorted(BAD_FIXTURES))
def test_lint_cli_exits_one_on_bad_fixture(tmp_path, capsys, rule):
    bad = write_snippet(tmp_path, "src/repro/core/bad.py",
                        BAD_FIXTURES[rule])
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"[{rule}]" in out


def test_lint_unknown_rule_exits_two_naming_available(capsys):
    assert main(["lint", "--rule", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "no-such-rule" in err
    assert "wall-clock" in err


def test_lint_missing_path_exits_two(capsys):
    assert main(["lint", "does/not/exist.py"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_lint_rule_filter_restricts_output(tmp_path, capsys):
    bad = write_snippet(tmp_path, "src/repro/core/bad.py", """\
        import time
        import random
        t = time.time()
        r = random.random()
    """)
    assert main(["lint", str(bad), "--rule", "global-random"]) == 1
    out = capsys.readouterr().out
    assert "[global-random]" in out
    assert "[wall-clock]" not in out


@pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
def test_lint_has_no_baseline_flags(capsys, flag):
    # Every finding fails the run; only an inline pragma suppresses.
    with pytest.raises(SystemExit) as exc:
        main(["lint", flag])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_lint_list_rules_covers_every_rule(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULE_IDS:
        assert rule in out


# ---------------------------------------------------------------------------
# __main__ wiring (the PR's bugfix satellite)


def test_help_lists_lint(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "lint" in capsys.readouterr().out


def test_unknown_subcommand_exits_two_naming_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "frobnicate" in err
    assert "lint" in err and "run" in err


# ---------------------------------------------------------------------------
# JSON report schema (CI artifact contract)


def run_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_json_schema_top_level_keys(capsys):
    code, payload = run_json(["lint", "--format", "json"], capsys)
    assert code == 0
    assert set(payload) == {
        "schema_version", "rules", "files_scanned", "findings",
        "suppressed", "exit_code",
    }
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["exit_code"] == 0
    assert payload["findings"] == []
    assert set(payload["suppressed"]) == {"pragma"}
    assert payload["suppressed"]["pragma"] >= 1  # runner stopwatch
    assert payload["files_scanned"] > 50
    assert {r["id"] for r in payload["rules"]} == ALL_RULE_IDS
    for rule in payload["rules"]:
        assert set(rule) == {"id", "summary", "motivation"}


def test_json_finding_entry_shape(tmp_path, capsys):
    bad = write_snippet(tmp_path, "src/repro/core/bad.py",
                        "import time\nt = time.time()\n")
    code, payload = run_json(
        ["lint", str(bad), "--format", "json"], capsys)
    assert code == 1
    assert payload["exit_code"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "wall-clock"
    assert finding["line"] == 2

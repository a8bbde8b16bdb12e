"""Command-line surface: output formats, exit codes, warnings."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    all_permutations,
    alternating_chain,
    common_intervals_by_rescan,
    random_separable,
)
from permlcp import normalize, parse_permutation
from permlcp.cli import main
from permlcp.oracle import oracle_is_simple, oracle_lcp, oracle_separable

SIGMA11 = "5 1 10 9 6 7 8 11 2 4 3"
# Only lcp, plan and contains load these: the DP and the algebra it imports.
DP_MODULES = {"permlcp.dp", "permlcp.algebra"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """A fresh interpreter that imports permlcp from this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_without_site(code):
    """A fresh ``python -S`` that puts this checkout's src on sys.path, then runs code.

    Without site, which may import modules itself, ``sys.modules`` holds only
    what the interpreter and the code loaded.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); {code}"
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )


class TestLcpCommand:
    def test_simple_case(self, capsys):
        code, out, _ = run(capsys, "lcp", "1 2 3", "3 2 1")
        assert code == 0
        assert "length: 1" in out

    def test_self_case_general(self, capsys):
        code, out, _ = run(capsys, "lcp", SIGMA11, SIGMA11, "--algo", "general")
        assert code == 0
        assert "length: 11" in out
        assert "algorithm: general" in out
        assert f"pattern: {SIGMA11}" in out

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "lcp", "2 4 1 3", "1 3 2 4", "-o", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"pattern", "length", "occ_sigma", "occ_tau", "algorithm"}
        assert payload["length"] == len(payload["pattern"])
        sigma = parse_permutation("2 4 1 3")
        tau = parse_permutation("1 3 2 4")
        sub_sigma = [sigma.values[p - 1] for p in payload["occ_sigma"]]
        sub_tau = [tau.values[p - 1] for p in payload["occ_tau"]]
        assert list(normalize(sub_sigma).values) == payload["pattern"]
        assert list(normalize(sub_tau).values) == payload["pattern"]

    def test_oracle_and_general_agree(self, capsys):
        pairs = [("2 4 1 3", "4 2 3 1"), ("1 3 2", "3 1 2"), ("2 1 4 3 5", "5 4 3 2 1")]
        for sigma, tau in pairs:
            _, out_g, _ = run(capsys, "lcp", sigma, tau, "--algo", "general", "-o", "json")
            want = oracle_lcp(parse_permutation(sigma), parse_permutation(tau))
            assert json.loads(out_g)["length"] == len(want)

    def test_separable_on_prime_input_exits_3(self, capsys):
        code, _, err = run(capsys, "lcp", "3 1 4 2", "1 2", "--algo", "separable")
        assert code == 3
        assert "error" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "lcp", "1 2 x", "1 2")
        assert code == 2
        assert "error" in err

    def test_canonical_flag(self, capsys):
        code, out, _ = run(capsys, "lcp", "2 4 1 3", "1 3 2 4", "--canonical", "-o", "json")
        assert code == 0
        assert json.loads(out)["length"] == 3

    def test_arity_warning_on_stderr(self, capsys):
        # 2 4 6 1 3 5 has no nontrivial interval: one prime node of arity 6.
        code, out, err = run(capsys, "lcp", "2 4 6 1 3 5", "1 2 3 4 5 6", "--algo", "general")
        assert code == 0
        assert "warning" in err and "arity 6" in err
        assert "length:" in out

    def test_no_warning_for_small_arity(self, capsys):
        _, _, err = run(capsys, "lcp", "3 1 4 2", "1 2 3 4")
        assert "warning" not in err

    def test_quiet_suppresses_stdout(self, capsys):
        code, out, err = run(capsys, "lcp", "2 4 6 1 3 5", "1 2 3", "--algo", "general", "--quiet")
        assert code == 0
        assert out == ""
        assert "warning" in err  # diagnostics stay on stderr

    def test_plans_once(self, capsys, monkeypatch):
        """The plan that decides the arity warning is the one the command solves."""
        import permlcp.dp

        built = []
        build = permlcp.dp.decomposition_tree
        monkeypatch.setattr(permlcp.dp, "decomposition_tree", lambda p: built.append(p) or build(p))
        code, out, _ = run(capsys, "lcp", "2 4 1 3", "1 3 2 4")
        assert code == 0 and "length: 3" in out
        assert sorted(map(str, built)) == ["1 3 2 4", "2 4 1 3"]

    def test_internal_error_exits_3_without_traceback(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("the stored lengths do not rebuild to a common pattern")

        monkeypatch.setattr("permlcp.dp.DpTable.reconstruct", broken)
        code, out, err = run(capsys, "lcp", "2 4 1 3", "1 3 2 4")
        assert code == 3
        assert out == ""
        assert err == "error: RuntimeError: the stored lengths do not rebuild to a common pattern\n"


class TestPlanCommand:
    def test_text(self, capsys):
        code, out, err = run(capsys, "plan", "2 4 1 3 5", "1 3 2")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "guided_by: tau",
            "algorithm: separable",
            "prime_arity: 0",
            f"cost_sigma: {3**10 + 3**6}",
            f"cost_tau: {2 * 5**6}",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "plan", "2 4 1 3 5", "1 3 2", "--algo", "general", "-o", "json")
        assert code == 0
        assert json.loads(out) == {
            "guided_by": "sigma",
            "algorithm": "general",
            "prime_arity": 4,
            "cost_sigma": 3**10 + 3**6,
            "cost_tau": None,
        }

    def test_exit_codes(self, capsys):
        code, out, err = run(capsys, "plan", "3 1 4 2", "1 2", "--algo", "separable")
        assert (code, out) == (3, "") and err.startswith("error:")
        code, out, err = run(capsys, "plan", "1 2 x", "1 2")
        assert (code, out) == (2, "") and err.startswith("error:")
        code, out, _ = run(capsys, "plan", "2 1", "1 2", "--quiet")
        assert (code, out) == (0, "")

    def test_cost_past_the_int_text_limit(self, capsys):
        # 2 4 ... 1000 1 3 ... 999 is simple: one prime node of arity 1000, cost 1000^2002.
        simple = " ".join(map(str, [*range(2, 1001, 2), *range(1, 1000, 2)]))
        code, out, _ = run(capsys, "plan", simple, simple, "-o", "json")
        assert code == 0
        assert json.loads(out)["cost_sigma"] == ">=1e6005"


class TestTreeCommand:
    def test_labeled_text(self, capsys):
        code, out, _ = run(capsys, "tree", SIGMA11, "--kind", "labeled", "--format", "text")
        assert code == 0
        assert out.splitlines()[0].startswith("P 3 1 4 2")

    def test_single_leaf(self, capsys):
        code, out, _ = run(capsys, "tree", "1")
        assert code == 0
        assert out.strip() == "1 (pos 1)"

    def test_expanded_binary_counts(self, capsys):
        code, out, _ = run(
            capsys, "tree", "4 2 3 1 6 5 8 9 7", "--kind", "expanded", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["expanded"] is True

        def count(node):
            leaves = 1 if not node["children"] else 0
            internal = 1 if node["children"] else 0
            for child in node["children"]:
                l, i = count(child)
                leaves += l
                internal += i
            return leaves, internal

        leaves, internal = count(payload["root"])
        assert leaves == 9 and internal == 8

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "tree", SIGMA11, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert 'label="3 1 4 2"' in out

    def test_parse_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "tree", "1 2 2")
        assert code == 2


class TestCheckCommand:
    def test_separable_failure_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "2 4 1 3", "--separable")
        assert code == 1
        assert "2 4 1 3" in out  # the witness occurrence is the whole permutation

    def test_separable_success(self, capsys):
        code, out, _ = run(capsys, "check", "4 2 3 1 6 5 8 9 7", "--separable")
        assert code == 0
        assert "separable" in out

    def test_simple_success(self, capsys):
        code, out, _ = run(capsys, "check", "3 1 4 2", "--simple")
        assert code == 0
        assert "simple" in out

    def test_simple_failure_small(self, capsys):
        code, out, _ = run(capsys, "check", "1 2", "--simple")
        assert code == 1
        assert "not simple" in out

    def test_simple_failure_witness_span(self, capsys):
        code, out, _ = run(capsys, "check", "1 2 3 5 4", "--simple")
        assert code == 1
        assert "1-2" in out  # first proper nontrivial common interval

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", "2 4 1 3", "--separable", "-o", "json")
        payload = json.loads(out)
        assert code == 1
        assert payload["value"] is False
        assert payload["witness"] == [1, 2, 3, 4]

    def test_quiet_keeps_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "2 4 1 3", "--separable", "--quiet")
        assert code == 1
        assert out == ""

    def test_agrees_with_oracles_to_size_7(self, capsys):
        for n in range(1, 8):
            for sigma in all_permutations(n):
                code, out, _ = run(capsys, "check", str(sigma), "--simple", "-o", "json")
                payload = json.loads(out)
                assert payload["value"] == (code == 0) == oracle_is_simple(sigma), sigma.values
                proper = [s for s in common_intervals_by_rescan(sigma) if 1 < s.width < n]
                first = [proper[0].lo, proper[0].hi] if proper else None
                assert payload.get("witness_span") == first, sigma.values

                code, out, _ = run(capsys, "check", str(sigma), "--separable", "-o", "json")
                payload = json.loads(out)
                assert payload["value"] == (code == 0) == oracle_separable(sigma), sigma.values
                if code:
                    picked = [sigma.values[p - 1] for p in payload["witness"]]
                    assert str(normalize(picked)) == payload["forbidden_pattern"], sigma.values

    def test_separable_of_size_400(self, capsys):
        sigma = random_separable(random.Random(400), 400)
        code, out, _ = run(capsys, "check", str(sigma), "--separable")
        assert code == 0
        assert out.strip() == "separable"


class TestDeepInputs:
    def test_tree_of_deep_chain(self, capsys):
        code, out, _ = run(capsys, "tree", str(alternating_chain(2000)))
        assert code == 0
        assert len(out.splitlines()) == 3999

    def test_lcp_against_deep_chain(self, capsys):
        code, out, _ = run(capsys, "lcp", str(alternating_chain(500)), "2 1 3")
        assert code == 0
        assert "length: 3" in out

    def test_json_past_recursion_limit_exits_3(self, capsys):
        code, out, err = run(capsys, "tree", str(alternating_chain(5000)), "--format", "json")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_expanded_json_of_long_identity(self, capsys):
        """The 1,999 + nodes of the identity of size 2000 nest 11 deep, not 1,999."""
        identity = " ".join(map(str, range(1, 2001)))
        code, out, _ = run(capsys, "tree", identity, "--kind", "expanded", "--format", "json")
        assert code == 0

        def spelled(node, low):
            """The values a linear-only tree spells, each above ``low``."""
            if not node["children"]:
                return [low + 1]
            children = node["children"]
            lows = {}
            for child in children if node["sign"] == "+" else children[::-1]:
                lows[id(child)] = low
                low += child["span"][1] - child["span"][0] + 1
            return [v for child in children for v in spelled(child, lows[id(child)])]

        assert " ".join(map(str, spelled(json.loads(out)["root"], 0))) == identity


class TestContainsCommand:
    def test_known_example_present(self, capsys):
        code, out, _ = run(capsys, "contains", "1 3 4 2", "1 4 2 5 6 3")
        assert code == 0
        positions = [int(tok) for tok in out.split("positions")[1].split("(")[0].split()]
        host = parse_permutation("1 4 2 5 6 3")
        picked = tuple(host.values[p - 1] for p in positions)
        assert normalize(picked).values == (1, 3, 4, 2)

    def test_known_example_absent(self, capsys):
        code, out, _ = run(capsys, "contains", "3 2 1", "1 4 2 5 6 3")
        assert code == 1
        assert "no occurrence" in out

    def test_singleton_always_contained(self, capsys):
        code, _, _ = run(capsys, "contains", "1", "2 4 1 3")
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "contains", "2 1", "1 3 2", "-o", "json")
        payload = json.loads(out)
        assert code == 0 and payload["contains"] is True
        host = parse_permutation("1 3 2")
        picked = [host.values[p - 1] for p in payload["occurrence"]]
        assert normalize(picked).values == (2, 1)


class TestQuiet:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("lcp", "2 4 6 1 3 5", "1 2 3", "--algo", "general"), id="lcp-warning"),
            pytest.param(("lcp", "1 2 x", "1 2"), id="lcp-parse-error"),
            pytest.param(("lcp", "3 1 4 2", "1 2", "--algo", "separable", "-o", "json"), id="lcp-not-separable"),
            pytest.param(("plan", "2 4 1 3 5", "1 3 2"), id="plan"),
            pytest.param(("plan", "1 2", "1 2 2", "-o", "json"), id="plan-parse-error"),
            pytest.param(("tree", "1 2 2"), id="tree-parse-error"),
            pytest.param(("tree", str(alternating_chain(5000)), "--format", "json"), id="tree-deep-json"),
            pytest.param(("check", "2 4 1 3", "--separable"), id="check-not-separable"),
            pytest.param(("check", "1 2", "--simple", "-o", "json"), id="check-not-simple"),
            pytest.param(("contains", "3 2 1", "1 4 2 5 6 3"), id="contains-absent"),
            pytest.param(("contains", "2 1", "1 3 2", "-o", "json"), id="contains-json"),
        ],
    )
    def test_quiet_keeps_exit_code_and_stderr(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert run(capsys, *argv, "--quiet") == (code, "", err)


class TestParserBehaviour:
    def test_tree_rejects_output_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["tree", "2 1 3", "-o", "json"])
        assert exc.value.code == 2

    def test_unknown_flag_shows_the_subcommand_usage(self, capsys):
        for argv in (["tree", "2 1 3", "--bogus"], ["lcp", "1 2", "2 1", "--bogus"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: permlcp {argv[0]} "), err
            assert err.rstrip().endswith("error: unrecognized arguments: --bogus"), err

    def test_module_runs_as_script(self):
        proc = run_python("-m", "permlcp.cli", "lcp", "2 4 1 3", "1 3 2 4")
        assert proc.returncode == 0
        assert "length: 3" in proc.stdout

    def test_import_leaves_the_oracle_unloaded(self):
        proc = run_python("-c", "import sys, permlcp.cli; print('permlcp.oracle' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_dataclasses_or_typing(self):
        proc = run_without_site(
            "import permlcp.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "code",
        [
            "import permlcp.cli",
            "from permlcp.cli import main; main(['tree', '2 4 1 3', '--format', 'json'])",
            "from permlcp.cli import main; main(['check', '2 4 1 3', '--separable'])",
        ],
        ids=["import", "tree", "check"],
    )
    def test_leaves_the_dp_unloaded(self, code):
        proc = run_without_site(f"{code}; print(sorted({DP_MODULES!r} & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_lcp_loads_the_dp(self):
        proc = run_without_site(
            "from permlcp.cli import main; main(['lcp', '2 4 1 3', '1 3 2 4']); "
            f"print(sorted({DP_MODULES!r} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(sorted(DP_MODULES))

    def test_missing_subcommand_is_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_choice_is_systemexit_2(self):
        for algo in ("magic", "oracle"):
            with pytest.raises(SystemExit) as exc:
                main(["lcp", "1", "1", "--algo", algo])
            assert exc.value.code == 2

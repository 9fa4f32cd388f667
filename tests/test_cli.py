import ast
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from itertools import combinations

import pytest

from deletion_oracle import set_deletion_checks

from delcode import (
    PermCodeBook,
    ScaleGuardExceeded,
    analysis,
    cli,
    multfree,
    next_prime_above,
    vtcode,
)
from delcode.model import set_bits

SPEC_ARGS = ["--q", "8", "--n", "4", "--t", "1"]

# what `verify` prints for a syndrome-class spec that passes, taken before the
# per-deletion loop gave way to the decoder-table certificate
VERIFY_OK = (
    '{"checks": {"class_membership": true, "perm_balls_disjoint": true, '
    '"set_deletion_soundness": true}, "ok": true}\n'
)

# the spec file that `construct --q 12 --n 5 --t 2` writes
Q12_SPEC = (
    '{"mode": "stable", "n": 5, "perm_code": {"codewords": [[1, 2, 3, 4, 5], [1, 5, 4, 3, 2], '
    '[3, 2, 5, 1, 4], [4, 5, 2, 1, 3]], "n": 5, "order": "lex", "t": 2}, "q": 12, '
    '"set_code": {"a": [1, 3], "n": 5, "p": 13, "q": 12, "t": 2}, "t": 2}'
)


def run_cli(*args, env_extra=None, **run_options):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "delcode", *args],
        capture_output=True,
        text=True,
        env=env,
        **run_options,
    )


def strict_json(text):
    """json.loads that refuses the non-standard constants NaN and Infinity."""

    def refuse(name):
        raise AssertionError(f"stdout holds the non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _cap_address_space(limit=1 << 30):
    # a regression that builds an O(q) table fails fast instead of filling memory
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "spec.json"
    result = run_cli("construct", *SPEC_ARGS, "--out", str(path))
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture
def q12_spec_path(tmp_path):
    path = tmp_path / "q12.json"
    path.write_text(Q12_SPEC)
    return path


class TestConstruct:
    def test_summary_and_file(self, spec_path):
        result = run_cli("construct", *SPEC_ARGS, "--out", str(spec_path) + ".again")
        summary = json.loads(result.stdout)
        assert result.returncode == 0
        assert summary["p"] == 11
        assert summary["code_size"] == summary["set_code_size"] * summary["perm_code_size"]
        data = json.loads(open(str(spec_path) + ".again").read())
        assert data["mode"] == "stable"
        assert set(data["set_code"]) == {"q", "n", "t", "p", "a"}

    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli("construct", *SPEC_ARGS, "--out", str(first)).returncode == 0
        assert run_cli("construct", *SPEC_ARGS, "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unstable_mode(self, tmp_path):
        path = tmp_path / "u.json"
        result = run_cli(
            "construct", "--q", "7", "--n", "4", "--t", "1", "--mode", "unstable",
            "--out", str(path),
        )
        assert result.returncode == 0
        assert json.loads(path.read_text())["mode"] == "unstable"

    def test_scale_guard_env(self, tmp_path):
        result = run_cli(
            "construct", *SPEC_ARGS, "--out", str(tmp_path / "x.json"),
            env_extra={"DELCODE_SCALE_GUARD": "5"},
        )
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == "ScaleGuardExceeded"

    @pytest.mark.parametrize("guard", [None, "1000000000"])
    def test_radius_above_length_refused_before_the_census(self, guard, tmp_path, monkeypatch, capsys):
        # the (12, 5, 6) census would visit 347,530,248 items: above the default
        # cap, and about 10 s of work under a raised one
        if guard is None:
            monkeypatch.delenv("DELCODE_SCALE_GUARD", raising=False)
        else:
            monkeypatch.setenv("DELCODE_SCALE_GUARD", guard)
        monkeypatch.setattr(vtcode, "_census", lambda *args: pytest.fail("census ran"))
        out = tmp_path / "x.json"
        assert cli.main(["construct", "--q", "12", "--n", "5", "--t", "6", "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ValueError", "message": "deletion radius t=6 outside [0, 5]"}
        assert not out.exists()


class TestVerify:
    def test_constructed_spec_passes(self, spec_path):
        result = run_cli("verify", "--spec", str(spec_path))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["ok"] is True
        assert payload["checks"]["perm_balls_disjoint"] is True
        assert payload["checks"]["set_deletion_soundness"] is True

    def test_corrupt_perm_code_fails(self, tmp_path):
        spec = {
            "q": 4,
            "n": 3,
            "t": 1,
            "mode": "stable",
            "set_code": {"q": 4, "n": 3, "t": 1, "sets": [[0, 1, 2]]},
            "perm_code": {
                "n": 3,
                "t": 1,
                "codewords": [[1, 2, 3], [1, 3, 2]],  # overlapping deletion balls
                "order": "lex",
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        result = run_cli("verify", "--spec", str(path))
        assert result.returncode == 1
        assert json.loads(result.stdout)["checks"]["perm_balls_disjoint"] is False

    @staticmethod
    def verify_in_memory(spec, monkeypatch, capsys):
        """verify's exit code and JSON for a loaded spec whose lost-set table a
        test may have altered in place."""
        monkeypatch.setattr(cli, "load_spec", lambda path: spec)
        code = cli.main(["verify", "--spec", "unused.json"])
        return code, json.loads(capsys.readouterr().out)

    @staticmethod
    def lost_set_keys(vt):
        return {positions: key for key, positions in vt._lost_sets.items()}

    @pytest.mark.parametrize("path", ["spec_path", "q12_spec_path"], ids=["8-4-1", "12-5-2"])
    def test_swapped_lost_sets_fail_as_the_oracle_does(self, request, monkeypatch, capsys, path):
        # the two lowest symbols of the second member, each looked up as the other
        spec = multfree.load_spec(request.getfixturevalue(path))
        vt, member = spec.set_code.vt, spec.set_code.masks[1]
        first, second = ((s + 1,) for s in set_bits(member)[:2])
        keys = self.lost_set_keys(vt)
        vt._lost_sets[keys[first]], vt._lost_sets[keys[second]] = second, first
        code, payload = self.verify_in_memory(spec, monkeypatch, capsys)
        checks, witness = set_deletion_checks(spec.set_code)
        assert code == 1 and witness is not None
        assert payload["checks"]["set_deletion_soundness"] is False
        assert payload["set_deletion_witness"] == witness
        assert {key: payload["checks"][key] for key in checks} == checks

    def test_misread_set_no_member_holds_passes(self, q12_spec_path, monkeypatch, capsys):
        # at (12,5,2) some pairs of positions lie in no member, so no deletion loses them
        spec = multfree.load_spec(q12_spec_path)
        vt, masks = spec.set_code.vt, spec.set_code.masks
        held = {pair for m in masks for pair in combinations([s + 1 for s in set_bits(m)], 2)}
        unheld = next(s for s in vt._lost_sets.values() if len(s) == 2 and s not in held)
        vt._lost_sets[self.lost_set_keys(vt)[unheld]] = (set_bits(masks[0])[0] + 1,)
        assert vtcode.misread_lost_sets(vt) == [sum(1 << i - 1 for i in unheld)]
        assert self.verify_in_memory(spec, monkeypatch, capsys) == (0, json.loads(VERIFY_OK))
        assert set_deletion_checks(spec.set_code) == (
            {"class_membership": True, "set_deletion_soundness": True},
            None,
        )

    def test_all_zero_key_passes(self, spec_path, monkeypatch, capsys):
        # set_decode never looks up zero deficits, so an extra all-zero key is never read
        spec = multfree.load_spec(spec_path)
        vt, masks = spec.set_code.vt, spec.set_code.masks
        vt._lost_sets[(0,) * vt.t] = (set_bits(masks[0])[0] + 1,)
        assert self.verify_in_memory(spec, monkeypatch, capsys) == (0, json.loads(VERIFY_OK))
        assert set_deletion_checks(spec.set_code)[1] is None

    @pytest.mark.parametrize("q, n, t", [(64, 4, 1), (26, 6, 2)])
    def test_passing_verify_decodes_nothing(self, q, n, t, tmp_path, monkeypatch, capsys):
        path = tmp_path / "spec.json"
        args = ["--q", str(q), "--n", str(n), "--t", str(t), "--out", str(path)]
        assert cli.main(["construct", *args]) == 0
        capsys.readouterr()
        real, calls = multfree.set_decode, []
        monkeypatch.setattr(multfree, "set_decode", lambda *args: calls.append(1) or real(*args))
        assert cli.main(["verify", "--spec", str(path)]) == 0
        assert capsys.readouterr().out == VERIFY_OK
        assert calls == []

    def test_non_member_fails_membership(self, spec_path, monkeypatch, capsys):
        # the one-pass loop checks every member until one fails, then stops checking
        real = cli.is_codeword
        calls = []

        def reject_third(word, params):
            calls.append(word)
            return real(word, params) and len(calls) != 3

        monkeypatch.setattr(cli, "is_codeword", reject_third)
        assert cli.main(["verify", "--spec", str(spec_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"] == {
            "class_membership": False,
            "perm_balls_disjoint": True,
            "set_deletion_soundness": True,
        }
        assert len(calls) == 3
        monkeypatch.setattr(cli, "is_codeword", lambda word, params: calls.append(word) or True)
        assert cli.main(["verify", "--spec", str(spec_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 3 + len(multfree.load_spec(spec_path).set_code.masks)

    def test_listed_non_member_fails_as_the_oracle_does(self, spec_path, monkeypatch, capsys):
        # a weight-n mask outside the class, listed second: the certificate covers
        # members only, so its empty deletion is decoded, and does not decode back
        spec = multfree.load_spec(spec_path)
        masks = spec.set_code.masks
        stranger = next(m for m in range(1 << 8) if m.bit_count() == 4 and m not in masks)
        vars(spec.set_code)["masks"] = (masks[0], stranger, *masks[1:])
        code, payload = self.verify_in_memory(spec, monkeypatch, capsys)
        checks, witness = set_deletion_checks(spec.set_code)
        assert code == 1
        assert witness == {"member": set_bits(stranger), "removed": [], "error": "SetDecodeFailed"}
        assert payload["set_deletion_witness"] == witness
        assert payload["checks"] == {**checks, "perm_balls_disjoint": True}

    @pytest.mark.parametrize(
        "old, new",
        [
            # (0, 0) is the one empty class at p = 13
            ('"a": [1, 3]', '"a": [0, 0]'),
            ('"codewords": [[1, 2, 3, 4, 5], [1, 5, 4, 3, 2], [3, 2, 5, 1, 4], [4, 5, 2, 1, 3]]',
             '"codewords": []'),
        ],
        ids=["empty-class", "empty-perm-code"],
    )
    def test_empty_code_refused(self, tmp_path, capsys, old, new):
        # as simulate refuses it: every check would hold vacuously
        path = tmp_path / "spec.json"
        assert old in Q12_SPEC
        path.write_text(Q12_SPEC.replace(old, new))
        assert cli.main(["verify", "--spec", str(path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ValueError", "message": "the spec describes an empty code"}

    def test_explicit_set_spec_passes(self, explicit_spec, tmp_path, capsys):
        # an explicit family is no syndrome class, so there is no membership check
        path = tmp_path / "explicit.json"
        multfree.save_spec(explicit_spec, path)
        assert cli.main(["verify", "--spec", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "checks": {
                "pairwise_intersection_bound": True,
                "perm_balls_disjoint": True,
                "set_deletion_soundness": True,
            },
            "ok": True,
        }

    @pytest.mark.parametrize("family", ["fixture", "class-26-6-2"])
    def test_explicit_set_spec_agrees_with_the_oracle(
        self, explicit_spec, monkeypatch, capsys, family
    ):
        # an explicit family's soundness is its balls_disjoint check; a syndrome
        # class's members, listed, are one such family
        spec = explicit_spec
        if family != "fixture":
            p = next_prime_above(26)
            sets = vtcode.enumerate_class(26, 6, 2, p, vtcode.best_class(26, 6, 2, p)[0])
            book = PermCodeBook(6, 2, ((1, 2, 3, 4, 5, 6),))
            set_code = multfree.SetCode(26, 6, 2, sets=sets)
            spec = multfree.MultFreeCodeSpec(26, 6, 2, "stable", set_code, book)
        code, payload = self.verify_in_memory(spec, monkeypatch, capsys)
        assert code == 0
        assert set_deletion_checks(spec.set_code) == ({"set_deletion_soundness": True}, None)
        assert payload["checks"]["set_deletion_soundness"] is True

    def test_explicit_check_is_read_not_assumed(self, explicit_spec, monkeypatch, capsys):
        # the pairwise_intersection_bound key reports SetCode.balls_disjoint
        monkeypatch.setattr(cli, "load_spec", lambda path: explicit_spec)
        monkeypatch.setattr(multfree.SetCode, "balls_disjoint", lambda self: False)
        assert cli.main(["verify", "--spec", "unused.json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"]["pairwise_intersection_bound"] is False
        assert payload["ok"] is False

    def test_construct_runs_the_census_once(self, tmp_path, monkeypatch, capsys):
        real, calls = vtcode._census, []
        monkeypatch.setattr(vtcode, "_census", lambda *args: calls.append(args) or real(*args))
        assert cli.main(["construct", *SPEC_ARGS, "--out", str(tmp_path / "s.json")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert summary["code_size"] == summary["set_code_size"] * summary["perm_code_size"]

    def test_construct_builds_no_decoder_table(self, tmp_path, monkeypatch):
        made = []
        monkeypatch.setattr(cli, "VTParams", lambda *args: made.append(vtcode.VTParams(*args)) or made[-1])
        assert cli.main(["construct", *SPEC_ARGS, "--out", str(tmp_path / "s.json")]) == 0
        assert len(made) == 1 and vars(made[0]) == {}


class TestEnumerate:
    def test_streams_json_arrays(self, spec_path):
        result = run_cli("enumerate", "--spec", str(spec_path))
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        words = [json.loads(line) for line in lines]
        summary = json.loads(run_cli("construct", *SPEC_ARGS, "--out", str(spec_path)).stdout)
        assert len(words) == summary["code_size"]
        assert all(len(w) == 4 and len(set(w)) == 4 for w in words)

    def test_limit(self, spec_path):
        result = run_cli("enumerate", "--spec", str(spec_path), "--limit", "3")
        assert len(result.stdout.strip().splitlines()) == 3

    def test_zero_limit_prints_nothing(self, spec_path, capsys):
        assert cli.main(["enumerate", "--spec", str(spec_path), "--limit", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_negative_limit_refused(self, spec_path, capsys):
        assert cli.main(["enumerate", "--spec", str(spec_path), "--limit", "-1"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ValueError", "message": "--limit must be nonnegative, got -1"}


class TestDecode:
    def test_roundtrip_after_deletion(self, spec_path):
        first = json.loads(
            run_cli("enumerate", "--spec", str(spec_path), "--limit", "1").stdout
        )
        received = first[:2] + first[3:]  # drop position 3
        result = run_cli("decode", "--spec", str(spec_path), "--word", json.dumps(received))
        assert result.returncode == 0
        assert json.loads(result.stdout)["codeword"] == first

    def test_trace_fields(self, spec_path):
        first = json.loads(
            run_cli("enumerate", "--spec", str(spec_path), "--limit", "1").stdout
        )
        result = run_cli(
            "decode", "--spec", str(spec_path), "--word", json.dumps(first), "--trace"
        )
        payload = json.loads(result.stdout)
        assert payload["codeword"] == first
        assert sorted(payload["recovered_set"]) == sorted(first)
        assert "sigma" in payload and "tau" in payload

    def test_structured_error_on_short_word(self, spec_path):
        result = run_cli("decode", "--spec", str(spec_path), "--word", "[0]")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["error"] == "InputTooShort"

    @pytest.mark.parametrize(
        "word, stdout",
        [
            pytest.param(
                "[0,1,4,9,8]",
                '{"error": "PermDecodeFailed", "message": "no codeword ball contains the received word"}\n',
                id="perm-stage",
            ),
            pytest.param(
                "[0,1,2,3,4]",
                '{"error": "SetDecodeFailed", "message": "no 0 clear positions have the deficits as power sums"}\n',
                id="set-stage",
            ),
        ],
    )
    def test_each_stage_failure_prints_its_class(self, q12_spec_path, word, stdout):
        result = run_cli("decode", "--spec", str(q12_spec_path), "--word", word)
        assert (result.returncode, result.stdout) == (1, stdout)

    def test_structured_error_on_duplicate_symbols(self, spec_path):
        result = run_cli("decode", "--spec", str(spec_path), "--word", "[1,1,2]")
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"] == "ValueError"

    @pytest.mark.parametrize(
        "word",
        [
            "[1.5,2,3]", '{"a":1}', "7", "null", "[true,3,4]",
            # deeper than the parser's recursion limit
            pytest.param("[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_structured_error_on_non_integer_array(self, spec_path, word):
        result = run_cli("decode", "--spec", str(spec_path), "--word", word)
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout)["error"] == "ValueError"
        # the message quotes a bounded prefix of the word, not all of it
        assert len(result.stdout) < 1024


class TestSimulate:
    def test_clean_run_exits_zero(self, spec_path):
        result = run_cli(
            "simulate", "--spec", str(spec_path), "--trials", "300", "--tmax", "1",
            "--seed", "4",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["failures"] == 0
        assert payload["successes"] == 300

    def test_reproducible(self, spec_path):
        args = ("simulate", "--spec", str(spec_path), "--trials", "200", "--tmax", "1",
                "--seed", "8")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_beyond_budget_reports_without_guarantee(self, spec_path):
        result = run_cli(
            "simulate", "--spec", str(spec_path), "--trials", "100", "--tmax", "2",
            "--seed", "1",
        )
        payload = json.loads(result.stdout)
        assert payload["trials"] == 100
        # exit code reflects only the guaranteed regime t_max <= t
        assert result.returncode == 0


class TestBounds:
    def test_report_values(self):
        result = run_cli("bounds", "--q", "8", "--n", "5", "--t", "2", "--size", "4")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["redundancy_actual"] == 13.0
        assert payload["singleton_log_size"] == 9.0
        assert payload["size_lower_bound"] == pytest.approx(0.0002625)

    def test_without_size(self):
        payload = json.loads(run_cli("bounds", "--q", "1024", "--n", "16", "--t", "1").stdout)
        assert payload["redundancy_bound"] == 21.0
        assert payload["redundancy_actual"] is None

    @pytest.mark.parametrize("size", ["0", "-4", str(10**28)])
    def test_size_outside_the_multfree_count(self, size):
        result = run_cli("bounds", "--q", "500", "--n", "3", "--t", "1", "--size", size)
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert payload["error"] == "ValueError"
        assert "q!/(q-n)! = 124251000" in payload["message"]

    @pytest.mark.parametrize(
        "args, key",
        [
            (("--q", "1000000", "--n", "400", "--t", "1"), "size_lower_bound"),
            (("--q", "5", "--n", "1", "--t", "1"), "alpha"),
            (("--q", "5", "--n", "2", "--t", "1", "--size", "5"), "alpha_threshold"),
        ],
    )
    def test_non_finite_values_print_as_null(self, args, key):
        result = run_cli("bounds", *args)
        assert result.returncode == 0, result.stderr
        assert strict_json(result.stdout)[key] is None

    def test_report_keys(self):
        payload = strict_json(run_cli("bounds", "--q", "8", "--n", "5", "--t", "2").stdout)
        assert sorted(payload) == [
            "alpha", "alpha_exceeds_threshold", "alpha_threshold", "code_size", "eta",
            "log2_code_size", "log2_multfree_count", "log2_size_lower_bound", "n", "q",
            "redundancy_actual", "redundancy_bound", "singleton_log_size", "size_lower_bound", "t",
        ]

    def test_radius_above_n_refused(self):
        # as construct refuses it; the report would read a negative Singleton size
        result = run_cli("bounds", "--q", "8", "--n", "4", "--t", "10")
        assert result.returncode == 2
        assert strict_json(result.stdout) == {
            "error": "ValueError",
            "message": "need 1 <= t <= n, got t=10, n=4",
        }

    @pytest.mark.parametrize("q, n, t", [(100000, 5000, 3), (50000, 20000, 4)])
    def test_log_space_check_holds_at_large_points(self, q, n, t):
        # n in the thousands: a plain sum of the n log terms drifts past the
        # 1e-10 agreement bound here (3.3e-10 and 2.4e-9)
        result = run_cli("bounds", "--q", str(q), "--n", str(n), "--t", str(t))
        assert result.returncode == 0, result.stderr
        assert strict_json(result.stdout)["n"] == n

    def test_log_space_drift_is_a_typed_error(self, monkeypatch, capsys):
        log2 = analysis._log2
        monkeypatch.setattr(analysis, "_log2", lambda x: log2(x) + 1e-9)
        assert cli.main(["bounds", "--q", "12", "--n", "5", "--t", "2"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "BoundViolated"

    def test_emit_refuses_non_finite_floats(self):
        with pytest.raises(ValueError):
            cli._emit({"alpha": math.inf})


class TestErrors:
    def test_missing_spec_file(self):
        result = run_cli("enumerate", "--spec", "/nonexistent/spec.json")
        assert result.returncode == 2
        assert "error" in json.loads(result.stdout)

    @pytest.mark.parametrize(
        "args",
        [
            ("bounds", "--q", "8", "--n", "4", "--t", "1", "--delta", "1"),
            ("construct", "--q", "12", "--n", "5", "--t", "2"),
        ],
        ids=["unknown-option", "missing-option"],
    )
    def test_usage_error_prints_no_json(self, args):
        # argparse's own errors are the one exit that prints usage text, not JSON
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: delcode")

    def test_no_check_is_an_assert(self):
        # `python -O` strips assert statements; every guard must be a raise to stay on
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "delcode")
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as handle:
                    tree = ast.parse(handle.read(), name)
                assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), name

    def test_composite_modulus_refused(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(Q12_SPEC.replace('"p": 13', '"p": 15'))
        assert cli.main(["verify", "--spec", str(path)]) == 2
        assert capsys.readouterr().out == '{"error": "ValueError", "message": "15 is not prime"}\n'

    @pytest.mark.parametrize(
        "set_code, q, message",
        [
            ('"a": [1, 3], "n": 5, "p": 13, "q": 12, "t": 2', 4, "set code disagrees with the spec's (q, n, t)"),
            ('"a": [1, 3], "n": 5, "p": 13, "q": 4, "t": 2', 4, "need 0 <= n <= q, got n=5, q=4"),
            ('"n": 5, "q": 4, "sets": [[0, 1, 2, 3, 4]], "t": 2', 4, "symbol 4 outside [0, 3]"),
        ],
        ids=["spec-only", "class", "explicit"],
    )
    def test_alphabet_below_the_length_refused(self, tmp_path, capsys, set_code, q, message):
        # the set code refuses q < n, or disagrees with a spec that has it
        path = tmp_path / "spec.json"
        text = Q12_SPEC.replace('"a": [1, 3], "n": 5, "p": 13, "q": 12, "t": 2', set_code)
        path.write_text(text.replace('"t": 2}, "q": 12,', f'"t": 2}}, "q": {q},'))
        assert cli.main(["verify", "--spec", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "ValueError", "message": message}

    def test_negative_budget_refused(self, tmp_path, capsys):
        # p**t is a float at t < 0, so the census must refuse t before sizing a table
        out = str(tmp_path / "s.json")
        assert cli.main(["construct", "--q", "12", "--n", "5", "--t", "-1", "--out", out]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"
        with pytest.raises(ValueError, match="t=-1"):
            vtcode.best_class(12, 5, -1, next_prime_above(12))

    def test_huge_alphabet_spec_refused(self, tmp_path):
        # q = 2^89 - 2 below the Mersenne prime 2^89 - 1: an O(q) step would hang
        q = 2**89 - 2
        spec = {
            "q": q,
            "n": 5,
            "t": 1,
            "mode": "stable",
            "set_code": {"q": q, "n": 5, "t": 1, "p": q + 1, "a": [0]},
            "perm_code": {"n": 5, "t": 1, "codewords": [[1, 2, 3, 4, 5]], "order": "lex"},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        result = run_cli(
            "decode", "--spec", str(path), "--word", "[0,1,2,3,4]",
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout)["error"] == "ScaleGuardExceeded"

    @pytest.mark.parametrize("q", [312_496, 312_497])
    def test_one_deletion_decodes_at_the_old_byte_table_cap(self, tmp_path, q):
        # q = 312,496 was the largest alphabet the byte tables admitted at t = 1, and
        # ran out of memory under this limit; q + 1 was refused on load
        n, p = 5, next_prime_above(q)
        symbols = [0, 1, 2, 3, q - 1]
        spec = {
            "q": q,
            "n": n,
            "t": 1,
            "mode": "stable",
            "set_code": {"q": q, "n": n, "t": 1, "p": p, "a": [sum(s + 1 for s in symbols) % p]},
            "perm_code": {"n": n, "t": 1, "codewords": [[1, 2, 3, 4, 5]], "order": "lex"},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        result = run_cli(
            "decode", "--spec", str(path), "--word", json.dumps(symbols[:-1]),
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"codeword": symbols}

    def test_running_out_of_memory_is_reported(self, tmp_path):
        # C(2000, 1) + C(2000, 2) = 2,001,000 lost-set keys pass the guard, and the
        # table (about 400 MB) does not fit in 256 MB of address space
        q, n = 2_000, 5
        p = next_prime_above(q)
        spec = {
            "q": q,
            "n": n,
            "t": 2,
            "mode": "stable",
            "set_code": {"q": q, "n": n, "t": 2, "p": p, "a": [0, 0]},
            "perm_code": {"n": n, "t": 2, "codewords": [[1, 2, 3, 4, 5]], "order": "lex"},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        result = run_cli(
            "decode", "--spec", str(path), "--word", "[0,1,2]",
            timeout=20, preexec_fn=lambda: _cap_address_space(256 << 20),
        )
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout) == {"error": "MemoryError", "message": "out of memory"}

    @pytest.mark.parametrize("exponent", [600, 1200])
    def test_census_too_large_refused_before_the_prime_search(self, monkeypatch, capsys, tmp_path, exponent):
        # the smallest prime above 10^1200 took over 100 s to find; q + 1 stands in for it
        monkeypatch.setattr(cli, "next_prime_above", lambda q: pytest.fail("prime search ran"))
        start = time.perf_counter()
        args = ["--q", str(10**exponent), "--n", "5", "--t", "1", "--out", str(tmp_path / "x.json")]
        assert cli.main(["construct", *args]) == 2
        assert time.perf_counter() - start < 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ScaleGuardExceeded"
        assert f"syndrome-class DP would visit {10**exponent * 6 * (10**exponent + 1)} items" in payload["message"]

    def test_large_budget_census_refused_by_a_bounded_power(self, monkeypatch, capsys, tmp_path):
        # (q + 1)^t at q = 1,000 and t = 10^5 has about 10^6 bits; past the cap's bit
        # length in t the power is above any cap, so the count stops there
        real, counted = cli.check_enumerable, []
        monkeypatch.setattr(cli, "check_enumerable", lambda size, *rest: counted.append(size) or real(size, *rest))
        monkeypatch.setattr(cli, "next_prime_above", lambda q: pytest.fail("prime search ran"))
        args = ["--q", "1000", "--n", str(10**5), "--t", str(10**5), "--out", str(tmp_path / "x.json")]
        assert cli.main(["construct", *args]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ScaleGuardExceeded"
        assert len(counted) == 1 and 10**7 < counted[0] < 2**1000

    def test_modulus_outside_the_range_refused_before_the_primality_test(self, tmp_path, capsys):
        # 2^4423 - 1 is prime and has 1,332 digits: Miller-Rabin on it took 2.6 s
        path = tmp_path / "spec.json"
        path.write_text(Q12_SPEC.replace('"p": 13', f'"p": {2**4423 - 1}'))
        start = time.perf_counter()
        assert cli.main(["verify", "--spec", str(path)]) == 2
        assert time.perf_counter() - start < 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "ValueError", "message": f"need q < p <= 2q, got q=12, p={2**4423 - 1}"}

    def test_alphabet_above_the_lost_set_cap_refused(self, tmp_path):
        # C(q, 1) + C(q, 2) lost-set keys: 10,001,628 > 10^7 at q = 4,472 and t = 2,
        # refused on load; q = 4,471 is the largest that passes
        q, n = 4_472, 5
        p = next_prime_above(q)
        spec = {
            "q": q,
            "n": n,
            "t": 2,
            "mode": "stable",
            "set_code": {"q": q, "n": n, "t": 2, "p": p, "a": [0, 0]},
            "perm_code": {"n": n, "t": 2, "codewords": [[1, 2, 3, 4, 5]], "order": "lex"},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec))
        result = run_cli(
            "decode", "--spec", str(path), "--word", "[0,1,2]",
            timeout=20, preexec_fn=_cap_address_space,
        )
        assert result.returncode == 2, result.stderr
        payload = json.loads(result.stdout)
        assert payload["error"] == "ScaleGuardExceeded"
        assert "set-decoder lost-set keys would visit 10001628 items" in payload["message"]
        vtcode.VTParams(q - 1, n, 2, next_prime_above(q - 1), (0, 0))  # no table is built
        with pytest.raises(ScaleGuardExceeded, match="lost-set keys would visit 10001628 items"):
            vtcode.VTParams(q, n, 2, next_prime_above(q), (0, 0))

    def test_perm_radius_outside_the_length_reads_as_construct_does(self, tmp_path, capsys):
        # a book's radius is checked by the one check construct runs, with its text
        out = str(tmp_path / "x.json")
        assert cli.main(["construct", "--q", "12", "--n", "5", "--t", "6", "--out", out]) == 2
        refused = json.loads(capsys.readouterr().out)
        assert refused == {"error": "ValueError", "message": "deletion radius t=6 outside [0, 5]"}
        path = tmp_path / "spec.json"
        path.write_text(Q12_SPEC.replace('"order": "lex", "t": 2}', '"order": "lex", "t": 6}'))
        for command in (["verify"], ["decode", "--word", "[0, 1, 2, 3, 4]"]):
            assert cli.main([*command, "--spec", str(path)]) == 2
            assert json.loads(capsys.readouterr().out) == refused

    @staticmethod
    def _long_perm_spec(tmp_path, mode):
        # a stable book's keys are tuples, so only unstable mode needs values in a byte
        spec = {
            "q": 257,
            "n": 256,
            "t": 1,
            "mode": mode,
            "set_code": {"q": 257, "n": 256, "t": 1, "sets": [list(range(256))]},
            "perm_code": {"n": 256, "t": 1, "codewords": [list(range(1, 257))], "order": "lex"},
        }
        path = tmp_path / f"long-{mode}.json"
        path.write_text(json.dumps(spec))
        return path

    def test_decode_accepts_stable_perm_length_above_255(self, tmp_path):
        path = self._long_perm_spec(tmp_path, "stable")
        word = list(range(256))
        result = run_cli("decode", "--spec", str(path), "--word", json.dumps(word[1:]))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["codeword"] == word

    def test_verify_accepts_stable_perm_length_above_255_only(self, tmp_path):
        result = run_cli("verify", "--spec", str(self._long_perm_spec(tmp_path, "stable")))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["ok"] is True
        result = run_cli("verify", "--spec", str(self._long_perm_spec(tmp_path, "unstable")))
        assert result.returncode == 2, result.stderr
        payload = json.loads(result.stdout)
        assert payload["error"] == "ValueError"
        assert "at most 255" in payload["message"]

    @pytest.mark.parametrize(
        "content",
        [
            '{"q": 12}',
            "[1, 2]",
            # a float or a bool where the spec holds an integer
            pytest.param(Q12_SPEC.replace('"q": 12,', '"q": 12.0,', 1), id="float-q"),
            pytest.param(Q12_SPEC.replace('"q": 12,', '"q": NaN,', 1), id="nan-q"),
            pytest.param(Q12_SPEC.replace('"a": [1, 3]', '"a": [0.5, 1]'), id="float-residue"),
            pytest.param(Q12_SPEC.replace("[[1, 2, 3, 4, 5]", "[[true, 2, 3, 4, 5]"), id="bool-image"),
            pytest.param(Q12_SPEC.replace('}, "t": 2}', '}, "t": true}'), id="bool-t"),
            # no code reads this key, so it is refused as unknown, whatever it holds
            pytest.param(Q12_SPEC[:-1] + ', "notes": [[1, {"seen": [false]}]]}', id="bool-under-unknown-key"),
            # deeper than the parser's recursion limit
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("verify",),
            ("simulate", "--trials", "1", "--tmax", "1", "--seed", "0"),
            ("enumerate",),
            ("decode", "--word", "[1,2,3]"),
        ],
    )
    def test_malformed_spec_file(self, tmp_path, content, command):
        path = tmp_path / "spec.json"
        path.write_text(content)
        result = run_cli(command[0], "--spec", str(path), *command[1:])
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout)["error"] == "MalformedSpec"


class TestExplicitSetSpec:
    @pytest.mark.parametrize(
        "sets, message",
        [
            ("[]", "explicit set code must be nonempty"),
            (
                "[[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]",
                "explicit sets too close to correct t deletions",
            ),
            ("[[0, 1, 2, 3, 12]]", "symbol 12 outside [0, 11]"),
            ("[[0, 1, 1, 3, 4]]", "duplicate symbol 1"),
        ],
        ids=["empty", "repeated", "out-of-range", "duplicate-symbol"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("verify",),
            ("simulate", "--trials", "1", "--tmax", "1", "--seed", "0"),
            ("enumerate",),
            ("decode", "--word", "[1,2,3]"),
        ],
    )
    def test_refused_on_load(self, tmp_path, capsys, sets, message, command):
        path = tmp_path / "spec.json"
        class_code = '"set_code": {"a": [1, 3], "n": 5, "p": 13, "q": 12, "t": 2}'
        explicit = f'"set_code": {{"n": 5, "q": 12, "sets": {sets}, "t": 2}}'
        path.write_text(Q12_SPEC.replace(class_code, explicit))
        assert cli.main([command[0], "--spec", str(path), *command[1:]]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "ValueError", "message": message}


class TestCodewordOrder:
    @pytest.mark.parametrize("command", [("verify",), ("decode", "--word", "[1,2,3]")])
    def test_unknown_order_refused(self, tmp_path, capsys, command):
        path = tmp_path / "spec.json"
        path.write_text(Q12_SPEC.replace('"lex"', '"zzz"'))
        assert cli.main([command[0], "--spec", str(path), *command[1:]]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ValueError"
        assert "'zzz'" in payload["message"]

    def test_missing_order_loads(self, tmp_path, capsys):
        bare, full = tmp_path / "bare.json", tmp_path / "full.json"
        bare.write_text(Q12_SPEC.replace(', "order": "lex"', ""))
        full.write_text(Q12_SPEC)
        assert multfree.load_spec(bare) == multfree.load_spec(full)
        assert cli.main(["verify", "--spec", str(bare)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


# the explicit form of the Q12_SPEC set code, for the malformed-key cases
EXPLICIT_SET_CODE = {"n": 5, "q": 12, "sets": [[0, 1, 2, 3, 4]], "t": 2}
WRONG_VALUES = {"str": "x", "list": [0], "object": {"k": 0}}


def q12_spec(form):
    """Q12_SPEC as an object, its set code in the class or the explicit form."""
    spec = json.loads(Q12_SPEC)
    if form == "explicit":
        spec["set_code"] = dict(EXPLICIT_SET_CODE)
    return spec


def verify_report(spec):
    """What `verify` exits with for the spec object, written to spec.json in
    the working directory; its output is left on stdout."""
    with open("spec.json", "w") as fh:
        json.dump(spec, fh)
    return cli.main(["verify", "--spec", "spec.json"])


# what `verify` prints and exits with when one key of Q12_SPEC, at its top level,
# in either form of its set code or in its book, is dropped or holds a string, a
# list or an object; the id is form-level-key-kind, and a MalformedSpec message
# follows "spec.json: ".  Pinned while each record still parsed its own part of
# the file, so moving the parse leaves every report as it was.  The rows that use
# _HOLDS or _UNKNOWN were re-taken when each key came to be typed as it is read,
# and each object to hold its form's keys only (before, 28 of them quoted a
# TypeError whose text changes between Python versions); the two that use
# _NOT_LISTS when an element of "sets" or "codewords" that is not a list of
# integers became a refusal.
_HOLDS = "'{}' holds {} where the spec holds {}"
_NOT_LISTS = "'{}' holds the element {} where the spec holds a list of integers"
_UNKNOWN = "{} holds the unknown key 'k'"
_NEITHER_FORM = "set_code holds neither an explicit code's 'sets' nor a syndrome class's 'p' and 'a'"
MALFORMED_KEY_REPORTS = {
    "class-top-mode-drop": (2, "MalformedSpec", "KeyError: 'mode'"),
    "class-top-mode-str": (2, "ValueError", "unknown mode 'x'"),
    "class-top-mode-list": (2, "MalformedSpec", _HOLDS.format("mode", "[0]", "a string")),
    "class-top-mode-object": (2, "MalformedSpec", _HOLDS.format("mode", '{"k": 0}', "a string")),
    "class-top-n-drop": (2, "MalformedSpec", "KeyError: 'n'"),
    "class-top-n-str": (2, "MalformedSpec", _HOLDS.format("n", '"x"', "an integer")),
    "class-top-n-list": (2, "MalformedSpec", _HOLDS.format("n", "[0]", "an integer")),
    "class-top-n-object": (2, "MalformedSpec", _HOLDS.format("n", '{"k": 0}', "an integer")),
    "class-top-perm_code-drop": (2, "MalformedSpec", "KeyError: 'perm_code'"),
    "class-top-perm_code-str": (2, "MalformedSpec", _HOLDS.format("perm_code", '"x"', "an object")),
    "class-top-perm_code-list": (2, "MalformedSpec", _HOLDS.format("perm_code", "[0]", "an object")),
    "class-top-perm_code-object": (2, "MalformedSpec", _UNKNOWN.format("perm_code")),
    "class-top-q-drop": (2, "MalformedSpec", "KeyError: 'q'"),
    "class-top-q-str": (2, "MalformedSpec", _HOLDS.format("q", '"x"', "an integer")),
    "class-top-q-list": (2, "MalformedSpec", _HOLDS.format("q", "[0]", "an integer")),
    "class-top-q-object": (2, "MalformedSpec", _HOLDS.format("q", '{"k": 0}', "an integer")),
    "class-top-set_code-drop": (2, "MalformedSpec", "KeyError: 'set_code'"),
    "class-top-set_code-str": (2, "MalformedSpec", _HOLDS.format("set_code", '"x"', "an object")),
    "class-top-set_code-list": (2, "MalformedSpec", _HOLDS.format("set_code", "[0]", "an object")),
    "class-top-set_code-object": (2, "MalformedSpec", _UNKNOWN.format("set_code")),
    "class-top-t-drop": (2, "MalformedSpec", "KeyError: 't'"),
    "class-top-t-str": (2, "MalformedSpec", _HOLDS.format("t", '"x"', "an integer")),
    "class-top-t-list": (2, "MalformedSpec", _HOLDS.format("t", "[0]", "an integer")),
    "class-top-t-object": (2, "MalformedSpec", _HOLDS.format("t", '{"k": 0}', "an integer")),
    "class-set_code-a-drop": (2, "MalformedSpec", "KeyError: 'a'"),
    "class-set_code-a-str": (2, "MalformedSpec", _HOLDS.format("a", '"x"', "a list")),
    "class-set_code-a-list": (2, "ValueError", "syndrome vector has 1 entries, expected t=2"),
    "class-set_code-a-object": (2, "MalformedSpec", _HOLDS.format("a", '{"k": 0}', "a list")),
    "class-set_code-n-drop": (2, "MalformedSpec", "KeyError: 'n'"),
    "class-set_code-n-str": (2, "MalformedSpec", _HOLDS.format("n", '"x"', "an integer")),
    "class-set_code-n-list": (2, "MalformedSpec", _HOLDS.format("n", "[0]", "an integer")),
    "class-set_code-n-object": (2, "MalformedSpec", _HOLDS.format("n", '{"k": 0}', "an integer")),
    "class-set_code-p-drop": (2, "MalformedSpec", "KeyError: 'p'"),
    "class-set_code-p-str": (2, "MalformedSpec", _HOLDS.format("p", '"x"', "an integer")),
    "class-set_code-p-list": (2, "MalformedSpec", _HOLDS.format("p", "[0]", "an integer")),
    "class-set_code-p-object": (2, "MalformedSpec", _HOLDS.format("p", '{"k": 0}', "an integer")),
    "class-set_code-q-drop": (2, "MalformedSpec", "KeyError: 'q'"),
    "class-set_code-q-str": (2, "MalformedSpec", _HOLDS.format("q", '"x"', "an integer")),
    "class-set_code-q-list": (2, "MalformedSpec", _HOLDS.format("q", "[0]", "an integer")),
    "class-set_code-q-object": (2, "MalformedSpec", _HOLDS.format("q", '{"k": 0}', "an integer")),
    "class-set_code-t-drop": (2, "MalformedSpec", "KeyError: 't'"),
    "class-set_code-t-str": (2, "MalformedSpec", _HOLDS.format("t", '"x"', "an integer")),
    "class-set_code-t-list": (2, "MalformedSpec", _HOLDS.format("t", "[0]", "an integer")),
    "class-set_code-t-object": (2, "MalformedSpec", _HOLDS.format("t", '{"k": 0}', "an integer")),
    "class-perm_code-codewords-drop": (2, "MalformedSpec", "KeyError: 'codewords'"),
    "class-perm_code-codewords-str": (2, "MalformedSpec", _HOLDS.format("codewords", '"x"', "a list")),
    "class-perm_code-codewords-list": (2, "MalformedSpec", _NOT_LISTS.format("codewords", 0)),
    "class-perm_code-codewords-object": (2, "MalformedSpec", _HOLDS.format("codewords", '{"k": 0}', "a list")),
    "class-perm_code-n-drop": (2, "MalformedSpec", "KeyError: 'n'"),
    "class-perm_code-n-str": (2, "MalformedSpec", _HOLDS.format("n", '"x"', "an integer")),
    "class-perm_code-n-list": (2, "MalformedSpec", _HOLDS.format("n", "[0]", "an integer")),
    "class-perm_code-n-object": (2, "MalformedSpec", _HOLDS.format("n", '{"k": 0}', "an integer")),
    "class-perm_code-order-drop": (0, None, None),
    "class-perm_code-order-str": (2, "ValueError", "unknown codeword order 'x'"),
    "class-perm_code-order-list": (2, "MalformedSpec", _HOLDS.format("order", "[0]", "a string")),
    "class-perm_code-order-object": (2, "MalformedSpec", _HOLDS.format("order", '{"k": 0}', "a string")),
    "class-perm_code-t-drop": (2, "MalformedSpec", "KeyError: 't'"),
    "class-perm_code-t-str": (2, "MalformedSpec", _HOLDS.format("t", '"x"', "an integer")),
    "class-perm_code-t-list": (2, "MalformedSpec", _HOLDS.format("t", "[0]", "an integer")),
    "class-perm_code-t-object": (2, "MalformedSpec", _HOLDS.format("t", '{"k": 0}', "an integer")),
    "explicit-set_code-n-drop": (2, "MalformedSpec", "KeyError: 'n'"),
    "explicit-set_code-n-str": (2, "MalformedSpec", _HOLDS.format("n", '"x"', "an integer")),
    "explicit-set_code-n-list": (2, "MalformedSpec", _HOLDS.format("n", "[0]", "an integer")),
    "explicit-set_code-n-object": (2, "MalformedSpec", _HOLDS.format("n", '{"k": 0}', "an integer")),
    "explicit-set_code-q-drop": (2, "MalformedSpec", "KeyError: 'q'"),
    "explicit-set_code-q-str": (2, "MalformedSpec", _HOLDS.format("q", '"x"', "an integer")),
    "explicit-set_code-q-list": (2, "MalformedSpec", _HOLDS.format("q", "[0]", "an integer")),
    "explicit-set_code-q-object": (2, "MalformedSpec", _HOLDS.format("q", '{"k": 0}', "an integer")),
    "explicit-set_code-sets-drop": (2, "MalformedSpec", _NEITHER_FORM),
    "explicit-set_code-sets-str": (2, "MalformedSpec", _HOLDS.format("sets", '"x"', "a list")),
    "explicit-set_code-sets-list": (2, "MalformedSpec", _NOT_LISTS.format("sets", 0)),
    "explicit-set_code-sets-object": (2, "MalformedSpec", _HOLDS.format("sets", '{"k": 0}', "a list")),
    "explicit-set_code-t-drop": (2, "MalformedSpec", "KeyError: 't'"),
    "explicit-set_code-t-str": (2, "MalformedSpec", _HOLDS.format("t", '"x"', "an integer")),
    "explicit-set_code-t-list": (2, "MalformedSpec", _HOLDS.format("t", "[0]", "an integer")),
    "explicit-set_code-t-object": (2, "MalformedSpec", _HOLDS.format("t", '{"k": 0}', "an integer")),
}


class TestMalformedKeys:
    @pytest.mark.parametrize("case", MALFORMED_KEY_REPORTS)
    def test_verify_reports_as_pinned(self, tmp_path, monkeypatch, capsys, case):
        form, level, key, kind = case.split("-")
        spec = q12_spec(form)
        part = spec if level == "top" else spec[level]
        if kind == "drop":
            del part[key]
        else:
            part[key] = WRONG_VALUES[kind]
        monkeypatch.chdir(tmp_path)
        code, error, message = MALFORMED_KEY_REPORTS[case]
        assert verify_report(spec) == code
        if error == "MalformedSpec":
            message = f"spec.json: {message}"
        expected = json.loads(VERIFY_OK) if code == 0 else {"error": error, "message": message}
        assert json.loads(capsys.readouterr().out) == expected

    @pytest.mark.parametrize(
        "form, level, key",
        [
            ("class", "top", "q"),
            ("class", "top", "n"),
            ("class", "top", "t"),
            ("class", "set_code", "q"),
            ("class", "set_code", "n"),
            ("class", "set_code", "t"),
            ("class", "set_code", "p"),
            ("explicit", "set_code", "q"),
            ("explicit", "set_code", "n"),
            ("explicit", "set_code", "t"),
            ("class", "perm_code", "n"),
            ("class", "perm_code", "t"),
        ],
    )
    @pytest.mark.parametrize(
        "value, quote",
        [(None, "null"), (True, "true"), (1.5, "1.5"), (math.nan, "NaN"), ("12", '"12"')],
        ids=["null", "true", "float", "nan", "str"],
    )
    def test_integer_key_refuses_other_types(self, tmp_path, monkeypatch, capsys, form, level, key, value, quote):
        # true is an int subclass and 1.5 compares with ints, so only the type read refuses them
        spec = q12_spec(form)
        (spec if level == "top" else spec[level])[key] = value
        monkeypatch.chdir(tmp_path)
        assert verify_report(spec) == 2
        message = f"spec.json: '{key}' holds {quote} where the spec holds an integer"
        assert json.loads(capsys.readouterr().out) == {"error": "MalformedSpec", "message": message}

    @pytest.mark.parametrize(
        "form, level, name",
        [
            ("class", "top", "the file"),
            ("class", "set_code", "set_code"),
            ("explicit", "set_code", "set_code"),
            ("class", "perm_code", "perm_code"),
        ],
        ids=["top", "class-set_code", "explicit-set_code", "perm_code"],
    )
    def test_unknown_key_refused(self, tmp_path, monkeypatch, capsys, form, level, name):
        spec = q12_spec(form)
        (spec if level == "top" else spec[level])["notes"] = 1
        monkeypatch.chdir(tmp_path)
        assert verify_report(spec) == 2
        message = f"spec.json: {name} holds the unknown key 'notes'"
        assert json.loads(capsys.readouterr().out) == {"error": "MalformedSpec", "message": message}

    def test_top_level_must_be_an_object(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert verify_report([1, 2]) == 2
        message = "spec.json: the file holds [1, 2] where the spec holds an object"
        assert json.loads(capsys.readouterr().out) == {"error": "MalformedSpec", "message": message}


# what `verify` prints when one element of a list-valued key has the wrong type;
# the quote is the element as JSON, cut at 80 characters, as it stands in the output
_ELEMENT_STDOUT = (
    '{{"error": "MalformedSpec", "message": "spec.json: \'{}\' holds the element {} where the spec holds {}"}}\n'
)


class TestListElements:
    """Each element of a list-valued key is checked as the key is read: the
    residues "a" are integers, each member of "sets" and each codeword a list
    of them."""

    @pytest.mark.parametrize(
        "key, value, quote, holds",
        [
            ("codewords", '["x"]', r'\"x\"', "a list of integers"),
            ("codewords", '[{"k": 0}]', r'{\"k\": 0}', "a list of integers"),
            ("codewords", "[[[1]]]", "[[1]]", "a list of integers"),
            ("codewords", "[[" + "1, " * 40 + '"x"]]', "[" + "1, " * 26 + "1", "a list of integers"),
            ("sets", '["x"]', r'\"x\"', "a list of integers"),
            ("sets", '[{"k": 0}]', r'{\"k\": 0}', "a list of integers"),
            ("sets", "[[[1]]]", "[[1]]", "a list of integers"),
            ("sets", '[["x"]]', r'[\"x\"]', "a list of integers"),
            ("a", '["x", 3]', r'\"x\"', "an integer"),
            ("a", "[[1], 3]", "[1]", "an integer"),
        ],
        ids=[
            "codewords-str",
            "codewords-object",
            "codewords-nested",
            "codewords-quote-cut-at-80",
            "sets-str",
            "sets-object",
            "sets-nested",
            "sets-str-member",
            "a-str",
            "a-list",
        ],
    )
    def test_refused_as_read(self, tmp_path, monkeypatch, capsys, key, value, quote, holds):
        spec = q12_spec("explicit" if key == "sets" else "class")
        (spec["perm_code"] if key == "codewords" else spec["set_code"])[key] = json.loads(value)
        monkeypatch.chdir(tmp_path)
        assert verify_report(spec) == 2
        assert capsys.readouterr().out == _ELEMENT_STDOUT.format(key, quote, holds)


class TestSetCodeForms:
    """A set code is an explicit list or a syndrome class, told apart by its
    "sets" key: one that also holds a class key is refused for that key, not
    read as the list alone."""

    @pytest.mark.parametrize(
        "set_code, key",
        [
            ('{"a": [1, 3], "n": 5, "p": 13, "q": 12, "sets": [[0, 1, 2, 3, 4]], "t": 2}', "a"),
            ('{"n": 5, "p": 13, "q": 12, "sets": [[0, 1, 2, 3, 4]], "t": 2}', "p"),
            ('{"a": [1, 3], "n": 5, "q": 12, "sets": [[0, 1, 2, 3, 4]], "t": 2}', "a"),
        ],
        ids=["p-and-a", "p", "a"],
    )
    def test_both_forms_refused(self, tmp_path, monkeypatch, capsys, set_code, key):
        class_form = '{"a": [1, 3], "n": 5, "p": 13, "q": 12, "t": 2}'
        assert class_form in Q12_SPEC
        monkeypatch.chdir(tmp_path)
        with open("spec.json", "w") as fh:
            fh.write(Q12_SPEC.replace(class_form, set_code))
        assert cli.main(["verify", "--spec", "spec.json"]) == 2
        message = f"spec.json: set_code holds the unknown key '{key}'"
        assert capsys.readouterr().out == f'{{"error": "MalformedSpec", "message": "{message}"}}\n'


class TestReadmeSpecExample:
    def test_example_is_what_construct_writes(self, tmp_path):
        # the README's "Spec file format" example, spread over lines, is Q12_SPEC
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n## Spec file format\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(example) == json.loads(Q12_SPEC)
        out = tmp_path / "spec.json"
        assert cli.main(["construct", "--q", "12", "--n", "5", "--t", "2", "--out", str(out)]) == 0
        assert out.read_text() == Q12_SPEC + "\n"


class TestSimulateAtBenchmarkScale:
    """The channel workload's specs and its pinned tallies (trials, successes,
    failures by deletion count), run through the CLI."""

    @pytest.mark.parametrize(
        "q, n, t, mode, args, tally",
        [
            (24, 7, 2, "stable", ("300", "3", "7"),
             {0: (83, 83, 0), 1: (69, 69, 0), 2: (72, 72, 0), 3: (76, 0, 76)}),
            (20, 7, 1, "unstable", ("100", "1", "7"), {0: (45, 45, 0), 1: (55, 55, 0)}),
        ],
    )
    def test_pinned_tally(self, tmp_path, q, n, t, mode, args, tally):
        path = tmp_path / "spec.json"
        construct = ("--q", str(q), "--n", str(n), "--t", str(t), "--mode", mode, "--out", str(path))
        assert run_cli("construct", *construct).returncode == 0
        trials, tmax, seed = args
        result = run_cli(
            "simulate", "--spec", str(path), "--trials", trials, "--tmax", tmax, "--seed", seed
        )
        assert result.returncode == 0, result.stderr
        by_weight = json.loads(result.stdout)["by_weight"]
        assert by_weight == {
            str(w): {"trials": a, "successes": b, "failures": c} for w, (a, b, c) in tally.items()
        }


def received_words(codewords, t, q):
    """Per codeword: t deletions (decodable), t + 1 (over budget), and t + 1
    deletions with an unused symbol put first (substituted)."""
    for k, x in enumerate(codewords):
        start = k % (len(x) - t)
        kept = x[:start] + x[start + t :]
        yield kept
        yield kept[1:]
        yield [min(set(range(q)) - set(x))] + kept[1:]


class TestPinnedOutputs:
    """sha256 of `enumerate` and of `decode --trace` over a fixed list of
    received words, taken while symbol sets were still a wrapper class around
    their masks: the mask-only set layer prints the same bytes.  The two
    generated points' decode digests were re-taken when the set decoder's
    failure text "locator polynomial has r roots among zeros, expected e"
    became "no e clear positions have the deficits as power sums"; with the
    old text put back in its place, every trace is the same bytes."""

    @pytest.mark.parametrize(
        "point, enumerate_digest, decode_digest",
        [
            (
                (12, 5, 2, "stable"),
                "25d62ce24267680d3a65882efca04efb0f73d62e99dbc1131b200e90ab238827",
                "1e24c0876fa9d4bbcfdcfd68d115567227f393ac97dbb21d5bb44816bbbd5681",
            ),
            (
                (12, 5, 1, "unstable"),
                "7bad009d8a022a788a22c09bbbb19b7479d43810e5fdc2e00ee03c992fba78d3",
                "76e423ff4b0d64319e860daaa62e37dfba2daeed77504238000f5aa0417b6db3",
            ),
            (
                "explicit",
                "c3eee5641fdfc720a5637de31f580b66c129738c69932637652056804deaf6cc",
                "675823828ae3619b4c755cd9f2b141523c3c23f4ebdb98732bdc90e185d5d2c2",
            ),
        ],
        ids=["12-5-2-stable", "12-5-1-unstable", "explicit"],
    )
    def test_enumerate_and_trace(
        self, tmp_path, capsys, explicit_spec, point, enumerate_digest, decode_digest
    ):
        path = str(tmp_path / "spec.json")
        if point == "explicit":
            multfree.save_spec(explicit_spec, path)
            q, t = 8, 2
        else:
            q, n, t, mode = point
            args = ("--q", str(q), "--n", str(n), "--t", str(t), "--mode", mode, "--out", path)
            assert cli.main(["construct", *args]) == 0
        capsys.readouterr()
        assert cli.main(["enumerate", "--spec", path]) == 0
        listing = capsys.readouterr().out
        codewords = [json.loads(line) for line in listing.splitlines()]
        traces = []
        for y in received_words(codewords[:: max(1, len(codewords) // 12)], t, q):
            code = cli.main(["decode", "--spec", path, "--word", json.dumps(y), "--trace"])
            traces.append(f"{code} {capsys.readouterr().out}")
        assert hashlib.sha256(listing.encode()).hexdigest() == enumerate_digest
        assert hashlib.sha256("".join(traces).encode()).hexdigest() == decode_digest


def benchmark_point(
    q, n, t, mode, sizes, spec=None, trials=None, simulate=None, listing=None, traces=()
):
    return pytest.param(
        q, n, t, mode, sizes, spec, trials, simulate, listing, traces, id=f"{q}-{n}-{t}-{mode}"
    )


# Each point's `construct` sizes, then the sha256 of its spec file, of its seeded
# `simulate --trials <trials> --tmax t --seed 1` report, of `enumerate --limit 2000`,
# and of `decode --trace` on the first codeword with its last t symbols deleted and,
# at t >= 2, with only its last symbol deleted, so fewer than t are lost.  The spec
# digests were taken before the census became a counting DP.
BENCHMARK_POINTS = [
    # the set layer at benchmark scale
    benchmark_point(
        64, 4, 1, "stable", {"set_code_size": 9486}, trials=200,
        simulate="a74ab279f84840dd994a2350caddb459e10c8c5ca2469b6fe405c19093c666ab",
        listing="4a85277e5c6eb63b3812f92a8bb88faf36754acefd1563437f2b470bd50b00f4",
        traces=("72b1326d3d1b8370a94bb6bc92b5b072b02a50d7c85a080f5a8ed005cc82c92b",),
    ),
    benchmark_point(
        26, 6, 2, "stable", {"set_code_size": 285}, trials=200,
        simulate="9f9943d445a014a8f77a75b6729d92580a02a48c48c80fcee8c3bf25697a963d",
        listing="ff879b970edcca5b60e6440c3556ac03ae8bc24649fb02de270372ff02b73f70",
        traces=(
            "61a0dcb9dbc4b325d2cc78552999b8a58b2f40533693bb58840f67704cf1375c",
            "46873e6e21788a26dfd32c3578d9488b5b55d1fe852243a881c2aa502bffa8b7",
        ),
    ),
    benchmark_point(
        20, 7, 1, "unstable", {"set_code_size": 3372}, trials=200,
        simulate="52ec441f5e0213145719a9355f684074dc7fa6581dd21ef29defaf88651c8acc",
        listing="63ea5c89b137b7a1fa3f1ccbd3b087c5052652786684e79eb53b51c07d66efd7",
        traces=("7721f5aa90e1bd7592555d275ee9832022a8e0c2c7f39beb7b121f46ff62985f",),
    ),
    benchmark_point(
        30, 7, 2, "stable", {"set_code_size": 2129}, trials=200,
        spec="c09a3df19cc2de1c981414245f18def234a5a7523b9ea640c09933dc19dea0b6",
        simulate="9f9943d445a014a8f77a75b6729d92580a02a48c48c80fcee8c3bf25697a963d",
        listing="bff17594e62505881235097cb14fe3fffa255e96c4a11550ffbb2fcc04c9fa5f",
        traces=(
            "3f5c2b3f1ab1ef64243de4a1a2135a298939fe3abb7f0b9eeb488140fed94370",
            "5b9009f49ad8f1a294a58d07c96179030bbbe7dc5cd3c4396e3ebe1c021654a9",
        ),
    ),
    benchmark_point(
        40, 6, 1, "stable", {"set_code_size": 93620}, trials=200,
        spec="c349d0d79f2b8dbbba03c7860dd913cc6b69478efd6462487051f7968dc4ccbc",
        simulate="f481d603e10263fed8195913151dea395e56f32be4abbcf3be8a34ec43de5649",
        listing="a6662fc4854568997acc78d9398e0835ba0932230f82fd63b8e33b3ce0d39ded",
        traces=("f95b1d78dfacc188b6f152503edfabb38662bc1b3efedb74bb1a0a2f282b3e94",),
    ),
    # its decode that loses three symbols takes the three-loss lookup
    benchmark_point(
        30, 8, 3, "stable", {"set_code_size": 223}, trials=200,
        simulate="d58bd24395ba0cbd12d90d1042da3448a394f39c3e0189ce462569446ae72586",
        listing="4568d7233410838c53e935cd2df64f154c68531c0292054fe2c29f82687fd512",
        traces=(
            "e361db23bd4b1966993ac9d7c87ac080dd4d3083fd21ff0102c3f759dc5c3794",
            "c50a98eb6b8a8f4d1e999053fd6e7275a899ead771c917216be968d993390b85",
        ),
    ),
    # the build-perm grid at q = 12; ud_decode is brute force, so fewer unstable trials
    benchmark_point(
        12, 8, 1, "stable", {"perm_code_size": 3362}, trials=200,
        simulate="52ec441f5e0213145719a9355f684074dc7fa6581dd21ef29defaf88651c8acc",
    ),
    benchmark_point(
        12, 8, 2, "stable", {"perm_code_size": 269}, trials=200,
        simulate="60d67cde83efe579efa18ebb77b153db849aed6a251b66b7315d622ef78e06ae",
    ),
    benchmark_point(
        12, 8, 1, "unstable", {"perm_code_size": 644}, trials=50,
        simulate="69c5879c27d6169d60b53c7faebbfe8ca94f64e6828d2d83ba9e964e2421b902",
    ),
    # the set-layer table at its largest committed point: C(64, 8) > 4e9 subsets, but
    # the census counts the class and never materializes it; construct only, since
    # verify would walk all 986,340 class members
    benchmark_point(64, 8, 2, "stable", {"set_code_size": 986340}),
]


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestBenchmarkScalePins:
    """The benchmark-scale points: every spec verifies, and every pinned
    output is the same bytes."""

    @pytest.mark.parametrize(
        "q, n, t, mode, sizes, spec_digest, trials, simulate_digest, listing_digest, trace_digests",
        BENCHMARK_POINTS,
    )
    def test_pinned_outputs(
        self, tmp_path, capsys, q, n, t, mode, sizes, spec_digest, trials, simulate_digest,
        listing_digest, trace_digests,
    ):
        path = tmp_path / "spec.json"
        args = ("--q", str(q), "--n", str(n), "--t", str(t), "--mode", mode, "--out", str(path))
        assert cli.main(["construct", *args]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert {key: summary[key] for key in sizes} == sizes
        if spec_digest is not None:
            assert hashlib.sha256(path.read_bytes()).hexdigest() == spec_digest
        if trials is None:
            return
        spec = ("--spec", str(path))
        assert cli.main(["verify", *spec]) == 0
        assert capsys.readouterr().out == VERIFY_OK
        # the certificate's verdict is the one a decode of every deletion gives
        assert set_deletion_checks(multfree.load_spec(path).set_code) == (
            {"class_membership": True, "set_deletion_soundness": True},
            None,
        )
        simulate = ("--trials", str(trials), "--tmax", str(t), "--seed", "1")
        assert cli.main(["simulate", *spec, *simulate]) == 0
        assert sha256_text(capsys.readouterr().out) == simulate_digest
        if listing_digest is None:
            return
        assert cli.main(["enumerate", *spec, "--limit", "2000"]) == 0
        listing = capsys.readouterr().out
        assert sha256_text(listing) == listing_digest
        first = json.loads(listing.splitlines()[0])
        for lost, digest in zip((t, 1)[: 1 + (t >= 2)], trace_digests, strict=True):
            word = json.dumps(first[: len(first) - lost])
            assert cli.main(["decode", *spec, "--word", word, "--trace"]) == 0
            assert sha256_text(capsys.readouterr().out) == digest


class TestCorruptSpecFile:
    """A spec file that is not UTF-8 JSON text is a MalformedSpec naming the
    path, as a missing key is."""

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
            (
                Q12_SPEC[:100].encode(),
                "JSONDecodeError: Expecting ',' delimiter: line 1 column 101 (char 100)",
            ),
            (
                b"\xff" + Q12_SPEC.encode(),
                "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=["empty", "cut-at-100-bytes", "not-utf-8"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("verify",),
            ("simulate", "--trials", "1", "--tmax", "1", "--seed", "0"),
            ("enumerate",),
            ("decode", "--word", "[1,2,3]"),
        ],
    )
    def test_refused_naming_the_path(self, tmp_path, capsys, content, error, command):
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        assert cli.main([command[0], "--spec", str(path), *command[1:]]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "MalformedSpec", "message": f"{path}: {error}"}


class TestSpecRoundTrip:
    """Loading a spec file and saving it again rewrites the same bytes."""

    @staticmethod
    def assert_rewritten(path):
        again = path.with_name("again.json")
        multfree.save_spec(multfree.load_spec(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "q, n, t, mode",
        [pytest.param(*point.values[:4], id=point.id) for point in BENCHMARK_POINTS]
        + [pytest.param(12, 5, 1, "unstable", id="12-5-1-unstable")],
    )
    def test_constructed(self, tmp_path, q, n, t, mode):
        path = tmp_path / "spec.json"
        args = ("--q", str(q), "--n", str(n), "--t", str(t), "--mode", mode, "--out", str(path))
        assert cli.main(["construct", *args]) == 0
        self.assert_rewritten(path)

    def test_explicit_sets(self, tmp_path, explicit_spec):
        path = tmp_path / "spec.json"
        multfree.save_spec(explicit_spec, path)
        self.assert_rewritten(path)
        assert multfree.load_spec(path) == explicit_spec

    def test_q12_spec_text(self, q12_spec_path):
        # what `construct --q 12 --n 5 --t 2` writes, held as text in this file
        q12_spec_path.write_text(Q12_SPEC + "\n")
        self.assert_rewritten(q12_spec_path)


# every name `delcode/__init__.py` re-exported while it imported its submodules eagerly,
# less `locator_roots` and `power_sums_to_elementary`, which the tests' bitword oracle holds,
# `Modulus`, now a plain int, the component decoders' own error classes, now
# `SetDecodeFailed` and `PermDecodeFailed`, `DeletionPattern`, now a tuple of positions,
# `BoundReport`, now the dict `singleton_report` returns, and `DecodeSteps`, now the
# tuple `decode_steps` returns, and `Permutation`, now the tuple of its images
PACKAGE_NAMES = (
    "BoundViolated DecodeError DelcodeError "
    "InputTooShort MalformedSpec MultFreeCodeSpec PermCodeBook "
    "PermDecodeFailed ScaleGuardExceeded SetCode SetDecodeFailed SimulationReport "
    "VTParams Word apply_unstable_deletions best_class build_code "
    "class_size class_sizes code_size decode decode_steps delete_positions draw_deletion_pattern "
    "encode_index enumerate_class greedy_sd_code greedy_ud_code induced_permutation induced_set "
    "is_codeword load_spec next_prime_above psi "
    "redundancy redundancy_bound reference_size_bound save_spec sd_decode set_decode simulate "
    "singleton_report size_lower_bound symbol_ranks ud_decode verify_sd_property verify_ud_property"
).split()
# the submodules that were attributes of the package after a bare `import delcode`
PACKAGE_SUBMODULES = ("analysis", "errors", "guards", "model", "modular", "multfree", "permcode", "vtcode")
# the submodules that `import delcode.cli` loads
CLI_SUBMODULES = ("cli", "errors", "guards", "model", "modular", "multfree", "permcode", "vtcode")


class TestImportFootprint:
    """What a fresh interpreter loads: the CLI leaves the modules no command
    needs unloaded, and the package still gives every name it re-exports."""

    @staticmethod
    def child(code, *args):
        # -S: no site-packages hooks, so only the program's own imports show
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_cli_skips_dataclasses_fractions_and_analysis(self):
        loaded = self.child(
            "import json, sys\n"
            "import delcode.cli\n"
            "unused = ('dataclasses', 'fractions', 'delcode.analysis')\n"
            "print(json.dumps([m for m in unused if m in sys.modules]))"
        )
        assert loaded == []

    def test_cli_loads_exactly_its_modules(self):
        # both CLI workloads of the benchmark time this import as their set-up
        loaded = self.child(
            "import json, sys\n"
            "import delcode.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('delcode.'))))"
        )
        assert loaded == [f"delcode.{m}" for m in CLI_SUBMODULES]

    def test_package_gives_every_name(self):
        got = self.child(
            "import inspect, json, sys\n"
            "import delcode\n"
            "names, submodules = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
            "star = {}\n"
            "exec('from delcode import *', star)\n"
            "print(json.dumps({\n"
            "    'no_attribute': [n for n in names if not hasattr(delcode, n)],\n"
            "    'not_starred': [n for n in names if star.get(n) is not getattr(delcode, n)],\n"
            "    'not_listed': [n for n in names + submodules if n not in dir(delcode)],\n"
            "    'not_modules': [m for m in submodules if not inspect.ismodule(getattr(delcode, m))],\n"
            "    'unknown_refused': not hasattr(delcode, 'no_such_name'),\n"
            "}))",
            json.dumps(PACKAGE_NAMES),
            json.dumps(PACKAGE_SUBMODULES),
        )
        assert got == {
            "no_attribute": [],
            "not_starred": [],
            "not_listed": [],
            "not_modules": [],
            "unknown_refused": True,
        }

"""CLI behavior: golden help examples, exit codes, error format, key files."""

import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from compalg import cli
from compalg.cli import build_parser, dispatch

GROUPS = list(cli.GROUPS)
VERBS = [(group, verb) for group, (_, _, verbs) in cli.GROUPS.items() for verb in verbs]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def help_text(group):
    code, out, _ = run_cli([group, "--help"])
    assert code == 0
    return out


def iter_examples(text):
    """Yield (argv, expected_stdout) from an 'examples:' help block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^\s*\$ compalg (.+)$", lines[i])
        if not m:
            i += 1
            continue
        argv = shlex.split(m.group(1))
        expected = []
        i += 1
        while i < len(lines) and lines[i].strip() and not lines[i].lstrip().startswith("$"):
            expected.append(lines[i].strip())
            i += 1
        yield argv, expected


def test_every_group_documents_examples():
    for group in GROUPS:
        assert list(iter_examples(help_text(group))), f"{group} has no examples"


@pytest.mark.parametrize("group", GROUPS)
def test_help_examples_are_golden(group):
    for argv, expected in iter_examples(help_text(group)):
        code, out, err = run_cli(argv)
        assert code == 0, f"{argv}: {err}"
        assert out == "".join(line + "\n" for line in expected), argv


ROOT = Path(__file__).resolve().parents[1]
DH_TRANSCRIPT = str(ROOT / "tests" / "golden" / "exchange_dh.txt")  # `exchange run` help example

# verbs that neither a help example nor the benchmark's golden cases run
KNOWN_ANSWERS = [
    (["poly", "check", "Z/4:[2,2]"], "unit=false nilpotent=true\n"),
    (["composite", "check", "F2<F4:[1,t]"], "member=true unit=false eval0=1\n"),
    (["composite", "oracle", "F2<F4:[0,0,1]"], "true\n"),
    (["monoid", "check", "Z/4:M<2,3>:{0:1,2:2}"], "unit=true nilpotent=false\n"),
    (["ideal", "norm", "(15)"], "15\n"),
    (["ideal", "norm", "(0)"], "infinite\n"),
    (["exchange", "replay", DH_TRANSCRIPT, "--a", "3", "--b", "4"], "replay ok\n"),
]


@pytest.mark.parametrize(
    "argv,expected",
    KNOWN_ANSWERS,
    ids=[" ".join(argv).replace(f"{ROOT}{os.sep}", "") for argv, _ in KNOWN_ANSWERS],
)
def test_known_answer(argv, expected):
    assert run_cli(argv) == (0, expected, "")


def test_every_verb_is_dispatched_by_some_test():
    argvs = [case["argv"] for case in json.loads((ROOT / "bench" / "cli_golden.json").read_text())]
    argvs += [argv for group in GROUPS for argv, _ in iter_examples(help_text(group))]
    argvs += [argv for argv, _ in KNOWN_ANSWERS]
    run = {tuple(argv[:2]) for argv in argvs}
    assert [gv for gv in VERBS if gv not in run] == []


@pytest.mark.parametrize("group,verb", VERBS, ids=[f"{g}-{v}" for g, v in VERBS])
def test_every_verb_parses_help_and_refuses_unknown_flags(group, verb):
    code, out, err = run_cli([group, verb, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {cli.PROG} {group} {verb}")
    code, out, err = run_cli([group, verb, "--no-such-flag"])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {cli.PROG} {group} {verb}"), err
    prefix = f"{cli.PROG} {group} {verb}: error: "
    assert any(line.startswith(prefix) for line in err.splitlines()), err
    assert "Traceback" not in err


def test_domain_error_exit_code_and_prefix():
    code, out, err = run_cli(["ideal", "inverse", "--e", "4", "--phi", "20"])
    assert code == 1
    assert out == ""
    assert err.startswith("ERR:parameter: ")


def test_membership_error_code():
    code, _, err = run_cli(["composite", "irreducible", "F2<F4:[t]"])
    assert code == 1
    assert err.startswith("ERR:membership: ")


def test_format_error_code():
    code, _, err = run_cli(["poly", "irreducible", "F6:[1,1]"])
    assert code == 1
    assert err.startswith("ERR:format: ")


def test_usage_error_exit_code():
    code, _, _ = run_cli(["no-such-group"])
    assert code == 2
    code, _, _ = run_cli(["poly"])
    assert code == 2


def test_json_format():
    code, out, _ = run_cli(["poly", "irreducible", "F2:[1,1,1]", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"irreducible": True}
    code, out, _ = run_cli(["rsa", "keygen", "--p", "3", "--q", "11", "--e", "3", "--format", "json"])
    assert json.loads(out) == {"N": "(33)", "E": "(3)", "D": "(7)", "PHI": "(20)"}


def test_rsa_key_file_round_trip(tmp_path):
    key_path = tmp_path / "key.txt"
    code, _, _ = run_cli(
        ["rsa", "keygen", "--p", "3", "--q", "11", "--e", "3", "--out", str(key_path)]
    )
    assert code == 0
    assert key_path.read_text().startswith("rsa-ideal v1 ")
    code, out, _ = run_cli(["rsa", "encrypt", "--key", str(key_path), "--values", "2 0"])
    assert (code, out) == (0, "6 0\n")
    code, out, _ = run_cli(["rsa", "decrypt", "--key", str(key_path), "--values", "6 0"])
    assert (code, out) == (0, "2 0\n")


def test_rsa_text_mode_round_trip():
    args = ["--p", "5", "--q", "11", "--e", "3"]
    code, out, _ = run_cli(["rsa", "encrypt", *args, "--text", "ABACAB"])
    assert code == 0
    cipher = out.strip()
    code, out, _ = run_cli(["rsa", "decrypt", *args, "--values", cipher, "--as-text"])
    assert (code, out) == (0, "ABACAB\n")


def test_monoidcipher_key_file_round_trip(tmp_path):
    key_path = tmp_path / "mc.txt"
    code, _, _ = run_cli(
        ["monoidcipher", "keygen", "--p", "29", "--seed", "7", "--coeffs", "4", "--out", str(key_path)]
    )
    assert code == 0
    code, out, _ = run_cli(
        ["monoidcipher", "encrypt", "--key", str(key_path), "--text", "ABACAB"]
    )
    assert code == 0
    code, out, _ = run_cli(
        ["monoidcipher", "decrypt", "--key", str(key_path), "--values", out.strip(), "--as-text"]
    )
    assert (code, out) == (0, "ABACAB\n")


def test_monoidcipher_keygen_requires_seed():
    code, _, err = run_cli(["monoidcipher", "keygen", "--p", "29"])
    assert code == 1
    assert err.startswith("ERR:parameter: ")


def test_compcipher_key_file_round_trip(tmp_path):
    key_path = tmp_path / "cc.txt"
    f = "poly[aff(3,1,26),aff(5,2,26)]"
    g = "poly[aff(7,0,26)]"
    code, _, _ = run_cli(["compcipher", "keygen", "--f", f, "--g", g, "--out", str(key_path)])
    assert code == 0
    code, out, _ = run_cli(["compcipher", "encrypt", "--key", str(key_path), "--text", "HELLO"])
    assert code == 0
    code, out, _ = run_cli(
        ["compcipher", "decrypt", "--key", str(key_path), "--cipher", out.strip(), "--as-text"]
    )
    assert (code, out) == (0, "HELLO\n")


def test_exchange_run_and_replay(tmp_path):
    transcript = tmp_path / "t.txt"
    argv = ["exchange", "run", "--p", "7", "--g", "10", "--seed-f", "1", "--seed-s", "2",
            "--out", str(transcript)]
    code, out1, _ = run_cli(argv)
    assert code == 0
    code, out2, _ = run_cli(argv)
    assert out1 == out2  # deterministic under fixed seeds
    code, out, _ = run_cli(
        ["exchange", "replay", str(transcript), "--seed-f", "1", "--seed-s", "2"]
    )
    assert (code, out) == (0, "replay ok\n")
    code, _, err = run_cli(
        ["exchange", "replay", str(transcript), "--seed-f", "1", "--seed-s", "3"]
    )
    assert code == 1
    assert err.startswith("ERR:parameter: ")


def test_exchange_compcipher_mode(tmp_path):
    transcript = tmp_path / "c.txt"
    f = "poly[aff(3,1,26)]"
    g = "poly[aff(5,4,26)]"
    code, out, _ = run_cli(
        ["exchange", "run", "--mode", "compcipher", "--f", f, "--g-poly", g,
         "--out", str(transcript)]
    )
    assert code == 0
    assert "composite-agreement" in out
    code, out, _ = run_cli(
        ["exchange", "replay", str(transcript), "--f", f, "--g-poly", g]
    )
    assert (code, out) == (0, "replay ok\n")


def _assert_clean_error(code, out, err, prefix):
    assert (code, out) == (1, "")
    assert err.startswith(prefix), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "group,record",
    [
        ("rsa", "rsa-ideal v1 N=(33) E D=(7) PHI=(20)"),
        ("monoidcipher", "monoid-cipher v1 P=29 X=2 A"),
        ("compcipher", "composite-cipher v1 S=26"),
    ],
    ids=["rsa", "monoidcipher", "compcipher"],
)
def test_malformed_key_record_is_a_format_error(tmp_path, group, record):
    key_path = tmp_path / "key.txt"
    key_path.write_text(record + "\n")
    code, out, err = run_cli([group, "encrypt", "--key", str(key_path), "--values", "1"])
    _assert_clean_error(code, out, err, "ERR:format: ")


def test_out_of_range_compcipher_ciphertext_is_a_parameter_error():
    code, out, err = run_cli(
        ["compcipher", "decrypt", "--f", "poly[aff(1,1,26),aff(1,2,26)]",
         "--g", "poly[aff(1,0,26)]", "--cipher", "2 27 26 3 -25", "--as-text"]
    )
    _assert_clean_error(code, out, err, "ERR:parameter: ")
    assert "ciphertext value 27 at position 0 is outside [0, 26)" in err


def test_non_integer_list_is_a_format_error():
    code, out, err = run_cli(
        ["monoid", "build", "Z:M<2,3>", "--primes", "x", "--exponents", "2,3"]
    )
    _assert_clean_error(code, out, err, "ERR:format: ")


def test_missing_key_file_is_an_io_error(tmp_path):
    missing = str(tmp_path / "absent.txt")
    code, out, err = run_cli(["rsa", "encrypt", "--key", missing, "--values", "1"])
    _assert_clean_error(code, out, err, "ERR:io: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["monoidcipher", "decrypt", "--p", "29", "--x", "2", "--a", "3", "--values", "-5"],
        ["monoidcipher", "decrypt", "--p", "29", "--x", "2", "--a", "3", "--values", "1000"],
        ["rsa", "decrypt", "--p", "5", "--q", "7", "--e", "5", "--values", "-5"],
        ["rsa", "decrypt", "--p", "5", "--q", "7", "--e", "5", "--values", "24"],
    ],
    ids=["monoidcipher-negative", "monoidcipher-large", "rsa-negative", "rsa-phi"],
)
def test_out_of_range_ciphertext_is_a_parameter_error(argv):
    code, out, err = run_cli(argv)
    _assert_clean_error(code, out, err, "ERR:parameter: ")
    assert "at position 0 is outside" in err


def test_non_integer_zone_pair_is_a_format_error():
    code, out, err = run_cli(["zone", "decrypt", "--p", "29", "--q", "5", "--k", "3", "--pairs", "a:b"])
    _assert_clean_error(code, out, err, "ERR:format: ")


@pytest.mark.parametrize("pairs", ["5", "1:1 7"])
def test_zone_pair_without_colon_is_a_format_error(pairs):
    code, out, err = run_cli(["zone", "decrypt", "--p", "29", "--q", "5", "--k", "3", "--pairs", pairs])
    _assert_clean_error(code, out, err, "ERR:format: ")


def test_deeply_nested_cipher_descriptor_is_a_format_error():
    desc = "aff(1,0,26)"
    for _ in range(2000):
        desc = f"prod({desc},aff(1,0,26))"
    code, out, err = run_cli(
        ["compcipher", "encrypt", "--f", f"poly[{desc}]", "--g", "poly[aff(1,0,26)]", "--text", "AB"]
    )
    _assert_clean_error(code, out, err, "ERR:format: ")
    assert "nested too deeply" in err


def test_negative_monoid_member_is_a_parameter_error():
    code, out, err = run_cli(["monoid", "contains", "M<2,3>", "-1"])
    _assert_clean_error(code, out, err, "ERR:parameter: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["composite", "chain", "F2<F4:[0,0,0,1]", "--max-steps", "-1"],
        ["poly", "oracle", "F2:[1]", "--bound", "-1"],
    ],
    ids=["max-steps", "bound"],
)
def test_negative_cap_is_a_parameter_error(argv):
    code, out, err = run_cli(argv)
    _assert_clean_error(code, out, err, "ERR:parameter: ")


def test_replaying_a_garbage_file_is_a_format_error(tmp_path):
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a transcript\nparam p=7\n")
    code, out, err = run_cli(["exchange", "replay", str(garbage)])
    _assert_clean_error(code, out, err, "ERR:format: ")


def test_field_element_with_a_huge_exponent():
    """t has order 3 in F4 and 10^9 = 1 mod 3; no list as long as the exponent."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "compalg.cli", "ring", "check", element],
            env=env, capture_output=True, text=True, timeout=30,
        )
        for element in ("F4:t^1000000000", "F4:t")
    ]
    assert [(done.returncode, done.stdout) for done in outputs] == [
        (0, "unit=true nilpotent=false inverse=1+t\n")
    ] * 2, outputs[0].stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "irreducible", "F1000000007:[1,1]"],
        ["composite", "irreducible", "F1000000007<F1000000007:[1,1]"],
    ],
)
def test_degree_one_over_a_large_prime_field_is_irreducible_at_once(argv):
    """Degree 1 has no candidate divisor, so the field's 10^9 values are never listed."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "compalg.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout) == (0, "true\n"), done.stderr


@pytest.mark.parametrize(
    "element,code",
    [
        ("F(4)=F2[t]/(t^41+t^3+1):t", "format"),  # irreducible: trial division takes minutes
        ("F(4)=F2[t]/(t^1000000000+t+1):t", "format"),  # densifying would exhaust memory
        ("F(4)=F0[t]/(t):0", "parameter"),
        ("F(4)=F4[t]/(t+1):1", "parameter"),
        ("F(4)=F2[t]/(2t^3+t^2+t+1):t", "parameter"),  # not monic: 2 = 0 in F2
    ],
)
def test_bad_explicit_field_name_is_refused_before_the_field_is_built(element, code):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    gib = 1 << 30  # a regression that densifies the modulus fails fast here
    done = subprocess.run(
        [sys.executable, "-m", "compalg.cli", "ring", "check", element],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert done.returncode == 1
    assert done.stderr.startswith(f"ERR:{code}: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "element,expected",
    [("F2<F4:[1,t]", "member=true unit=false eval0=1\n"), ("F2<F4:[t,1]", "member=false\n")],
)
def test_composite_check_membership(element, expected):
    code, out, _ = run_cli(["composite", "check", element])
    assert (code, out) == (0, expected)


def test_parser_builds_cleanly():
    assert build_parser() is not None

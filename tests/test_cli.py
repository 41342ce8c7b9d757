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


def run_child(argv, memory=None, timeout=10):
    """The CLI in a child process, its address space capped at ``memory`` bytes if given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cap = memory and (lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory)))
    return subprocess.run([sys.executable, "-m", "compalg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, preexec_fn=cap)

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


def working_argvs():
    """Every argv the suite runs to success: golden cases, help examples, known answers."""
    argvs = [case["argv"] for case in json.loads((ROOT / "bench" / "cli_golden.json").read_text())]
    argvs += [argv for group in GROUPS for argv, _ in iter_examples(help_text(group))]
    return argvs + [argv for argv, _ in KNOWN_ANSWERS]


def test_every_verb_is_dispatched_by_some_test():
    run = {tuple(argv[:2]) for argv in working_argvs()}
    assert [gv for gv in VERBS if gv not in run] == []


# the verbs that encode text (--seed draws its lifts) or decode it, and keygen's seed
SEED_READERS = {("rsa", "encrypt"), ("compcipher", "encrypt"), ("monoidcipher", "encrypt"),
                ("monoidcipher", "keygen")}
ALPHABET_READERS = {(g, v) for g in ("rsa", "compcipher", "monoidcipher")
                    for v in ("encrypt", "decrypt")}
REFUSERS = [gv for gv in VERBS if gv not in SEED_READERS & ALPHABET_READERS]


@pytest.mark.parametrize("group,verb", REFUSERS, ids=[f"{g}-{v}" for g, v in REFUSERS])
def test_seed_and_alphabet_file_exist_only_where_they_are_read(group, verb):
    argv = next(a for a in working_argvs() if tuple(a[:2]) == (group, verb))
    for flag, readers in (("--seed", SEED_READERS), ("--alphabet-file", ALPHABET_READERS)):
        if (group, verb) in readers:
            continue
        code, out, err = run_cli([*argv, f"{flag}=1"])
        assert (code, out) == (2, ""), flag
        assert f"{flag}=1" in err.splitlines()[-1]


MC_KEY = ["--p", "1000003", "--x", "318033", "--a", "108178,756251"]
CC_KEY = ["--f", "poly[aff(1,1,26)]", "--g", "poly[aff(3,0,26)]"]
RSA_KEY = ["--p", "61", "--q", "53", "--e", "17"]
# seeded lifts and alphabet files; A-E stands for a file with the lines A to E
SEEDED_TEXT = [
    (["rsa", "encrypt", *RSA_KEY, "--text", "HELLO", "--seed", "1"], "1393 692 1123 1591 2552"),
    (["rsa", "encrypt", *RSA_KEY, "--text", "HELLO", "--seed", "2"], "1939 1004 161 1929 1538"),
    (["rsa", "encrypt", *RSA_KEY, "--text", "EDCBA", "--seed", "3", "--alphabet-file", "A-E"],
     "2003 1641 579 1962 930"),
    (["rsa", "decrypt", *RSA_KEY, "--values", "2003 1641 579 1962 930", "--as-text",
      "--alphabet-file", "A-E"], "EDCBA"),
    (["compcipher", "encrypt", *CC_KEY, "--text", "HELLO", "--seed", "5"],
     "5 8 21 5 12 12 7 12 7 15 16"),
    (["compcipher", "encrypt", *CC_KEY, "--text", "DEAD", "--seed", "5", "--alphabet-file", "A-E"],
     "4 24 17 15 16 11 4 24 17"),
    (["compcipher", "decrypt", *CC_KEY, "--cipher", "4 24 17 15 16 11 4 24 17", "--as-text",
      "--alphabet-file", "A-E"], "DEAD"),
    (["monoidcipher", "encrypt", *MC_KEY, "--text", "HELLO", "--seed", "9"],
     "931433 882748 917321 914288 892773"),
    (["monoidcipher", "encrypt", *MC_KEY, "--text", "ABE", "--seed", "9", "--alphabet-file", "A-E"],
     "417228 127396 155528"),
    (["monoidcipher", "decrypt", *MC_KEY, "--values", "417228 127396 155528", "--as-text",
      "--alphabet-file", "A-E"], "ABE"),
]


@pytest.mark.parametrize(
    "argv,expected", SEEDED_TEXT, ids=[f"{a[0]}-{a[1]}-{e}" for a, e in SEEDED_TEXT]
)
def test_seeded_text_is_pinned(tmp_path, argv, expected):
    alphabet = tmp_path / "a-to-e.txt"
    alphabet.write_text("A\nB\nC\nD\nE\n")
    argv = [str(alphabet) if a == "A-E" else a for a in argv]
    assert run_cli(argv) == (0, expected + "\n", "")


def test_multi_character_alphabet_symbol_is_refused(tmp_path):
    alphabet = tmp_path / "ab.txt"
    alphabet.write_text("AB\nC\nD\n")
    argv = ["rsa", "decrypt", "--p", "3", "--q", "11", "--e", "3", "--values", "0 3 6",
            "--as-text", "--alphabet-file", str(alphabet)]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("ERR:parameter: ")


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


@pytest.mark.parametrize("size", ["0", "-3", "1", "6"])
def test_a_field_size_that_is_not_a_prime_power_is_a_format_error(size):
    assert run_cli(["ring", "check", f"F{size}:0"]) == (
        1, "", f"ERR:format: F{size}: {size} is not a prime power\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "check", "Z/4_0:1"],
        ["ring", "check", "F04:1"],
        ["ring", "check", "F1_1:1"],
        ["ring", "check", "F+4:1"],
        ["ring", "check", "Z/ 4:1"],
        ["ring", "check", "Z/-3:1"],
        ["ring", "check", "F\u0664:1"],  # an Arabic-Indic four
        ["ring", "check", "F4:\u0663"],  # an Arabic-Indic three
        ["ring", "check", "F4:t^02"],
        ["ring", "check", "F(04)=F2[t]/(t^2+t+1):1"],
        ["ring", "check", "Z:+5"],
        ["ring", "check", "Z:007"],
        ["ring", "check", "Z:-0"],
        ["monoid", "contains", "M<2,0_3>", "5"],
        ["monoid", "check", "Z:M<2,3>:{02:1}"],
        ["ideal", "norm", "(+15)"],
        # integers read outside textio, by errors.read_int too
        ["rsa", "encrypt", "--p", "3", "--q", "11", "--e", "3", "--values", " 05 +6"],
        ["frac", "decrypt", "--alpha", "29", "--k", "7", "--values", "6 1_0"],
        ["zone", "decrypt", "--p", "29", "--q", "5", "--k", "3", "--pairs", "\u0661:\u0663"],
        ["compcipher", "decrypt", "--f", "poly[aff(1,0,26)]", "--g", "poly[aff(1,0,26)]",
         "--cipher", "+1 2"],
        ["compcipher", "keygen", "--f", "poly[aff(+1,0,26)]", "--g", "poly[aff(1,0,26)]"],
        ["monoid", "build", "Z:M<2,3>", "--primes", "+2", "--exponents", "2,3"],
        ["monoid", "build", "Z:M<2,3>", "--primes", "2", "--exponents", "2,03"],
        ["monoidcipher", "encrypt", "--p", "29", "--x", "2", "--a", "3,0_5", "--values", "1"],
        # a last argument that is a key record is passed as a --key file
        ["monoidcipher", "encrypt", "--values", "1", "monoid-cipher v1 P=+29 X=2 A=3"],
    ],
    ids=" ".join,
)
def test_an_integer_spelled_other_than_in_ascii_digits_is_a_format_error(tmp_path, argv):
    if argv[-1].startswith("monoid-cipher "):
        key = tmp_path / "key.txt"
        key.write_text(argv[-1] + "\n")
        argv = [*argv[:-1], "--key", str(key)]
    code, out, err = run_cli(argv)
    _assert_clean_error(code, out, err, "ERR:format: ")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["rsa", "keygen", "--p", "+3", "--q", "11", "--e", "3"], "--p"),
        (["rsa", "keygen", "--p", "3", "--q", "1_1", "--e", "3"], "--q"),
        (["zone", "encrypt", "--p", "29", "--q", "5", "--k", "\u0663", "--values", "7"], "--k"),
        (["poly", "oracle", "Z/4:[1,2]", "--bound", "08"], "--bound"),
        (["monoidcipher", "keygen", "--p", "29", "--seed", " 1"], "--seed"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_an_option_value_spelled_other_than_str_n_is_a_usage_error(argv, flag):
    code, out, err = run_cli(argv)
    value = argv[argv.index(flag) + 1]
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"{cli.PROG} {argv[0]} {argv[1]}: error: argument {flag}: invalid integer value: {value!r}"
    )
    assert "Traceback" not in err


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


def test_exchange_run_names_the_polynomial_flags():
    code, out, err = run_cli(["exchange", "run", "--mode", "compcipher", "--f", "poly[aff(3,1,26)]"])
    _assert_clean_error(code, out, err, "ERR:parameter: ")
    assert "compcipher mode needs --f and --g-poly" in err


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
        ("compcipher", "composite-cipher v1 F=poly[aff(1,1,26)] G=poly[aff(3,0,26)]"),
        ("monoidcipher", "monoid-cipher v1 P=29 X=2 A=3 X=3 Q=junk"),
        ("rsa", "rsa-ideal v1 N=(33) E=(3) D=(7) PHI=(20) E=(3)"),
        ("compcipher", "composite-cipher v1 S=26 F=poly[aff(1,1,26)] G=poly[aff(3,0,26)] H=x"),
    ],
    ids=["rsa", "monoidcipher", "compcipher", "compcipher-no-S", "monoidcipher-repeated-x",
         "rsa-repeated-e", "compcipher-unknown-h"],
)
def test_malformed_key_record_is_a_format_error(tmp_path, group, record):
    key_path = tmp_path / "key.txt"
    key_path.write_text(record + "\n")
    code, out, err = run_cli([group, "encrypt", "--key", str(key_path), "--values", "1"])
    _assert_clean_error(code, out, err, "ERR:format: ")


@pytest.mark.parametrize(
    "argv,record,message",
    [
        (["rsa", "decrypt", "--values", "6 0"], "rsa-ideal v1 N=(33) E=(3) D=(5) PHI=(20)",
         "e*d = 15 is not 1 mod phi = 20"),
        (["rsa", "encrypt", "--values", "2 5"], "rsa-ideal v1 N=(33) E=(4) D=(7) PHI=(20)",
         "gcd(e, phi) = 4 != 1"),
        (["rsa", "encrypt", "--values", "2 5"], "rsa-ideal v1 N=(33) E=(21) D=(1) PHI=(20)",
         "e = 21 must satisfy 1 < e < phi = 20"),
        (["rsa", "encrypt", "--values", "2 5"], "rsa-ideal v1 N=(35) E=(3) D=(7) PHI=(20)",
         "N = 35 is not PQ for distinct primes with (P-1)(Q-1) = phi = 20"),
        (["compcipher", "encrypt", "--text", "AB"],
         "composite-cipher v1 S=27 F=poly[aff(1,1,26)] G=poly[aff(3,0,26)]",
         "key record S=27 is not the input size of F and G"),
    ],
    ids=["rsa-d", "rsa-e", "rsa-e-range", "rsa-n", "compcipher-s"],
)
def test_inconsistent_key_record_is_a_parameter_error(tmp_path, argv, record, message):
    key_path = tmp_path / "key.txt"
    key_path.write_text(record + "\n")
    code, out, err = run_cli([*argv[:2], "--key", str(key_path), *argv[2:]])
    assert (code, out, err) == (1, "", f"ERR:parameter: {message}\n")


# flags are spelled in full: a unique prefix of a flag is not that flag
@pytest.mark.parametrize(
    "argv,error",
    [
        (["rsa", "encrypt", "--p", "3", "--q", "11", "--e", "3", "--te", "AB"],
         "unrecognized arguments: --te AB"),
        (["frac", "encrypt", "--al", "29", "--k", "7", "--x", "5"],
         "the following arguments are required: --alpha"),
    ],
    ids=["rsa-te", "frac-al"],
)
def test_flag_prefixes_are_refused(argv, error):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"{cli.PROG} {argv[0]} {argv[1]}: error: {error}"


def test_out_of_range_compcipher_ciphertext_is_a_parameter_error():
    code, out, err = run_cli(
        ["compcipher", "decrypt", "--f", "poly[aff(1,1,26),aff(1,2,26)]",
         "--g", "poly[aff(1,0,26)]", "--cipher", "2 27 26 3 -25", "--as-text"]
    )
    _assert_clean_error(code, out, err, "ERR:parameter: ")
    assert "ciphertext value 27 at position 0 is outside [0, 26)" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rsa", "decrypt", "--p", "3", "--q", "11", "--e", "3"], "need --values"),
        (["monoidcipher", "decrypt", "--p", "29", "--x", "2", "--a", "3"], "need --values"),
        (["frac", "encrypt", "--alpha", "29", "--k", "7"], "need --x or --values"),
        (["frac", "decrypt", "--alpha", "29", "--k", "7"], "need --y or --values"),
    ],
    ids=["rsa-decrypt", "monoidcipher-decrypt", "frac-encrypt", "frac-decrypt"],
)
def test_missing_values_is_a_parameter_error(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", f"ERR:parameter: {message}\n")


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


@pytest.mark.parametrize(
    "edit,prefix,reason",
    [
        (lambda t: t.replace("v1 dh", "v1 foo"), "ERR:format: ", "unrecognized transcript protocol"),
        (lambda t: t.replace("param G=(10)\n", ""), "ERR:format: ", "missing P or G"),
        (lambda t: "exchange v1 composite-agreement\nparam S=26\n", "ERR:parameter: ",
         "needs f and g"),
        (lambda t: t.replace("A=(2)", "A=(3)"), "ERR:parameter: ", "does not replay identically"),
    ],
    ids=["unknown-protocol", "dh-without-g", "agreement-without-polys", "dh-altered-msg"],
)
def test_replay_refusals(tmp_path, edit, prefix, reason):
    secrets = ["--a", "3", "--b", "4"]
    code, text, _ = run_cli(["exchange", "run", "--p", "7", "--g", "10", *secrets])
    assert code == 0 and edit(text) != text
    transcript = tmp_path / "transcript.txt"
    transcript.write_text(edit(text))
    code, out, err = run_cli(["exchange", "replay", str(transcript), *secrets])
    _assert_clean_error(code, out, err, prefix)
    assert reason in err


def test_inverse_search_bound_is_limited_only_by_the_work_budget():
    assert run_cli(["poly", "oracle", "Z/4:[1,2]", "--bound", "9"]) == (0, "[1,2]\n", "")
    assert run_cli(["poly", "oracle", "Z/4:[1,2]", "--bound", "16384"]) == (
        1, "", "ERR:ceiling: inverse search needs at least 65540 steps, above the work budget "
               "65536\n")


def test_an_inverse_search_that_finds_nothing_prints_none():
    assert run_cli(["poly", "oracle", "Z/4:[2]", "--bound", "2"]) == (0, "none\n", "")
    assert run_cli(["poly", "oracle", "Z/4:[2]", "--bound", "2", "--format", "json"]) == (
        0, '{"inverse": null}\n', "")


def test_field_element_with_a_huge_exponent():
    """t has order 3 in F4 and 10^9 = 1 mod 3; no list as long as the exponent."""
    outputs = [run_child(["ring", "check", element], timeout=30)
               for element in ("F4:t^1000000000", "F4:t")]
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
    done = run_child(argv)
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
    # a regression that densifies the modulus fails fast under the cap
    done = run_child(["ring", "check", element], memory=1 << 30)
    assert done.returncode == 1
    assert done.stderr.startswith(f"ERR:{code}: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv,steps",
    [
        (["poly", "oracle", "Z/1000000007:[1,1]", "--bound", "2"], 3000000021),
        (["poly", "oracle", "F65536:[1,1]", "--bound", "8"], 589824),
        (["monoid", "oracle", "Z:M<2,3>:{100000000:1,0:3}", "--exp-bound", "100000000",
          "--coeff-bound", "1"], 100000001),
        (["monoid", "oracle", "Z:M<2,3>:{2:-1,3:2,8:1}", "--exp-bound", "8",
          "--coeff-bound", "40"], 1614252),
        # 2c + 1 box values at c = 10^20 - 1: len() of that range overflows
        (["monoid", "oracle", "Z:M<2,3>:{2:-1,3:2,8:1}", "--exp-bound", "8",
          "--coeff-bound", "99999999999999999999"], 600000000000000000000),
        (["poly", "irreducible", "F3486784401:[1,0,1]"], 88572),
        (["poly", "irreducible", "F(2199023255552)=F2[t]/(t^41+t^3+1):[0,1]"], 131070),
        (["monoid", "contains", "M<30000000,30000001,30000002>", "5000000000"], 30000000),
        # p = 2q + 1 > 2^40: baby-step tables of isqrt(q - 1) + 1 and 2 entries
        (["monoidcipher", "decrypt", "--p", "1099511628443", "--x", "2", "--a", "1",
          "--values", "7"], 741458),
        # a key is refused when it is made, so keygen and encrypt are too
        (["monoidcipher", "encrypt", "--p", "1099511628443", "--x", "2", "--a", "1",
          "--values", "7"], 741458),
        (["monoidcipher", "keygen", "--p", "1099511628443", "--seed", "1", "--coeffs", "3"],
         741458),
        # p = 2q + 1 > 2^34: tables of 2 and isqrt(q - 1) + 1 entries
        (["monoidcipher", "encrypt", "--p", "17179869263", "--x", "5", "--a", "1",
          "--values", "7"], 92684),
        (["monoidcipher", "keygen", "--p", "17179869263", "--seed", "1", "--coeffs", "3"], 92684),
        (["monoidcipher", "keygen", "--p", "29", "--seed", "1", "--coeffs", "20000000"],
         20000000),
        (["zone", "encrypt", "--p", "1000000007", "--q", "5", "--k", "3", "--values", "1",
          "--zone-seed", "1"], 200000002),
        # two degree-16 keys: 2 * (2 + 4 + ... + 2^16) + 2^17 letters per block
        (["compcipher", "encrypt", "--f", "poly[" + ",".join(["aff(3,1,26)"] * 17) + "]",
          "--g", "poly[" + ",".join(["aff(5,2,26)"] * 17) + "]", "--values", "1"], 393212),
    ],
    ids=["inverse-mod-prime", "inverse-f65536", "monoid-dense-form", "monoid-box",
         "monoid-huge-box", "huge-default-field", "huge-explicit-field", "apery-table",
         "dlog-plan", "dlog-plan-encrypt", "dlog-plan-keygen", "dlog-plan-2-34-encrypt",
         "dlog-plan-2-34-keygen", "monoidcipher-coeffs", "zone-seeded-labels", "compcipher-block"],
)
def test_work_over_the_budget_is_refused_before_it_starts(argv, steps):
    done = run_child(argv, memory=600 << 20)
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert re.fullmatch(
        rf"ERR:ceiling: .+ needs at least {steps} steps, above the work budget 65536", line
    ), line


@pytest.mark.parametrize(
    "argv,expected",
    [
        # 10^24 has 625 divisors; M<2,3> has no split degree for degree 3
        (["monoid", "oracle", "Z:M<2,3>:{2:1,3:1000000000000000000000000}", "--exp-bound", "6",
          "--coeff-bound", "1"], "true\n"),
        (["zone", "encrypt", "--p", "1000000007", "--q", "5", "--k", "3", "--values", "1"],
         "0:3\n"),
        (["monoidcipher", "keygen", "--p", "29", "--seed", "1", "--coeffs", "65536"],
         "monoid-cipher v1 P=29 X=27 A=25,3,9,4,16,"),
    ],
    ids=["monoid-divisors", "zone-unseeded-labels", "monoidcipher-coeffs"],
)
def test_work_within_the_budget_is_answered(argv, expected):
    done = run_child(argv, memory=600 << 20)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    [line] = done.stdout.splitlines()
    assert done.stdout.startswith(expected), line[:80]


def test_a_lead_that_cannot_be_factored_is_refused():
    done = run_child(["monoid", "oracle", "Z:M<2,3>:{2:1,3:4295229443}", "--exp-bound", "6",
                      "--coeff-bound", "1"], memory=600 << 20)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "ERR:ceiling: factoring 4295229443 needs trial divisors above the work budget "
               "65536\n")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["ring", "check", "F2305843009213693967:1"], "unit=true nilpotent=false inverse=1\n"),
        (["ring", "check", "Z/2305843009213693967:5"],
         "unit=true nilpotent=false inverse=922337203685477587\n"),
        (["poly", "check", "Z/2305843009213693967:[1,5]"], "unit=false nilpotent=false\n"),
    ],
    ids=["prime-field", "z-mod-prime", "poly-mod-prime"],
)
def test_a_prime_near_2_to_the_61_is_answered_without_trial_division_to_its_root(argv, expected):
    done = run_child(argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


@pytest.mark.parametrize(
    "element",
    [
        "F2<F4:[1,0,0,0,0,1]",  # X^5 + 1 = (X + 1)(X^4 + X^3 + X^2 + X + 1) over F2
        "F5<F25:[1,0,1]",  # X^2 + 1 = (X + 2)(X + 3) over F5
    ],
)
def test_searches_once_over_the_old_size_ceilings_are_answered(element):
    assert run_cli(["composite", "oracle", element]) == (0, "true\n", "")


@pytest.mark.parametrize(
    "element,expected",
    [("F2<F4:[1,t]", "member=true unit=false eval0=1\n"), ("F2<F4:[t,1]", "member=false\n")],
)
def test_composite_check_membership(element, expected):
    code, out, _ = run_cli(["composite", "check", element])
    assert (code, out) == (0, expected)


def test_parser_builds_cleanly():
    assert build_parser() is not None

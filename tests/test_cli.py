"""CLI behavior: the behaviour corpus, help and flag grammar, key files and transcripts.

Every argv -> output case is a row of ``tests/golden/behaviour.jsonl`` (see
``behaviour_diff.py``), run under the pytest name of its id. The tests below
generate their argv or take more than one step.
"""

import pytest

import behaviour_diff
from compalg import cli

VERBS = [(group, verb) for group, (_, _, verbs) in cli.GROUPS.items() for verb in verbs]
ROWS = behaviour_diff.load_rows()
ANSWERED = [row for row in ROWS if row.get("exit", 0) == 0]
# test_golden runs the benchmark's golden cases
globals().update((name, test) for name, test in behaviour_diff.pytest_functions(ROWS).items()
                 if name != "test_cli_golden_case")


def run_cli(argv):
    return behaviour_diff.run({"argv": argv})


def test_every_group_documents_examples():
    for group, (_, examples, _) in cli.GROUPS.items():
        text = run_cli([group, "--help"])[1]
        assert examples and cli._epilog(examples) in text, group


def test_every_verb_is_dispatched_by_some_test():
    run = {tuple(row["argv"][:2]) for row in ANSWERED}
    assert [gv for gv in VERBS if gv not in run] == []


# the verbs that encode text (--seed draws its lifts) or decode it, and keygen's seed
SEED_READERS = {("rsa", "encrypt"), ("compcipher", "encrypt"), ("monoidcipher", "encrypt"),
                ("monoidcipher", "keygen")}
ALPHABET_READERS = {(g, v) for g in ("rsa", "compcipher", "monoidcipher")
                    for v in ("encrypt", "decrypt")}
REFUSERS = [gv for gv in VERBS if gv not in SEED_READERS & ALPHABET_READERS]


@pytest.mark.parametrize("group,verb", REFUSERS, ids=[f"{g}-{v}" for g, v in REFUSERS])
def test_seed_and_alphabet_file_exist_only_where_they_are_read(tmp_path, group, verb):
    row = next(row for row in ANSWERED if tuple(row["argv"][:2]) == (group, verb))
    for flag, readers in (("--seed", SEED_READERS), ("--alphabet-file", ALPHABET_READERS)):
        if (group, verb) in readers:
            continue
        code, out, err = behaviour_diff.run({**row, "argv": [*row["argv"], f"{flag}=1"]}, tmp_path)
        assert (code, out) == (2, ""), flag
        assert f"{flag}=1" in err.splitlines()[-1]


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


def test_deeply_nested_cipher_descriptor_is_a_format_error():
    desc = "aff(1,0,26)"
    for _ in range(2000):
        desc = f"prod({desc},aff(1,0,26))"
    assert run_cli(
        ["compcipher", "encrypt", "--f", f"poly[{desc}]", "--g", "poly[aff(1,0,26)]", "--text", "AB"]
    ) == (1, "", "ERR:format: descriptor nested too deeply\n")

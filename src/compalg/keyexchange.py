"""In-memory two-party protocol harness with transcripts.

The channel is synchronous, ordered and loss-free; each run builds its
transcript once, from everything that crossed the channel plus a digest
of each party's derived secret. Secret inputs (multipliers, cipher
polynomials) never enter the transcript; replaying therefore means
re-running the protocol with the same secret inputs and comparing the
serialized transcript byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from .ciphers.composite_cipher import CipherPolynomial, composite_cipher_keygen
from .ciphers.diffie_hellman import DhExchange, DhParams, dh_exchange
from .errors import FormatError, ParameterError
from .textio import parse_ideal

FIRST = "F"
SECOND = "S"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class TranscriptEntry:
    sender: str
    receiver: str
    payload: str


@dataclass(frozen=True, slots=True)
class Transcript:
    """One run's exchange log with the final per-party secret digests."""

    protocol: str
    params: tuple[tuple[str, str], ...]
    entries: tuple[TranscriptEntry, ...]
    digests: tuple[tuple[str, str], ...]
    error: Optional[str] = None

    def digests_equal(self) -> bool:
        values = [d for _, d in self.digests]
        return len(values) >= 2 and len(set(values)) == 1

    def serialize(self) -> str:
        lines = [f"exchange v1 {self.protocol}"]
        lines.extend(f"param {name}={value}" for name, value in self.params)
        lines.extend(f"msg {e.sender}->{e.receiver} {e.payload}" for e in self.entries)
        lines.extend(f"digest {party} {d}" for party, d in self.digests)
        if self.error is not None:
            lines.append(f"error {self.error}")
        return "\n".join(lines) + "\n"


def parse_transcript_params(text: str) -> tuple[str, dict[str, str]]:
    """Protocol name and the param map from a serialized transcript."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("exchange v1 "):
        raise FormatError("not an exchange v1 transcript")
    protocol = lines[0].split(" ", 2)[2]
    params = {}
    for line in lines[1:]:
        if line.startswith("param "):
            name, _, value = line[len("param "):].partition("=")
            params[name] = value
    return protocol, params


def _secret(secret: Optional[int], seed: Optional[int], p: int, party: str) -> int:
    """The given secret, or one drawn from the seed."""
    if secret is not None:
        return secret
    if seed is None:
        raise ParameterError(f"need secret_{party} or seed_{party}")
    return random.Random(seed).randrange(2, 8 * p + 2)


# ---------------------------------------------------------------------------
# shared-ideal exchange


@dataclass(frozen=True)
class DhRun:
    transcript: Transcript
    exchange: DhExchange


def run_dh(
    params: DhParams,
    *,
    secret_first: Optional[int] = None,
    secret_second: Optional[int] = None,
    seed_first: Optional[int] = None,
    seed_second: Optional[int] = None,
) -> DhRun:
    """Run the two-party exchange; secrets come in directly or from seeds.

    The transcript records the public ideals and a digest of each
    party's derived shared ideal; fixed inputs give byte-identical
    transcripts on every run.
    """
    p = params.p.generator
    ex = dh_exchange(
        params,
        _secret(secret_first, seed_first, p, "first"),
        _secret(secret_second, seed_second, p, "second"),
    )
    return DhRun(Transcript(
        "dh",
        (("P", repr(params.p)), ("G", repr(params.g))),
        (TranscriptEntry(FIRST, SECOND, f"A={ex.public_first!r}"),
         TranscriptEntry(SECOND, FIRST, f"B={ex.public_second!r}")),
        ((FIRST, _digest(repr(ex.shared_first))), (SECOND, _digest(repr(ex.shared_second)))),
    ), ex)


# ---------------------------------------------------------------------------
# composite-cipher key agreement


@dataclass(frozen=True)
class AgreementRun:
    transcript: Transcript
    key_first: Optional[CipherPolynomial]
    key_second: Optional[CipherPolynomial]

    @property
    def agreed(self) -> bool:
        return self.transcript.digests_equal()


def run_composite_agreement(f: CipherPolynomial, g: CipherPolynomial) -> AgreementRun:
    """Both parties convolve the shared secret polynomials independently.

    The transcript carries only digests of the derived key descriptors;
    a parameter mismatch is surfaced as an error entry, not an exception,
    since the harness's job is to record what happened on the channel.
    """
    params = (("S", str(f.input_size)),)
    try:
        # each party derives the key on its own
        key_first = composite_cipher_keygen(f, g)
        key_second = composite_cipher_keygen(f, g)
    except ParameterError as exc:
        failed = Transcript("composite-agreement", params, (), (), error=str(exc))
        return AgreementRun(failed, None, None)
    d1 = _digest(key_first.descriptor())
    d2 = _digest(key_second.descriptor())
    return AgreementRun(Transcript(
        "composite-agreement",
        params,
        (TranscriptEntry(FIRST, SECOND, f"fg-digest={d1}"),
         TranscriptEntry(SECOND, FIRST, f"fg-digest={d2}")),
        ((FIRST, d1), (SECOND, d2)),
    ), key_first, key_second)


def replay(
    text: str,
    *,
    f: Optional[CipherPolynomial] = None,
    g: Optional[CipherPolynomial] = None,
    secret_first: Optional[int] = None,
    secret_second: Optional[int] = None,
    seed_first: Optional[int] = None,
    seed_second: Optional[int] = None,
) -> bool:
    """Re-run the recorded protocol and compare byte for byte.

    A dh transcript takes the secrets or seeds, a composite-agreement
    one the polynomials f and g.
    """
    protocol, params = parse_transcript_params(text)
    if protocol == "dh":
        try:
            dh_params = DhParams(parse_ideal(params["P"]), parse_ideal(params["G"]))
        except KeyError:
            raise FormatError("transcript is missing P or G params") from None
        run = run_dh(
            dh_params,
            secret_first=secret_first,
            secret_second=secret_second,
            seed_first=seed_first,
            seed_second=seed_second,
        )
    elif protocol == "composite-agreement":
        if f is None or g is None:
            raise ParameterError("composite-agreement replay needs f and g")
        run = run_composite_agreement(f, g)
    else:
        raise FormatError(f"unrecognized transcript protocol {protocol!r}")
    return run.transcript.serialize() == text

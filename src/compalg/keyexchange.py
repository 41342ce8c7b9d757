"""In-memory two-party protocol harness with transcripts.

The channel is synchronous, ordered and loss-free; the transcript is an
append-only record of everything that crossed it, plus a digest of each
party's derived secret. Secret inputs (multipliers, cipher polynomials)
never enter the transcript; replaying therefore means re-running the
protocol with the same secret inputs and comparing the serialized
transcript byte for byte.
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


class Transcript:
    """Append-only exchange log with final per-party secret digests."""

    __slots__ = ("protocol", "params", "_entries", "_digests", "_error")

    def __init__(self, protocol: str, params: list[tuple[str, str]]):
        self.protocol = protocol
        self.params = tuple(params)
        self._entries: list[TranscriptEntry] = []
        self._digests: list[tuple[str, str]] = []
        self._error: Optional[str] = None

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        return tuple(self._entries)

    @property
    def digests(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._digests)

    @property
    def error(self) -> Optional[str]:
        return self._error

    def record(self, sender: str, receiver: str, payload: str):
        self._entries.append(TranscriptEntry(sender, receiver, payload))

    def record_digest(self, party: str, digest: str):
        self._digests.append((party, digest))

    def record_error(self, message: str):
        self._error = message

    def digests_equal(self) -> bool:
        values = [d for _, d in self._digests]
        return len(values) >= 2 and len(set(values)) == 1

    def serialize(self) -> str:
        lines = [f"exchange v1 {self.protocol}"]
        lines.extend(f"param {name}={value}" for name, value in self.params)
        lines.extend(
            f"msg {e.sender}->{e.receiver} {e.payload}" for e in self._entries
        )
        lines.extend(f"digest {party} {d}" for party, d in self._digests)
        if self._error is not None:
            lines.append(f"error {self._error}")
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


# ---------------------------------------------------------------------------
# shared-ideal exchange


@dataclass(frozen=True)
class DhRun:
    transcript: Transcript
    exchange: DhExchange


def _draw_secret(seed: int, p: int) -> int:
    return random.Random(seed).randrange(2, 8 * p + 2)


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
    if secret_first is None:
        if seed_first is None:
            raise ParameterError("need secret_first or seed_first")
        secret_first = _draw_secret(seed_first, p)
    if secret_second is None:
        if seed_second is None:
            raise ParameterError("need secret_second or seed_second")
        secret_second = _draw_secret(seed_second, p)

    transcript = Transcript(
        "dh", [("P", repr(params.p)), ("G", repr(params.g))]
    )
    ex = dh_exchange(params, secret_first, secret_second)
    transcript.record(FIRST, SECOND, f"A={ex.public_first!r}")
    transcript.record(SECOND, FIRST, f"B={ex.public_second!r}")
    transcript.record_digest(FIRST, _digest(repr(ex.shared_first)))
    transcript.record_digest(SECOND, _digest(repr(ex.shared_second)))
    return DhRun(transcript, ex)


def replay_dh(
    text: str,
    *,
    secret_first: Optional[int] = None,
    secret_second: Optional[int] = None,
    seed_first: Optional[int] = None,
    seed_second: Optional[int] = None,
) -> bool:
    """Re-run from the recorded public params and compare byte for byte."""
    protocol, params = parse_transcript_params(text)
    if protocol != "dh":
        raise FormatError(f"expected a dh transcript, got {protocol!r}")
    try:
        dh_params = DhParams(parse_ideal(params["P"]), parse_ideal(params["G"]))
    except KeyError:
        raise FormatError("transcript is missing P or G params") from None
    rerun = run_dh(
        dh_params,
        secret_first=secret_first,
        secret_second=secret_second,
        seed_first=seed_first,
        seed_second=seed_second,
    )
    return rerun.transcript.serialize() == text


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
    transcript = Transcript(
        "composite-agreement", [("S", str(f.input_size))]
    )
    try:
        # each party derives the key on its own
        key_first = composite_cipher_keygen(f, g)
        key_second = composite_cipher_keygen(f, g)
    except ParameterError as exc:
        transcript.record_error(str(exc))
        return AgreementRun(transcript, None, None)
    d1 = _digest(key_first.descriptor())
    d2 = _digest(key_second.descriptor())
    transcript.record(FIRST, SECOND, f"fg-digest={d1}")
    transcript.record(SECOND, FIRST, f"fg-digest={d2}")
    transcript.record_digest(FIRST, d1)
    transcript.record_digest(SECOND, d2)
    return AgreementRun(transcript, key_first, key_second)


def replay_composite_agreement(
    text: str, f: CipherPolynomial, g: CipherPolynomial
) -> bool:
    protocol, _ = parse_transcript_params(text)
    if protocol != "composite-agreement":
        raise FormatError(f"expected a composite-agreement transcript, got {protocol!r}")
    return run_composite_agreement(f, g).transcript.serialize() == text

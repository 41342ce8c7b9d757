"""In-memory span tracer wrapped around compalg's public entry points.

Nothing under ``src/`` knows about it: the wrappers are installed from
here, at every place a caller looks the name up. Methods are replaced
on their class; a module-level function is replaced in every compalg
module that holds it, because ``from .rings import embed`` copies the
reference into ``composite`` and a wrapper set only on ``rings`` would
miss those calls.

Spans live in flat arrays (name, parent, start, end, note) while ops
run; an op's root span groups every span it causes. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

#: spans kept in memory per traced run, about 30 bytes each; a run that
#: needs more fails rather than report totals over fewer ops
MAX_SPANS = 2_000_000

ROOT_SPAN = "op"


def _letters_in(args, result) -> int:
    return len(args[0])


def _letters_out(args, result) -> int:
    return len(result)


def _exact(args, result) -> int:
    return int(result[1].is_zero())


# (layer metric, module, attribute path, note); a note turns the call's
# arguments and result into an integer stored with the span
LAYERS = [
    ("rings.elem_arith", "compalg.rings", "RingElement.__add__", None),
    ("rings.elem_arith", "compalg.rings", "RingElement.__sub__", None),
    ("rings.elem_arith", "compalg.rings", "RingElement.__mul__", None),
    ("rings.elem_arith", "compalg.rings", "RingElement.__neg__", None),
    ("rings.inverse", "compalg.rings", "RingElement.inverse", None),
    ("rings.embed", "compalg.rings", "embed", None),
    ("poly.construct", "compalg.poly", "Polynomial.__init__", None),
    ("poly.mul", "compalg.poly", "Polynomial.__mul__", None),
    ("poly.divmod", "compalg.poly", "Polynomial.__divmod__", _exact),
    ("poly.is_irreducible", "compalg.poly", "Polynomial.is_irreducible", None),
    ("poly.factor", "compalg.poly", "Polynomial.factor", None),
    ("composite.element_init", "compalg.composite", "CompositeElement.__init__", None),
    ("composite.is_irreducible", "compalg.composite", "CompositeElement.is_irreducible", None),
    ("composite.oracle", "compalg.composite", "has_nontrivial_factorization", None),
    ("composite.atomize", "compalg.composite", "atomize", None),
    ("composite.divisor_chain", "compalg.composite", "divisor_chain", None),
    # the exhaustive divisor search behind the four entry points above;
    # spanned only to compute the two waste ratios
    ("composite.search", "compalg.composite", "_find_factorization", None),
    ("monoid_domain.contains", "compalg.monoid_domain", "NumericalMonoid.contains", None),
    ("monoid_domain.build", "compalg.monoid_domain", "build_irreducible", None),
    ("monoid_domain.search", "compalg.monoid_domain", "is_irreducible_by_search", None),
    ("arith.is_prime", "compalg.arith", "is_prime", None),
    ("arith.is_primitive_root", "compalg.arith", "is_primitive_root", None),
    ("ciphers.rsa_ideal.keygen", "compalg.ciphers.rsa_ideal", "rsa_keygen", None),
    ("ciphers.rsa_ideal.encrypt", "compalg.ciphers.rsa_ideal", "rsa_encrypt", _letters_in),
    ("ciphers.rsa_ideal.decrypt", "compalg.ciphers.rsa_ideal", "rsa_decrypt", _letters_out),
    ("ciphers.fractional.keygen", "compalg.ciphers.fractional", "FractionalKey.__init__", None),
    ("ciphers.fractional.encrypt", "compalg.ciphers.fractional", "frac_encrypt", _letters_in),
    ("ciphers.fractional.decrypt", "compalg.ciphers.fractional", "frac_decrypt", _letters_out),
    ("ciphers.zone.keygen", "compalg.ciphers.zone", "ZoneKey.__init__", None),
    ("ciphers.zone.encrypt", "compalg.ciphers.zone", "zone_encrypt", _letters_in),
    ("ciphers.zone.decrypt", "compalg.ciphers.zone", "zone_decrypt", _letters_out),
    ("ciphers.composite_cipher.keygen", "compalg.ciphers.composite_cipher",
     "composite_cipher_keygen", None),
    ("ciphers.composite_cipher.encrypt", "compalg.ciphers.composite_cipher",
     "composite_cipher_encrypt", _letters_in),
    ("ciphers.composite_cipher.decrypt", "compalg.ciphers.composite_cipher",
     "composite_cipher_decrypt", _letters_out),
    ("ciphers.monoid_cipher.keygen", "compalg.ciphers.monoid_cipher", "monoid_keygen", None),
    ("ciphers.monoid_cipher.encrypt", "compalg.ciphers.monoid_cipher", "monoid_encrypt",
     _letters_in),
    ("ciphers.monoid_cipher.decrypt", "compalg.ciphers.monoid_cipher", "monoid_decrypt",
     _letters_out),
    ("ciphers.monoid_cipher.dlog", "compalg.ciphers.monoid_cipher", "discrete_log_bsgs", None),
    ("ciphers.diffie_hellman.exchange", "compalg.ciphers.diffie_hellman", "dh_exchange", None),
    ("keyexchange.run", "compalg.keyexchange", "run_dh", None),
    ("keyexchange.run", "compalg.keyexchange", "run_composite_agreement", None),
] + [
    ("textio.parse", "compalg.textio", name, None)
    for name in ("parse_ring", "parse_scalar", "parse_element", "parse_poly", "parse_tower",
                 "parse_composite", "parse_monoid", "parse_monoid_element", "parse_ideal")
] + [
    ("textio.format", "compalg.textio", name, None)
    for name in ("ring_name", "short_ring_name", "poly_body_text", "poly_text", "tower_text",
                 "composite_text", "monoid_text", "monoid_element_text", "ideal_text")
]

CIPHERS = ("rsa_ideal", "fractional", "zone", "composite_cipher", "monoid_cipher")

#: layers reported as a calls/self_s pair
COUNTED = (
    "rings.elem_arith", "rings.inverse", "rings.embed",
    "poly.construct", "poly.mul", "poly.divmod", "poly.is_irreducible", "poly.factor",
    "composite.element_init", "composite.is_irreducible", "composite.oracle",
    "composite.atomize", "composite.divisor_chain",
    "monoid_domain.contains", "monoid_domain.build", "monoid_domain.search",
    "arith.is_prime", "arith.is_primitive_root",
    "ciphers.monoid_cipher.dlog", "ciphers.diffie_hellman.exchange",
    "keyexchange.run", "textio.parse", "textio.format",
)


class Tracer:
    """Span recorder; ``enabled`` is on only while an op runs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.note = array("i")
        self._stack = [-1]
        self.enabled = False
        self.full = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.name)

    def open(self, nid: int) -> int:
        idx = len(self.name)
        if idx >= MAX_SPANS:
            self.full = True
            self.enabled = False
            return -1
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.note.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, metric: str, fn, note=None):
        nid = self.name_id(metric)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            if idx < 0:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                tracer.note[idx] = note(args, result)
            return result

        return traced

    def run_op(self, fn):
        """Run one op under a root span; returns the op's result."""
        self.enabled = True
        idx = self.open(self.name_id(ROOT_SPAN))
        try:
            return fn()
        finally:
            if idx >= 0:
                self.close(idx)
            self.enabled = False

    def install(self):
        """Wrap every listed entry point of the compalg modules now loaded."""
        loaded = {n: m for n, m in sys.modules.items() if n == "compalg" or n.startswith("compalg.")}
        for metric, modname, path, note in LAYERS:
            mod = loaded.get(modname)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, attr, self.wrap(metric, getattr(owner, attr), note))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(metric, orig, note)
            for other in loaded.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapper)

    def write(self, path: Path):
        """Spans as five little-endian arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = ("\t".join(self.names) + "\n").encode()
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            fh.write(len(self).to_bytes(8, "little"))
            for arr in (self.name, self.parent, self.start, self.end, self.note):
                arr.tofile(fh)

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and ratios from the recorded spans."""
        n = len(self)
        ids = self._ids
        names, parents, start, end = self.name, self.parent, self.start, self.end
        child = array("q", [0]) * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += end[i] - start[i]

        search = ids.get("composite.search", -1)
        msearch = ids.get("monoid_domain.search", -1)
        divmod_id = ids.get("poly.divmod", -1)
        arith_id = ids.get("rings.elem_arith", -1)
        in_search = bytearray(n)
        in_msearch = bytearray(n)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        notes = [0] * len(self.names)
        searches = search_divmods = exact_divmods = msearch_arith = 0
        for i in range(n):
            nid = names[i]
            p = parents[i]
            if p >= 0:
                in_search[i] = in_search[p] or names[p] == search
                in_msearch[i] = in_msearch[p] or names[p] == msearch
            dur = end[i] - start[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            incl_ns[nid] += dur
            notes[nid] += self.note[i]
            if nid == search:
                searches += 1
            elif nid == divmod_id and in_search[i]:
                search_divmods += 1
                exact_divmods += self.note[i]
            elif nid == arith_id and in_msearch[i]:
                msearch_arith += 1

        def get(table, metric):
            return table[ids[metric]] if metric in ids else 0

        out = {}
        for metric in COUNTED:
            out[f"{metric}.calls"] = (get(calls, metric), "count")
            out[f"{metric}.self_s"] = (get(self_ns, metric) / 1e9, "s")
        out["composite.divmods_per_search"] = (
            search_divmods / searches if searches else 0.0, "count")
        out["composite.exact_div_ratio"] = (
            exact_divmods / search_divmods if search_divmods else 0.0, "fraction")
        out["monoid_domain.search.ring_arith_calls"] = (msearch_arith, "count")
        for c in CIPHERS:
            enc = get(incl_ns, f"ciphers.{c}.encrypt") / 1e9
            dec = get(incl_ns, f"ciphers.{c}.decrypt") / 1e9
            letters = get(notes, f"ciphers.{c}.encrypt") + get(notes, f"ciphers.{c}.decrypt")
            out[f"ciphers.{c}.keygen_s"] = (get(incl_ns, f"ciphers.{c}.keygen") / 1e9, "s")
            out[f"ciphers.{c}.encrypt_s"] = (enc, "s")
            out[f"ciphers.{c}.decrypt_s"] = (dec, "s")
            out[f"ciphers.{c}.letters"] = (letters, "count")
            out[f"ciphers.{c}.letters_per_s"] = (letters / (enc + dec) if enc + dec else 0.0, "1/s")
        return out

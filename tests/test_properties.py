"""Property-based tests of the codec invariants.

Round trip: decoding an encoding gives back the structure rounded to the
scheme precision. Robustness: decoding any id list either returns a
structure or raises DecodeError, and the table decoder agrees with the
per-token reference decoder on it (the same structure, or the same
error kind, position and message). Formatting: `fmt_fixed` is exact to
half a unit in the last place, a fixed point, and equal to quantizing
every value with Decimal, fast path or not. Rounding: a structure and
its `round_coords` write and tokenize to the same text, and the text a
rounded structure keeps is its own at its precision only. Pockets: renumbering
residues is idempotent. Molecule keys: an atom permutation plus a rigid
motion keeps the key.
"""

import dataclasses
import decimal
import functools
import re
from decimal import Decimal

import numpy as np
import pytest
from conftest import random_molecule
from reference_codec import reference_decode
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chemlm import rounding
from chemlm.elements import get_element
from chemlm.errors import DecodeError, InvalidLatticeError
from chemlm.formats import write_structure
from chemlm.geometry import pairwise_distances
from chemlm.metrics.bonds import BOND_SLACK, CLASH_FLOOR
from chemlm.metrics.keys import molecule_key
from chemlm.rounding import coords_text, fmt_fixed, round_coords
from chemlm.structures import (
    CANONICAL_RESIDUES, Atom, Crystal, Lattice, Molecule, Pocket, PocketAtom, Site,
)
from chemlm.synth import synth_molecule, synth_perovskite, synth_pocket
from chemlm.tokenize import (
    ATOM_COORD, CHAR, Scheme, TokenSequence, build_vocab, content_tokens, decode, encode,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

KINDS = ("molecule", "perovskite", "pocket")
SCHEMES = (ATOM_COORD, CHAR)


def synth(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "molecule":
        return synth_molecule(rng)
    if kind == "perovskite":
        return synth_perovskite(rng)
    return synth_pocket(rng, n_residues=int(rng.integers(1, 5)))


@functools.cache
def bundle(kind: str, scheme_kind: str):
    """A three-structure corpus at precision 2 and its vocabulary."""
    corpus = [round_coords(synth(kind, seed), 2) for seed in range(3)]
    vocab = build_vocab(corpus, Scheme(scheme_kind, 2))
    return corpus, vocab


@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    scheme_kind=st.sampled_from(SCHEMES),
    precision=st.integers(1, 3),
)
def test_decode_inverts_encode(kind, seed, scheme_kind, precision):
    s = synth(kind, seed)
    vocab = build_vocab([s], Scheme(scheme_kind, precision))
    assert decode(encode(s, vocab), vocab) == round_coords(s, precision)


def decode_outcome(decoder, ids, vocab):
    """(kind, repr) of the decoded structure, a repr that shows every float
    to the bit, or the DecodeError's (kind, position, message)."""
    try:
        s = decoder(TokenSequence(tuple(ids)), vocab)
    except DecodeError as exc:
        return exc.kind, exc.position, str(exc)
    return s.kind, repr(s)


def assert_decodes_or_raises_decode_error(ids, vocab):
    outcome = decode_outcome(decode, ids, vocab)
    assert outcome == decode_outcome(reference_decode, ids, vocab)
    if len(outcome) == 2:
        assert outcome[0] == vocab.structure_kind


@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    scheme_kind=st.sampled_from(SCHEMES),
    data=st.data(),
)
def test_decoding_any_ids_raises_only_decode_error(kind, scheme_kind, data):
    _, vocab = bundle(kind, scheme_kind)
    ids = data.draw(st.lists(st.integers(-2, len(vocab) + 2), max_size=80))
    if data.draw(st.booleans()):
        ids = [vocab.bos_id] + ids
    assert_decodes_or_raises_decode_error(ids, vocab)


@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    scheme_kind=st.sampled_from(SCHEMES),
    data=st.data(),
)
def test_decoding_an_edited_encoding_raises_only_decode_error(kind, scheme_kind, data):
    # random id lists rarely get past the first few tokens; edits of a real
    # encoding reach the per-kind grammar and the structure constructors
    corpus, vocab = bundle(kind, scheme_kind)
    ids = list(encode(corpus[data.draw(st.integers(0, len(corpus) - 1))], vocab).ids)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(1, len(ids) - 1))
        new_id = data.draw(st.integers(-2, len(vocab) + 2))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "replace":
            ids[pos] = new_id
        elif edit == "insert":
            ids.insert(pos, new_id)
        elif len(ids) > 2:
            del ids[pos]
    assert_decodes_or_raises_decode_error(ids, vocab)


@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    scheme_kind=st.sampled_from(SCHEMES),
    precision=st.integers(1, 3),
)
def test_table_decode_matches_reference_on_encodings(kind, seed, scheme_kind, precision):
    s = synth(kind, seed)
    vocab = build_vocab([s], Scheme(scheme_kind, precision))
    ids = encode(s, vocab).ids
    assert decode_outcome(decode, ids, vocab) == decode_outcome(reference_decode, ids, vocab)


MUTATIONS = ("special", "out_of_range", "swap_head", "swap", "truncate", "replace", "retoken")


@SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    scheme_kind=st.sampled_from(SCHEMES),
    data=st.data(),
)
def test_table_decode_matches_reference_on_mutations(kind, scheme_kind, data):
    corpus, vocab = bundle(kind, scheme_kind)
    ids = list(encode(corpus[data.draw(st.integers(0, len(corpus) - 1))], vocab).ids)
    # a crystal's atom groups follow its six lattice tokens
    first_group = 7 if kind == "perovskite" else 1
    for _ in range(data.draw(st.integers(1, 2))):
        mutation = data.draw(st.sampled_from(MUTATIONS))
        # position 0 holds BOS; `missing_bos` needs no more examples
        pos = data.draw(st.integers(1, max(1, len(ids))))
        if mutation == "special":
            ids.insert(pos, data.draw(st.sampled_from([vocab.bos_id, vocab.eos_id, vocab.pad_id])))
        elif mutation == "out_of_range":
            ids.insert(pos, data.draw(st.sampled_from([-3, -1, len(vocab), len(vocab) + 2])))
        elif mutation == "swap_head" and len(ids) >= first_group + 5:
            # an atom token trades places with one of its own coordinates
            head = first_group + 4 * data.draw(st.integers(0, (len(ids) - first_group - 5) // 4))
            k = head + data.draw(st.integers(1, 3))
            ids[head], ids[k] = ids[k], ids[head]
        elif mutation == "swap" and len(ids) >= 3:
            a, b = data.draw(st.lists(st.integers(1, len(ids) - 1), min_size=2, max_size=2))
            ids[a], ids[b] = ids[b], ids[a]
        elif mutation == "truncate":
            # cuts a crystal's lattice short when pos < 7
            ids = ids[:pos]
        elif mutation == "replace" and pos < len(ids):
            ids[pos] = data.draw(st.integers(-2, len(vocab) + 2))
        elif mutation == "retoken" and scheme_kind == ATOM_COORD and pos < len(ids):
            # an atom token where a coordinate or lattice token belongs, or
            # a coordinate token of any value, a lattice's among them
            table = data.draw(st.sampled_from([vocab.atom_values, vocab.coord_values]))
            ids[pos] = data.draw(st.sampled_from([i for i, v in enumerate(table) if v is not None]))
    assert_decodes_or_raises_decode_error(ids, vocab)


@SETTINGS
@given(
    x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    precision=st.integers(1, 3),
)
def test_fmt_fixed_is_exact_and_a_fixed_point(x, precision):
    text = fmt_fixed(x, precision)
    whole, _, decimals = text.partition(".")
    assert len(decimals) == precision and whole.lstrip("-").isdigit()
    assert abs(Decimal(text) - Decimal(repr(x))) <= Decimal(1).scaleb(-precision) / 2
    assert fmt_fixed(float(text), precision) == text


def reference_fmt_fixed(x, precision):
    """fmt_fixed without its fast path: every value is quantized with Decimal."""
    context = decimal.Context(prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_UP)
    d = Decimal(repr(float(x))).quantize(Decimal(1).scaleb(-precision), context=context)
    if d == 0:
        d = d.copy_abs()
    return format(d, "f")


@st.composite
def short_literals(draw):
    """(float, precision) where the float's repr has at most `precision` decimals."""
    precision = draw(st.integers(0, 4))
    places = draw(st.integers(0, precision))
    digits = draw(st.integers(-(10**9), 10**9))
    return float(Decimal(digits).scaleb(-places)), precision


@SETTINGS
@given(case=short_literals())
def test_fmt_fixed_fast_path_matches_decimal(case):
    x, precision = case
    assert fmt_fixed(x, precision) == reference_fmt_fixed(x, precision)


@SETTINGS
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    precision=st.integers(0, 4),
)
@example(x=-0.0, precision=2)
@example(x=1e16, precision=2)
@example(x=1e-05, precision=3)
@example(x=0.996, precision=2)
@example(x=1.005, precision=2)
@example(x=2.5, precision=0)
def test_fmt_fixed_matches_decimal(x, precision):
    assert fmt_fixed(x, precision) == reference_fmt_fixed(x, precision)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def structures(draw):
    """A structure of any kind whose coordinates (and cell) are any finite
    floats, in a cell that may round to an invalid lattice."""
    kind = draw(st.sampled_from(("molecule", "crystal", "pocket")))
    points = draw(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=1, max_size=4))
    if kind == "molecule":
        return Molecule(tuple(Atom(draw(st.sampled_from(["C", "H", "Cl"])), *p) for p in points))
    if kind == "pocket":
        return Pocket(tuple(
            PocketAtom(draw(st.sampled_from(sorted(CANONICAL_RESIDUES))),
                       draw(st.sampled_from(["C", "N", "O", "S"])), k, *p)
            for k, p in enumerate(points, start=1)
        ))
    lengths = [draw(st.floats(1e-4, 1e6)) for _ in range(3)]
    alpha = draw(st.floats(0.0, 180.0, exclude_min=True, exclude_max=True))
    beta, gamma = (draw(st.floats(80.0, 100.0)) for _ in range(2))
    try:
        lattice = Lattice(*lengths, alpha, beta, gamma)
    except InvalidLatticeError:
        assume(False)
    fractions = st.floats(-2.0, 2.0)
    sites = [Site(draw(st.sampled_from(["Na", "Cl", "Po"])), *draw(st.tuples(*[fractions] * 3)))
             for _ in points]
    return Crystal(lattice, tuple(sites))


CUBE = Lattice(4.0, 4.0, 4.0, 90.0, 90.0, 90.0)


@SETTINGS
@given(s=structures(), precision=st.integers(1, 3))
@example(s=Crystal(CUBE, (Site("Po", 0.996, 0.9995, -0.0), Site("Po", 1.005, 0.5, 0.0))),
         precision=2)
@example(s=Crystal(CUBE, (Site("Po", 0.996, 0.9995, -0.0),)), precision=3)
@example(s=Crystal(Lattice(4.0, 4.0, 4.0, 179.996, 90.0, 90.0), (Site("Po", 0.0, 0.0, 0.0),)),
         precision=2)
@example(s=Molecule((Atom("C", 1.005, -0.0, 1e16),)), precision=2)
@example(s=Pocket((PocketAtom("GLY", "C", 1, -0.0, 1.005, 1e16),)), precision=1)
def test_formatting_a_rounded_structure_gives_the_same_text(s, precision):
    # the writers and the tokenizer format what they are given, so the
    # structure prepare rounds once must read the same as the raw one
    schemes = [Scheme(kind, precision) for kind in SCHEMES]
    try:
        rounded = round_coords(s, precision)
    except InvalidLatticeError as exc:
        # a cell that rounds to no lattice raises from every formatter alike
        for fmt in [lambda: write_structure(s, precision)] + [
            functools.partial(content_tokens, s, scheme) for scheme in schemes
        ]:
            with pytest.raises(InvalidLatticeError, match=re.escape(str(exc))):
                fmt()
        return
    assert write_structure(s, precision) == write_structure(rounded, precision)
    for scheme in schemes:
        assert content_tokens(s, scheme) == content_tokens(rounded, scheme)


@SETTINGS
@given(s=structures(), precision=st.integers(1, 3))
@example(s=Crystal(CUBE, (Site("Po", 0.996, 0.9995, -0.0), Site("Po", 1.005, 0.5, 0.0))),
         precision=2)
@example(s=Crystal(CUBE, (Site("Po", 0.996, 0.9995, -0.0),)), precision=3)
@example(s=Crystal(Lattice(4.0, 4.0, 4.0, 179.996, 90.0, 90.0), (Site("Po", 0.0, 0.0, 0.0),)),
         precision=3)
@example(s=Molecule((Atom("C", 1.005, -0.0, 1e16),)), precision=2)
@example(s=Pocket((PocketAtom("GLY", "C", 1, -0.0, 1.005, 1e16),)), precision=1)
def test_a_rounded_structure_keeps_the_text_of_its_values(s, precision):
    # round_coords keeps the text it built on the structure it returns;
    # that text must be what formatting the rounded values gives, at its
    # own precision only, and no copy or replacement may inherit it
    try:
        rounded = round_coords(s, precision)
    except InvalidLatticeError:
        return
    copies = [rounded.with_coords(rounded.coords()), dataclasses.replace(rounded)]
    assert rounding._TEXT in vars(rounded)
    for copy in copies:
        assert copy == rounded and rounding._TEXT not in vars(copy)
    assert coords_text(rounded, precision) == coords_text(copies[0], precision)
    for other in {1, 2, 3} - {precision}:
        try:
            expected = coords_text(copies[0], other)
        except InvalidLatticeError as exc:
            with pytest.raises(InvalidLatticeError, match=re.escape(str(exc))):
                coords_text(rounded, other)
            continue
        assert coords_text(rounded, other) == expected


@st.composite
def pockets(draw):
    """A pocket whose residues carry arbitrary distinct original indices."""
    n = draw(st.integers(1, 6))
    indices = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    atoms = []
    for k, index in enumerate(indices):
        code = draw(st.sampled_from(sorted(CANONICAL_RESIDUES)))
        for j in range(draw(st.integers(1, 3))):
            element = draw(st.sampled_from(["C", "N", "O", "S"]))
            atoms.append(PocketAtom(code, element, index, 4.0 * k, 1.0 * j, 0.0))
    return Pocket(tuple(atoms))


@SETTINGS
@given(p=pockets())
def test_pocket_renumbering_is_idempotent(p):
    assert Pocket(p.atoms) == p
    indices = [a.residue_index for a in p.atoms]
    assert indices[0] == 1
    assert all(b - a in (0, 1) for a, b in zip(indices, indices[1:]))


#: A quarter turn about each axis; exact in floating point.
QUARTER_TURNS = {
    "x": lambda x, y, z: (x, -z, y),
    "y": lambda x, y, z: (z, y, -x),
    "z": lambda x, y, z: (-y, x, z),
}


def near_a_cutoff(molecule, tol=1e-6) -> bool:
    """Whether some pair distance lies within tol of a clash or bond cutoff."""
    d = pairwise_distances(molecule.coords())
    radii = np.array([get_element(s).covalent_radius for s in molecule.symbols()])
    i, j = np.triu_indices(len(molecule), k=1)
    cutoffs = radii[i] + radii[j] + BOND_SLACK
    return bool(
        np.any(np.abs(d[i, j] - CLASH_FLOOR) <= tol) or np.any(np.abs(d[i, j] - cutoffs) <= tol)
    )


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    synthetic=st.booleans(),
    axis=st.sampled_from(sorted(QUARTER_TURNS)),
    turns=st.integers(0, 3),
    shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
)
def test_molecule_key_survives_permutation_and_rigid_motion(seed, synthetic, axis, turns, shift):
    rng = np.random.default_rng(seed)
    m = synth_molecule(rng) if synthetic else random_molecule(rng)
    # float rounding must not be able to flip a bond or a clash
    assume(not near_a_cutoff(m))
    moved = []
    for k in rng.permutation(len(m)):
        a = m.atoms[k]
        p = (a.x, a.y, a.z)
        for _ in range(turns):
            p = QUARTER_TURNS[axis](*p)
        moved.append(Atom(a.symbol, *(c + t for c, t in zip(p, shift))))
    assert molecule_key(Molecule(moved)) == molecule_key(m)

"""Committed digests of every answer the oracles give on fixed graphs.

A change that must not move an answer proves it by leaving these
digests as they are. Values are hashed apart from toggled sets and
partitions: a change may reroute a flow or pick another min-cut side
without changing any value, and the split says which of the two moved.
A change that moves a digest names it, with the reason and the number
of answers that moved.
"""

import hashlib
import itertools

import pytest

from flowsentry.errors import QueryError
from flowsentry.generators import gen_matrix, gen_random
from flowsentry.kfault import (
    build_kfault_oracle,
    mincut_partition_k,
    mincut_size_k,
    reachable_under_failures,
)
from flowsentry.oracles import SensitivityOracle


def _error(query, *args) -> str:
    try:
        query(*args)
    except QueryError as exc:
        return str(exc)
    raise AssertionError(f"{query.__name__}{args} raised no QueryError")


class _Sets:
    """Encodes a frozenset as its sorted elements, once per distinct set."""

    def __init__(self):
        self.seen: dict[frozenset, str] = {}

    def __call__(self, s: frozenset) -> str:
        text = self.seen.get(s)
        if text is None:
            text = self.seen[s] = ",".join(map(str, sorted(s)))
        return text


def sensitivity_digests(o: SensitivityOracle) -> dict[str, str]:
    """sha256 of the values, and of the toggled sets, of MF, MFD, MFX, MF2
    and MC2, each single kind on every EdgeId and each pair kind on every
    ordered pair of distinct EdgeIds, in ascending order; the values
    digest also takes each kind's QueryError text for the ids -1 and m."""
    values, sets, encode, m = hashlib.sha256(), hashlib.sha256(), _Sets(), o.m
    single, pairs = o.report_flow_diff_single, (
        o.query_edge_flow, o.report_flow_diff_dual, o.mincut_size_dual)
    for bad in (-1, m):
        texts = [_error(single, bad)]
        for query in pairs:
            texts += [_error(query, bad, 0), _error(query, 0, bad)]
        values.update("\n".join(texts).encode())
    for e in range(m):
        a = single(e)  # MF reads the value, MFD the value and the set
        row, toggled = [a.new_value], [encode(a.toggled)]
        for x in range(m):
            if x != e:
                dual = o.report_flow_diff_dual(e, x)
                row += (o.query_edge_flow(e, x), dual.new_value,
                        o.mincut_size_dual(e, x))
                toggled.append(encode(dual.toggled))
        values.update(repr(row).encode())
        sets.update("|".join(toggled).encode())
    return {"values": values.hexdigest(), "toggled": sets.hexdigest()}


def kfault_digests(o) -> dict[str, str]:
    """sha256 of the MCK and RQ values, with the QueryError texts for
    the ids -1 and m and for k+1 failures, and of the MCKP source sides,
    on every failure set of at most k edges, by size, then in
    lexicographic order."""
    values, parts, encode, m = hashlib.sha256(), hashlib.sha256(), _Sets(), \
        o.net.m
    texts = [_error(query, o, f)
             for query in (mincut_size_k, mincut_partition_k,
                           reachable_under_failures)
             for f in ((-1,), (m,), tuple(range(o.k + 1)))]
    values.update("\n".join(texts).encode())
    for size in range(o.k + 1):
        for f in itertools.combinations(range(m), size):
            values.update(b"%d %d," % (mincut_size_k(o, f),
                                        reachable_under_failures(o, f)))
            parts.update(encode(mincut_partition_k(o, f).source_side)
                         .encode() + b"|")
    return {"values": values.hexdigest(), "partitions": parts.hexdigest()}


@pytest.mark.parametrize("make, want", [
    (lambda: gen_random(60, 1), {
        "values":
            "f56c96b51447fa1450791985d784dedbeb2d96aeaaab386f52c0e64740a582ab",
        "toggled":
            "1999f38f8466351cb54715330ab80d5cca6cc1c5c2487452462b45d235544270",
    }),
    (lambda: gen_matrix(6, 8, seed=1), {
        "values":
            "5a78d81a1d87c5bf3728a8fdbf629de5c0f4b67930f75aaa6c6750fb213cbdc2",
        "toggled":
            "8c8bcc3a31c27bd18c48c4d178c8da1b1b17d63e3cf398cf99349b87c0b16c48",
    }),
], ids=["random60", "matrix6x8"])
def test_sensitivity_answers(make, want):
    assert sensitivity_digests(SensitivityOracle(make())) == want


def test_kfault_answers():
    assert kfault_digests(build_kfault_oracle(gen_random(16, 1), 3)) == {
        "values":
            "808256a1bcb0a503e459d12c5da8abfba1d19a2d9e859442e48e1c83796e23a4",
        "partitions":
            "b414785f8af54b1a57c2396acd94092720da3bae555001c44f05e8f363f37cd6",
    }

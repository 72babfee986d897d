"""Fuzzed graph text and query lines: only ValueError subclasses escape,
which the CLI reports as one error line with exit 2."""

from hypothesis import given, settings, strategies as st

from flowsentry.cli import _QueryContext, answer_query
from flowsentry.generators import gen_bottleneck
from flowsentry.graph import FlowNetwork, parse_network
from flowsentry.kfault import build_kfault_oracle
from flowsentry.oracles import SensitivityOracle

TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=8).map(str),
    st.integers().map(str),
    st.sampled_from(["", "x", "1.5", "0x3", "-", "#", "p", "e", "١"]),
)
LINES = st.lists(
    st.tuples(st.sampled_from(["p", "e", "#", "c", ""]),
              st.lists(TOKENS, max_size=6)).map(
        lambda kv: " ".join([kv[0], *kv[1]])),
    max_size=8,
).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=120), LINES))
def test_parse_network_raises_only_value_errors(text):
    # never build an oracle here: a fuzzed header's n can be huge
    try:
        net = parse_network(text)
    except ValueError:
        return
    assert isinstance(net, FlowNetwork)


# bottleneck(2): 3 vertices, EdgeIds 1..5 in query text, lam 2
NET = gen_bottleneck(2)
CTX = _QueryContext(NET, 2, (SensitivityOracle(NET),
                             build_kfault_oracle(NET, 2)))
KINDS = ["MF", "MFX", "MFD", "MF2", "MC2", "MCK", "MCKP", "RQ", "mf", "Q"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KINDS), st.lists(TOKENS, max_size=5))
def test_answer_query_raises_only_value_errors(kind, args):
    try:
        answer_query(" ".join([kind, *args]), 1, CTX)
    except ValueError:
        pass

"""The fast text-operator path against the general machine.

``_run_text_ops_fast`` matches one whole operator (operands included) per
regex match; ``_run_text_ops`` lexes every token and is the reference. On
every seeded stream below the fast path either returns None (the stream
leaves its grammar) or exactly the reference's chunk list. Chunks are
compared by ``repr``, so NaN, inf and -0.0 coordinates count too.

Streams are written in the fast path's grammar, with the edges that grammar
has to get right: all six whitespace bytes, every number spelling the
token regex accepts (including ones ``float`` rejects), operands glued to
their operator, operators outside ``BT``/``ET``, ``Tm`` with one bad
operand, and operator names one byte away from a real one.
"""

from __future__ import annotations

import random

from pdf_extractor_ray.kernels.pdf_extract import (
    _run_text_ops,
    _run_text_ops_fast,
    _text_chunks,
)

SEED = 12
N_STREAMS = 3000

_WS = [b" ", b"\x00", b"\t", b"\r", b"\n", b"\f", b"\r\n", b"  "]
_GOOD_NUMS = [b"0", b"12", b"-14", b"+3", b"-0", b".5", b"5.", b"-.25", b"1e2",
              b"1E-2", b"1e999", b"-1e999", b"700.125"]
_BAD_NUMS = [b"1.2.3", b"-", b".", b"+-1", b"1e", b"1e2e"]
_TEXTS = [b"", b"a", b"Hello world", b"x  y", b"'quoted'", b"[b]", b"\xe9t\xe9"]
# glued to a whole statement, each turns its operator into another name
_NEAR_MISS = [b"x", b"ET", b"BT", b"1", b"*", b"j", b"'", b"X"]


def _num(rng: random.Random, bad: float) -> bytes:
    if rng.random() < bad:
        return rng.choice(_BAD_NUMS)
    if rng.random() < 0.5:
        return str(rng.randint(-800, 800)).encode()
    return rng.choice(_GOOD_NUMS)


def _glue(rng: random.Random) -> bytes:
    """Separator where the next token is self-delimiting: often nothing."""
    return b"" if rng.random() < 0.4 else rng.choice(_WS)


def _str(rng: random.Random) -> bytes:
    return b"(" + rng.choice(_TEXTS) + b")"


def _statement(rng: random.Random, bad: float) -> bytes:
    ws = lambda: rng.choice(_WS)  # noqa: E731 - between two numbers
    r = rng.random()
    if r < 0.10:
        return b"BT"
    if r < 0.16:
        return b"ET"
    if r < 0.24:
        return b"/F" + str(rng.randint(0, 9)).encode() + ws() + _num(rng, bad) + _glue(rng) + b"Tf"
    if r < 0.42:
        return _num(rng, bad) + ws() + _num(rng, bad) + _glue(rng) + rng.choice([b"Td", b"TD"])
    if r < 0.58:
        return _str(rng) + _glue(rng) + rng.choice([b"Tj", b"Tj", b"'"])
    if r < 0.70:
        items = b""
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.6:
                items += _glue(rng) + _str(rng)
            else:
                items += rng.choice(_WS) + _num(rng, bad)
        return b"[" + items + _glue(rng) + b"]" + _glue(rng) + b"TJ"
    if r < 0.76:
        return _num(rng, bad) + _glue(rng) + b"TL"
    if r < 0.86:
        ops = [_num(rng, 0.0) for _ in range(6)]
        if rng.random() < 6 * bad:  # one bad operand: the general machine drops it
            ops[rng.randrange(6)] = rng.choice(_BAD_NUMS)
        return b" ".join(ops) + _glue(rng) + b"Tm"
    return b"T*"


def _stream(rng: random.Random, bad: float, near_miss: float) -> bytes:
    parts = []
    # about one stream in four starts with statements outside BT
    if rng.random() < 0.75:
        parts.append(b"BT")
    for _ in range(rng.randint(0, 30)):
        r = rng.random()
        if r < near_miss:  # Tjx, TjET, BTX, ETBT, Td1, T**, ...
            parts.append(_statement(rng, 0.0) + rng.choice(_NEAR_MISS))
        elif r < 2 * near_miss:  # j, T, and operators an operand short
            parts.append(rng.choice([
                b"(a) j", b"(a)T", b"12Td", b"1 2 3 4 5Tm", b"TL", b"/F1 Tf", b"(a)TJ",
            ]))
        else:
            parts.append(_statement(rng, bad))
    out = b""
    for p in parts:
        # an operator needs a delimiter before the next token
        out += p + rng.choice(_WS)
    return out


def _streams() -> list[tuple[str, bytes]]:
    rng = random.Random(SEED)
    out = []
    for i in range(N_STREAMS):
        kind = ("clean", "bad_numbers", "near_miss")[i % 3]
        bad = 0.04 if kind == "bad_numbers" else 0.0
        near = 0.03 if kind == "near_miss" else 0.0
        out.append((kind, _stream(rng, bad, near)))
    return out


def test_streams_reach_the_grammar_edges():
    joined = b"".join(s for _, s in _streams())
    for needle in (b"\x00", b"\t", b"\r", b"\n", b"\f", b" ", b"+3", b"-0",
                   b".5", b"5.", b"1e2", b"1e999", b"1.2.3", b")Tj", b"]TJ",
                   b"Tjx", b"TjET", b"BTX", b"ETBT", b" j", b"12Td"):
        assert needle in joined, needle
    assert any(s.lstrip(b"\x00\t\r\n\f ")[:2] != b"BT" for _, s in _streams())


def test_fast_path_equals_general_machine():
    took = {"clean": [0, 0], "bad_numbers": [0, 0], "near_miss": [0, 0]}
    for kind, s in _streams():
        ref = repr(_run_text_ops(s))
        fast = _run_text_ops_fast(s)
        took[kind][0] += fast is not None
        took[kind][1] += 1
        if fast is not None:
            assert repr(fast) == ref, s
        assert repr(_text_chunks(s)) == ref, s
    # the grammar really is the fast path's: every clean stream takes it,
    # and most streams overall do
    assert took["clean"][0] == took["clean"][1]
    fast_total = sum(n for n, _ in took.values())
    assert fast_total > 0.6 * N_STREAMS, took
    # and the edges reach the fallback
    assert took["bad_numbers"][0] < took["bad_numbers"][1]
    assert took["near_miss"][0] < took["near_miss"][1]


def test_fast_path_declines_what_it_cannot_run():
    for s in (
        b"BT (a\\)b) Tj ET",      # escape
        b"BT (a(b)c) Tj ET",      # nested parens
        b"BT <4142> Tj ET",       # hex string
        b"BT % c\n(a) Tj ET",     # comment
        b"BT 1 2 (a) \" ET",      # "
        b"BT 1 0 0 1 0 0 cm ET",  # operator it does not run
        b"BT (a) Tj ) ET",        # stray delimiter
        b"BT 1.2.3 4 Td ET",      # a number float() rejects
        b"BT 1 2 3 4 5 . Tm ET",
        b"BT [(a) 1.2.3] TJ ET",
        b"BT (a) Tjx ET",
        b"BT (a) TjET",           # one operator name, not Tj then ET
        b"BT 12Td ET",            # one number, not 1 and 2
        b"BT\x0b(a) Tj ET",       # \x0b is not PDF whitespace
    ):
        assert _run_text_ops_fast(s) is None, s
    # outside BT/ET statements are ignored unparsed, as the general
    # machine ignores them, so their bad numbers need no fallback
    s = b"1.2.3 4 Td (a) Tj BT 1 2 Td (b) Tj ET (c) Tj"
    assert repr(_run_text_ops_fast(s)) == repr(_run_text_ops(s))

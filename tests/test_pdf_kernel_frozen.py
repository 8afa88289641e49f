"""Frozen PDF kernel bytes.

The pipeline goldens and perfbench's oracle both come from ``oracle.py``,
which calls this same kernel, so they cannot see a byte change in PDF
output. This test can: it hashes ``(text, pages, spans, status, error,
page_tables)`` of ``extract_pdf`` over two seeded inputs into one sha256
whose value was computed once and committed. A kernel rewrite that keeps
every byte keeps the digest; one that changes any byte (including an error
message) does not.

1. ``CORPUS_ROWS`` rows of the corpus generator's PDF classes
   (``pdf_simple``, ``pdf_flate``, ``pdf_big``, ``pdf_corrupt``; both
   cross-reference encodings).
2. ``N_STREAMS`` random content streams, each wrapped in a minimal
   one-page PDF. They mix what the generated corpus never writes: string
   escapes, octal and line continuations; nested parens; hex strings (odd
   length, inner whitespace, unterminated, non-hex); comments ending in CR;
   ``'`` ``"`` ``TD`` ``TL`` ``T*``; nested ``BT``; ``Tm`` with non-number
   operands; stray ``)`` ``>`` ``{`` ``}``.

If the digest changes on purpose (a deliberate output change), recompute it
with ``PYTHONPATH=. python tests/test_pdf_kernel_frozen.py`` and say why in the commit.
"""

from __future__ import annotations

import hashlib
import random
import zlib

from pdf_extractor_ray.corpus import gen_row
from pdf_extractor_ray.kernels.pdf_extract import extract_pdf

CORPUS_SEED = 6
CORPUS_ROWS = 300
STREAM_SEED = 6
N_STREAMS = 2000

FROZEN_SHA256 = "ff0d5db6965e746ac822467e1de47b69fd7c179001f4823b2076d923428e2528"


def _mini_pdf(content: bytes, flate: bool) -> bytes:
    data = zlib.compress(content) if flate else content
    filt = b" /Filter /FlateDecode" if flate else b""
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
        4: b"<< /Length " + str(len(data)).encode() + filt
        + b" >>\nstream\n" + data + b"\nendstream",
    }
    out = bytearray(b"%PDF-1.4\n")
    for n in sorted(objs):
        out += str(n).encode() + b" 0 obj\n" + objs[n] + b"\nendobj\n"
    out += b"trailer\n<< /Size 5 /Root 1 0 R >>\n%%EOF\n"
    return bytes(out)


_WORDS = [b"alpha", b"beta", b"Gamma", b"d", b"", b"x y", b"long text run here"]
_WS = [b" ", b" ", b" ", b"\n", b"\r\n", b"\r", b"\t", b"\x00", b"\f", b"  "]


def _num(rng: random.Random) -> bytes:
    r = rng.random()
    if r < 0.5:
        return str(rng.randint(-800, 800)).encode()
    if r < 0.8:
        return f"{rng.uniform(-500, 500):.{rng.randint(0, 3)}f}".encode()
    return rng.choice(
        [b"-.5", b".25", b"+3", b"1e2", b"-0", b"1.2.3", b"-", b".", b"+-1", b"5."]
    )


def _literal(rng: random.Random) -> bytes:
    r = rng.random()
    w = rng.choice(_WORDS)
    if r < 0.45:
        return b"(" + w + b")"
    if r < 0.55:
        return b"(" + w + rb"\) and \( " + w + b")"
    if r < 0.62:
        return b"(" + rng.choice([rb"\101\60x", rb"\0", rb"\7777", rb"\53\12"]) + w + b")"
    if r < 0.68:
        esc = rng.choice([rb"\n", rb"\r", rb"\t", rb"\b", rb"\f", rb"\\", rb"\q"])
        return b"(" + w + esc + w + b")"
    if r < 0.74:
        cont = rng.choice([b"\\\n", b"\\\r\n", b"\\\r"])
        return b"(" + w + cont + w + b")"
    if r < 0.84:
        return b"(" + w + b"(" + rng.choice(_WORDS) + b")" + w + b")"
    if r < 0.88:
        return b"(a(b(c)d)e)"
    return b"()"


def _hex(rng: random.Random) -> bytes:
    r = rng.random()
    if r < 0.4:
        return b"<" + rng.choice(_WORDS).hex().encode() + b">"
    if r < 0.6:
        return b"<48 65\n6C\t6c 6F>"
    if r < 0.8:
        return b"<" + rng.choice([b"486", b"4", b"", b"41424"]) + b">"
    if r < 0.9:
        return b"<4G>"  # non-hex digit: the document fails as 'error'
    if r < 0.95:
        return b"<41\xe942>"  # non-ascii: the document fails as 'error'
    return b"<4142"  # unterminated: the document fails as 'error'


def _string(rng: random.Random) -> bytes:
    return _hex(rng) if rng.random() < 0.15 else _literal(rng)


def _statement(rng: random.Random) -> list[bytes]:
    r = rng.random()
    if r < 0.08:
        return [b"BT"]
    if r < 0.12:
        return [b"ET"]
    if r < 0.18:
        return [b"/F1", _num(rng), b"Tf"]
    if r < 0.32:
        return [_num(rng), _num(rng), rng.choice([b"Td", b"Td", b"TD"])]
    if r < 0.36:
        return [_num(rng), b"TL"]
    if r < 0.40:
        return [b"T*"]
    if r < 0.46:
        ops = [_num(rng) for _ in range(6)]
        if rng.random() < 0.3:
            ops[rng.randrange(6)] = rng.choice([b"/F1", b"(s)", b"[1]", b"true"])
        return ops + [b"Tm"]
    if r < 0.62:
        return [_string(rng), b"Tj"]
    if r < 0.72:
        items = []
        for _ in range(rng.randint(0, 4)):
            items.append(_string(rng) if rng.random() < 0.6 else _num(rng))
        return [b"[" + b" ".join(items) + b"]", b"TJ"]
    if r < 0.76:
        return [_string(rng), b"'"]
    if r < 0.80:
        return [_num(rng), _num(rng), _string(rng), b'"']
    if r < 0.84:
        return [b"% comment (with paren" + rng.choice([b"\r", b"\n", b"\r\n"])]
    if r < 0.87:
        return [b"<< /Key 1 >>", b"gs"]
    if r < 0.90:
        return [rng.choice([b"q", b"Q", b"1 0 0 1 0 0 cm", b"0 0 10 10 re f"])]
    if r < 0.93:
        return [rng.choice([b")", b">", b"{", b"}", b"{abc", b")Tj", b"}Tj", b"]"])]
    if r < 0.95:
        return [rng.choice([b"[", b"[ [ (in) ] ]", b"[(a)", b"/"])]
    if r < 0.97:
        return [rng.choice([b"1Tj", b"e5", b"12abc", b"\x0bTj", b"/Name(x)Tj"])]
    return [_string(rng)]


def random_stream(rng: random.Random) -> bytes:
    parts: list[bytes] = []
    if rng.random() < 0.85:
        parts += [b"BT", b"/F1", _num(rng), b"Tf", _num(rng), _num(rng), b"Td"]
    for _ in range(rng.randint(0, 30)):
        parts += _statement(rng)
    if rng.random() < 0.8:
        parts.append(b"ET")
    if rng.random() < 0.02:
        parts.append(rng.choice([b"(unterminated", b"(open (nested", b"%"]))
    out = bytearray()
    for p in parts:
        out += p + rng.choice(_WS)
    return bytes(out)


def _corpus_pdfs() -> list[bytes]:
    pdfs: list[bytes] = []
    i = 0
    while len(pdfs) < CORPUS_ROWS:
        payload = gen_row(i, CORPUS_SEED)["html"]
        if payload.startswith(b"%PDF"):
            pdfs.append(payload)
        i += 1
    return pdfs


def _streams() -> list[tuple[bytes, bool]]:
    """(content stream, flate) pairs the digest hashes."""
    rng = random.Random(STREAM_SEED)
    return [(random_stream(rng), rng.random() < 0.3) for _ in range(N_STREAMS)]


def _stream_pdfs() -> list[bytes]:
    return [_mini_pdf(s, flate) for s, flate in _streams()]


def _digest(payloads: list[bytes]) -> tuple[str, dict[str, int]]:
    """sha256 over every result, plus a census of statuses and the page
    count of the longest ok document."""
    h = hashlib.sha256()
    census = {"max_pages": 0}
    for p in payloads:
        r = extract_pdf(p)
        spans = [(s.start, s.end, s.kind) for s in r.spans]
        rec = (r.text, r.pages, spans, r.status, r.error, r.page_tables)
        h.update(repr(rec).encode("utf-8") + b"\n")
        census[r.status] = census.get(r.status, 0) + 1
        if r.status == "ok":
            census["max_pages"] = max(census["max_pages"], len(r.pages))
    return h.hexdigest(), census


def frozen_digest() -> tuple[str, dict[str, int], dict[str, int]]:
    corpus_hex, corpus_census = _digest(_corpus_pdfs())
    streams_hex, streams_census = _digest(_stream_pdfs())
    both = hashlib.sha256((corpus_hex + streams_hex).encode()).hexdigest()
    return both, corpus_census, streams_census


def test_stream_inputs_reach_the_rare_syntax():
    """The digest only guards what its inputs reach."""
    joined = b"".join(s for s, _ in _streams())
    for needle in (b"\\)", b"(a(b(c)d)e)", b"<48 65", b"<4142", b"\r", b"T*",
                   b"TD", b"'", b'"', b"{", b"}", b"true"):
        assert needle in joined, needle


def test_pdf_kernel_bytes_frozen():
    got, corpus, streams = frozen_digest()
    # both inputs reach ok and error documents; a pdf_big row is present
    assert corpus.get("ok", 0) > 0 and corpus.get("error", 0) > 0
    assert streams.get("ok", 0) > 0 and streams.get("error", 0) > 0
    assert corpus["max_pages"] >= 50
    assert got == FROZEN_SHA256


if __name__ == "__main__":
    print(frozen_digest())

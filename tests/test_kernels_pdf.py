"""PDF kernel unit tests — tiny hand-rolled PDFs + generator round trips,
mirroring the reference's exact-structure assertions
(/root/reference/backend/tests/test_existing_extractors.py:23-58)."""

import random
import zlib

from pdf_extractor_ray.corpus import build_pdf
from pdf_extractor_ray.kernels import extract_pdf


def _mini_pdf(content: bytes, flate: bool = False) -> bytes:
    data = zlib.compress(content) if flate else content
    filt = b" /Filter /FlateDecode" if flate else b""
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: b"<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>",
        4: b"<< /Length " + str(len(data)).encode() + filt + b" >>\nstream\n" + data + b"\nendstream",
    }
    out = bytearray(b"%PDF-1.4\n")
    for n in sorted(objs):
        out += str(n).encode() + b" 0 obj\n" + objs[n] + b"\nendobj\n"
    out += b"trailer\n<< /Size 5 /Root 1 0 R >>\n%%EOF\n"
    return bytes(out)


def test_simple_tj():
    pdf = _mini_pdf(b"BT /F1 12 Tf 72 720 Td (Hello World) Tj ET")
    res = extract_pdf(pdf)
    assert res.status == "ok"
    assert res.text == "Hello World"
    assert res.pages == ["Hello World"]
    assert res.spans[0].kind == "page"


def test_multiline_td():
    pdf = _mini_pdf(
        b"BT /F1 12 Tf 72 720 Td (Line one) Tj 0 -14 Td (Line two) Tj ET"
    )
    res = extract_pdf(pdf)
    assert res.text == "Line one\nLine two"


def test_two_blocks_reading_order_independent_of_stream_order():
    # lower block emitted FIRST in the stream; must come second in text
    pdf = _mini_pdf(
        b"BT /F1 12 Tf 72 600 Td (Lower block) Tj ET\n"
        b"BT /F1 12 Tf 72 720 Td (Upper block) Tj ET"
    )
    res = extract_pdf(pdf)
    assert res.text == "Upper block\n\nLower block"


def test_tj_array_kerning_joins_word():
    pdf = _mini_pdf(b"BT /F1 12 Tf 72 720 Td [(Hel) -20 (lo)] TJ ET")
    res = extract_pdf(pdf)
    assert res.text == "Hello"


def test_tj_array_large_gap_spaces():
    # moving x far right via big kerning -> space inserted by layout
    pdf = _mini_pdf(b"BT /F1 12 Tf 72 720 Td [(A) -2000 (B)] TJ ET")
    res = extract_pdf(pdf)
    assert res.text == "A B"


def test_flate_stream():
    pdf = _mini_pdf(b"BT /F1 12 Tf 72 720 Td (Compressed text) Tj ET", flate=True)
    res = extract_pdf(pdf)
    assert res.text == "Compressed text"


def test_quote_op_and_tstar():
    pdf = _mini_pdf(
        b"BT /F1 12 Tf 14 TL 72 720 Td (first) Tj (second) ' T* (third) Tj ET"
    )
    res = extract_pdf(pdf)
    assert res.text == "first\nsecond\nthird"


def test_escapes_and_hex_strings():
    pdf = _mini_pdf(rb"BT /F1 12 Tf 72 720 Td (paren \( close \) ok) Tj ET")
    assert extract_pdf(pdf).text == "paren ( close ) ok"
    pdf2 = _mini_pdf(b"BT /F1 12 Tf 72 720 Td <48692068657821> Tj ET")
    assert extract_pdf(pdf2).text == "Hi hex!"


def test_streams_the_regex_lexer_cannot_take():
    """Streams with a string escape, nested parens, a hex string or a stray
    delimiter go through the position scanner; the generated corpus never
    writes any of them."""
    def text(ops: bytes) -> str:
        return extract_pdf(_mini_pdf(b"BT /F1 12 Tf 72 720 Td " + ops + b" ET")).text

    assert text(rb"(a \) b) Tj") == "a ) b"
    assert text(b"(a(b)c) Tj") == "a(b)c"
    assert text(b"<48 65 6C>Tj") == "Hel"
    # octal escape and a line continuation inside one string
    assert text(b"(\\101B\\\nC) Tj") == "ABC"
    # a stray '}' starts an operator run; text around it survives
    assert text(b"(x) Tj } (y) Tj") == "xy"
    res = extract_pdf(_mini_pdf(b"BT /F1 12 Tf 72 720 Td (ok) Tj <4869 Tj ET"))
    assert res.status == "error"
    assert res.error == "pdf:PdfError:unterminated hex string"
    assert res.text == ""


def test_corrupt_inputs_flagged_not_raised():
    assert extract_pdf(b"%PDF-1.4\n\x00\x01garbage").status in ("error", "empty")
    res = extract_pdf(b"%PDF-1.4\n1 0 obj\n<< /Length 99 >>\nstream\nAAAA")
    assert res.status == "error"
    assert res.text == ""


def test_generator_roundtrip_multi_page():
    rng = random.Random(123)
    pdf = build_pdf(rng, 3, flate=True)
    res = extract_pdf(pdf)
    assert res.status == "ok"
    assert res.n_pages == 3
    assert res.text.count("\f") == 2
    assert [s.kind for s in res.spans] == ["page"] * 3
    # page spans tile the merged text exactly
    for span, page in zip(res.spans, res.pages):
        assert res.text[span.start : span.end] == page


def test_generator_deterministic():
    a = build_pdf(random.Random(9), 2, flate=False)
    b = build_pdf(random.Random(9), 2, flate=False)
    assert a == b
    assert extract_pdf(a).text == extract_pdf(b).text


def test_incremental_update_last_trailer_root_wins():
    """An appended update whose trailer /Root points at a NEW catalog
    object (different number) must govern the page tree — object-level
    later-duplicate-wins alone cannot see the moved catalog."""
    base = _mini_pdf(b"BT /F1 12 Tf 72 720 Td (Old page) Tj ET")
    new_content = b"BT /F1 12 Tf 72 720 Td (New page) Tj ET"
    update = (
        b"5 0 obj\n<< /Length " + str(len(new_content)).encode()
        + b" >>\nstream\n" + new_content + b"\nendstream\nendobj\n"
        b"6 0 obj\n<< /Type /Page /Parent 7 0 R /Contents 5 0 R >>\nendobj\n"
        b"7 0 obj\n<< /Type /Pages /Kids [6 0 R] /Count 1 >>\nendobj\n"
        b"8 0 obj\n<< /Type /Catalog /Pages 7 0 R >>\nendobj\n"
        b"trailer\n<< /Size 9 /Root 8 0 R /Prev 0 >>\n%%EOF\n"
    )
    res = extract_pdf(base + update)
    assert res.status == "ok"
    assert res.text == "New page"


def test_dangling_last_root_falls_back_to_catalog_scan():
    """A trailing /Root pointing at a missing object must not break
    extraction — fall back to the first-catalog-with-Pages scan."""
    base = _mini_pdf(b"BT /F1 12 Tf 72 720 Td (Still here) Tj ET")
    res = extract_pdf(base + b"trailer\n<< /Size 9 /Root 99 0 R >>\n%%EOF\n")
    assert res.status == "ok"
    assert res.text == "Still here"

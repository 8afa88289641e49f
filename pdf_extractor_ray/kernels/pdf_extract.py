"""From-scratch PDF text extraction with pdfminer-style layout analysis
(char/chunk -> line -> block clustering, reading-order sort), stdlib only
(``re`` + ``zlib``) — no pdfminer/PyMuPDF/pypdf in this environment
(SURVEY.md §0).

Reference analog: the per-page text extraction loop of
``/root/reference/backend/src/extractors/pypdf2_extractor.py:21-50`` /
``pymupdf_extractor.py:17-37`` (page -> TEXT), the pages-joined layout text
of ``pdfplumber_extractor.py:43-47`` (blocks joined per page), and the
reading-order *sort-lines-then-join* semantic of the Mathpix parser
(``mathpix_extractor.py:121-131``), generalized here to geometric y/x
sorting of lines and blocks.

Scope (SURVEY.md §7.0): classic-xref AND PDF 1.5+ cross-reference-stream
files, with text operators ``BT/ET Tf Td TD TL T* Tm Tj TJ ' "``, literal
+ hex strings, raw or FlateDecode content streams, and compressed object
streams (``/Type /ObjStm`` — expanded after the object scan, so catalogs /
page dicts living inside them resolve like top-level objects; ``/Root``
falls back to the newest ``/Type /XRef`` stream dict when the file has no
classic ``trailer``). No encryption, no CID fonts. Anything else fails
*gracefully* to ``status='error'`` — the reference's swallow-error
pattern (``pypdf2_extractor.py:41-48``).

Per page, two layers do the work:
  * text operators -> chunks ``(x, y, text, width, size)``.
    ``_run_text_ops_fast`` matches one whole operator, operands included,
    per ``findall`` match, and its loop runs once per operator. It covers
    ``BT ET Td TD Tj ' TJ Tf TL Tm T*`` with plain number and string
    operands, which is all the generated corpus writes. Any other stream
    (string escapes, nested parens, hex strings, comments, ``"``, other
    operators or operand shapes, stray delimiters, or a number ``float``
    rejects) goes whole to ``_run_text_ops``, the general machine and the
    reference: one ``findall`` lexes it into byte tokens (re-lexed by a
    position scanner when regex cannot: escapes, nesting, hex, stray
    ``) > { }``), and one state machine runs over the tokens.
    ``tests/test_pdf_fast_lexer.py`` holds the two equal on seeded streams.
  * ``_layout_page_parts``: chunks -> lines -> blocks, plus the per-line
    cell split that feeds table detection. One descending y sort, and a
    second layout from the (-y, x) sort only where a NaN or repeated
    infinite y or a NaN gap means the two orders can differ; a one-chunk
    line skips the list and join; lines go straight into blocks; the cell
    rows exist only once a line splits into table cells. The block sort
    runs only on pages with a NaN y (NaN comes from inf - inf): otherwise
    line tops, and so block tops, strictly decrease and the sort is a
    no-op. ``tests/test_pdf_layout_reference.py`` holds it equal to the
    earlier layout.

Frozen byte-identity invariants (SURVEY.md §7.1):
  * chunk width estimate: 0.5 * font_size * len(text) (Helvetica-ish)
  * line clustering: chunks whose baseline y differs by <= 2.0 share a line
  * within a line: chunks sorted by x; gap > 0.3 * font_size -> one space
  * block clustering: consecutive lines (descending y) split when the
    vertical gap exceeds 2.0 * font_size
  * reading order: blocks sorted by (-top_y, left_x)
  * page text: lines joined "\n" inside a block, blocks joined "\n\n"
  * document text: pages joined "\f" (explicit page separator mirroring the
    reference's 1-based page keys); span kind 'page' per page
"""

from __future__ import annotations

import re
import zlib
from operator import itemgetter

from .result import ExtractResult, Span

# A match can only start at the first digit of a run (a later start sees the
# same tail), and no quantifier gives anything back, so the scan past the
# last object (the xref table's digit runs) costs one try per run.
# ``_scan_objects`` searches from 0 or just past an ``endobj``, never from
# inside a digit run, so the lookbehind never hides a match.
_OBJ_RE = re.compile(rb"(?<!\d)(\d++)\s++(\d++)\s++obj\b")
_TYPE_RE = re.compile(rb"/Type\s*/(\w+)")
_KIDS_RE = re.compile(rb"/Kids\s*\[([^\]]*)\]")
_REF_RE = re.compile(rb"(\d+)\s+\d+\s+R")
_CONTENTS_REF_RE = re.compile(rb"/Contents\s+(\d+)\s+\d+\s+R")
_CONTENTS_ARR_RE = re.compile(rb"/Contents\s*\[([^\]]*)\]")
_PAGES_REF_RE = re.compile(rb"/Pages\s+(\d+)\s+\d+\s+R")
_ROOT_RE = re.compile(rb"/Root\s+(\d+)\s+\d+\s+R")
# direct-integer /Length only — '/Length 5 0 R' (indirect) must NOT match.
# (?![0-9]) forces the full digit run so backtracking can't shrink the group
# to defeat the indirect-ref lookahead (e.g. '/Length 123 0 R' matching '12')
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?![0-9])(?!\s+\d+\s+R)")

Y_LINE_TOL = 2.0
GAP_SPACE_FACTOR = 0.3
BLOCK_GAP_FACTOR = 2.0
CHAR_WIDTH_FACTOR = 0.5
# table detection (frozen, like the layout constants above): a horizontal
# gap wider than CELL_GAP_FACTOR * font_size splits a line into cells; >= 2
# consecutive lines whose >= 2 cell left edges align within COL_ALIGN_TOL
# points form a table region (pdfplumber's "text" table strategy in spirit:
# our synthetic/no-graphics PDFs carry no ruling lines to snap to)
CELL_GAP_FACTOR = 2.0
COL_ALIGN_TOL = 4.0
MIN_TABLE_ROWS = 2
MIN_TABLE_COLS = 2


class PdfError(Exception):
    pass


# --------------------------------------------------------------------------
# Object scan (xref-free: tolerant of truncated/garbage xref tables — we
# recover objects by scanning, which also handles the fixture's corrupt-xref
# class as long as object bodies are intact)
# --------------------------------------------------------------------------

def _scan_objects(data: bytes) -> dict[int, tuple[bytes, bytes | None]]:
    """Return {obj_num: (dict_part, stream_bytes|None)}. Later duplicate
    object numbers win (incremental-update semantics)."""
    objects: dict[int, tuple[bytes, bytes | None]] = {}
    pos = 0
    while True:
        m = _OBJ_RE.search(data, pos)
        if not m:
            break
        num = int(m.group(1))
        body_start = m.end()
        idx_stream = data.find(b"stream", body_start)
        idx_endobj = data.find(b"endobj", body_start)
        if idx_endobj == -1 and idx_stream == -1:
            # truncated object: salvage dict part to end of data
            objects[num] = (data[body_start:], None)
            break
        if idx_stream != -1 and (idx_endobj == -1 or idx_stream < idx_endobj):
            dict_part = data[body_start:idx_stream]
            s = idx_stream + len(b"stream")
            if data[s : s + 2] == b"\r\n":
                s += 2
            elif data[s : s + 1] == b"\n":
                s += 1
            # a direct-integer /Length is authoritative (the endstream-scan
            # + trailing-EOL-strip heuristic eats a REAL last byte when
            # compressed data happens to end in CR/LF); trust it only when
            # 'endstream' really follows within the writer's EOL slack
            stream = None
            lm = _LENGTH_RE.search(dict_part)
            if lm:
                e_len = s + int(lm.group(1))
                tail = data[e_len : e_len + 11]
                if tail.lstrip(b"\r\n ").startswith(b"endstream"):
                    stream = data[s:e_len]
                    e = e_len
            if stream is None:
                e = data.find(b"endstream", s)
                if e == -1:
                    raise PdfError("unterminated stream")
                stream = data[s:e]
                # stream content may end with EOL added by the writer
                if stream.endswith(b"\r\n"):
                    stream = stream[:-2]
                elif stream.endswith(b"\n"):
                    stream = stream[:-1]
            idx_endobj = data.find(b"endobj", e)
            if idx_endobj == -1:
                idx_endobj = len(data)
            objects[num] = (dict_part, stream)
            pos = idx_endobj + 6
        else:
            objects[num] = (data[body_start:idx_endobj], None)
            pos = idx_endobj + 6
    if not objects:
        raise PdfError("no objects found")
    _expand_object_streams(objects)
    return objects


_N_RE = re.compile(rb"/N\s+(\d+)")
_FIRST_RE = re.compile(rb"/First\s+(\d+)")
_INT_RE = re.compile(rb"\d+")


def _expand_object_streams(
    objects: dict[int, tuple[bytes, bytes | None]],
) -> None:
    """PDF 1.5+ compressed object streams (``/Type /ObjStm``): decode each
    container and add its member objects to the map. Members are pure
    dict/array/scalar bodies (the spec forbids streams inside an ObjStm),
    so their stream part is None. Existing top-level objects are NOT
    overwritten (scan-based recovery has no xref chain to arbitrate
    supersession; a duplicate across container/top-level only arises in
    incremental updates, where the top-level scan's later-wins rule
    already picked a winner). A corrupt container (bad zlib, short
    header) raises — callers map that to ``status='error'``."""
    containers = [
        num
        for num, (dict_part, stream) in objects.items()
        if stream is not None
        and (tm := _TYPE_RE.search(dict_part)) is not None
        and tm.group(1) == b"ObjStm"
    ]
    for num in containers:
        dict_part, stream = objects[num]
        if b"/FlateDecode" in dict_part:
            stream = zlib.decompress(stream)
        nm = _N_RE.search(dict_part)
        fm = _FIRST_RE.search(dict_part)
        if not nm or not fm:
            raise PdfError("ObjStm missing /N or /First")
        n_objs, first = int(nm.group(1)), int(fm.group(1))
        header = _INT_RE.findall(stream[:first])
        if len(header) < 2 * n_objs:
            raise PdfError("ObjStm header truncated")
        nums = [int(header[2 * k]) for k in range(n_objs)]
        offs = [int(header[2 * k + 1]) for k in range(n_objs)]
        for k, (onum, off) in enumerate(zip(nums, offs)):
            end = first + offs[k + 1] if k + 1 < n_objs else len(stream)
            body = stream[first + off : end]
            objects.setdefault(onum, (body, None))


def _page_order(
    objects: dict[int, tuple[bytes, bytes | None]],
    data: bytes | None = None,
) -> list[int]:
    """Page object numbers in document order via Catalog -> Pages -> Kids
    traversal; falls back to ascending object number of /Type /Page objects
    when the tree is missing or broken."""
    type_of: dict[int, bytes] = {}
    for num, (dict_part, _) in objects.items():
        tm = _TYPE_RE.search(dict_part)
        if tm:
            type_of[num] = tm.group(1)

    root_pages: int | None = None
    # authoritative catalog: the /Root of the LAST trailer — incremental
    # updates append a new trailer whose catalog governs the page tree, and
    # object-level later-duplicate-wins alone cannot see a catalog that
    # moved to a different object number. Search only from the last
    # 'trailer' keyword (not the whole file: uncompressed stream bodies can
    # contain the literal '/Root N 0 R') and accept the candidate only if
    # it really is a /Type /Catalog object.
    if data is not None:
        tpos = data.rfind(b"trailer")
        if tpos != -1:
            rm = _ROOT_RE.search(data, tpos)
            if rm:
                cand = int(rm.group(1))
                if type_of.get(cand) == b"Catalog":
                    pm = _PAGES_REF_RE.search(objects.get(cand, (b"",))[0])
                    if pm:
                        root_pages = int(pm.group(1))
    if root_pages is None:
        # PDF 1.5+ files have no 'trailer' keyword: the trailer dict IS the
        # cross-reference STREAM's dict (/Type /XRef carries /Root). Take
        # the newest XRef in scan order (incremental updates append).
        for num, (dict_part, stream) in objects.items():
            if stream is None or type_of.get(num) != b"XRef":
                continue
            rm = _ROOT_RE.search(dict_part)
            if not rm:
                continue
            cand = int(rm.group(1))
            if type_of.get(cand) == b"Catalog":
                pm = _PAGES_REF_RE.search(objects.get(cand, (b"",))[0])
                if pm:
                    root_pages = int(pm.group(1))  # keep last valid (newest)
    if root_pages is None:
        for num, (dict_part, _) in objects.items():
            if type_of.get(num) == b"Catalog":
                pm = _PAGES_REF_RE.search(dict_part)
                if pm:
                    root_pages = int(pm.group(1))
                    break  # first Catalog WITH /Pages wins; keep scanning
                           # past truncated/orphaned catalogs

    pages: list[int] = []
    if root_pages is not None and root_pages in objects:
        seen: set[int] = set()
        stack = [root_pages]
        while stack:
            num = stack.pop()
            if num in seen or num not in objects:
                continue
            seen.add(num)
            dict_part = objects[num][0]
            t = type_of.get(num)
            if t == b"Page":
                pages.append(num)
            else:
                km = _KIDS_RE.search(dict_part)
                if km:
                    kids = [int(r) for r in _REF_RE.findall(km.group(1))]
                    stack.extend(reversed(kids))  # preserve Kids order (DFS)
    if not pages:
        pages = sorted(n for n, t in type_of.items() if t == b"Page")
    return pages


def _content_streams(
    page_num: int, objects: dict[int, tuple[bytes, bytes | None]]
) -> bytes:
    dict_part = objects[page_num][0]
    refs: list[int] = []
    am = _CONTENTS_ARR_RE.search(dict_part)
    if am:
        refs = [int(r) for r in _REF_RE.findall(am.group(1))]
    else:
        rm = _CONTENTS_REF_RE.search(dict_part)
        if rm:
            refs = [int(rm.group(1))]
    parts: list[bytes] = []
    for ref in refs:
        if ref not in objects:
            continue
        cdict, stream = objects[ref]
        if stream is None:
            continue
        if b"/FlateDecode" in cdict:
            stream = zlib.decompress(stream)
        parts.append(stream)
    return b"\n".join(parts)


# --------------------------------------------------------------------------
# Content-stream lexer + text-state machine
# --------------------------------------------------------------------------

_DELIMS = b"()<>[]{}/% \t\r\n\f\0"
# byte after a backslash in a literal string -> the byte it stands for
_ESCAPES = dict(zip(b"nrtbf()\\", b"\n\r\t\b\f()\\"))
# a text chunk: (x, y, text, width, size)
_TextChunk = tuple[float, float, str, float, float]

# One token per match; ``findall`` yields a stream's whole token list in one
# C-level pass. Whitespace matches no alternative, so it is skipped for free.
# Token shapes, told apart by their first byte:
#   (...)  string, raw bytes between the parens
#   %...   comment
#   << >> [ ]
#   /...   name
#   +-.0-9 number (``float`` may still reject it: '1.2.3', '-')
#   other  operator/keyword
# The last alternative catches a lone ( ) < > { }: a string with escapes or
# nested parens, a hex string, or a stray delimiter. A stream with such a
# token is re-lexed by ``_lex_slow``.
_TOKEN_RE = re.compile(
    rb"\([^()\\]*\)"                      # string without escapes or nesting
    rb"|%[^\r\n]*"                        # comment: stops at CR OR LF (spec EOL)
    rb"|<<|>>|\[|\]"                      # dict/array delimiters
    rb"|/[^()<>\[\]{}/%\x00\t\r\n\f ]*"   # name
    rb"|[+\-.0-9][+\-.0-9eE]*"            # number
    rb"|[^()<>\[\]{}/%\x00\t\r\n\f ]+"    # operator/keyword
    rb"|[()<>{}]"                         # catch-all: needs ``_lex_slow``
)
_SLOW_TOKENS = frozenset([b"(", b")", b"<", b">", b"{", b"}"])


def _literal_string(stream: bytes, i: int, n: int) -> tuple[bytes, int]:
    """Literal string with escapes and/or nested parens. ``i`` points at the
    opening '('. Returns (decoded bytes, next index); an unterminated string
    runs to the end of the stream."""
    depth = 1
    i += 1
    out = bytearray()
    while i < n and depth:
        ch = stream[i]
        if ch == 92:  # backslash
            i += 1
            if i >= n:
                break
            e = stream[i]
            if e in _ESCAPES:
                out.append(_ESCAPES[e])
                i += 1
            elif 48 <= e <= 55:  # octal, up to 3 digits
                oct_digits = stream[i : i + 3]
                k = 1
                while k < len(oct_digits) and 48 <= oct_digits[k] <= 55:
                    k += 1
                out.append(int(oct_digits[:k], 8) & 0xFF)
                i += k
            elif e in b"\r\n":  # line continuation
                i += 1
                if e == 13 and i < n and stream[i] == 10:
                    i += 1
            else:
                out.append(e)
                i += 1
        elif ch == 40:
            depth += 1
            out.append(ch)
            i += 1
        elif ch == 41:
            depth -= 1
            if depth:
                out.append(ch)
            i += 1
        else:
            out.append(ch)
            i += 1
    return bytes(out), i


def _lex_slow(stream: bytes) -> list[bytes]:
    """The token list of ``_TOKEN_RE.findall`` for a stream with catch-all
    tokens: every token the regex lexes is kept as is; at a catch-all it
    scans by position instead. Strings (literal or hex) come out decoded
    and re-wrapped as ``(`` + bytes + ``)``, so the state machine sees one
    string shape; a lone ``) > { }`` starts an operator run up to the next
    delimiter. Raises ``PdfError``/``ValueError`` on a bad hex string."""
    toks: list[bytes] = []
    search = _TOKEN_RE.search
    i, n = 0, len(stream)
    while True:
        m = search(stream, i)
        if m is None:
            return toks
        tok = m.group()
        i = m.end()
        if tok not in _SLOW_TOKENS:
            toks.append(tok)
            continue
        start = m.start()
        if tok == b"(":
            s, i = _literal_string(stream, start, n)
            toks.append(b"(" + s + b")")
        elif tok == b"<":
            j = stream.find(b">", start)
            if j == -1:
                raise PdfError("unterminated hex string")
            hx = stream[start + 1 : j].translate(None, b" \t\r\n\f")
            if len(hx) % 2:
                hx += b"0"
            toks.append(b"(" + bytes.fromhex(hx.decode("ascii")) + b")")
            i = j + 1
        else:
            while i < n and stream[i] not in _DELIMS:
                i += 1
            toks.append(stream[start:i])


class _Name:
    """Stack marker for PDF name operands (only their presence matters —
    no operator we execute consumes the name's text)."""

    __slots__ = ()


_NAME = _Name()


def _run_text_ops(stream: bytes) -> list[_TextChunk]:
    """Content stream -> text chunks ``(x, y, text, width, size)``.

    Lexes the stream into one token list, then runs the text-operator state
    machine over it. Operands sit on the stack as native values: float for
    numbers, the raw ``(...)`` token for strings (decoded only when shown),
    ``_NAME`` for names, list for arrays. Dispatch is ordered by corpus
    frequency (numbers, then strings; Td/Tj/TJ per line vs BT/Tf per
    block)."""
    toks = _TOKEN_RE.findall(stream)
    if not _SLOW_TOKENS.isdisjoint(toks):
        toks = _lex_slow(stream)
    chunks: list[_TextChunk] = []
    size = 12.0
    leading: float | None = None  # None = never set; an explicit 'TL 0' is real
    x = y = 0.0        # current text position
    lx = ly = 0.0      # line-start position (Td base)
    in_text = False
    stack: list = []   # operand stack
    array: list = []
    target = stack     # where operands land; flips to ``array`` inside [ ]
    for tok in toks:
        c = tok[0]
        if c in b"+-.0123456789":
            try:
                target.append(float(tok))
            except ValueError:
                pass
            continue
        if c == 40:  # '(' string
            target.append(tok)
            continue
        if c == 47:  # '/' name
            target.append(_NAME)
            continue
        if c == 91:  # '['
            array = []
            target = array
            continue
        if c == 93:  # ']'
            target = stack
            stack.append(array)
            array = []
            continue
        if c == 37:  # '%' comment
            continue
        if in_text:
            if tok == b"Td" or tok == b"TD":
                if (
                    len(stack) >= 2
                    and type(stack[-1]) is float
                    and type(stack[-2]) is float
                ):
                    tx, ty = stack[-2], stack[-1]
                    lx, ly = lx + tx, ly + ty
                    x, y = lx, ly
                    if tok == b"TD":
                        leading = -ty
            elif tok == b"Tj" or tok == b"'" or tok == b'"':
                # ' and " move to the next line, then show like Tj
                if stack and type(stack[-1]) is bytes:
                    if tok != b"Tj":
                        ly = ly - (leading if leading is not None else 1.2 * size)
                        x, y = lx, ly
                    s = stack[-1]
                    if len(s) > 2:
                        w = CHAR_WIDTH_FACTOR * size * (len(s) - 2)
                        chunks.append((x, y, s[1:-1].decode("latin-1"), w, size))
                        x += w
            elif tok == b"TJ":
                if stack and type(stack[-1]) is list:
                    for v in stack[-1]:
                        tv = type(v)
                        if tv is bytes:
                            if len(v) > 2:
                                w = CHAR_WIDTH_FACTOR * size * (len(v) - 2)
                                chunks.append(
                                    (x, y, v[1:-1].decode("latin-1"), w, size)
                                )
                                x += w
                        elif tv is float:
                            x -= v / 1000.0 * size
            elif tok == b"ET":
                in_text = False
            elif tok == b"Tf":
                if stack and type(stack[-1]) is float:
                    size = stack[-1]
            elif tok == b"TL":
                if stack and type(stack[-1]) is float:
                    leading = stack[-1]
            elif tok == b"Tm":
                if len(stack) >= 6 and all(
                    type(v) is float for v in stack[-6:]
                ):
                    x = lx = stack[-2]
                    y = ly = stack[-1]
            elif tok == b"T*":
                ly = ly - (leading if leading is not None else 1.2 * size)
                x, y = lx, ly
            elif tok == b"BT":  # nested BT (malformed): re-enter, reset
                x = y = lx = ly = 0.0
            stack.clear()
        else:
            if tok == b"BT":
                in_text = True
                x = y = lx = ly = 0.0
            stack.clear()
    return chunks


# Fast path: one match per text operator. Each alternative is one whole
# statement (its operands, then the operator), with the same token
# boundaries as ``_TOKEN_RE``: numbers and names are possessive (a number
# never splits into two), and an operator must end at a delimiter, so
# ``Tjx`` or ``TjET`` is not ``Tj``. The alternatives and their groups:
#   (str) Tj | (str) '                     s, sop
#   n1 TL | n1 n2 Td | n1 n2 TD | n1..n6 Tm  n1, tl, n2, td, n3..n6
#   BT | ET | T*                           op
#   /name n Tf                             tf
#   [ (str|n)* ] TJ                        arr (brackets included)
# Anything else (escapes, nesting, hex strings, comments, ``"``, other
# operators or operand shapes, a stray delimiter) matches the last
# alternative, one byte, and the stream goes to ``_run_text_ops``. The
# leading whitespace run is part of each match, so only trailing
# whitespace is left unmatched.
_W = rb"[\x00\t\r\n\f ]*+"  # whitespace between tokens, maybe none
_NUM = rb"[+\-.0-9][+\-.0-9eE]*+"
_N = b"(" + _NUM + b")"
_STR = rb"\([^()\\]*\)"
_OP_END = rb"(?![^()<>\[\]{}/%\x00\t\r\n\f ])"
_OP_RE = re.compile(
    _W + b"(?:" + b"|".join([
        rb"\(([^()\\]*)\)" + _W + rb"(Tj|')" + _OP_END,
        _N + _W + rb"(?:(TL)|" + _N + _W + rb"(?:(T[dD])|" + (_N + _W) * 4
        + rb"Tm))" + _OP_END,
        rb"(BT|ET|T\*)" + _OP_END,
        rb"/[^()<>\[\]{}/%\x00\t\r\n\f ]*+" + _W + _N + _W + rb"Tf" + _OP_END,
        rb"(\[(?:" + _W + b"(?:" + _STR + b"|" + _NUM + rb"))*+" + _W + rb"\])"
        + _W + rb"TJ" + _OP_END,
        rb"([^\x00\t\r\n\f ])",
    ]) + b")"
)
# a TJ array's items: (string bytes, number); an empty string is (b"", b"")
_TJ_ITEM_RE = re.compile(rb"\(([^()\\]*)\)|" + _N)


def _run_text_ops_fast(stream: bytes) -> list[_TextChunk] | None:
    """``_run_text_ops`` for streams in the fast grammar above, one loop
    iteration per operator; None for any other stream. Every number it
    uses goes through ``float``, and one that ``float`` rejects also gives
    None: the general machine silently drops such an operand, which can
    change what the operator does. Statements outside ``BT``/``ET`` are
    ignored unparsed, as the general machine ignores them."""
    chunks: list[_TextChunk] = []
    size = 12.0
    leading: float | None = None
    x = y = lx = ly = 0.0
    in_text = False
    try:
        for s, sop, n1, tl, n2, td, n3, n4, n5, n6, op, tf, arr, bad in (
            _OP_RE.findall(stream)
        ):
            if not in_text:
                if bad:
                    return None
                if op == b"BT":
                    in_text = True
                    x = y = lx = ly = 0.0
                continue
            if sop:  # Tj, or ' which moves to the next line first
                if sop != b"Tj":
                    ly = ly - (leading if leading is not None else 1.2 * size)
                    x, y = lx, ly
                if s:
                    w = CHAR_WIDTH_FACTOR * size * len(s)
                    chunks.append((x, y, s.decode("latin-1"), w, size))
                    x += w
            elif td:
                tx, ty = float(n1), float(n2)
                lx, ly = lx + tx, ly + ty
                x, y = lx, ly
                if td == b"TD":
                    leading = -ty
            elif op:
                if op == b"ET":
                    in_text = False
                elif op == b"BT":
                    x = y = lx = ly = 0.0
                else:  # T*
                    ly = ly - (leading if leading is not None else 1.2 * size)
                    x, y = lx, ly
            elif n6:  # Tm: all six must be numbers, only e and f are used
                float(n1), float(n2), float(n3), float(n4)
                x = lx = float(n5)
                y = ly = float(n6)
            elif tf:
                size = float(tf)
            elif arr:  # TJ
                for s, n in _TJ_ITEM_RE.findall(arr):
                    if n:
                        x -= float(n) / 1000.0 * size
                    elif s:
                        w = CHAR_WIDTH_FACTOR * size * len(s)
                        chunks.append((x, y, s.decode("latin-1"), w, size))
                        x += w
            elif tl:
                leading = float(n1)
            else:
                return None
    except ValueError:
        return None
    return chunks


def _text_chunks(stream: bytes) -> list[_TextChunk]:
    """Content stream -> text chunks: the fast path, else the general
    machine."""
    chunks = _run_text_ops_fast(stream)
    return _run_text_ops(stream) if chunks is None else chunks


# --------------------------------------------------------------------------
# Layout analysis: chunks -> lines -> blocks -> reading-order text
# --------------------------------------------------------------------------

def _detect_tables(
    cell_rows: list[list[tuple[float, str]] | None],
) -> str:
    """Consecutive-aligned-row table detection over per-line cell splits
    (``None`` = line is not a table candidate and breaks any run): >=
    MIN_TABLE_ROWS consecutive lines with the same >= MIN_TABLE_COLS cell
    count whose column left edges align within COL_ALIGN_TOL points form
    one table. Output format is the reference's pipe-join exactly
    (``pdfplumber_extractor.py:36-41``): cells " | ", rows "\\n", tables on
    one page "\\n\\n"."""
    tables: list[str] = []
    run: list[list[tuple[float, str]]] = []

    def close() -> None:
        if len(run) >= MIN_TABLE_ROWS:
            tables.append(
                "\n".join(" | ".join(t for _, t in row) for row in run)
            )
        run.clear()

    for cells in cell_rows:
        if cells is None:
            close()
            continue
        if run and (
            len(cells) != len(run[0])
            or any(
                abs(x - x0) > COL_ALIGN_TOL
                for (x, _), (x0, _) in zip(cells, run[0])
            )
        ):
            close()
        run.append(cells)
    close()
    return "\n\n".join(tables)


_X = itemgetter(0)
_Y = itemgetter(1)
_NAN = float("nan")


def _layout_page_parts(chunks: list[_TextChunk]) -> tuple[str, str]:
    """chunks -> (page_text, page_tables). One line clustering feeds both
    products: within an x-sorted line, a gap wider than ``CELL_GAP_FACTOR *
    size`` starts a new cell and a narrower gap wider than
    ``GAP_SPACE_FACTOR * size`` is one space, so the line text is its raw
    cell texts joined by single spaces.

    Lines cluster chunks by baseline y, descending, in the order of a
    ``(-y, x)`` tuple key. A page is first laid out from a y-only sort,
    ~3x cheaper, which gives the same lines while every y is finite and
    no x is NaN: equal finite y share a line, each line is re-sorted by
    x, and equal-x chunks keep descending y either way. NaN (from
    inf - inf) compares false both ways, so the two sorts may order it
    differently, and equal infinite y do not share a line. That pass
    gives up where it sees either (a NaN or repeated infinite y opens a
    line of its own; a NaN x makes a gap in its line NaN), and the page
    is laid out again from the tuple key."""
    if not chunks:
        return "", ""
    parts = _layout_ordered(sorted(chunks, key=_Y, reverse=True), False)
    if parts is None:
        parts = _layout_ordered(sorted(chunks, key=lambda c: (-c[1], c[0])), True)
    return parts


def _layout_ordered(ordered: list[_TextChunk], exact: bool) -> tuple[str, str] | None:
    """``_layout_page_parts`` of chunks in descending y order; None when the
    order may not be the ``(-y, x)`` key's (a NaN or repeated infinite
    y, or a NaN gap) and not ``exact``."""
    # lines: tolerance Y_LINE_TOL against the first chunk of the line
    lines: list[list[_TextChunk]] = []
    line: list[_TextChunk] = []
    line_y = _NAN
    nan_y = inf_tie = False
    for c in ordered:
        y = c[1]
        if abs(line_y - y) <= Y_LINE_TOL:
            line.append(c)
        else:
            if y != y:  # a NaN y never joins a line
                nan_y = True
            elif y == line_y:  # nor does an infinite y join its equal
                inf_tie = True
            line = [c]
            line_y = y
            lines.append(line)
    if (nan_y or inf_tie) and not exact:
        return None

    # block: [top_y, left_x, line texts]; a line joins the open block
    # unless the vertical gap from the previous text line exceeds
    # BLOCK_GAP_FACTOR * that line's font size
    blocks: list[list] = []
    block_lines: list[str] = []
    prev_y = prev_size = 0.0
    cell_rows: list[list[tuple[float, str]] | None] | None = None
    nan_gap = False
    for line in lines:
        if len(line) == 1:
            x0, y0, text, _, max_size = line[0]
            text = text.strip()
            if cell_rows is not None:
                cell_rows.append(None)
        else:
            line.sort(key=_X)
            x0, y0, text, w0, max_size = line[0]
            prev_end = x0 + w0
            cur = [text]
            cur_x = x0
            cells: list[tuple[float, list[str]]] | None = None
            for i in range(1, len(line)):
                cx, _, t, w, s = line[i]
                gap = cx - prev_end
                if gap > CELL_GAP_FACTOR * s:
                    if cells is None:
                        cells = []
                    cells.append((cur_x, cur))
                    cur, cur_x = [], cx
                elif gap > GAP_SPACE_FACTOR * s:
                    cur.append(" ")
                elif gap != gap:
                    nan_gap = True
                cur.append(t)
                prev_end = cx + w
                if s > max_size:
                    max_size = s
            if cells is None:
                text = "".join(cur).strip()
                if cell_rows is not None:
                    cell_rows.append(None)
            else:
                cells.append((cur_x, cur))
                raw = [(cx, "".join(parts)) for cx, parts in cells]
                text = " ".join(t for _, t in raw).strip()
                stripped = [(cx, t.strip()) for cx, t in raw]
                stripped = [(cx, t) for cx, t in stripped if t]
                if len(stripped) >= MIN_TABLE_COLS:
                    if cell_rows is None:
                        # earlier lines only precede the first table row
                        cell_rows = []
                    cell_rows.append(stripped)
                elif cell_rows is not None:
                    cell_rows.append(None)
        if not text:
            continue
        if not blocks or prev_y - y0 > BLOCK_GAP_FACTOR * prev_size:
            block_lines = [text]
            blocks.append([y0, x0, block_lines])
        else:
            block_lines.append(text)
            if x0 < blocks[-1][1]:
                blocks[-1][1] = x0
        prev_y, prev_size = y0, max_size
    if nan_gap and not exact:
        return None

    page_tables = _detect_tables(cell_rows) if cell_rows is not None else ""
    # reading order (-top_y, left_x): without a NaN y, line tops strictly
    # decrease and so do block tops, so only NaN pages can need the sort
    if nan_y and len(blocks) > 1:
        blocks.sort(key=lambda b: (-b[0], b[1]))
    return "\n\n".join("\n".join(b[2]) for b in blocks), page_tables


def pdf_page_count(payload: bytes) -> int:
    """Number of pages (0 if unparseable). Cheap relative to extraction:
    object scan + page-tree walk only, no content-stream decode."""
    try:
        return len(_page_order(_scan_objects(payload), payload))
    except Exception:
        return 0


def extract_pdf_pages(payload: bytes, lo: int, hi: int) -> list[tuple[str, str]]:
    """Extract pages [lo, hi) (0-based page-tree order) — the skew-split
    chunk kernel. Returns ``(page_text, page_tables)`` pairs. Raises on
    malformed input (the chunk orchestrator maps that to the whole-document
    error status, matching ``extract_pdf``)."""
    objects = _scan_objects(payload)
    page_nums = _page_order(objects, payload)[lo:hi]
    return [
        _layout_page_parts(_text_chunks(_content_streams(pn, objects)))
        for pn in page_nums
    ]


def assemble_pdf_result(
    pages: list[str], page_tables: list[str] | None = None
) -> ExtractResult:
    """Per-page texts -> the canonical ExtractResult (pages joined ``\\f``,
    one "page" span each). Shared by the whole-doc path and the skew-split
    reassembler so both are byte-identical by construction."""
    if not pages or not any(pages):
        return ExtractResult(
            text="", pages=pages or [""], status="empty",
            page_tables=page_tables or [],
        )
    text = "\f".join(pages)
    spans: list[Span] = []
    offset = 0
    for i, p in enumerate(pages):
        if i:
            offset += 1  # the "\f" separator precedes every page but the first
        spans.append(Span(offset, offset + len(p), "page"))
        offset += len(p)
    return ExtractResult(
        text=text, pages=pages, spans=spans, status="ok",
        page_tables=page_tables or [],
    )


def extract_pdf(payload: bytes) -> ExtractResult:
    """bytes -> per-page text + merged doc text + per-page TABLE product.
    Never raises."""
    try:
        objects = _scan_objects(payload)
        page_nums = _page_order(objects, payload)
        pages: list[str] = []
        tables: list[str] = []
        for pn in page_nums:
            content = _content_streams(pn, objects)
            t, tb = _layout_page_parts(_text_chunks(content))
            pages.append(t)
            tables.append(tb)
        return assemble_pdf_result(pages, tables)
    except Exception as exc:
        return ExtractResult(text="", pages=[""], status="error",
                             error=f"pdf:{type(exc).__name__}:{exc}"[:200])

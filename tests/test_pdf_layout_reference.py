"""The page layout against a reference copy of the earlier layout.

``reference_layout`` below is ``_layout_page_parts`` as it stood before the
line/block stage was flattened, copied verbatim (only renamed): a
``line_infos`` list, a block list, and a reading-order sort of the blocks
by ``(-top_y, left_x)``. The kernel's version drops that sort unless a
NaN y is on the page, because without NaN the line tops strictly decrease.
On every seeded chunk set below both give the same ``(text, tables)``.

Chunk sets mix the cases that decide the order: many chunks on one y,
chains of y values each within the line tolerance of the previous one but
not of the first, exact (y, x) ties, lines split into table cells, sizes
that are zero, negative or infinite, and +-inf and NaN coordinates (NaN
comes from inf - inf, e.g. two ``Td`` with ``1e999`` and ``-1e999``).
"""

from __future__ import annotations

import math
import random

from pdf_extractor_ray.kernels.pdf_extract import (
    BLOCK_GAP_FACTOR,
    CELL_GAP_FACTOR,
    GAP_SPACE_FACTOR,
    MIN_TABLE_COLS,
    Y_LINE_TOL,
    _detect_tables,
    _layout_page_parts,
    _text_chunks,
    _TextChunk,
)

SEED = 12
N_PAGES = 20000

def reference_layout(chunks: list[_TextChunk]) -> tuple[str, str]:
    """chunks -> (page_text, page_tables). One line clustering feeds both
    products: within an x-sorted line, a gap wider than ``CELL_GAP_FACTOR *
    size`` starts a new cell and a narrower gap wider than
    ``GAP_SPACE_FACTOR * size`` is one space, so the line text is its raw
    cell texts joined by single spaces."""
    if not chunks:
        return "", ""
    # lines: cluster by baseline y (descending), tolerance Y_LINE_TOL
    # against the first chunk of the current line
    lines: list[list[_TextChunk]] = []
    line: list[_TextChunk] = []
    line_y = 0.0
    for c in sorted(chunks, key=lambda c: (-c[1], c[0])):
        if line and abs(line_y - c[1]) <= Y_LINE_TOL:
            line.append(c)
        else:
            line = [c]
            line_y = c[1]
            lines.append(line)

    line_infos: list[tuple[float, float, float, str]] = []  # (y, x0, size, text)
    cell_rows: list[list[tuple[float, str]] | None] = []
    any_table_row = False
    for line in lines:
        if len(line) > 1:
            line.sort(key=lambda c: c[0])
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
            cur.append(t)
            prev_end = cx + w
            if s > max_size:
                max_size = s
        if cells is None:
            text = "".join(cur).strip()
            cell_rows.append(None)
        else:
            cells.append((cur_x, cur))
            raw = [(cx, "".join(parts)) for cx, parts in cells]
            text = " ".join(t for _, t in raw).strip()
            stripped = [(cx, t.strip()) for cx, t in raw]
            stripped = [(cx, t) for cx, t in stripped if t]
            if len(stripped) >= MIN_TABLE_COLS:
                cell_rows.append(stripped)
                any_table_row = True
            else:
                cell_rows.append(None)
        if text:
            line_infos.append((y0, x0, max_size, text))

    page_tables = _detect_tables(cell_rows) if any_table_row else ""
    if not line_infos:
        return "", page_tables
    # blocks: split on big vertical gaps (descending y order)
    prev = line_infos[0]
    blocks: list[list[tuple[float, float, float, str]]] = [[prev]]
    for info in line_infos[1:]:
        if prev[0] - info[0] > BLOCK_GAP_FACTOR * prev[2]:
            blocks.append([info])
        else:
            blocks[-1].append(info)
        prev = info

    # reading order: (-top_y, left_x)
    if len(blocks) > 1:
        blocks.sort(key=lambda b: (-b[0][0], min(li[1] for li in b)))
    text = "\n\n".join("\n".join(li[3] for li in b) for b in blocks)
    return text, page_tables


_SPECIAL = [math.inf, -math.inf, math.nan]
_TEXTS = ["a", "Hello", " ", "  pad  ", "x y", "Z", "\t"]


def _page(rng: random.Random) -> list[_TextChunk]:
    special = rng.random() < 0.3
    ys: list[float] = []
    for _ in range(rng.randint(1, 5)):
        base = rng.choice([700.0, 512.0, 100.0, 0.0, -40.0]) - rng.randint(0, 60)
        r = rng.random()
        if r < 0.3:  # many chunks on one y
            ys += [base] * rng.randint(2, 6)
        elif r < 0.6:  # a chain: each within Y_LINE_TOL of the previous one
            ys += [base - k * rng.choice([0.5, 1.5, 2.0]) for k in range(rng.randint(2, 6))]
        else:
            ys += [rng.uniform(-50, 750) for _ in range(rng.randint(1, 6))]
    chunks = []
    for y in ys:
        x = rng.choice([72.0, 72.0, 100.0, 300.0]) if rng.random() < 0.4 else rng.uniform(0, 600)
        if special and rng.random() < 0.15:
            y = rng.choice(_SPECIAL)
        if special and rng.random() < 0.1:
            x = rng.choice(_SPECIAL)
        size = rng.choice([12.0, 12.0, 10.0, 1.0, 0.0, -12.0, math.inf])
        text = rng.choice(_TEXTS)
        chunks.append((x, y, text, 0.5 * size * len(text), size))
    for _ in range(rng.randint(0, 3)):  # exact (y, x) ties
        chunks.append(rng.choice(chunks))
    if rng.random() < 0.4:  # a table: rows of cells far apart on one y
        y0 = rng.choice([600.0, 300.0])
        for r in range(rng.randint(1, 5)):
            for c in range(rng.randint(2, 4)):
                chunks.append((72.0 + 150.0 * c + rng.choice([0.0, 2.0, 9.0]),
                               y0 - 14.0 * r, rng.choice(_TEXTS), 15.0, 12.0))
    rng.shuffle(chunks)
    return chunks


def test_layout_equals_reference():
    rng = random.Random(SEED)
    nan_pages = nan_multi_block = tables = 0
    for _ in range(N_PAGES):
        chunks = _page(rng)
        got = _layout_page_parts(chunks)
        assert got == reference_layout(chunks), chunks
        if any(c[1] != c[1] for c in chunks):
            nan_pages += 1
            nan_multi_block += "\n\n" in got[0]
        tables += bool(got[1])
    # the inputs reach NaN pages with several blocks, and table output
    assert nan_pages > 500 and nan_multi_block > 100 and tables > 200


def test_layout_of_lexed_streams_equals_reference():
    """Chunks as the lexer makes them, NaN coordinates included."""
    streams = [
        b"BT /F1 12 Tf 72 700 Td (a) Tj 0 1e999 Td (b) Tj 0 -1e999 Td (c) Tj"
        b" 10 0 Td (d) Tj 0 -30 Td (e) Tj ET",
        b"BT /F1 12 Tf 1e999 700 Td (a) Tj -1e999 0 Td (b) Tj (c) Tj 0 -1 Td (d) Tj ET",
        b"BT /F1 -12 Tf 72 700 Td [(a) 1e999 (b) -1e999 (c)] TJ 0 -50 Td (e) Tj ET",
        b"BT /F1 12 Tf 72 700 Td (a) Tj 0 0 Td (b) Tj 200 0 Td (c) Tj ET",
    ]
    for s in streams:
        chunks = _text_chunks(s)
        assert _layout_page_parts(chunks) == reference_layout(chunks), s

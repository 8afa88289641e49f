"""Text-analysis and deduplication operators over a documents table —
the large-scale training-data-pipeline toolkit (token counting, quality
scoring, fingerprinting, language ID, exact / MinHash / SimHash dedup).

The reference has only the exact-dedup analog (one-rating-per-key upsert,
``/root/reference/backend/src/main.py:1124-1159``; dedup-keeping-latest
migration, ``backend/src/migration.py:309-365``) — the rest are the
operators a 100 TB web-text corpus needs in front of training.

All per-batch functions are pure and deterministic (seeded constants only);
stateful ones (compiled regexes, permutation tables) are callable classes
with state built in ``__init__``, run as cached task transforms
(``agg.instance_stage``). The exchanges:

* exact dedup: one keyed exchange on the text's md5 (not the text itself);
* MinHash-LSH: flat_map to (band_key, doc) then one keyed exchange on
  band_key — only candidate buckets co-locate, never the corpus;
* SimHash: per-doc 64-bit signature, near-dup candidates via 16-bit band
  blocking (4 bands, Hamming radius <=3 guaranteed caught).
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .agg import collect, instance_stage, partial_group_agg, grouped_sum

_WORD_RE = re.compile(r"[a-z0-9]+")


def _read_docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _doc_parts(sf_dir: str, rows_per_doc: int = 1) -> int:
    """``scaled_partitions`` for a keyed exchange of ~``rows_per_doc`` rows
    per document of the corpus (footer metadata only)."""
    import pyarrow.parquet as pq

    from .agg import scaled_partitions

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return scaled_partitions(n_docs * rows_per_doc)


# -------------------------------------------------------------------------
# token_count — whitespace tokenization per doc, rolled up per lang.
# ASCII-whitespace semantics exactly match the DuckDB oracle
# (regexp_split_to_array(trim(text), '\s+'): RE2 \s is ASCII-only).
# -------------------------------------------------------------------------

def token_bytes(data: np.ndarray) -> np.ndarray:
    """Mask of the uint8 ``data`` bytes outside the six ASCII whitespace
    bytes (0x09-0x0D, 0x20). UTF-8 never uses those inside a multibyte
    character, so this classifies a whole string buffer at once."""
    return (data - np.uint8(9) > 4) & (data != 32)


def ws_bounds(
    text: pa.ChunkedArray | pa.Array,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The whitespace tokenizer every training operator shares, as one
    vectorized pass over the arrow UTF-8 buffer: ``(data, starts, ends,
    counts)``. ``data`` is the uint8 view of the values' bytes, each token
    ``k`` is ``data[starts[k]:ends[k]]`` (in document order) and
    ``counts[i]`` is document ``i``'s token count. A token is a maximal
    run of bytes outside ``[ \t\n\r\f\v]`` within one document, so the
    tokens are exactly ``re.split(r"[ \t\n\r\f\v]+", t.strip(...))``'s
    (no empty ones); a null document has none."""
    arr = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    n = len(arr)
    if n == 0:
        e = np.zeros(0, np.int64)
        return np.zeros(0, np.uint8), e, e, e
    _, off_buf, data_buf = arr.buffers()
    wide = pa.types.is_large_string(arr.type)
    offs = np.frombuffer(off_buf, np.int64 if wide else np.int32)
    offs = offs[arr.offset : arr.offset + n + 1].astype(np.int64)
    data = (
        np.frombuffer(data_buf, np.uint8)[offs[0] : offs[-1]]
        if data_buf is not None
        else np.zeros(0, np.uint8)
    )
    offs -= offs[0]
    tok = token_bytes(data)
    first = tok.copy()
    first[1:] &= ~tok[:-1]
    last = tok.copy()
    last[:-1] &= ~tok[1:]
    cut = offs[(offs > 0) & (offs < len(data))]  # tokens end at documents
    first[cut] = tok[cut]
    last[cut - 1] = tok[cut - 1]
    starts = np.flatnonzero(first)
    ends = np.flatnonzero(last) + 1
    return data, starts, ends, np.diff(np.searchsorted(starts, offs))


def _ws_tokens(text: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Tokens per document (``ws_bounds``), null for a null document."""
    arr = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    mask = arr.is_null().to_numpy(zero_copy_only=False) if arr.null_count else None
    return pa.array(ws_bounds(arr)[3], pa.int64(), mask=mask)


def token_count(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": batch["lang"],
                "n_docs": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_tokens": _ws_tokens(batch["text"]),
            }
        )
        return partial_group_agg(
            t, keys=["lang"], aggs=[("n_docs", "sum"), ("sum_tokens", "sum")]
        )

    return grouped_sum(
        ds, keys=["lang"], partial=partial, sum_cols=["n_docs", "sum_tokens"]
    )


# -------------------------------------------------------------------------
# token_count_bpe — GPT-2-style pre-tokenizer regex count (contractions,
# letter runs, digit runs, punctuation runs, space runs), restricted to the
# RE2-compatible subset (no lookaheads) so the EXACT same pattern runs in
# DuckDB regexp_extract_all for the bit-exact oracle.
# -------------------------------------------------------------------------

# one alternation, leftmost-first in both Python re and RE2
BPE_TOKEN_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)"
    r"| ?[A-Za-z]+"
    r"| ?[0-9]+"
    r"| ?[^ \tA-Za-z0-9]+"
    r"|[ \t]+"
)
def token_count_bpe(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.cast(
            pc.count_substring_regex(batch["text"], pattern=BPE_TOKEN_PATTERN),
            pa.int64(),
        )
        t = pa.table(
            {
                "lang": batch["lang"],
                "n_docs": pa.array([1] * batch.num_rows, pa.int64()),
                "sum_bpe_tokens": toks,
            }
        )
        return partial_group_agg(
            t, keys=["lang"], aggs=[("n_docs", "sum"), ("sum_bpe_tokens", "sum")]
        )

    return grouped_sum(
        ds, keys=["lang"], partial=partial, sum_cols=["n_docs", "sum_bpe_tokens"]
    )


# -------------------------------------------------------------------------
# quality_stats — per-doc integer quality counters (length / space / digit /
# upper counts). Integer-only so the SQL oracle hash-matches exactly.
# -------------------------------------------------------------------------

def _quality_counters(
    texts: pa.ChunkedArray | pa.Array,
) -> tuple[pa.Array, pa.Array, pa.Array]:
    """(n_chars, n_spaces, n_digits) as int64, the counters the quality
    gate reads — pure pyarrow.compute (codepoint length + substring
    counts; ASCII classes match the SQL regexp_replace oracles exactly)."""
    n_chars = pc.cast(pc.utf8_length(texts), pa.int64())
    n_spaces = pc.cast(pc.count_substring(texts, pattern=" "), pa.int64())
    n_digits = pc.cast(
        pc.count_substring_regex(texts, pattern="[0-9]"), pa.int64()
    )
    return n_chars, n_spaces, n_digits


def _quality_gate(
    texts: pa.ChunkedArray | pa.Array,
    min_chars: int,
    max_chars: int,
    min_space_pct: int,
    max_digit_pct: int,
) -> pa.Array:
    """The quality gate as a keep mask, in the integer math the SQL oracles
    share: min_chars <= n <= max_chars, spaces >= min_space_pct % of n,
    digits <= max_digit_pct % of n."""
    n, spaces, digits = _quality_counters(texts)
    return pc.and_(
        pc.and_(
            pc.and_(
                pc.greater_equal(n, min_chars),
                pc.less_equal(n, max_chars),
            ),
            pc.greater_equal(
                pc.multiply(spaces, pa.scalar(100, pa.int64())),
                pc.multiply(n, pa.scalar(min_space_pct, pa.int64())),
            ),
        ),
        pc.less_equal(
            pc.multiply(digits, pa.scalar(100, pa.int64())),
            pc.multiply(n, pa.scalar(max_digit_pct, pa.int64())),
        ),
    )


def quality_stats(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n_chars, n_spaces, n_digits = _quality_counters(batch["text"])
        n_upper = pc.cast(
            pc.count_substring_regex(batch["text"], pattern="[A-Z]"), pa.int64()
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars2": n_chars,
                "n_spaces": n_spaces,
                "n_digits": n_digits,
                "n_upper": n_upper,
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# doc_fingerprint — stable content fingerprint (md5 hex) per doc.
# -------------------------------------------------------------------------

def doc_fingerprint(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        fps = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# dedup_exact — exact text dedup, representative = min doc_id.
# The shuffle key is the 16-byte md5 of the text (as hex), not the text,
# so semantics equal GROUP BY text up to an md5 collision.
# -------------------------------------------------------------------------

def snapshot_delta(sf_dir: str) -> pa.Table:
    """Incremental-crawl SNAPSHOT DIFF — which documents were added,
    deleted, or changed between two corpus snapshots (the step before
    ``incremental_new_docs``-style selective reprocessing). The second
    snapshot here is DERIVED deterministically from the first (test
    harness: doc_id%10==0 deleted, doc_id%7==0 text revised, one new doc
    per doc_id%13==0 — production passes a second table; the dataflow is
    input-agnostic). Plan: both snapshots reduce to (doc_id, md5) rows —
    payloads never cross the wire — ONE doc_id keyed exchange,
    per-bucket vectorized classification by sorted-id membership +
    null-safe hash compare; the driver receives DIFF rows only (the
    changed fraction, small by assumption in an incremental crawl)."""
    import hashlib

    import numpy as np

    from .agg import collect, keyed_exchange

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def _h(texts: list) -> list:
        return [
            None if t is None else hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in texts
        ]

    def tag_both(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        a_ids, a_h = list(ids), _h(texts)
        b_ids: list[int] = []
        b_texts: list = []
        for i, t in zip(ids, texts):
            if i % 10 == 0:
                continue  # deleted in snapshot B
            b_ids.append(i)
            b_texts.append(
                (t + " rev2") if (i % 7 == 0 and t is not None) else t
            )
        for i, t in zip(ids, texts):
            if i % 13 == 0:
                # spawned ids live in the negative range so they can NEVER
                # collide with real non-negative doc_ids (a +1M offset
                # collides once the corpus passes 1M documents)
                b_ids.append(-(i + 1))
                b_texts.append(("new " + t) if t is not None else None)
        return pa.table(
            {
                "doc_id": pa.array(a_ids + b_ids, pa.int64()),
                "h": pa.array(a_h + _h(b_texts), pa.string()),
                "kind": pa.array(
                    [0] * len(a_ids) + [1] * len(b_ids), pa.int8()
                ),
            }
        )

    def diff_of(group: pa.Table) -> pa.Table:
        a = group.filter(pc.equal(group["kind"], 0)).sort_by(
            [("doc_id", "ascending")]
        )
        b = group.filter(pc.equal(group["kind"], 1)).sort_by(
            [("doc_id", "ascending")]
        )
        ai = a["doc_id"].to_numpy(zero_copy_only=False)
        bi = b["doc_id"].to_numpy(zero_copy_only=False)
        ah = np.asarray(a["h"].to_pylist(), dtype=object)
        bh = np.asarray(b["h"].to_pylist(), dtype=object)

        def member(x: np.ndarray, sorted_y: np.ndarray) -> np.ndarray:
            if len(sorted_y) == 0:
                return np.zeros(len(x), bool)
            p = np.minimum(np.searchsorted(sorted_y, x), len(sorted_y) - 1)
            return sorted_y[p] == x

        in_b = member(ai, bi)
        in_a = member(bi, ai)
        ids: list[np.ndarray] = [ai[~in_b], bi[~in_a]]
        kinds: list[list[str]] = [
            ["deleted"] * int((~in_b).sum()),
            ["added"] * int((~in_a).sum()),
        ]
        both_a = ai[in_b]
        pos_b = np.searchsorted(bi, both_a)
        diff = ah[in_b] != bh[pos_b]  # None == None -> unchanged (null-safe)
        ids.append(both_a[diff])
        kinds.append(["changed"] * int(diff.sum()))
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(ids), pa.int64()),
                "change": pa.array(sum(kinds, []), pa.string()),
            }
        )

    out = collect(
        keyed_exchange(
            ds.map_batches(tag_both, batch_format="pyarrow"),
            ["doc_id"],
            diff_of,
            _doc_parts(sf_dir, 2),
        )
    )
    if out is None:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "change": pa.array([], pa.string())}
        )
    return out.sort_by([("doc_id", "ascending")])


def dedup_exact(sf_dir: str) -> rd.Dataset:
    from .agg import keyed_exchange

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def hash_stage(batch: pa.Table) -> pa.Table:
        full = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": batch["doc_id"], "full": pa.array(full, pa.string())}
        )

    def combine(group: pa.Table) -> pa.Table:
        t = group.group_by(["full"]).aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id_min"], pa.int64()),
                "n_dups": pc.cast(t["doc_id_count"], pa.int64()),
            }
        )

    # coarse buckets of the text hash (count scaled to the corpus so a
    # bucket fits a worker): the exchange must not group per distinct text
    # (one Python group call per unique doc — catastrophic at corpus
    # scale); the in-bucket arrow group_by on the full md5 collapses every
    # text group vectorized
    return keyed_exchange(
        ds.map_batches(hash_stage, batch_format="pyarrow"),
        ["full"],
        combine,
        _doc_parts(sf_dir),
    )


# -------------------------------------------------------------------------
# lang_id — n-gram/stopword heuristic language identification (rows-only;
# no SQL oracle). Deterministic scoring over fixed tables.
# -------------------------------------------------------------------------

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "with", "as", "was", "on", "are"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "eine", "mit", "für", "auf", "den", "von", "zu"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "du", "pour", "que", "dans", "sur", "pas"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "de", "que", "en", "por", "para", "con"},
}


class LangId:
    """Actor-pool stage: stopword tables + regexes compiled once per actor
    (SURVEY §2.3 pattern; reference loads extractor clients once per worker,
    ``textract_extractor.py:18-24``)."""

    def __init__(self) -> None:
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.cjk_re = re.compile(r"[一-鿿]")

    def predict(self, text: str) -> str:
        cjk = len(self.cjk_re.findall(text))
        if cjk >= 5 or (len(text) > 0 and cjk / max(len(text), 1) > 0.05):
            return "zh"
        words = [w.lower() for w in self.word_re.findall(text)]
        if not words:
            return "unknown"
        scores = {
            lang: sum(1 for w in words if w in sw) for lang, sw in _STOPWORDS.items()
        }
        best = max(sorted(scores), key=lambda k: scores[k])
        return best if scores[best] > 0 else "unknown"

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.predict(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": pa.array(preds, pa.string()),
            }
        )


def lang_id(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])
    return instance_stage(ds, LangId)


# -------------------------------------------------------------------------
# MinHash + LSH near-dup detection (rows-only).
# shingle (3-word) -> 64 minhashes -> 16 bands x 4 rows -> keyed exchange
# on the band key -> candidate pairs verified by true shingle-set Jaccard.
# -------------------------------------------------------------------------

_N_HASH = 64
_N_BANDS = 16
_ROWS_PER_BAND = _N_HASH // _N_BANDS
_MERSENNE = (1 << 61) - 1


def _perm_tables() -> tuple[np.ndarray, np.ndarray]:
    """Coefficients bounded to 31 bits: shingle hashes are uint32 (crc32),
    so sh*a + b < 2^63 + 2^31 fits uint64 EXACTLY and the subsequent
    ``% (2^61-1)`` is true modular arithmetic. (Full-width coefficients
    silently wrapped mod 2^64 first, voiding the min-wise hashing
    guarantee.)"""
    rng = np.random.RandomState(0x5EED)
    hi = (1 << 31) - 1
    a = rng.randint(1, hi, size=_N_HASH, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, hi, size=_N_HASH, dtype=np.int64).astype(np.uint64)
    return a, b


def _shingles(text: str) -> np.ndarray:
    words = _WORD_RE.findall(text.lower())
    if len(words) < 3:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i : i + 3]) for i in range(len(words) - 2)]
    return np.unique(
        np.fromiter(
            (zlib.crc32(g.encode()) for g in grams), dtype=np.uint64, count=len(grams)
        )
    )


class MinHasher:
    """Actor-pool stage: permutation tables built once per actor."""

    def __init__(self) -> None:
        self.a, self.b = _perm_tables()

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(text)
        if sh.size == 0:
            return np.full(_N_HASH, np.uint64(_MERSENNE))
        # (n_shingle, n_hash) universal hashing, vectorized
        vals = (sh[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(_MERSENNE)
        return vals.min(axis=0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = np.stack(
            [self.signature(t) for t in batch["text"].to_pylist()]
        )  # (n, 64)
        sig_hex = [
            hashlib.md5(s.tobytes()).hexdigest()[:16] for s in sigs
        ]
        band_keys: list[list[int]] = []
        for s in sigs:
            keys = []
            for bd in range(_N_BANDS):
                chunk = s[bd * _ROWS_PER_BAND : (bd + 1) * _ROWS_PER_BAND]
                keys.append(
                    (zlib.crc32(chunk.tobytes()) << 5 | bd) & 0x7FFFFFFFFFFFFFFF
                )
            band_keys.append(keys)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sig16": pa.array(sig_hex, pa.string()),
                "band_keys": pa.array(band_keys, pa.list_(pa.int64())),
            }
        )


def minhash_signatures(sf_dir: str) -> rd.Dataset:
    """Per-doc MinHash signature digest (the scalable LSH input)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    sigs = instance_stage(ds, MinHasher)
    return sigs.select_columns(["doc_id", "sig16"])


def minhash_dedup_pairs(sf_dir: str, jaccard_threshold: float = 0.5) -> pa.Table:
    """Near-duplicate pairs: LSH banding -> keyed exchange on the band key ->
    verified pairs, deduped across bands. Returns (doc_a, doc_b,
    jaccard_pct)."""
    import ray

    from .agg import keyed_exchange, scaled_partitions

    ds = _read_docs(sf_dir, ["doc_id", "text"])
    sigs = instance_stage(ds, MinHasher)

    def explode_bands(batch: pa.Table) -> pa.Table:
        doc_ids, keys = [], []
        for d, ks in zip(
            batch["doc_id"].to_pylist(), batch["band_keys"].to_pylist()
        ):
            doc_ids.extend([d] * len(ks))
            keys.extend(ks)
        return pa.table(
            {
                "band_key": pa.array(np.asarray(keys, dtype=np.int64)),
                "doc_id": pa.array(doc_ids, pa.int64()),
            }
        )

    def bucket_pairs(block: pa.Table) -> pa.Table:
        # every band-key run of one exchange block: sort by (band_key,
        # doc_id), vectorized run boundaries, per-run pair emission
        keys = np.asarray(block["band_key"].to_numpy(zero_copy_only=False))
        ids = np.asarray(block["doc_id"].to_numpy(zero_copy_only=False))
        order = np.lexsort((ids, keys))
        keys, ids = keys[order], ids[order]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        lens = np.diff(np.append(starts, len(keys)))
        a_parts: list[np.ndarray] = []
        b_parts: list[np.ndarray] = []
        for s, k in zip(starts[lens >= 2].tolist(), lens[lens >= 2].tolist()):
            run = ids[s : s + k]
            if k <= 200:
                ia, ib = np.triu_indices(k, k=1)
                a_parts.append(run[ia])
                b_parts.append(run[ib])
            else:
                # giant bucket (heavy duplicate cluster): quadratic pairing
                # is degenerate, but silently dropping it would miss exactly
                # the densest duplicates — emit a star against the
                # representative (linear), which still links every member
                # into the cluster
                a_parts.append(np.full(k - 1, run[0], dtype=np.int64))
                b_parts.append(run[1:])
        if not a_parts:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(a_parts)),
                "doc_b": pa.array(np.concatenate(b_parts)),
            }
        )

    candidates = keyed_exchange(
        sigs.map_batches(explode_bands, batch_format="pyarrow"),
        ["band_key"],
        bucket_pairs,
        _doc_parts(sf_dir, _N_BANDS),
    )

    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jaccard_pct": pa.array([], pa.int64()),
        }
    )

    # materialized once: two consumers below (id collection + half-row
    # explode); candidate-sized (a few % of corpus rows), never the corpus
    candidates = candidates.materialize()

    # distinct candidate doc ids, deduped on the DRIVER: the ids are
    # collected here regardless (they become the broadcast semi-join
    # filter), so a cluster-side Dataset.unique exchange before the collect
    # only added a full keyed shuffle (~2 s fixed cost on this host) for
    # data the driver holds anyway — candidate volume is bounded by the
    # near-dup rate, not the corpus
    id_cols = [
        ray.get(ref)
        for ref in candidates.select_columns(["doc_a", "doc_b"]).to_arrow_refs()
    ]
    if not id_cols or sum(t.num_rows for t in id_cols) == 0:
        return empty
    need_np = np.unique(
        np.concatenate(
            [
                np.concatenate(
                    [
                        t["doc_a"].to_numpy(zero_copy_only=False),
                        t["doc_b"].to_numpy(zero_copy_only=False),
                    ]
                )
                for t in id_cols
            ]
        )
    )
    need_ref = ray.put(pa.array(need_np, pa.int64()))

    # distinct pairs (the band shuffle emits the same pair from up to 16
    # bands; the old design collapsed that inside a hash join's groupby —
    # driver-side np.unique over the already-collected ids is free) and a
    # CSR doc->pair-membership map. Both are near-dup-rate-bounded like
    # ``need`` itself (16 B per pair + 17 B per side row): the driver and
    # broadcast hold candidate IDS only, never texts or shingles.
    pairs_np = np.unique(
        np.stack(
            [
                np.concatenate([t["doc_a"].to_numpy(zero_copy_only=False) for t in id_cols]),
                np.concatenate([t["doc_b"].to_numpy(zero_copy_only=False) for t in id_cols]),
            ],
            axis=1,
        ),
        axis=0,
    )
    n_pairs = len(pairs_np)
    side_docs = np.concatenate([pairs_np[:, 0], pairs_np[:, 1]])
    side_pidx = np.concatenate([np.arange(n_pairs), np.arange(n_pairs)]).astype(np.int64)
    side_flag = np.concatenate(
        [np.zeros(n_pairs, np.int8), np.ones(n_pairs, np.int8)]
    )
    order = np.argsort(side_docs, kind="stable")
    docs_sorted = side_docs[order]
    indptr = np.searchsorted(docs_sorted, need_np, side="left")
    indptr = np.append(indptr, len(docs_sorted))
    csr_ref = ray.put((need_np, indptr, side_pidx[order], side_flag[order]))
    pairs_ref = ray.put(pairs_np)

    # shingle sets for candidate docs only, computed inside the cluster and
    # emitted once per pair membership, keyed by the PAIR index
    # (broadcast-filter semi-join: the corpus streams, never shuffles).
    # This replaces the previous pairs-x-shingles distributed hash join —
    # the join moved every shingle set through two exchanges to meet its
    # pair rows, while the CSR broadcast routes each shingle set straight
    # to its pair buckets in ONE exchange. Only verified pairs return.
    def _shingle_emit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["doc_id"], value_set=ray.get(need_ref)))
        docs_u, iptr, pidx_s, side_s = ray.get(csr_ref)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(docs_u, ids)
        lo, hi = iptr[pos], iptr[pos + 1]
        lens = (hi - lo).astype(np.int64)
        take = np.concatenate(
            [np.arange(l, h) for l, h in zip(lo.tolist(), hi.tolist())]
        ) if len(ids) else np.empty(0, np.int64)
        pidx = pidx_s[take]
        sh = [_shingles(t).tobytes() for t in b["text"].to_pylist()]
        return pa.table(
            {
                "pidx": pa.array(pidx),
                "side": pa.array(side_s[take]),
                "sh": pa.array(
                    np.repeat(np.asarray(sh, dtype=object), lens).tolist(),
                    pa.large_binary(),
                ),
            }
        )

    emitted = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _shingle_emit, batch_format="pyarrow"
    )

    # verification is one keyed exchange on the pair index — never a call
    # per pair (the per-group killer: millions of verified candidates at
    # corpus scale). One exchange block verifies all its pair runs with
    # numpy set intersections on the packed shingle buffers.
    def _verify_bucket(block: pa.Table) -> pa.Table:
        t = block.sort_by([("pidx", "ascending"), ("side", "ascending")])
        P = t["pidx"].to_numpy(zero_copy_only=False)
        S = t["side"].to_numpy(zero_copy_only=False)
        sh = t["sh"].to_pylist()
        pairs = ray.get(pairs_ref)
        n = len(P)
        starts = np.flatnonzero(np.concatenate([[True], P[1:] != P[:-1]]))
        ends = np.append(starts[1:], n)
        out_a: list[int] = []
        out_b: list[int] = []
        out_j: list[int] = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            # exactly one row per existing side (doc_ids are unique in the
            # corpus); sides sorted, so a-side first
            if e - s != 2 or S[s] != 0 or S[s + 1] != 1:
                continue
            sa, sb = sh[s], sh[s + 1]
            if not sa or not sb:  # empty shingle set
                continue
            va = np.frombuffer(sa, dtype=np.uint64)
            vb = np.frombuffer(sb, dtype=np.uint64)
            inter = np.intersect1d(va, vb, assume_unique=True).size
            j = inter / (va.size + vb.size - inter)
            if j < jaccard_threshold:
                continue
            p = int(P[s])
            out_a.append(int(pairs[p, 0]))
            out_b.append(int(pairs[p, 1]))
            out_j.append(int(round(j * 100)))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard_pct": pa.array(out_j, pa.int64()),
            }
        )

    verified = keyed_exchange(
        emitted, ["pidx"], _verify_bucket, scaled_partitions(2 * n_pairs)
    )
    out = collect(verified)
    if out is None:
        return empty
    out = out.combine_chunks()
    return out.sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


# -------------------------------------------------------------------------
# SimHash fingerprinting (rows-only): 64-bit weighted-feature signature.
# -------------------------------------------------------------------------

class SimHasher:
    _SHIFTS = np.arange(64, dtype=np.uint64)

    def __init__(self) -> None:
        self.word_re = _WORD_RE

    def simhash(self, text: str) -> int:
        words = self.word_re.findall(text.lower())
        if not words:
            return 0
        uniq, counts = np.unique(np.array(words), return_counts=True)
        hashes = np.fromiter(
            (
                int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")
                for w in uniq
            ),
            dtype=np.uint64,
            count=len(uniq),
        )
        # vectorized 64-bit unpack: (n_words, 64) sign matrix x counts
        bits = ((hashes[:, None] >> self._SHIFTS[None, :]) & 1).astype(np.int64)
        acc = ((2 * bits - 1) * counts[:, None].astype(np.int64)).sum(axis=0)
        return int(((acc > 0).astype(np.uint64) << self._SHIFTS).sum(dtype=np.uint64))

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = [self.simhash(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "simhash": pa.array([f"{h:016x}" for h in hs], pa.string()),
            }
        )


def simhash_fingerprint(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    return instance_stage(ds, SimHasher)


def simhash_dedup_pairs(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """SimHash near-dup pairs via 4x16-bit band blocking: by pigeonhole,
    any pair within Hamming distance 3 of each other shares at least one
    EXACT 16-bit band — the blocking is complete, not probabilistic, for
    buckets up to 500 distinct signatures. Heavier buckets collapse
    identical signatures to one representative (members attach to their
    representative with hamming-0 pairs, preserving cluster connectivity)
    and the representatives verify pairwise; only if even the DISTINCT
    signature count exceeds 500 does the bucket degrade to a documented
    star approximation. Verification (full 64-bit popcount) runs inside
    the band groups where the 8-byte signatures are already co-located;
    only verified pairs reach the driver. Returns (doc_a, doc_b, hamming)."""
    if max_hamming > 3:
        raise ValueError(
            "4x16-bit banding is only complete for max_hamming <= 3 "
            "(pigeonhole needs max_hamming+1 bands)"
        )
    from .agg import keyed_exchange

    ds = _read_docs(sf_dir, ["doc_id", "text"])
    sigs = instance_stage(ds, SimHasher)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        hs = [int(h, 16) for h in batch["simhash"].to_pylist()]
        keys: list[int] = []
        out_ids: list[int] = []
        out_hs: list[int] = []
        for d, h in zip(ids, hs):
            for b in range(4):
                keys.append((b << 16) | ((h >> (16 * b)) & 0xFFFF))
                out_ids.append(d)
                out_hs.append(h)
        return pa.table(
            {
                "band_key": pa.array(np.asarray(keys, dtype=np.int64)),
                "doc_id": pa.array(out_ids, pa.int64()),
                "simhash": pa.array(out_hs, pa.uint64()),
            }
        )

    def run_pairs(ids: list[int], hs: list[int]) -> tuple[list, list, list]:
        """Verified pairs of ONE band-key run (original per-group logic)."""
        n = len(ids)
        a_out, b_out, h_out = [], [], []

        def emit(i: int, j: int, ham: int) -> None:
            a, b = (ids[i], ids[j]) if ids[i] < ids[j] else (ids[j], ids[i])
            a_out.append(a)
            b_out.append(b)
            h_out.append(ham)

        if 1 < n <= 500:
            order = sorted(range(n), key=lambda i: ids[i])
            for x in range(n):
                i = order[x]
                for y in range(x + 1, n):
                    j = order[y]
                    if ids[i] == ids[j]:
                        continue
                    ham = (hs[i] ^ hs[j]).bit_count()
                    if ham <= max_hamming:
                        emit(i, j, ham)
        elif n > 500:
            # heavy bucket: identical signatures collapse to their min-id
            # representative — members attach via hamming-0 pairs (cluster
            # connectivity preserved) — and representatives verify pairwise
            # (complete unless even the distinct-signature count is huge,
            # where a rep star is the documented approximation)
            rep_of: dict[int, int] = {}  # signature -> row of min doc_id
            for i in range(n):
                r = rep_of.get(hs[i])
                if r is None or ids[i] < ids[r]:
                    rep_of[hs[i]] = i
            for i in range(n):
                r = rep_of[hs[i]]
                if ids[i] != ids[r]:
                    emit(r, i, 0)
            reps = sorted(rep_of.values(), key=lambda i: ids[i])
            if len(reps) <= 500:
                for x in range(len(reps)):
                    for y in range(x + 1, len(reps)):
                        ham = (hs[reps[x]] ^ hs[reps[y]]).bit_count()
                        if ham <= max_hamming:
                            emit(reps[x], reps[y], ham)
            else:
                star = reps[0]
                for j in reps[1:]:
                    ham = (hs[star] ^ hs[j]).bit_count()
                    if ham <= max_hamming:
                        emit(star, j, ham)
        return a_out, b_out, h_out

    def bucket_pairs(block: pa.Table) -> pa.Table:
        # every band-key run of one exchange block: vectorized run-boundary
        # detection; only runs with >= 2 postings (actual collisions) pay
        # the Python verification loop
        keys = np.asarray(block["band_key"].to_numpy(zero_copy_only=False))
        ids = np.asarray(block["doc_id"].to_numpy(zero_copy_only=False))
        hs = np.asarray(block["simhash"].to_numpy(zero_copy_only=False))
        order = np.lexsort((ids, keys))
        keys, ids, hs = keys[order], ids[order], hs[order]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        lens = np.diff(np.append(starts, len(keys)))
        a_out: list[int] = []
        b_out: list[int] = []
        h_out: list[int] = []
        for s, k in zip(starts[lens >= 2].tolist(), lens[lens >= 2].tolist()):
            a, b, h = run_pairs(
                ids[s : s + k].tolist(), hs[s : s + k].tolist()
            )
            a_out.extend(a)
            b_out.extend(b)
            h_out.extend(h)
        return pa.table(
            {
                "doc_a": pa.array(a_out, pa.int64()),
                "doc_b": pa.array(b_out, pa.int64()),
                "hamming": pa.array(h_out, pa.int64()),
            }
        )

    verified = keyed_exchange(
        sigs.map_batches(explode, batch_format="pyarrow"),
        ["band_key"],
        bucket_pairs,
        _doc_parts(sf_dir, 4),
    )
    out = collect(verified)
    if out is None:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
    # a pair within <=3 bits can share up to 4 bands; dedup the small
    # verified set (identical hamming per duplicate)
    out = out.combine_chunks()
    out = out.group_by(["doc_a", "doc_b"]).aggregate([("hamming", "min")])
    return pa.table(
        {
            "doc_a": out["doc_a"],
            "doc_b": out["doc_b"],
            "hamming": out["hamming_min"],
        }
    ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])


# -------------------------------------------------------------------------
# markdown page splitting — the reference's LlamaParse result parser
# (``llamaparse.py:137-222``): split "PAGE N:" sections; fall back to
# "\n---\n" separators; final fallback = whole text as page 1. Re-expressed
# as a pure per-row function usable inside map_batches.
# -------------------------------------------------------------------------

_PAGE_RE = re.compile(r"PAGE\s+(\d+):\s*\n(.*?)(?=PAGE\s+\d+:|$)", re.DOTALL)


def split_markdown_pages(text: str) -> dict[int, str]:
    """markdown -> {1-based page_number: page_text} (llamaparse.py:149-163
    semantics: explicit PAGE markers win; '---' rules split next; else all
    content is page 1)."""
    if not text:
        return {1: ""}
    matches = _PAGE_RE.findall(text)
    if matches:
        return {int(n): body.strip() for n, body in matches}
    if "\n---\n" in text:
        return {
            i + 1: part.strip()
            for i, part in enumerate(text.split("\n---\n"))
        }
    return {1: text.strip()}


def markdown_pages(sf_dir: str) -> rd.Dataset:
    """Per-page long table (doc_id, page_number, page_text) from splitting
    each document's text with the LlamaParse page rules — the reference's
    DocumentPageContent shape (``backend/src/models/database.py:61-73``).
    Rows-only (the regex split has no SQL analog)."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        nums: list[int] = []
        texts: list[str] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for n in sorted(pages := split_markdown_pages(t)):
                ids.append(d)
                nums.append(n)
                texts.append(pages[n])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "page_number": pa.array(nums, pa.int32()),
                "page_text": pa.array(texts, pa.large_string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# quality_filter — training-data curation gate: keep documents passing
# integer-exact quality thresholds (length window, minimum space ratio,
# bounded digit ratio). The Gopher-style rule family reduced to the
# counters available without a tokenizer model; thresholds are plain
# integers so the SQL oracle matches bit-for-bit.
# -------------------------------------------------------------------------

def quality_filter(
    sf_dir: str,
    *,
    min_chars: int = 100,
    max_chars: int = 20000,
    min_space_pct: int = 5,
    max_digit_pct: int = 20,
) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        keep = _quality_gate(
            batch["text"], min_chars, max_chars, min_space_pct, max_digit_pct
        )
        return batch.filter(keep).select(["doc_id"])

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# blocklist_filter — C4-style lexicon content gate: count word-boundary
# blocklist hits per document and keep documents whose blocked-token share
# stays under an integer threshold (20x rule == <= 5%). The lexicon is a
# compile-time RE2 alternation shared verbatim with the DuckDB oracle
# (one source of truth, like redact_pii); counting is one vectorized
# pc.count_substring_regex pass, no shuffle. At 100 TB this is a pure
# map stage; real deployments swap in their own lexicon via the
# ``words`` parameter.
# -------------------------------------------------------------------------

BLOCKLIST_WORDS = ("agg", "merge", "window")  # demo lexicon: corpus-present
_TOKEN_RE = r"[a-z0-9]+"


def blocklist_re(words: tuple[str, ...] = BLOCKLIST_WORDS) -> str:
    # custom lexicons may carry regex metacharacters ("c++") — escape each
    # word so the alternation stays a literal-word match. RE2's \b requires
    # a word char on its inside edge, so anchor each side only when the
    # word's edge character IS a word char: a blanket \b(...)\b would make
    # non-word-edged entries like "c++" silently unmatchable (ADVICE r4).
    def alt(w: str) -> str:
        head = r"\b" if re.match(r"\w", w[:1]) else ""
        tail = r"\b" if re.search(r"\w\Z", w[-1:]) else ""
        return head + re.escape(w) + tail

    return "(" + "|".join(alt(w) for w in words) + ")"


def blocklist_filter(
    sf_dir: str,
    *,
    words: tuple[str, ...] = BLOCKLIST_WORDS,
    max_pct_x20: int = 1,  # keep while n_blocked * 20 <= n_tokens * max_pct_x20
) -> rd.Dataset:
    """(doc_id, n_tokens, n_blocked, keep) per document — the labeled
    table rather than the filtered one, so BOTH branches of the gate are
    value-checked."""
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    pat = blocklist_re(words)

    def f(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        nb = pc.cast(
            pc.count_substring_regex(low, pattern=pat), pa.int64()
        )
        nt = pc.cast(
            pc.count_substring_regex(low, pattern=_TOKEN_RE), pa.int64()
        )
        keep = pc.less_equal(
            pc.multiply(nb, pa.scalar(20, pa.int64())),
            pc.multiply(nt, pa.scalar(max_pct_x20, pa.int64())),
        )
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_tokens": nt,
                "n_blocked": nb,
                "keep": keep,
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# winnow_fingerprints — rolling-hash document fingerprinting (winnowing:
# k-gram rolling hashes, minimum per sliding window — the classic local
# document fingerprint for plagiarism/near-dup detection). Rows-only
# (no SQL analog); deterministic.
# -------------------------------------------------------------------------

_WINNOW_K = 5  # gram length (characters)
_WINNOW_W = 8  # window of consecutive gram hashes; one min kept per window
_B = 257
_MOD = (1 << 61) - 1


_M61 = np.uint64(_MOD)
_MASK29 = np.uint64((1 << 29) - 1)


def _gram_hashes(s: str, k: int) -> np.ndarray:
    """Exact polynomial k-gram hashes (base _B mod 2^61-1) vectorized in
    uint64: h(i) = sum_j ord(s[i+j]) * B^(k-1-j) mod M. Each c*P product
    splits as c*Ph*2^32 + c*Pl with the 2^32 factor folded through the
    Mersenne identity 2^61 === 1 (mod M); the accumulator folds every
    iteration, so nothing overflows 64 bits for ANY k (chars < 2^21).
    Values are IDENTICAL to the arbitrary-precision rolling hash this
    replaces."""
    c = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    n = len(c)
    m = n - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        p = pow(_B, k - 1 - j, _MOD)
        ph, pl = np.uint64(p >> 32), np.uint64(p & 0xFFFFFFFF)
        cj = c[j : j + m]
        lo = cj * pl  # < 2^53
        y = cj * ph   # < 2^50; y*2^32 mod M via Mersenne split
        hi = (y >> np.uint64(29)) + ((y & _MASK29) << np.uint64(32))
        t = lo + hi  # < 2^62
        t = (t >> np.uint64(61)) + (t & _M61)
        t = np.where(t >= _M61, t - _M61, t)
        # fold EVERY iteration (both operands < M, so one conditional
        # subtract suffices) — exact for any k, not just the default 5
        acc += t
        acc = np.where(acc >= _M61, acc - _M61, acc)
    return acc


def winnow(text: str, k: int = _WINNOW_K, w: int = _WINNOW_W) -> list[int]:
    """Winnowed fingerprint set (sorted, deduped) of character k-grams —
    vectorized (hashes + sliding-window min), value-identical to the
    original Python rolling-hash loop (equivalence-tested)."""
    s = text.lower()
    n = len(s)
    if n < k:
        return [zlib.crc32(s.encode())] if s else []
    hashes = _gram_hashes(s, k)
    if len(hashes) <= w:
        return [int(hashes.min())]
    mins = np.lib.stride_tricks.sliding_window_view(hashes, w).min(axis=1)
    return sorted(int(v) for v in np.unique(mins))


class Winnower:
    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = [winnow(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_fingerprints": pa.array([len(f) for f in fps], pa.int64()),
                "min_fp": pa.array(
                    [f"{min(f):016x}" if f else "" for f in fps], pa.string()
                ),
            }
        )


def winnow_fingerprints(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    return instance_stage(ds, Winnower)


# -------------------------------------------------------------------------
# sample_docs — deterministic content-hash sampling (train/holdout split).
# The reference has no sampling anywhere (SURVEY §2.6: "no sampling");
# training-data pipelines need reproducible splits, so the sample key is a
# content hash, not an RNG: a row is in the p%-sample iff its md5 falls in
# the first p% of hex space. Stable across runs, machines and engines —
# and therefore SQL-checkable bit-for-bit.
# -------------------------------------------------------------------------

def sample_docs(sf_dir: str, pct: int = 10) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    # first two hex chars give 256 buckets; keep bucket < round(256*pct/100)
    cut = (256 * pct) // 100

    def f(batch: pa.Table) -> pa.Table:
        keep = [
            hashlib.md5(t.encode("utf-8")).digest()[0] < cut
            for t in batch["text"].to_pylist()
        ]
        return batch.filter(pa.array(keep)).select(["doc_id"])

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# ngram_jaccard_pairs — EXACT n-gram-Jaccard near-duplicate pairs via a
# distributed inverted shingle index (no all-pairs pass, no text re-join):
#
#   1. per doc: distinct 3-word shingle set -> 63-bit hashes + set size,
#      exploded to (sh, doc_id, n_sh) postings (map_batches, streaming);
#   2. keyed exchange on sh: one call per exchange block (not per shingle
#      — a per-shingle map_groups paid ~27k Python group calls, 2/3 of the
#      query's wall time) processes every shingle run inside it with
#      vectorized run-boundary detection; each run of df docs emits its
#      triu co-occurrence pairs (df=1 runs emit nothing; measured max df
#      25 at sf0.1);
#   3. keyed exchange on (doc_a, doc_b) of per-batch pair partials: the
#      number of postings a pair shares IS the intersection size, and
#      |A∪B| = n_a + n_b − |A∩B|, so Jaccard is exact from counts alone —
#      texts never travel again.
#
# The threshold test is pure integer math (inter*den >= uni*num), so the
# DuckDB oracle (list_intersect over the actual string shingle sets)
# hash-matches bit-for-bit; 63-bit shingle hashing makes a cross-doc
# collision (which would inflate `inter`) vanishingly unlikely at any df.
#
# Scale guards: the postings exchange's bucket count scales with posting
# volume (~150 per doc), so a bucket fits a worker; a boilerplate shingle shared by millions of docs would make step 2
# quadratic in its df, so runs longer than `max_df` are dropped with the
# standard justification (PPJoin/prefix-filter literature): a shingle that
# common carries ~zero Jaccard evidence. Exactness holds whenever df <=
# max_df for every shingle two near-dup docs share (always true at the
# test scales). (MinHash-LSH above is the approximate path when even
# df-capped exact counting is too heavy.)
# -------------------------------------------------------------------------

def _shingle_hashes63(text: str) -> np.ndarray:
    """Distinct 3-word shingle set as sorted 63-bit blake2b hashes (int64).
    Word/3-gram construction mirrors the DuckDB oracle exactly:
    regexp [a-z0-9]+ over lower(text); <3 words -> the single joined gram."""
    words = _WORD_RE.findall(text.lower())
    if not words:
        return np.empty(0, dtype=np.int64)
    if len(words) < 3:
        grams = [" ".join(words)]
    else:
        grams = [" ".join(words[i : i + 3]) for i in range(len(words) - 2)]
    hs = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(), "big")
            & 0x7FFFFFFFFFFFFFFF
            for g in grams
        ),
        dtype=np.int64,
        count=len(grams),
    )
    return np.unique(hs)


def ngram_jaccard_pairs(
    sf_dir: str,
    threshold_num: int = 1,
    threshold_den: int = 2,
    max_df: int = 1_000,
) -> rd.Dataset:
    """Pairs with shingle-set Jaccard >= threshold_num/threshold_den.
    Returns (doc_a, doc_b, inter, uni) — all exact int64 counts.
    ``max_df`` bounds the worst single-run pair emission at
    ~max_df²/2 (500k at the default — triu(10k) would allocate 50M pairs
    from ONE boilerplate shingle)."""
    from .agg import keyed_exchange

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        sh_all: list[np.ndarray] = []
        doc_ids: list[int] = []
        n_shs: list[int] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            hs = _shingle_hashes63(t)
            if hs.size == 0:
                continue
            sh_all.append(hs)
            doc_ids.extend([d] * hs.size)
            n_shs.extend([hs.size] * hs.size)
        sh = (
            np.concatenate(sh_all) if sh_all else np.empty(0, dtype=np.int64)
        )
        return pa.table(
            {
                "sh": pa.array(sh),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_sh": pa.array(n_shs, pa.int64()),
            }
        )

    def bucket_pairs(block: pa.Table) -> pa.Table:
        # every shingle run of one exchange block, vectorized: sort postings
        # by (sh, doc_id), find run boundaries, emit triu pairs per run
        sh = np.asarray(block["sh"].to_numpy(zero_copy_only=False))
        ids = np.asarray(block["doc_id"].to_numpy(zero_copy_only=False))
        ns = np.asarray(block["n_sh"].to_numpy(zero_copy_only=False))
        order = np.lexsort((ids, sh))
        sh, ids, ns = sh[order], ids[order], ns[order]
        starts = np.flatnonzero(np.concatenate([[True], sh[1:] != sh[:-1]]))
        lens = np.diff(np.append(starts, len(sh)))
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for s, k in zip(starts[(lens >= 2) & (lens <= max_df)].tolist(),
                        lens[(lens >= 2) & (lens <= max_df)].tolist()):
            ia, ib = np.triu_indices(k, k=1)
            out_a.append(s + ia)
            out_b.append(s + ib)
        if not out_a:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "n_a": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        ia = np.concatenate(out_a)
        ib = np.concatenate(out_b)
        return pa.table(
            {
                "doc_a": pa.array(ids[ia]),
                "doc_b": pa.array(ids[ib]),
                "n_a": pa.array(ns[ia]),
                "n_b": pa.array(ns[ib]),
            }
        )

    def pair_partial(batch: pa.Table) -> pa.Table:
        # collapse duplicate pairs within the batch; the pair-count combine
        # then runs as ONE pyarrow group_by per exchange block of pairs
        # instead of Ray's per-group machinery — candidate pairs are mostly
        # distinct, and a native groupby over millions of distinct keys
        # measured >200x slower than 256 coarse groups each combined
        # vectorized.
        t = batch.append_column(
            "cnt", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        return partial_group_agg(
            t,
            keys=["doc_a", "doc_b"],
            aggs=[("cnt", "sum"), ("n_a", "max"), ("n_b", "max")],
        )

    def combine_partition(group: pa.Table) -> pa.Table:
        g = (
            group.select(["doc_a", "doc_b", "cnt", "n_a", "n_b"])
            .group_by(["doc_a", "doc_b"])
            .aggregate([("cnt", "sum"), ("n_a", "max"), ("n_b", "max")])
        )
        inter = pc.cast(g["cnt_sum"], pa.int64())
        uni = pc.subtract(
            pc.add(
                pc.cast(g["n_a_max"], pa.int64()),
                pc.cast(g["n_b_max"], pa.int64()),
            ),
            inter,
        )
        keep = pc.greater_equal(
            pc.multiply(inter, pa.scalar(threshold_den, pa.int64())),
            pc.multiply(uni, pa.scalar(threshold_num, pa.int64())),
        )
        return pa.table(
            {
                "doc_a": g["doc_a"],
                "doc_b": g["doc_b"],
                "inter": inter,
                "uni": uni,
            }
        ).filter(keep)

    pairs = keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["sh"],
        bucket_pairs,
        _doc_parts(sf_dir, 150),
    )
    return keyed_exchange(
        pairs.map_batches(pair_partial, batch_format="pyarrow"),
        ["doc_a", "doc_b"],
        combine_partition,
        _doc_parts(sf_dir),
    )


# -------------------------------------------------------------------------
# doc_top_terms — per-doc top-k characteristic terms: the TF-IDF shape a
# training-data pipeline uses for topic/keyword tagging, with an
# integer-exact ranking (tf desc, global df asc, term asc) instead of a
# float score so the DuckDB oracle hash-matches bit-for-bit. Two passes:
#
#   pass 1: distinct terms per doc -> partial df counts -> native
#           groupby(term) sum -> the (small) vocabulary df table, collected
#           once and broadcast via the cached-task-instance pattern
#           (instance ships once per operator, cached per worker process);
#   pass 2: tokenize again, rank each doc's terms against the broadcast df.
#
# Scale note: a web-corpus vocabulary (~10^8 terms) still broadcasts in a
# few GB of dict; beyond that, replace the broadcast with a distributed
# join postings ⋈ df on term, then groupby(doc_id) top-k — same semantics,
# one more exchange. Per-doc shuffles: zero either way.
# -------------------------------------------------------------------------

class TopTerms:
    def __init__(self, df: dict[str, int], k: int = 3) -> None:
        self.df = df
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        doc_ids: list[int] = []
        rnks: list[int] = []
        terms: list[str] = []
        tfs: list[int] = []
        dfs: list[int] = []
        for d, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            counts = Counter(_WORD_RE.findall(text.lower()))
            best = sorted(
                counts.items(), key=lambda kv: (-kv[1], self.df[kv[0]], kv[0])
            )[: self.k]
            for rnk, (term, tf) in enumerate(best, 1):
                doc_ids.append(d)
                rnks.append(rnk)
                terms.append(term)
                tfs.append(tf)
                dfs.append(self.df[term])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "rnk": pa.array(rnks, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "df": pa.array(dfs, pa.int64()),
            }
        )


def doc_top_terms(sf_dir: str, k: int = 3) -> rd.Dataset:
    from ray.data.aggregate import Sum

    from .agg import collect

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def df_partial(batch: pa.Table) -> pa.Table:
        terms: list[str] = []
        for text in batch["text"].to_pylist():
            terms.extend(set(_WORD_RE.findall(text.lower())))
        t = pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "d": pa.array([1] * len(terms), pa.int64()),
            }
        )
        return partial_group_agg(t, keys=["term"], aggs=[("d", "sum")])

    # native aggregate: Ray combines the partials vectorized, no per-group call
    df_tbl = collect(
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("d"))
    )
    df_map = (
        dict(zip(df_tbl["term"].to_pylist(), df_tbl["sum(d)"].to_pylist()))
        if df_tbl is not None
        else {}
    )
    return instance_stage(ds, TopTerms, df=df_map, k=k)


# -------------------------------------------------------------------------
# sample_stratified — deterministic per-stratum sampling rates (the
# train-mix shape: keep 25% of en, 50% of de, 10% of everything else),
# same content-hash key as sample_docs so the split is reproducible
# across runs/engines and SQL-checkable bit-for-bit.
# -------------------------------------------------------------------------

_STRATA_PCT = {"en": 25, "de": 50}
_STRATA_DEFAULT_PCT = 10


def sample_stratified(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])
    cuts = {lang: (256 * p) // 100 for lang, p in _STRATA_PCT.items()}
    default_cut = (256 * _STRATA_DEFAULT_PCT) // 100

    def f(batch: pa.Table) -> pa.Table:
        keep = [
            hashlib.md5(t.encode("utf-8")).digest()[0] < cuts.get(lang, default_cut)
            for t, lang in zip(
                batch["text"].to_pylist(), batch["lang"].to_pylist()
            )
        ]
        return batch.filter(pa.array(keep)).select(["doc_id", "lang"])

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# remove_boilerplate_lines — CCNet-style corpus-frequency line scrubbing:
# a line that appears in >= min_docs DISTINCT documents is boilerplate
# (cookie banners, nav bars, footers) and is dropped from every document.
# Two passes, both vectorized end-to-end with arrow list kernels:
#   1. split_pattern -> per-batch (line, distinct-doc) partial counts ->
#      one hash-bucketed exchange of (line, nd) partials -> the (small)
#      boilerplate line set is collected and broadcast;
#   2. split_pattern -> is_in mask on the flat line values -> rebuild the
#      list offsets -> binary_join. No per-row Python in either pass.
# Scale note: the pass-1 exchange moves per-batch-DISTINCT lines; the
# broadcast set is only lines crossing the min_docs threshold (boilerplate
# is rare by definition). The reference has no analog — this is the
# web-corpus cleaning step in front of training (CCNet, Wenzek et al. '20).
# -------------------------------------------------------------------------

class _BoilerplateFilter:
    def __init__(self, lines: pa.Array):
        self._lines = lines

    def __call__(self, batch: pa.Table) -> pa.Table:
        la = pc.split_pattern(batch["text"], pattern="\n").combine_chunks()
        flat = la.flatten()
        lens = np.diff(la.offsets.to_numpy(zero_copy_only=False))
        n = batch.num_rows
        if len(self._lines) == 0:
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "clean_text": batch["text"],
                    "n_removed": pa.array(np.zeros(n, dtype=np.int64)),
                }
            )
        keep = pc.invert(pc.is_in(flat, value_set=self._lines)).to_numpy(
            zero_copy_only=False
        )
        doc_idx = np.repeat(np.arange(n), lens)
        kept_per_doc = np.bincount(doc_idx[keep], minlength=n)
        new_offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(kept_per_doc, out=new_offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(new_offsets), flat.filter(pa.array(keep))
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "clean_text": pc.binary_join(kept_list, "\n"),
                "n_removed": pa.array(lens - kept_per_doc, pa.int64()),
            }
        )


def remove_boilerplate_lines(sf_dir: str, min_docs: int = 2) -> rd.Dataset:
    from .agg import collect, keyed_exchange

    def line_partial(batch: pa.Table) -> pa.Table:
        la = pc.split_pattern(batch["text"], pattern="\n").combine_chunks()
        flat = la.flatten()
        lens = np.diff(la.offsets.to_numpy(zero_copy_only=False))
        doc_idx = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), lens
        )
        # distinct (doc, line) first, then distinct-doc count per line
        d = pa.table({"doc_id": pa.array(doc_idx), "line": flat}).group_by(
            ["doc_id", "line"]
        ).aggregate([])
        t = pa.table(
            {
                "line": d["line"],
                "nd": pa.array(np.ones(d.num_rows, dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["line"], aggs=[("nd", "sum")])

    def frequent(group: pa.Table) -> pa.Table:
        g = partial_group_agg(
            group.select(["line", "nd"]), keys=["line"], aggs=[("nd", "sum")]
        )
        return g.filter(
            pc.greater_equal(g["nd"], pa.scalar(min_docs, pa.int64()))
        ).select(["line"])

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    boiler = collect(
        keyed_exchange(
            docs.map_batches(line_partial, batch_format="pyarrow"),
            ["line"],
            frequent,
            _doc_parts(sf_dir),
        )
    )
    lines = (
        pa.array([], pa.string())
        if boiler is None
        else boiler["line"].combine_chunks()
    )
    return instance_stage(docs, _BoilerplateFilter, lines=lines)


# -------------------------------------------------------------------------
# redact_pii — vectorized PII scrubbing: emails, phone numbers and IPv4
# addresses are counted on the original text and replaced (in that fixed
# order) with <EMAIL>/<PHONE>/<IP> tokens. Both pyarrow.compute and the
# DuckDB oracle run RE2, so the THREE patterns below are shared verbatim
# with oracle_sql()["redact_pii"] — one source of truth, zero per-row
# Python. Pure per-doc map: no shuffle, streams at any scale.
# -------------------------------------------------------------------------

PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+?\d{1,2}[ -]\d{3}[ -]\d{3}[ -]\d{4}"
PII_IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def redact_pii(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        counts = {
            name: pc.cast(pc.count_substring_regex(text, pattern=pat), pa.int64())
            for name, pat in (
                ("n_emails", PII_EMAIL_RE),
                ("n_phones", PII_PHONE_RE),
                ("n_ips", PII_IP_RE),
            )
        }
        clean = text
        for pat, repl in (
            (PII_EMAIL_RE, "<EMAIL>"),
            (PII_PHONE_RE, "<PHONE>"),
            (PII_IP_RE, "<IP>"),
        ):
            clean = pc.replace_substring_regex(
                clean, pattern=pat, replacement=repl
            )
        return pa.table(
            {"doc_id": batch["doc_id"], "clean_text": clean, **counts}
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# repetition_stats — Gopher-style (Rae et al. '21, §A1.1) within-document
# repetition signals: duplicate-line count and the most-frequent word
# bigram's share. Entirely vectorized per batch: arrow split kernels ->
# flat word/line arrays with numpy offset math -> ONE arrow group_by per
# signal; no per-row Python, no shuffle (per-doc map).
# -------------------------------------------------------------------------


def _repetition_counts(
    batch: pa.Table,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n_lines, n_dup_lines, n_bigrams, top_bigram_n) int64 arrays per row
    of ``batch["text"]`` — the Gopher-style within-doc repetition signals,
    shared by ``repetition_stats`` and ``curation_summary``."""
    n = batch.num_rows
    # -- duplicate lines: n_lines - n_distinct_lines per doc
    ll = pc.split_pattern(batch["text"], pattern="\n").combine_chunks()
    n_lines = np.diff(ll.offsets.to_numpy(zero_copy_only=False))
    line_doc = np.repeat(np.arange(n), n_lines)
    dl = (
        pa.table({"d": pa.array(line_doc), "line": ll.flatten()})
        .group_by(["d", "line"])
        .aggregate([])
        .group_by("d")
        .aggregate([("d", "count")])
    )
    n_distinct = np.zeros(n, dtype=np.int64)
    n_distinct[dl["d"].to_numpy(zero_copy_only=False)] = dl[
        "d_count"
    ].to_numpy(zero_copy_only=False)
    # -- word bigrams on [a-z0-9]+ tokens of the lowercased text
    wl = pc.split_pattern_regex(
        pc.utf8_lower(batch["text"]), pattern="[^a-z0-9]+"
    ).combine_chunks()
    wflat = wl.flatten()
    wlens = np.diff(wl.offsets.to_numpy(zero_copy_only=False))
    wdoc = np.repeat(np.arange(n), wlens)
    keep = pc.not_equal(wflat, "").to_numpy(zero_copy_only=False)
    wdoc = wdoc[keep]
    words = wflat.filter(pa.array(keep))
    n_words = np.bincount(wdoc, minlength=n).astype(np.int64)
    n_bigrams = np.maximum(n_words - 1, 0)
    top = np.zeros(n, dtype=np.int64)
    if len(words) >= 2:
        m = wdoc[:-1] == wdoc[1:]
        idx = np.flatnonzero(m)
        bg = pc.binary_join_element_wise(
            words.take(pa.array(idx)),
            words.take(pa.array(idx + 1)),
            " ",
        )
        tb = (
            pa.table({"d": pa.array(wdoc[idx]), "b": bg})
            .group_by(["d", "b"])
            .aggregate([("b", "count")])
            .group_by("d")
            .aggregate([("b_count", "max")])
        )
        top[tb["d"].to_numpy(zero_copy_only=False)] = tb[
            "b_count_max"
        ].to_numpy(zero_copy_only=False)
    return (
        n_lines.astype(np.int64),
        (n_lines - n_distinct).astype(np.int64),
        n_bigrams,
        top,
    )


def repetition_stats(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n_lines, n_dup, n_bigrams, top = _repetition_counts(batch)
        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks(),
                "n_lines": pa.array(n_lines),
                "n_dup_lines": pa.array(n_dup),
                "n_bigrams": pa.array(n_bigrams),
                "top_bigram_n": pa.array(top),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# pack_sequences — deterministic document packing for training: docs in
# doc_id order are chunked into training sequences by token prefix sums
# (seq_id = exclusive-cumsum(tokens) // budget). Distributed exactly like
# Spark's zipWithIndex (``agg.ordered_ranges`` over doc_id ranges): pass 1
# computes per-range token totals (tiny: one row per range, collected and
# exclusive-scanned on the driver), pass 2 re-tokenizes and adds local
# cumsum + range base — no global sort, no full materialization; the
# doc_id range comes free from the parquet footer stats. Token definition
# shared with token_count (``ws_bounds``).
# -------------------------------------------------------------------------


def _empty_docs_result(path: str, cols: dict[str, pa.DataType]) -> rd.Dataset:
    """The zero-row result of a per-doc operator over an empty documents
    table: ``doc_id`` typed as the file types it, then ``cols``."""
    import pyarrow.parquet as pq

    fields = [pq.read_schema(path).field("doc_id")]
    fields += [pa.field(k, t) for k, t in cols.items()]
    return rd.from_arrow(pa.schema(fields).empty_table())


def _id_range_from_footer(path: str, column: str) -> tuple[int, int]:
    """min/max of an id column from parquet row-group statistics — O(footer),
    no data read. Falls back to a column-pruned scan if stats are absent."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path)
    idx = md.schema.names.index(column)
    lo, hi = None, None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            t = pq.read_table(path, columns=[column])[column]
            mm = pc.min_max(t)
            return mm["min"].as_py(), mm["max"].as_py()
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return int(lo), int(hi)


def pack_sequences(sf_dir: str, budget: int = 512) -> rd.Dataset:
    import pyarrow.parquet as pq

    from .agg import ordered_ranges, scaled_partitions

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    if n_rows == 0:  # no footer stats to range over
        return _empty_docs_result(
            path, {"n_tokens": pa.int64(), "seq_id": pa.int64()}
        )

    def tokens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": _ws_tokens(batch["text"])}
        )

    def pack(t: pa.Table, starts: np.ndarray, _totals: np.ndarray) -> pa.Table:
        return t.append_column("seq_id", pa.array(starts[:, 1] // budget))

    return ordered_ranges(
        _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
            tokens, batch_format="pyarrow"
        ),
        "doc_id",
        _id_range_from_footer(path, "doc_id"),
        scaled_partitions(n_rows),
        [("doc_id", "ascending")],
        ["n_tokens"],
        pack,
    )


# -------------------------------------------------------------------------
# decontaminate — benchmark n-gram overlap screen (the train/eval
# decontamination step, cf. GPT-3 appendix C / Dodge et al. '21): the
# deterministic sample_docs subset (md5 bucket < pct%) plays the held-out
# benchmark; every OTHER doc reports how many of its distinct 3-word
# shingles appear anywhere in the benchmark. Same distributed inverted
# shingle index as ngram_jaccard_pairs — postings keyed by shingle hash,
# membership tested per exchange block with ONE vectorized is_in,
# per-doc partial counts re-keyed through the scale-aware grouped_sum —
# so neither the benchmark shingle set nor any doc pair list is ever
# broadcast or collected. Returns (doc_id, n_shingles, n_hits) for every
# candidate doc with >= 1 shingle.
# -------------------------------------------------------------------------


def decontaminate(sf_dir: str, pct: int = 10) -> rd.Dataset:
    from .agg import grouped_sum, keyed_exchange

    cut = (256 * pct) // 100
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        sh_all: list[np.ndarray] = []
        doc_ids: list[int] = []
        bench: list[bool] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            hs = _shingle_hashes63(t)
            if hs.size == 0:
                continue
            b = hashlib.md5(t.encode("utf-8")).digest()[0] < cut
            sh_all.append(hs)
            doc_ids.extend([d] * hs.size)
            bench.extend([b] * hs.size)
        sh = (
            np.concatenate(sh_all) if sh_all else np.empty(0, dtype=np.int64)
        )
        return pa.table(
            {
                "sh": pa.array(sh),
                "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
                "bench": pa.array(np.asarray(bench, dtype=bool)),
            }
        )

    def probe(block: pa.Table) -> pa.Table:
        # every posting of a shingle is in this block, so its benchmark
        # membership is decided here
        is_b = block["bench"]
        bench_sh = pc.unique(block.filter(is_b)["sh"].combine_chunks())
        cand = block.filter(pc.invert(is_b))
        if cand.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_shingles": pa.array([], pa.int64()),
                    "n_hits": pa.array([], pa.int64()),
                }
            )
        hits = pc.cast(
            pc.is_in(cand["sh"], value_set=bench_sh), pa.int64()
        )
        t = pa.table(
            {
                "doc_id": cand["doc_id"],
                "n_shingles": pa.array(
                    np.ones(cand.num_rows, dtype=np.int64)
                ),
                "n_hits": hits,
            }
        )
        return partial_group_agg(
            t,
            keys=["doc_id"],
            aggs=[("n_shingles", "sum"), ("n_hits", "sum")],
        )

    per_block = keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["sh"],
        probe,
        _doc_parts(sf_dir, 150),
    )
    return grouped_sum(
        per_block,
        keys=["doc_id"],
        partial=lambda b: partial_group_agg(
            b,
            keys=["doc_id"],
            aggs=[("n_shingles", "sum"), ("n_hits", "sum")],
        ),
        sum_cols=["n_shingles", "n_hits"],
    )


# -------------------------------------------------------------------------
# paragraph_dedup — inter-document EXACT dedup at paragraph granularity
# (the MassiveText / CCNet step between line scrubbing and whole-doc
# dedup): every paragraph instance except the globally-first occurrence
# (lexicographic min (doc_id, ord)) is dropped from its document. Two
# keyed exchanges, both over paragraph rows — the honest shuffle for
# these semantics, mirror of dedup_exact at a finer grain:
#
#   1. explode (doc_id, ord, para), hash-bucket by PARA -> winner = first
#      row of each sorted run (vectorized adjacent-equality, no per-para
#      Python);
#   2. re-bucket survivors+tombstones by DOC -> per-doc reassembly with
#      arrow list offsets + binary_join (tombstones carry an empty payload
#      so only kept paragraph bytes travel the second exchange).
#
# Each bucket holds ~rows/n_parts paragraphs (scaled_partitions), never
# one key's cluster; a pathological mega-duplicate paragraph lands one
# run in one bucket and is dropped in O(run) time.
# -------------------------------------------------------------------------


def paragraph_dedup(sf_dir: str) -> rd.Dataset:
    from .agg import keyed_exchange

    # paragraph rows ≈ docs x ~10 paragraphs
    n_parts = _doc_parts(sf_dir, 10)
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        la = pc.split_pattern(
            batch["text"], pattern="\n\n"
        ).combine_chunks()
        lens = np.diff(la.offsets.to_numpy(zero_copy_only=False))
        total = int(lens.sum())
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(
                        batch["doc_id"].to_numpy(zero_copy_only=False), lens
                    )
                ),
                "ord": pa.array(
                    np.arange(total) - np.repeat(starts, lens), pa.int64()
                ),
                "para": la.flatten(),
            }
        )

    def pick_winners(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("para", "ascending"),
                ("doc_id", "ascending"),
                ("ord", "ascending"),
            ]
        )
        para = t["para"].combine_chunks()
        n = len(para)
        eq = pc.equal(para.slice(1), para.slice(0, n - 1))
        keep = np.concatenate(
            [[True], pc.invert(eq).to_numpy(zero_copy_only=False)]
        )
        # tombstones ship no paragraph bytes back out
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "ord": t["ord"],
                "para": pc.if_else(pa.array(keep), para, ""),
                "keep": pa.array(keep),
            }
        )

    def rebuild(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("doc_id", "ascending"), ("ord", "ascending")]
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        n = len(ids)
        doc_starts = np.flatnonzero(
            np.concatenate([[True], ids[1:] != ids[:-1]])
        )
        doc_lens = np.diff(np.append(doc_starts, n))
        n_docs = len(doc_starts)
        doc_idx = np.repeat(np.arange(n_docs), doc_lens)
        keep = t["keep"].to_numpy(zero_copy_only=False)
        kept_per_doc = np.bincount(doc_idx[keep], minlength=n_docs)
        offsets = np.zeros(n_docs + 1, dtype=np.int32)
        np.cumsum(kept_per_doc, out=offsets[1:])
        kept_list = pa.ListArray.from_arrays(
            pa.array(offsets),
            t["para"].combine_chunks().filter(pa.array(keep)),
        )
        return pa.table(
            {
                "doc_id": pa.array(ids[doc_starts]),
                "clean_text": pc.binary_join(kept_list, "\n\n"),
                "n_removed": pa.array(
                    doc_lens - kept_per_doc, pa.int64()
                ),
            }
        )

    winners = keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["para"],
        pick_winners,
        n_parts,
    )
    return keyed_exchange(winners, ["doc_id"], rebuild, n_parts)


# -------------------------------------------------------------------------
# vocab_topk — corpus-wide vocabulary build: global term-occurrence counts,
# top-k by (count desc, term asc). The tokenizer-training / vocab-audit
# step of a web-text pipeline. Fully vectorized: utf8_lower ->
# split_pattern_regex on the non-alnum complement (identical runs to
# _WORD_RE.findall) -> list_flatten -> per-batch arrow group_by partial ->
# one hash-bucketed exchange of (term, cnt) partials -> distributed exact
# top-k. The exchange moves per-batch-DISTINCT terms (Zipf: vocab grows
# ~O(sqrt(tokens))), never raw token streams.
# -------------------------------------------------------------------------

def vocab_topk(sf_dir: str, k: int = 100) -> pa.Table:
    from .agg import topk

    ds = _read_docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        flat = pc.list_flatten(pc.split_pattern_regex(low, "[^a-z0-9]+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        t = pa.table(
            {
                "term": flat,
                "cnt": pa.array(np.ones(len(flat), dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["term"], aggs=[("cnt", "sum")])

    counts = grouped_sum(ds, keys=["term"], partial=partial, sum_cols=["cnt"])
    return topk(
        counts, k=k, sort_keys=[("cnt", "descending"), ("term", "ascending")]
    )


_CMS_D = 4
_CMS_W = 16384


def vocab_counts_cms(sf_dir: str, k: int = 20) -> pa.Table:
    """Count-Min sketch term-frequency estimates (Cormode & Muthukrishnan
    2005) — the point-query counterpart of the Misra-Gries heavy-hitters
    sketch (``vocab_topk_sketch``): a d x w counter matrix whose partials
    are MERGEABLE by elementwise sum, so the exchange carries at most
    d*w = 64k (cell, count) rows regardless of corpus size and the sketch
    answers est(term) = min_i M[i, h_i(term)] with est >= true and
    overestimate <= ~e*N/w with high probability. Hashing is the
    vectorized deterministic pandas row hash under d distinct keys — no
    per-token Python. Returns (term, est, cnt) for the exact top-k terms
    so the estimate can be judged against truth (pytest asserts the
    bounds)."""
    import pandas as pd

    from .agg import collect

    ds = _read_docs(sf_dir, ["text"])
    keys = [f"cms-row-key-{i:02d}!".ljust(16, "x")[:16] for i in range(_CMS_D)]

    def _cells(flat: pa.Array) -> "np.ndarray":
        s = pd.Series(flat.to_pandas(), dtype="object")
        return np.stack(
            [
                (
                    pd.util.hash_pandas_object(s, index=False, hash_key=key)
                    .to_numpy()
                    .astype(np.uint64)
                    % _CMS_W
                ).astype(np.int64)
                for key in keys
            ]
        )  # (d, n_tokens)

    def sketch_partial(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        flat = pc.list_flatten(pc.split_pattern_regex(low, "[^a-z0-9]+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        if len(flat) == 0:
            return pa.table(
                {"cell": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        cells = _cells(flat.combine_chunks())
        ids = (
            np.arange(_CMS_D, dtype=np.int64)[:, None] * _CMS_W + cells
        ).reshape(-1)
        t = pa.table(
            {
                "cell": pa.array(ids, pa.int64()),
                "c": pa.array(np.ones(len(ids), np.int64)),
            }
        )
        return partial_group_agg(t, keys=["cell"], aggs=[("c", "sum")])

    reduced = collect(
        grouped_sum(ds, keys=["cell"], partial=sketch_partial, sum_cols=["c"])
    )
    m = np.zeros(_CMS_D * _CMS_W, np.int64)
    if reduced is not None:
        m[reduced["cell"].to_numpy(zero_copy_only=False)] = reduced[
            "c"
        ].to_numpy(zero_copy_only=False)

    probes = vocab_topk(sf_dir, k=k)  # exact top-k = the judged queries
    if probes.num_rows == 0:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "est": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
    cells = _cells(probes["term"].combine_chunks())
    est = np.min(
        m[np.arange(_CMS_D, dtype=np.int64)[:, None] * _CMS_W + cells], axis=0
    )
    return pa.table(
        {
            "term": probes["term"],
            "est": pa.array(est, pa.int64()),
            "cnt": pc.cast(probes["cnt"], pa.int64()),
        }
    ).sort_by([("term", "ascending")])


# -------------------------------------------------------------------------
# normalize_text — canonical text form ahead of hashing/dedup/tokenization:
# unicode lowercase, ASCII-whitespace runs collapsed to single spaces,
# leading/trailing spaces trimmed. Pure vectorized arrow kernels; byte
# parity with DuckDB's lower()/regexp_replace(..,'g')/trim() verified
# (both sides are utf8proc + RE2 semantics).
# -------------------------------------------------------------------------

def normalize_text(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        norm = pc.utf8_trim(
            pc.replace_substring_regex(
                low, pattern=r"[ \t\n\r\f\v]+", replacement=" "
            ),
            " ",
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "norm_text": norm,
                "norm_chars": pc.cast(pc.utf8_length(norm), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# explode_paragraphs — the flat_map shape: one input document row ->
# one output row per '\n\n'-separated paragraph, with a 1-based
# within-document index. Vectorized end-to-end (split_pattern ->
# list_value_length/list_flatten + numpy repeat/arange for the
# (doc_id, idx) expansion); no per-row Python. Embarrassingly parallel —
# no exchange at all; output rows stay in input-block order so downstream
# stages inherit the read's partitioning.
# -------------------------------------------------------------------------

def explode_paragraphs(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["text"], "\n\n")
        lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        n = int(lens.sum())
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(parts)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, lens), pa.int64()),
                "para_idx": pa.array(
                    np.arange(n, dtype=np.int64) - np.repeat(starts, lens) + 1
                ),
                "para": flat,
                "para_chars": pc.cast(pc.utf8_length(flat), pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# cap_per_source — per-domain document cap (the web-pipeline "no domain
# dominates the mix" rule: keep at most `cap` docs per source, smallest
# doc_id first = deterministic first-crawled-wins). Per-batch per-source
# top-cap prefilter bounds the exchange at cap rows x #sources x #batches;
# the keyed combine re-ranks vectorized (sort + run-length rank), never a
# per-group Python call.
# -------------------------------------------------------------------------

def cap_per_source(sf_dir: str, cap: int = 50) -> rd.Dataset:
    from .agg import keyed_exchange

    ds = _read_docs(sf_dir, ["source", "doc_id"])

    def _rank_filter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        idx = pc.sort_indices(
            t, sort_keys=[("source", "ascending"), ("doc_id", "ascending")]
        )
        t = t.take(idx)
        src = t["source"].combine_chunks().to_numpy(zero_copy_only=False)
        new_grp = np.empty(len(src), dtype=bool)
        new_grp[0] = True
        np.not_equal(src[1:], src[:-1], out=new_grp[1:])
        starts = np.flatnonzero(new_grp)
        rank = np.arange(len(src)) - np.repeat(
            starts, np.diff(np.append(starts, len(src)))
        )
        return t.select(["source", "doc_id"]).filter(pa.array(rank < cap))

    return keyed_exchange(
        ds.map_batches(_rank_filter, batch_format="pyarrow"),
        ["source"],
        _rank_filter,
        _doc_parts(sf_dir),
    )


# -------------------------------------------------------------------------
# filter_source_quality — domain-level quality gate (the RefinedWeb-style
# "drop whole bad domains" rule): a source survives iff its AGGREGATE
# space share >= space_pct% and its mean doc length >= min_mean_chars.
# Integer-exact threshold math (100*sum_spaces >= pct*sum_chars), so the
# DuckDB oracle hash-matches bit-for-bit. The per-source stats reduce
# in-cluster via the partial-agg exchange; only the REJECTED source set is
# collected and broadcast (garbage domains are rare by assumption —
# the mirror of the dup-index design), then docs anti-filter map-side.
# -------------------------------------------------------------------------

def filter_source_quality(
    sf_dir: str, min_mean_chars: int = 200, space_pct: int = 10
) -> rd.Dataset:
    from .agg import collect

    ds = _read_docs(sf_dir, ["doc_id", "source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        n_chars = pc.cast(pc.utf8_length(batch["text"]), pa.int64())
        n_spaces = pc.cast(
            pc.count_substring(batch["text"], pattern=" "), pa.int64()
        )
        t = pa.table(
            {
                "source": batch["source"],
                "n_docs": pa.array(
                    np.ones(batch.num_rows, dtype=np.int64)
                ),
                "sum_chars": n_chars,
                "sum_spaces": n_spaces,
            }
        )
        return partial_group_agg(
            t,
            keys=["source"],
            aggs=[("n_docs", "sum"), ("sum_chars", "sum"), ("sum_spaces", "sum")],
        )

    stats = grouped_sum(
        ds,
        keys=["source"],
        partial=partial,
        sum_cols=["n_docs", "sum_chars", "sum_spaces"],
    )

    def rejected_only(batch: pa.Table) -> pa.Table:
        # empty shuffle partitions surface as zero-column blocks — guard
        # before touching named columns
        if batch.num_rows == 0:
            return pa.table({"source": pa.array([], pa.string())})
        ok = pc.and_(
            pc.greater_equal(
                pc.multiply(batch["sum_spaces"], pa.scalar(100, pa.int64())),
                pc.multiply(batch["sum_chars"], pa.scalar(space_pct, pa.int64())),
            ),
            pc.greater_equal(
                batch["sum_chars"],
                pc.multiply(
                    batch["n_docs"], pa.scalar(min_mean_chars, pa.int64())
                ),
            ),
        )
        return batch.filter(pc.invert(ok)).select(["source"])

    rej_t = collect(stats.map_batches(rejected_only, batch_format="pyarrow"))
    rejected = (
        rej_t["source"].combine_chunks()
        if rej_t is not None
        else pa.array([], pa.string())
    )

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(batch["source"], value_set=rejected))
        return batch.filter(mask)

    # second pass re-reads pruned to the two output columns — the heavy
    # text column must not ship through the filter
    slim = _read_docs(sf_dir, ["doc_id", "source"])
    return slim.map_batches(keep, batch_format="pyarrow")


# -------------------------------------------------------------------------
# split_assign — deterministic train/valid/test split by content hash
# (the same md5-first-byte convention as sample_docs, so splits are
# reproducible across runs/engines and stable under re-sharding):
# buckets [0,242) -> train (~94.5%), [242,249) -> valid (~2.7%),
# [249,256) -> test (~2.7%). Embarrassingly parallel, no exchange.
# -------------------------------------------------------------------------

def split_assign(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        b = np.array(
            [
                hashlib.md5(t.encode("utf-8")).digest()[0]
                for t in batch["text"].to_pylist()
            ],
            dtype=np.int64,
        )
        split = np.where(b < 242, "train", np.where(b < 249, "valid", "test"))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# shuffle_docs — deterministic global training-order shuffle: every doc
# gets shuffle_pos = its rank under md5("{doc_id}:{seed}") hash order.
# The distributed zipWithIndex shape WITHOUT a global sort operator
# (``agg.ordered_ranges``): md5 is uniform, so ordered key-RANGE buckets
# (first 32 hash bits scaled to n_parts) are balanced by construction;
# pass 1 counts rows per bucket (exclusive base offsets on the driver),
# pass 2 ranks within each bucket (sort by full key, tie-break doc_id)
# and adds the base.
# Exactly reproduces ROW_NUMBER() OVER (ORDER BY md5(...), doc_id) - 1
# because hex string order == numeric order of the hash prefix.
# -------------------------------------------------------------------------

def shuffle_docs(sf_dir: str, seed: int = 42) -> rd.Dataset:
    import pyarrow.parquet as pq

    from .agg import ordered_ranges, scaled_partitions

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    if n_rows == 0:
        return _empty_docs_result(path, {"shuffle_pos": pa.int64()})

    def keys(batch: pa.Table) -> pa.Table:
        ks = [
            hashlib.md5(f"{i}:{seed}".encode("ascii")).hexdigest()
            for i in batch["doc_id"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "k": pa.array(ks, pa.string()),
                "k32": pa.array([int(k[:8], 16) for k in ks], pa.int64()),
            }
        )

    def rank(t: pa.Table, starts: np.ndarray, _totals: np.ndarray) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "shuffle_pos": pa.array(starts[:, 0])}
        )

    return ordered_ranges(
        _read_docs(sf_dir, ["doc_id"]).map_batches(keys, batch_format="pyarrow"),
        "k32",
        (0, (1 << 32) - 1),
        scaled_partitions(n_rows),
        [("k", "ascending"), ("doc_id", "ascending")],
        [],
        rank,
    )


# -------------------------------------------------------------------------
# tfidf_search — ranked keyword retrieval: score = sum over query terms of
# tf(term, doc) * weight(term), weight = floor(1e6 * ln(N / df)) as int64.
# The integer weighting makes ranking hash-exact vs the SQL oracle (no
# float sums cross the exchange). Two streaming passes: (1) per-batch df
# partials (one tiny row per batch), (2) vectorized tf scoring + the
# standard local-topk prefilter, so only #batches x k rows reach the
# driver. The reference's search is an ILIKE substring filter
# (/root/reference/backend/src/main.py:1209-1214); ranked retrieval is the
# corpus-scale upgrade of that surface.
# -------------------------------------------------------------------------

TFIDF_TERMS = ("scan", "merge", "window", "join")


def tfidf_search(
    sf_dir: str, k: int = 20, terms: tuple[str, ...] = TFIDF_TERMS
) -> pa.Table:
    import math

    from .agg import collect, local_topk

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def _tok(batch: pa.Table):
        low = pc.utf8_lower(batch["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(pc.list_flatten(toks).to_numpy(zero_copy_only=False))
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        return flat, parent

    def df_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _tok(batch)
        row = {"n_docs": pa.array([batch.num_rows], pa.int64())}
        for i, term in enumerate(terms):
            row[f"df{i}"] = pa.array(
                [len(np.unique(parent[flat == term]))], pa.int64()
            )
        return pa.table(row)

    part = collect(ds.map_batches(df_partial, batch_format="pyarrow"))
    n_total = int(pc.sum(part["n_docs"]).as_py()) if part is not None else 0
    weights = []
    for i in range(len(terms)):
        df = int(pc.sum(part[f"df{i}"]).as_py()) if part is not None else 0
        # libm ln on both sides (CPython math.log / DuckDB LN) -> identical
        # doubles -> identical floor
        weights.append(
            int(math.floor(1e6 * math.log(n_total / df))) if df else 0
        )

    def score(batch: pa.Table) -> pa.Table:
        flat, parent = _tok(batch)
        s = np.zeros(batch.num_rows, np.int64)
        for term, w in zip(terms, weights):
            if w:
                tf = np.bincount(parent[flat == term], minlength=batch.num_rows)
                s += tf.astype(np.int64) * w
        t = pa.table({"doc_id": batch["doc_id"], "score": pa.array(s)})
        return local_topk(
            t, k=k, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
        )

    pruned = collect(ds.map_batches(score, batch_format="pyarrow"))
    if pruned is None:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.int64())}
        )
    return local_topk(
        pruned, k=k, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
    )


# -------------------------------------------------------------------------
# curation_summary — the composed corpus-curation pipeline: quality gate +
# within-doc repetition screen + exact dedup applied in ONE pass, reporting
# per-rule drop counts and the final kept count. This is the end-to-end
# shape a training-data pipeline runs before packing; every predicate is
# integer math shared bit-exactly with the DuckDB oracle. Physical plan:
# one map pass computes all per-doc flags + the text md5, ONE bucketed
# exchange resolves exact-dup groups (in-bucket arrow group_by on the full
# md5, min doc_id wins — same layout as dedup_exact), and each bucket
# forwards 4 integers; the driver sums #buckets tiny rows.
# -------------------------------------------------------------------------

def curation_summary(
    sf_dir: str,
    *,
    max_dup_line_pct: int = 10,
    max_top_bigram_pct: int = 8,
) -> pa.Table:
    from .agg import collect, keyed_exchange

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def flag_stage(batch: pa.Table) -> pa.Table:
        good_q = _quality_gate(batch["text"], 100, 20000, 5, 20)
        n_lines, n_dup, n_bg, top = _repetition_counts(batch)
        bad_r = (n_dup * 100 > max_dup_line_pct * n_lines) | (
            top * 100 > max_top_bigram_pct * np.maximum(n_bg, 1)
        )
        full = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "full": pa.array(full, pa.string()),
                "bad_q": pc.invert(good_q),
                "bad_r": pa.array(bad_r),
            }
        )

    def combine(group: pa.Table) -> pa.Table:
        mins = group.group_by(["full"]).aggregate([("doc_id", "min")])
        lut = dict(
            zip(mins["full"].to_pylist(), mins["doc_id_min"].to_pylist())
        )
        winner = np.asarray(
            [lut[f] for f in group["full"].to_pylist()], dtype=np.int64
        )
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        is_dup = ids != winner
        bq = group["bad_q"].to_numpy(zero_copy_only=False)
        br = group["bad_r"].to_numpy(zero_copy_only=False)
        kept = ~bq & ~br & ~is_dup
        return pa.table(
            {
                "dropped_exact_dup": pa.array([int(is_dup.sum())], pa.int64()),
                "dropped_quality": pa.array([int(bq.sum())], pa.int64()),
                "dropped_repetition": pa.array([int(br.sum())], pa.int64()),
                "kept": pa.array([int(kept.sum())], pa.int64()),
            }
        )

    partials = collect(
        keyed_exchange(
            ds.map_batches(flag_stage, batch_format="pyarrow"),
            ["full"],
            combine,
            _doc_parts(sf_dir),
        )
    )
    rules = ["dropped_exact_dup", "dropped_quality", "dropped_repetition", "kept"]
    tot = {
        r: (int(pc.sum(partials[r]).as_py() or 0) if partials is not None else 0)
        for r in rules
    }
    return pa.table(
        {
            "rule": pa.array(rules, pa.string()),
            "n_docs": pa.array([tot[r] for r in rules], pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# compression_ratio — the deflate-compressibility quality signal used by
# large corpus-curation pipelines (highly repetitive/template text
# compresses far below natural prose): per doc, zlib level-6 deflate of
# the UTF-8 bytes; ratio reported in integer basis points (10000 *
# comp/raw) so output is platform-exact. zlib output is fully
# deterministic for a fixed level, but DuckDB has no deflate -> rows-only
# oracle (pytest recomputes the same bytes directly). The per-row Python
# loop is inherent (deflate is per-document C code, like the PDF/HTML
# kernels); map-only, zero exchange.
# -------------------------------------------------------------------------

def compression_ratio(sf_dir: str) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        raw_b, comp_b = [], []
        for t in batch["text"].to_pylist():
            b = t.encode("utf-8")
            raw_b.append(len(b))
            comp_b.append(len(zlib.compress(b, 6)))
        raw = np.asarray(raw_b, np.int64)
        comp = np.asarray(comp_b, np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "raw_bytes": pa.array(raw),
                "comp_bytes": pa.array(comp),
                "ratio_bp": pa.array(
                    10000 * comp // np.maximum(raw, 1)
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


# -------------------------------------------------------------------------
# duplicate_ngram_coverage — Gopher/MassiveText-style duplicate-n-gram
# signal: for every document, how many of its DISTINCT 3-word shingles
# also occur in at least one OTHER document. Same distributed inverted
# shingle index as decontaminate/ngram_jaccard_pairs: explode (doc, sh)
# rows, ONE keyed exchange on the shingle (all postings of a shingle land
# together, so its global distinct-doc count is local to the exchange
# block), one vectorized value_counts pass per block, then the per-doc
# partial sums ride the small grouped_sum exchange. Never an all-pairs
# join; a pathological mega-shingle is one posting run in one bucket.
# Reference analog: no equivalent (the reference dedups nothing); this is
# the training-data signal the task brief asks for beside dedup_exact.
# -------------------------------------------------------------------------


def duplicate_ngram_coverage(sf_dir: str) -> rd.Dataset:
    from .agg import grouped_sum, keyed_exchange

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        sh_all: list[np.ndarray] = []
        doc_ids: list[int] = []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            hs = _shingle_hashes63(t)
            if hs.size == 0:
                continue
            sh_all.append(hs)
            doc_ids.extend([d] * hs.size)
        sh = np.concatenate(sh_all) if sh_all else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                "sh": pa.array(sh),
                "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
            }
        )

    def count_dups(block: pa.Table) -> pa.Table:
        # postings are distinct per (doc, shingle), so the block-local
        # occurrence count of a shingle IS its global distinct-doc count
        vc = pc.value_counts(block["sh"].combine_chunks())
        dup_set = vc.field("values").filter(
            pc.greater_equal(vc.field("counts"), pa.scalar(2))
        )
        hits = pc.cast(pc.is_in(block["sh"], value_set=dup_set), pa.int64())
        t = pa.table(
            {
                "doc_id": block["doc_id"],
                "n_shingles": pa.array(
                    np.ones(block.num_rows, dtype=np.int64)
                ),
                "n_dup_shingles": hits,
            }
        )
        return partial_group_agg(
            t,
            keys=["doc_id"],
            aggs=[("n_shingles", "sum"), ("n_dup_shingles", "sum")],
        )

    per_block = keyed_exchange(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["sh"],
        count_dups,
        _doc_parts(sf_dir, 150),
    )
    return grouped_sum(
        per_block,
        keys=["doc_id"],
        partial=lambda b: partial_group_agg(
            b,
            keys=["doc_id"],
            aggs=[("n_shingles", "sum"), ("n_dup_shingles", "sum")],
        ),
        sum_cols=["n_shingles", "n_dup_shingles"],
    )


# -------------------------------------------------------------------------
# jaccard_dup_groups — near-dup CLUSTERS over the EXACT n-gram Jaccard
# pair set: connected components (union-find) with canonical
# representative = min doc_id, turning pairwise dup detection into the
# per-document keep/drop decision a curation pipeline actually applies.
# The union-find runs over the verified pairs only — the tiny set
# ngram_jaccard_pairs is contractually allowed to return to the driver
# (pairs above threshold, not candidates); all heavy work (inverted
# shingle index, bucketed posting intersection) stays distributed inside
# that operator. DuckDB oracle: recursive-CTE transitive closure over the
# same exact pair SQL.
# -------------------------------------------------------------------------


def jaccard_dup_groups(sf_dir: str) -> pa.Table:
    """Dup CLUSTERS over the verified Jaccard pair set: distributed
    min-label-propagation connected components (``cc.pair_components``) —
    the pair Dataset never lands on the driver; the driver holds only the
    node-label vector (see cc.py for the stated cardinality assumption).
    Output identical to the former driver union-find: canonical
    representative = min doc_id per component."""
    from .cc import pair_components

    pairs = ngram_jaccard_pairs(sf_dir)
    if isinstance(pairs, rd.Dataset):
        pairs = pairs.select_columns(["doc_a", "doc_b"])
    return pair_components(
        pairs, col_a="doc_a", col_b="doc_b", out_id="doc_id"
    )


# -------------------------------------------------------------------------
# vocab_topk_sketch — mergeable Misra-Gries heavy-hitters summary: the
# O(cap)-state 100 TB path beside the exact vocab_topk (whose exchange
# carries one partial per distinct term per batch — unbounded vocabulary
# cost on the wire). Each batch forwards at most _MG_CAP counters; the
# driver merges #batches x cap rows. Merge rule (Agarwal et al.,
# "Mergeable Summaries"): pointwise-add counters, then subtract the
# (cap+1)-th largest value and drop non-positive. Deterministic guarantee
# carried in the output: cnt_est <= true <= cnt_est + err_bound for every
# surviving term, and any term with true count > err_bound survives
# (err_bound <= total_tokens/(cap+1)). Approximate by design -> rows-only;
# the bound is pytest-asserted against the exact operator.
# -------------------------------------------------------------------------

_MG_CAP = 4096


def _mg_compress(
    terms: np.ndarray, counts: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Keep <= cap counters by subtracting the (cap+1)-th largest count;
    returns (terms, counts, subtracted)."""
    if len(terms) <= cap:
        return terms, counts, 0
    kth = int(np.partition(counts, len(counts) - cap - 1)[len(counts) - cap - 1])
    keep = counts > kth
    return terms[keep], counts[keep] - kth, kth


def vocab_topk_sketch(
    sf_dir: str, k: int = 100, cap: int = _MG_CAP
) -> pa.Table:
    from .agg import collect

    ds = _read_docs(sf_dir, ["text"])

    def sketch(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        flat = pc.list_flatten(pc.split_pattern_regex(low, "[^a-z0-9]+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat.combine_chunks())
        terms = vc.field("values").to_numpy(zero_copy_only=False)
        counts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        terms, counts, err = _mg_compress(terms, counts, cap)
        return pa.table(
            {
                # null-term sentinel row carries this batch's subtraction
                "term": pa.array(list(terms) + [None], pa.string()),
                "cnt_est": pa.array(
                    np.concatenate([counts, [err]]), pa.int64()
                ),
            }
        )

    parts = collect(ds.map_batches(sketch, batch_format="pyarrow"))
    if parts is None:
        return pa.table(
            {
                "term": pa.array([], pa.string()),
                "cnt_est": pa.array([], pa.int64()),
                "err_bound": pa.array([], pa.int64()),
            }
        )
    is_err = pc.is_null(parts["term"])
    err_total = int(pc.sum(parts.filter(is_err)["cnt_est"]).as_py() or 0)
    live = parts.filter(pc.invert(is_err))
    g = live.group_by(["term"]).aggregate([("cnt_est", "sum")])
    terms = g["term"].to_numpy(zero_copy_only=False)
    counts = g["cnt_est_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    terms, counts, err = _mg_compress(terms, counts, cap)
    err_total += err
    order = np.lexsort((terms, -counts))[:k]
    return pa.table(
        {
            "term": pa.array(terms[order], pa.string()),
            "cnt_est": pa.array(counts[order], pa.int64()),
            "err_bound": pa.array(
                np.full(len(order), err_total, dtype=np.int64)
            ),
        }
    )


# -------------------------------------------------------------------------
# Bound-asserting oracle surfaces for the term-frequency sketches: the
# sketches themselves are rows-only (their estimates are not
# SQL-reproducible), but their ERROR CONTRACTS are — each *_check query
# computes the sketch estimate AND the exact counts inside the engine,
# emits (term, exact_cnt, bound_ok) for the exact top-k terms, and the
# oracle re-derives the exact top-k in SQL with a constant TRUE flag, so a
# broken sketch hash-mismatches in the driver CORRECTNESS run instead of
# reading as `no_oracle`.
# -------------------------------------------------------------------------


def _total_tokens(sf_dir: str) -> int:
    """Corpus token total under the shared [a-z0-9]+ tokenizer — one
    streaming count pass (per-batch int partials, driver sums a handful)."""
    from .agg import collect

    ds = _read_docs(sf_dir, ["text"])

    def count(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        n = int(pc.sum(pc.not_equal(flat, "")).as_py() or 0)
        return pa.table({"n": pa.array([n], pa.int64())})

    t = collect(ds.map_batches(count, batch_format="pyarrow"))
    return int(pc.sum(t["n"]).as_py() or 0) if t is not None else 0


def vocab_cms_check(sf_dir: str, k: int = 20) -> pa.Table:
    """Count-Min error contract over the exact top-k terms:
    est >= true (deterministic CMS guarantee) and est <= true + 8*N/w
    (Markov bound per hash row is 1/8; min over d=4 independent rows makes
    a violation probability ~2e-4 per term — and the hash is deterministic,
    so the flag is stable for a fixed corpus)."""
    t = vocab_counts_cms(sf_dir, k=k)  # (term, est, cnt) for exact top-k
    n_tokens = _total_tokens(sf_dir)
    slack = 8.0 * n_tokens / _CMS_W
    est = t["est"].to_numpy(zero_copy_only=False)
    cnt = t["cnt"].to_numpy(zero_copy_only=False)
    ok = (est >= cnt) & (est <= cnt + slack)
    return pa.table(
        {
            "term": t["term"],
            "cnt": pc.cast(t["cnt"], pa.int64()),
            "cms_ok": pa.array(ok),
        }
    ).sort_by([("term", "ascending")])


def vocab_mg_check(sf_dir: str, k: int = 20) -> pa.Table:
    """Misra-Gries error contract over the exact top-k terms: every term
    with true count > err_bound must survive the sketch with
    cnt_est <= true <= cnt_est + err_bound (Agarwal et al. mergeable-
    summaries guarantee); a top-k term at or below err_bound is vacuously
    ok (the sketch makes no promise about it)."""
    sk = vocab_topk_sketch(sf_dir, k=_MG_CAP)  # full surviving counter set
    err = int(sk["err_bound"][0].as_py()) if sk.num_rows else 0
    est = dict(zip(sk["term"].to_pylist(), sk["cnt_est"].to_pylist()))

    exact = vocab_topk(sf_dir, k=k)  # (term, cnt) exact top-k
    terms = exact["term"].to_pylist()
    cnts = [int(c) for c in exact["cnt"].to_pylist()]
    oks = []
    for term, true in zip(terms, cnts):
        if true <= err:
            oks.append(True)  # below the sketch's resolution — no promise
        else:
            e = est.get(term)
            oks.append(e is not None and e <= true <= e + err)
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "cnt": pa.array(cnts, pa.int64()),
            "mg_ok": pa.array(oks, pa.bool_()),
        }
    ).sort_by([("term", "ascending")])


# -------------------------------------------------------------------------
# collocations_topk — corpus collocation table: top word bigrams by total
# occurrences, each with its component unigram totals (the integer-exact
# basis for PMI-style association scores, which are float and therefore
# left to the caller). Same tokenizer as vocab_topk ([a-z0-9]+ over
# lower(text)); bigram partials ride the standard grouped_sum exchange and
# the unigram totals for the surviving k bigrams come from ONE is_in-pruned
# second pass, so the join back is k-sized, never vocabulary-sized.
# -------------------------------------------------------------------------


def collocations_topk(sf_dir: str, k: int = 50) -> pa.Table:
    from .agg import collect, grouped_sum, topk

    ds = _read_docs(sf_dir, ["text"])

    def gram_partial(batch: pa.Table) -> pa.Table:
        # one tokenize pass emits BOTH unigram and bigram count partials
        # into a single exchange: unigrams never contain a space, bigrams
        # always do, so one key column carries both kinds (the previous
        # two-pass layout paid the read + tokenize + shuffle twice).
        # Bigram construction is fully vectorized: flatten tokens, drop
        # the splitter's empty boundary tokens, pair adjacent words that
        # share a parent doc, join with one Arrow concat kernel.
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch["text"]), "[^a-z0-9]+"
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        mask = pc.not_equal(flat, "")
        fw = flat.filter(mask)
        if isinstance(fw, pa.ChunkedArray):
            fw = fw.combine_chunks()
        pw = parent[mask.to_numpy(zero_copy_only=False)]
        if len(fw) >= 2:
            same = pa.array(pw[:-1] == pw[1:])
            a = fw.slice(0, len(fw) - 1).filter(same)
            b = fw.slice(1).filter(same)
            bg = pc.binary_join_element_wise(a, b, " ")
            gram = pa.concat_arrays([fw, bg])
        else:
            gram = fw
        t = pa.table(
            {
                "gram": gram,
                "cnt": pa.array(np.ones(len(gram), dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["gram"], aggs=[("cnt", "sum")])

    # materialize the REDUCED counts (vocab + bigram-vocab cardinality,
    # block-distributed and spillable — never the raw token stream) so the
    # top-k scan and the k-sized unigram lookup reuse one execution
    counts = grouped_sum(
        ds, keys=["gram"], partial=gram_partial, sum_cols=["cnt"]
    ).materialize()

    top = topk(
        counts.map_batches(
            lambda b: b.filter(pc.match_substring(b["gram"], " ")),
            batch_format="pyarrow",
        ),
        k=k,
        sort_keys=[("cnt", "descending"), ("gram", "ascending")],
    )
    # unigram totals for exactly the words the surviving bigrams mention
    need = sorted(
        {w for bg in top["gram"].to_pylist() for w in bg.split(" ")}
    )
    need_arr = pa.array(need, pa.string())
    uni = collect(
        counts.map_batches(
            lambda b: b.filter(pc.is_in(b["gram"], value_set=need_arr)),
            batch_format="pyarrow",
        )
    )
    lut = (
        dict(zip(uni["gram"].to_pylist(), uni["cnt"].to_pylist()))
        if uni is not None
        else {}
    )
    lefts, rights = [], []
    for bg in top["gram"].to_pylist():
        a, b = bg.split(" ")
        lefts.append(int(lut.get(a, 0)))
        rights.append(int(lut.get(b, 0)))
    return pa.table(
        {
            "bigram": top["gram"],
            "cnt": top["cnt"],
            "left_cnt": pa.array(lefts, pa.int64()),
            "right_cnt": pa.array(rights, pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# mix_sources — deterministic weighted source mixing, the data-mixing step
# a training pipeline runs to hit target corpus proportions (web/wiki/books
# at w1:w2:w3). Given integer weights per source, the op computes the
# LARGEST total T the corpus can serve at exactly those proportions
# (limited by the scarcest source), derives a per-source target count
# t_s = w_s*T//W, and keeps each row iff its 32-bit content hash falls
# under the integer threshold u_s = t_s*2^32//n_s. All threshold math is
# int64, so the kept SET is bit-identical to the DuckDB oracle; realized
# per-source counts are binomial around t_s (the scalable semantics — an
# exact-count variant would need a per-source rank, i.e. a full sort).
#
# Scale posture: one streaming count pass with per-batch partials (#rows
# shuffled = #batches x #sources), a driver-side threshold table of
# #sources rows broadcast into the second streaming filter pass. No
# full-table shuffle at any point; both passes are single-hop map_batches.
# Reference analog: the per-project document quotas in
# /root/reference/backend/src/main.py (project listing caps) — here
# generalized to proportional corpus composition.
# -------------------------------------------------------------------------

MIX_WEIGHTS: dict[str, int] = {"src0": 5, "src1": 3, "src2": 2}


def mix_sources(
    sf_dir: str, weights: dict[str, int] = MIX_WEIGHTS
) -> rd.Dataset:
    from .agg import collect

    w_total = sum(weights.values())
    ds = _read_docs(sf_dir, ["doc_id", "source", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["source"])
            .group_by("source")
            .aggregate([("source", "count")])
        )
        return pa.table(
            {"source": g["source"], "n": g["source_count"].cast(pa.int64())}
        )

    part = collect(ds.map_batches(count_partial, batch_format="pyarrow"))
    counts: dict[str, int] = {}
    if part is not None:
        for s, n in zip(part["source"].to_pylist(), part["n"].to_pylist()):
            if s in weights:
                counts[s] = counts.get(s, 0) + int(n)

    # largest feasible total at the target proportions, then per-source
    # integer thresholds (t_s == n_s yields u_s == 2^32 > any hash: keep all)
    thresholds: dict[str, int] = {}
    if counts and all(counts.get(s, 0) > 0 for s in weights):
        t_total = min(counts[s] * w_total // w for s, w in weights.items())
        for s, w in weights.items():
            t_s = w * t_total // w_total
            thresholds[s] = (t_s << 32) // counts[s]

    def keep(batch: pa.Table) -> pa.Table:
        srcs = batch["source"].to_pylist()
        texts = batch["text"].to_pylist()
        mask = [
            s in thresholds
            and int.from_bytes(
                hashlib.md5(t.encode("utf-8")).digest()[:4], "big"
            )
            < thresholds[s]
            for s, t in zip(srcs, texts)
        ]
        return batch.filter(pa.array(mask, pa.bool_())).select(
            ["doc_id", "source"]
        )

    return ds.map_batches(keep, batch_format="pyarrow")


# -------------------------------------------------------------------------
# incremental_new_docs — incremental-crawl ingestion: which documents of a
# new crawl increment are UNSEEN vs the previous snapshot (by exact text
# content). The increment split is deterministic (doc_id % mod == 0 is the
# new batch; the rest is the seen snapshot) so the op is oracle-checkable
# on a single table.
#
# Physical plan (the textbook bloom-prefiltered anti-join):
#   1. one streaming pass over SEEN rows builds a mergeable Bloom filter
#      (per-batch uint64 bit arrays, OR-reduced, ~16 bits/key, 4 probes →
#      ~0.24% FP) — at a real deployment this bloom is built once per
#      snapshot and REUSED across increments;
#   2. one pass over NEW rows: bloom-NEGATIVE rows are definitely new (a
#      bloom has no false negatives) and pass straight through; positives
#      become candidates (true dups + ~0.24% FP) needing exact confirm;
#   3. exact confirm by full-md5 key (the repo's established stand-in for
#      text equality, vanishing collision odds): when the table is small
#      enough the candidate-key set broadcasts and one pass over seen rows
#      collects which candidates actually match (driver holds only
#      candidate-sized sets); above `broadcast_limit` rows the confirm is
#      the dedup_exact-style bucketed exchange (union of candidate rows and
#      seen keys, hash-bucketed on the key, one vectorized anti-join per
#      coarse bucket) so nothing candidate-shaped ever sits on the driver.
# Reference analog: duplicate-upload detection on ingest
# (/root/reference/backend/src/main.py file-hash check on upload).
# -------------------------------------------------------------------------

_BLOOM_PROBES = 4
_BLOOM_BITS_PER_KEY = 16


def _bloom_indices(text: str, m_bits: int) -> list[int]:
    h = hashlib.blake2b(text.encode("utf-8"), digest_size=32).digest()
    return [
        int.from_bytes(h[8 * i : 8 * i + 8], "big") % m_bits
        for i in range(_BLOOM_PROBES)
    ]


def incremental_new_docs(
    sf_dir: str, mod: int = 3, broadcast_limit: int = 5_000_000
) -> rd.Dataset:
    import pyarrow.parquet as pq

    from .agg import collect, keyed_exchange, scaled_partitions

    n_total = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    n_seen_est = max(1, n_total - n_total // mod)
    m_bits = max(1024, _BLOOM_BITS_PER_KEY * n_seen_est)
    m_bits += (-m_bits) % 64
    n_words = m_bits // 64

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def is_new(batch: pa.Table) -> pa.Array:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.array(ids % mod == 0)

    def bloom_partial(batch: pa.Table) -> pa.Table:
        words = np.zeros(n_words, np.uint64)
        mask = is_new(batch)
        seen_texts = batch.filter(pc.invert(mask))["text"].to_pylist()
        for t in seen_texts:
            for ix in _bloom_indices(t, m_bits):
                words[ix >> 6] |= np.uint64(1) << np.uint64(ix & 63)
        return pa.table({"bloom": pa.array([words.tobytes()], pa.large_binary())})

    parts = collect(ds.map_batches(bloom_partial, batch_format="pyarrow"))
    bloom = np.zeros(n_words, np.uint64)
    if parts is not None:
        for b in parts["bloom"].to_pylist():
            bloom |= np.frombuffer(b, np.uint64)

    def bloom_hit(t: str) -> bool:
        for ix in _bloom_indices(t, m_bits):
            if not (bloom[ix >> 6] >> np.uint64(ix & 63)) & np.uint64(1):
                return False
        return True

    def classify(batch: pa.Table) -> pa.Table:
        """new rows -> (doc_id, key, cand); seen rows dropped."""
        newb = batch.filter(is_new(batch))
        texts = newb["text"].to_pylist()
        keys, cand = [], []
        for t in texts:
            keys.append(hashlib.md5(t.encode("utf-8")).hexdigest())
            cand.append(bloom_hit(t))
        return pa.table(
            {
                "doc_id": newb["doc_id"],
                "key": pa.array(keys),
                "cand": pa.array(cand, pa.bool_()),
            }
        )

    if n_total <= broadcast_limit:
        # broadcast confirm: candidate keys -> driver set -> one pass over
        # seen rows collects the actually-matched subset
        flagged = collect(ds.map_batches(classify, batch_format="pyarrow"))
        if flagged is None:
            return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
        cand_keys = set(
            flagged.filter(flagged["cand"])["key"].to_pylist()
        )

        def matched_partial(batch: pa.Table) -> pa.Table:
            seenb = batch.filter(pc.invert(is_new(batch)))
            hit = {
                hashlib.md5(t.encode("utf-8")).hexdigest()
                for t in seenb["text"].to_pylist()
            } & cand_keys
            return pa.table({"key": pa.array(sorted(hit))})

        matched = (
            collect(ds.map_batches(matched_partial, batch_format="pyarrow"))
            if cand_keys
            else None
        )
        matched_keys = (
            set(matched["key"].to_pylist()) if matched is not None else set()
        )
        keep = pc.or_(
            pc.invert(flagged["cand"]),
            pc.invert(pc.is_in(flagged["key"], pa.array(sorted(matched_keys)) if matched_keys else pa.array([], pa.string()))),
        )
        return rd.from_arrow(flagged.filter(keep).select(["doc_id"]))

    # exchange confirm: bloom-negatives stream through; candidate rows and
    # seen keys meet in one hash-bucketed anti-join exchange
    def definite_new(batch: pa.Table) -> pa.Table:
        f = classify(batch)
        return f.filter(pc.invert(f["cand"])).select(["doc_id"])

    definite = ds.map_batches(definite_new, batch_format="pyarrow")

    def union_rows(batch: pa.Table) -> pa.Table:
        f = classify(batch)
        cands = f.filter(f["cand"])
        seenb = batch.filter(pc.invert(is_new(batch)))
        skeys = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in seenb["text"].to_pylist()
        ]
        return pa.table(
            {
                "key": pa.array(
                    cands["key"].to_pylist() + skeys, pa.string()
                ),
                "doc_id": pa.array(
                    cands["doc_id"].to_pylist() + [-1] * len(skeys),
                    pa.int64(),
                ),
            }
        )

    def bucket_anti(group: pa.Table) -> pa.Table:
        is_seen = pc.equal(group["doc_id"], -1)
        seen_keys = pc.unique(group.filter(is_seen)["key"])
        cands = group.filter(pc.invert(is_seen))
        keep = pc.invert(pc.is_in(cands["key"], seen_keys))
        return pa.table({"doc_id": cands.filter(keep)["doc_id"]})

    confirmed = keyed_exchange(
        ds.map_batches(union_rows, batch_format="pyarrow"),
        ["key"],
        bucket_anti,
        scaled_partitions(n_total),
    )
    return definite.union(confirmed)


# -------------------------------------------------------------------------
# bm25_search — BM25-ranked retrieval (k1=1.2, b=0.75, Lucene-form IDF
# ln(1 + (N-df+0.5)/(df+0.5))), the standard upgrade of tfidf_search for
# length-biased web corpora. Exactness: IDF weights are the established
# floor(1e6*ln(double)) int64 pattern (libm on both engines); the
# length-normalized term ratio tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)) is
# cleared of floats by multiplying through by 20*S (S = corpus token
# count, avgdl = S/N):  contribution = wt*44*S*tf // (20*S*tf + 6*S +
# 18*N*dl) — pure int64 floor division, bit-equal in DuckDB. int64 holds
# while wt*44*S*tf < 2^63 (corpora to ~1e10 tokens with 1e6-scaled
# weights; beyond that, rescale the weight constant).
#
# Physical plan = tfidf_search's: one streaming pass of tiny per-batch
# partials (df per term, N, S), driver combine, then one scoring pass
# with the per-batch local-topk prefilter — no shuffle, #batches x k rows
# reach the driver. Reference analog: the ILIKE search surface
# (/root/reference/backend/src/main.py:1209-1214), here ranked.
# -------------------------------------------------------------------------

def bm25_search(
    sf_dir: str, k: int = 20, terms: tuple[str, ...] = TFIDF_TERMS
) -> pa.Table:
    import math

    from .agg import collect, local_topk

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def _tok(batch: pa.Table):
        low = pc.utf8_lower(batch["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = np.asarray(pc.list_flatten(toks).to_numpy(zero_copy_only=False))
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        # drop the empty boundary tokens the splitter emits so token
        # counts equal regexp_extract_all('[a-z0-9]+') semantics
        nonempty = flat != ""
        return flat[nonempty], parent[nonempty]

    def stat_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _tok(batch)
        row = {
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "n_toks": pa.array([len(flat)], pa.int64()),
        }
        for i, term in enumerate(terms):
            row[f"df{i}"] = pa.array(
                [len(np.unique(parent[flat == term]))], pa.int64()
            )
        return pa.table(row)

    part = collect(ds.map_batches(stat_partial, batch_format="pyarrow"))
    n_total = int(pc.sum(part["n_docs"]).as_py()) if part is not None else 0
    s_total = int(pc.sum(part["n_toks"]).as_py()) if part is not None else 0
    weights = []
    for i in range(len(terms)):
        df = int(pc.sum(part[f"df{i}"]).as_py()) if part is not None else 0
        weights.append(
            # math.log(1 + x), not log1p: DuckDB computes LN(1 + x) and the
            # two differ in the last ulp for small x
            int(math.floor(1e6 * math.log(1.0 + (n_total - df + 0.5) / (df + 0.5))))
            if n_total
            else 0
        )

    def score(batch: pa.Table) -> pa.Table:
        flat, parent = _tok(batch)
        dl = np.bincount(parent, minlength=batch.num_rows).astype(np.int64)
        s = np.zeros(batch.num_rows, np.int64)
        base = 6 * s_total + 18 * n_total * dl
        for term, w in zip(terms, weights):
            tf = np.bincount(
                parent[flat == term], minlength=batch.num_rows
            ).astype(np.int64)
            s += (w * 44 * s_total * tf) // (20 * s_total * tf + base)
        t = pa.table({"doc_id": batch["doc_id"], "score": pa.array(s)})
        return local_topk(
            t, k=k, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
        )

    pruned = collect(ds.map_batches(score, batch_format="pyarrow"))
    if pruned is None:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.int64())}
        )
    return local_topk(
        pruned, k=k, sort_keys=[("score", "descending"), ("doc_id", "ascending")]
    )


# -------------------------------------------------------------------------
# mix_epochs — repetition-based mixing, the upsampling complement of
# mix_sources: each source is replicated by a rational repeat factor
# num/den (0.5x downsample, 1x identity, 2.5x = two full epochs + a half
# epoch), the shape training mixtures use to overweight scarce
# high-quality sources. A doc appears in epoch e iff
# h32(text) * den < 2^32 * (num - e*den) — one int64 inequality that
# covers both full epochs (rhs >= 2^32*den > any lhs) and the fractional
# tail, so the emitted (doc_id, source, epoch) set is bit-identical to
# the SQL oracle. Single streaming map (per-row hash computed once, one
# filtered slice per epoch); the repeat table is driver state of
# #sources rows — no shuffle anywhere.
# -------------------------------------------------------------------------

MIX_EPOCH_REPEATS: dict[str, tuple[int, int]] = {
    "src0": (1, 2),   # 0.5x
    "src1": (1, 1),   # 1x
    "src2": (5, 2),   # 2.5x
}


def mix_epochs(
    sf_dir: str, repeats: dict[str, tuple[int, int]] = MIX_EPOCH_REPEATS
) -> rd.Dataset:
    ds = _read_docs(sf_dir, ["doc_id", "source", "text"])

    def expand(batch: pa.Table) -> pa.Table:
        srcs = batch["source"].to_pylist()
        texts = batch["text"].to_pylist()
        h = np.array(
            [
                int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[:4], "big"
                )
                for t in texts
            ],
            np.int64,
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_src, out_ep = [], [], []
        for src, (num, den) in repeats.items():
            rows = np.flatnonzero(np.array([s == src for s in srcs]))
            if rows.size == 0:
                continue
            n_ep = -(-num // den)
            for ep in range(n_ep):
                keep = rows[h[rows] * den < ((num - ep * den) << 32)]
                out_id.append(ids[keep])
                out_src.extend([src] * keep.size)
                out_ep.append(np.full(keep.size, ep, np.int64))
        if not out_id:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "source": pa.array([], pa.string()),
                    "epoch": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_id)),
                "source": pa.array(out_src, pa.string()),
                "epoch": pa.array(np.concatenate(out_ep)),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow")


# -------------------------------------------------------------------------
# prepare_training — the composed end-to-end TRAINING-DATA pipeline in one
# distributed flow: quality gate (same integer predicate as
# quality_filter) -> exact dedup (min doc_id per md5 text key) ->
# deterministic global shuffle (training order = md5-key order, i.e. the
# dedup key doubles as the shuffle key) -> sequence packing (seq_id =
# exclusive token prefix sum // budget). This is the "prepare a pretraining
# corpus" product shape; every step is integer/hash math shared bit-exactly
# with one SQL oracle (ROW_NUMBER + windowed SUM over the same order).
#
# Physical plan (``agg.ordered_ranges``): value ranges of the md5 key's
# high half bucket the exchange ORDER-PRESERVINGLY (identical keys share
# it, so dup groups never straddle buckets; bucket order == key order).
# Pass 1 reduces each bucket to ONE (rows, tokens) summary row after
# in-bucket dedup — the driver sees n_parts rows, exclusive-scans them
# into row/token base offsets. Pass 2 repeats the deterministic in-bucket
# dedup and emits winners with pos = row_base + local rank and seq_id =
# (token_base + local exclusive cumsum) // budget. No text bytes cross
# either exchange (doc_id, the two uint64 md5 halves, token count only);
# both passes are single range exchanges with buckets sized by
# scaled_partitions.
# -------------------------------------------------------------------------


def prepare_training(sf_dir: str, budget: int = 512) -> rd.Dataset:
    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    return prepare_training_ds(
        _read_docs(sf_dir, ["doc_id", "text"]), n_rows, budget=budget
    )


def training_keys(batch: pa.Table) -> pa.Table:
    """The training composition's quality gate (``quality_filter``'s
    defaults) and content key: the (doc_id, k0, k1, n_tokens) rows of the
    (doc_id, text) docs that pass. (k0, k1) are the big-endian uint64
    halves of the text's md5 digest, so they order as its hex digest."""
    kept = batch.filter(_quality_gate(batch["text"], 100, 20000, 5, 20))
    md5 = np.frombuffer(
        b"".join(
            hashlib.md5(t.encode("utf-8")).digest()
            for t in kept["text"].to_pylist()
        ),
        dtype=">u8",
    ).reshape(-1, 2)
    return pa.table(
        {
            "doc_id": kept["doc_id"],
            "k0": pa.array(md5[:, 0].astype(np.uint64)),
            "k1": pa.array(md5[:, 1].astype(np.uint64)),
            "n_tokens": _ws_tokens(kept["text"]),
        }
    )


def first_per_key(t: pa.Table) -> np.ndarray:
    """Exact content dedup: the indices, in (k0, k1, doc_id) order, of the
    first row of ``t`` per (k0, k1), so each text survives once, at its
    lowest doc_id. One argsort on k0; only rows whose k0 repeats (copies
    of one text, or a 64-bit collision) are sorted by all three keys."""
    k0 = t["k0"].to_numpy()
    k1 = t["k1"].to_numpy()
    order = np.argsort(k0)
    s0 = k0[order]
    tie = np.zeros(len(order), bool)
    eq = s0[1:] == s0[:-1]
    tie[1:] |= eq
    tie[:-1] |= eq
    if tie.any():  # each run of one k0 keeps its slots, rows re-sorted
        rows = order[tie]
        ids = t["doc_id"].to_numpy()[rows]
        order[tie] = rows[np.lexsort((ids, k1[rows], k0[rows]))]
    s1 = k1[order]
    first = np.ones(len(order), bool)
    first[1:] = (s0[1:] != s0[:-1]) | (s1[1:] != s1[:-1])
    return order[first]


TRAINING_KEY_RANGE = (0, (1 << 64) - 1)  # k0's ``range_bucket`` bounds


def training_offsets(keys: pa.Table) -> tuple[np.ndarray, np.ndarray, int]:
    """The packing of ``prepare_training_ds``, done in one process over a
    ``training_keys`` table: the winners' doc_ids ascending, each one's
    exclusive token prefix ``tok_start`` within the table, and the token
    total. Both pack the winners of ``first_per_key`` in (k0, k1) order;
    there it is k0 range after k0 range (``agg.range_bucket`` over
    ``TRAINING_KEY_RANGE``), here it is one sort."""
    win = first_per_key(keys)
    ntok = keys["n_tokens"].to_numpy()[win]
    starts = np.full(keys.num_rows, -1, np.int64)
    starts[win] = np.cumsum(ntok) - ntok
    ids = pc.cast(keys["doc_id"], pa.int64()).to_numpy()
    by_id = np.argsort(ids)
    by_id = by_id[starts[by_id] >= 0]
    return ids[by_id], starts[by_id], int(ntok.sum())


def prepare_training_ds(ds: rd.Dataset, n_rows: int, budget: int = 512) -> rd.Dataset:
    """Dataset-generic core of ``prepare_training`` — also the tail of the
    end-to-end web->training composition (pipelines/webpages.py
    ``web_to_training``): input any (doc_id, text) Dataset."""
    from .agg import ordered_ranges, scaled_partitions

    def assign(w: pa.Table, starts: np.ndarray, _totals: np.ndarray) -> pa.Table:
        out = {
            "doc_id": pc.cast(w["doc_id"], pa.int64()),
            "pos": pa.array(starts[:, 0]),
            "n_tokens": w["n_tokens"],
            "seq_id": pa.array(starts[:, 1] // budget),
        }
        return pa.table(out)

    # both passes read the reduced (doc_id, key, n_tokens) metadata table,
    # which ordered_ranges materializes for a function order, so the
    # upstream dataflow (which may be the full extraction pipeline in the
    # web_to_training / corpus_to_training compositions) runs ONCE; the
    # cached table is keys-only (32 B/row, object store spills at scale),
    # always cheaper than re-extracting payloads (measured 35s -> 22s
    # end-to-end at the 237k-page corpus)
    return ordered_ranges(
        ds.map_batches(training_keys, batch_format="pyarrow"),
        "k0",
        TRAINING_KEY_RANGE,
        scaled_partitions(n_rows),
        first_per_key,
        ["n_tokens"],
        assign,
    )


# -------------------------------------------------------------------------
# dsir_weights — Data Selection via Importance Resampling (DSIR, Xie et
# al. 2023, arXiv:2302.03169): per-document importance log-weight
# ln(p_target(x) / p_raw(x)) under bag-of-words unigram models over a
# BOUNDED feature space — the top-V corpus vocabulary plus one pooled OOV
# bucket, add-one smoothing — the standard recipe for selecting raw web
# text that matches a target distribution (select by logw desc). Target
# model: documents with lang == target_lang; raw model: the whole corpus.
#
# Exact integer math shared with the SQL oracle: per-token weight
#   floor(1e6 * ln(((c_tgt+1) * (tot_all+V+1)) /
#                  ((c_all+1) * (tot_tgt+V+1))))
# with both operands converted to double BEFORE the divide (mirroring
# DuckDB's `/`); per-doc logw = int64 sum of its tokens' weights, 0 for
# token-less documents.
#
# Physical plan: ONE keyed exchange total. The vocabulary pass is the
# two-phase grouped_sum of per-batch-distinct (term, cnt_all, cnt_tgt)
# partials (Zipf: distinct terms grow ~O(sqrt(tokens)) — raw token
# streams never cross the wire); top-V via distributed exact topk and
# corpus totals via per-batch partial sums off the SAME materialized
# counts. The driver holds only the V+1-entry weight LUT, shipped once in
# the scoring task's closure; scoring is an embarrassingly-parallel map
# (vectorized tokenize -> pc.index_in hash lookup -> per-doc np.add.at).
# -------------------------------------------------------------------------


def dsir_weights(
    sf_dir: str, vocab_size: int = 1000, target_lang: str = "en"
) -> rd.Dataset:
    import math

    from .agg import collect, topk

    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def _tok_flat(batch: pa.Table):
        """(flat tokens as arrow array, parent row indices as numpy)."""
        low = pc.utf8_lower(batch["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        return (
            flat.filter(keep),
            parent.filter(keep).to_numpy(zero_copy_only=False),
        )

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _tok_flat(batch)
        is_tgt = pc.equal(batch["lang"], target_lang).to_numpy(
            zero_copy_only=False
        )
        t = pa.table(
            {
                "term": flat,
                "cnt_all": pa.array(np.ones(len(flat), np.int64)),
                "cnt_tgt": pa.array(
                    np.asarray(is_tgt, bool)[parent].astype(np.int64)
                ),
            }
        )
        return partial_group_agg(
            t, keys=["term"], aggs=[("cnt_all", "sum"), ("cnt_tgt", "sum")]
        )

    counts = grouped_sum(
        ds,
        keys=["term"],
        partial=count_partial,
        sum_cols=["cnt_all", "cnt_tgt"],
    ).materialize()

    vocab = topk(
        counts,
        k=vocab_size,
        sort_keys=[("cnt_all", "descending"), ("term", "ascending")],
    )

    def total_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tot_all": pa.array(
                    [int(pc.sum(batch["cnt_all"]).as_py() or 0)], pa.int64()
                ),
                "tot_tgt": pa.array(
                    [int(pc.sum(batch["cnt_tgt"]).as_py() or 0)], pa.int64()
                ),
            }
        )

    tot = collect(counts.map_batches(total_partial, batch_format="pyarrow"))
    tot_all = int(pc.sum(tot["tot_all"]).as_py() or 0) if tot is not None else 0
    tot_tgt = int(pc.sum(tot["tot_tgt"]).as_py() or 0) if tot is not None else 0

    v1 = vocab.num_rows + 1  # smoothing buckets: vocab + pooled OOV

    def _w(c_tgt: int, c_all: int) -> int:
        num = (c_tgt + 1) * (tot_all + v1)
        den = (c_all + 1) * (tot_tgt + v1)
        return math.floor(1e6 * math.log(float(num) / float(den)))

    v_all = vocab["cnt_all"].to_numpy(zero_copy_only=False)
    v_tgt = vocab["cnt_tgt"].to_numpy(zero_copy_only=False)
    vocab_terms = vocab["term"].combine_chunks()
    w_arr = np.array(
        [_w(int(g), int(a)) for a, g in zip(v_all, v_tgt)], np.int64
    )
    oov_w = np.int64(
        _w(tot_tgt - int(v_tgt.sum()), tot_all - int(v_all.sum()))
    )

    def score(batch: pa.Table) -> pa.Table:
        flat, parent = _tok_flat(batch)
        logw = np.zeros(batch.num_rows, np.int64)
        if len(flat) and len(w_arr):
            pos = pc.fill_null(
                pc.index_in(flat, value_set=vocab_terms), -1
            ).to_numpy(zero_copy_only=False)
            w = np.where(pos >= 0, w_arr[np.maximum(pos, 0)], oov_w)
            np.add.at(logw, parent, w)
        elif len(flat):
            np.add.at(logw, parent, np.full(len(flat), oov_w))
        return pa.table({"doc_id": batch["doc_id"], "logw": pa.array(logw)})

    return ds.map_batches(score, batch_format="pyarrow")


def bigram_lm_scores(sf_dir: str, vocab_size: int = 500) -> rd.Dataset:
    """Bigram language-model document scoring — the perplexity-filter slot
    of a CCNet-style curation pipeline (Wenzek et al. 2020 filter corpora
    by LM score; here the LM is a corpus-trained add-one-smoothed bigram
    model over the top-V vocabulary + pooled OOV bucket, so the op is
    self-contained and exactly reproducible). Per doc: the int64 sum of
    floor(1e6 * ln((c(w1,w2)+1) / (ctx(w1)+V+1))) over its adjacent
    within-doc token bigrams, plus the bigram count (score/count = avg
    log-prob, the filterable quantity).

    Dataflow: ONE corpus-scale unigram exchange (vocab, shared shape with
    dsir/NB), ONE bigram-count exchange of packed (i1*(V+1)+i2) int64 keys
    — cardinality <= (V+1)^2, corpus-size-independent — then scoring is a
    pure map over a broadcast dense (V+1)^2 int64 LUT. Weights use libm
    ``math.log`` per DISTINCT entry (DuckDB LN parity; numpy.log may
    differ in the last bit)."""
    import math

    from .agg import collect, topk

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def _tok_flat(batch: pa.Table):
        low = pc.utf8_lower(batch["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        return (
            flat.filter(keep),
            parent.filter(keep).to_numpy(zero_copy_only=False),
        )

    def uni_partial(batch: pa.Table) -> pa.Table:
        flat, _ = _tok_flat(batch)
        t = pa.table(
            {"term": flat, "c": pa.array(np.ones(len(flat), np.int64))}
        )
        return partial_group_agg(t, keys=["term"], aggs=[("c", "sum")])

    uni = grouped_sum(ds, keys=["term"], partial=uni_partial, sum_cols=["c"])
    vocab = topk(
        uni, k=vocab_size, sort_keys=[("c", "descending"), ("term", "ascending")]
    )
    vocab_terms = vocab["term"].combine_chunks() if vocab.num_rows else None
    v = vocab.num_rows  # OOV bucket index = v; contexts/nexts in [0, v]
    width = v + 1

    def _idx(flat, parent):
        """token strings -> vocab index array (OOV -> v) + packed bigram
        keys for adjacent same-doc positions."""
        if vocab_terms is not None and len(flat):
            pos = pc.fill_null(
                pc.index_in(flat, value_set=vocab_terms), v
            ).to_numpy(zero_copy_only=False)
        else:
            pos = np.full(len(flat), v, np.int64)
        adj = parent[:-1] == parent[1:] if len(parent) else np.zeros(0, bool)
        keys = pos[:-1][adj] * width + pos[1:][adj]
        return keys, parent[:-1][adj]

    def big_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _tok_flat(batch)
        keys, _ = _idx(flat, parent)
        t = pa.table(
            {
                "k": pa.array(keys, pa.int64()),
                "c": pa.array(np.ones(len(keys), np.int64)),
            }
        )
        return partial_group_agg(t, keys=["k"], aggs=[("c", "sum")])

    bcnt = collect(
        grouped_sum(ds, keys=["k"], partial=big_partial, sum_cols=["c"])
    )
    lut = np.zeros(width * width, np.int64)
    if bcnt is not None and bcnt.num_rows:
        bk = bcnt["k"].to_numpy(zero_copy_only=False)
        bc = bcnt["c"].to_numpy(zero_copy_only=False)
        ctx = np.zeros(width, np.int64)
        np.add.at(ctx, bk // width, bc)
        # unseen-bigram rows first (one libm log per context) ...
        for i in range(width):
            lut[i * width : (i + 1) * width] = math.floor(
                1e6 * math.log(1.0 / float(int(ctx[i]) + width))
            )
        # ... then the observed entries (one libm log per distinct bigram)
        for k, c in zip(bk.tolist(), bc.tolist()):
            lut[k] = math.floor(
                1e6 * math.log(float(c + 1) / float(int(ctx[k // width]) + width))
            )

    def score(batch: pa.Table) -> pa.Table:
        flat, parent = _tok_flat(batch)
        keys, owner = _idx(flat, parent)
        logp = np.zeros(batch.num_rows, np.int64)
        nbig = np.zeros(batch.num_rows, np.int64)
        if len(keys):
            np.add.at(logp, owner, lut[keys])
            np.add.at(nbig, owner, 1)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "logp": pa.array(logp, pa.int64()),
                "n_bigrams": pa.array(nbig, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


# -------------------------------------------------------------------------
# nb_lang_classify — trained multinomial Naive-Bayes text classifier (the
# fastText-style quality/domain classifier slot of a curation pipeline,
# here trained on the corpus's own lang labels): per-class unigram models
# over the top-V vocabulary + pooled OOV bucket, add-one smoothing, doc
# score = log prior + sum of token log-likelihoods, prediction = argmax
# (ties -> lexicographically smallest class). All weights are exact int64
# floor(1e6*ln(num/den)) with both operands through double division, so
# the per-doc argmax is bit-reproducible and SQL-checkable.
#
# Physical plan: counts keyed (term, class) in ONE two-phase grouped_sum
# exchange (per-batch-distinct partials; raw tokens never cross the
# wire); per-term totals for the vocab top-V are a SECOND exchange over
# the already-reduced vocab-sized counts; class token totals and doc
# priors are driver-combined per-batch partials (no exchange — #classes
# rows each). Scoring is an embarrassingly-parallel map over a broadcast
# (V+1) x L weight matrix: pc.index_in -> 2-D np.add.at -> row argmax.
# -------------------------------------------------------------------------


def nb_lang_classify(sf_dir: str, vocab_size: int = 1000) -> rd.Dataset:
    import math

    from .agg import collect, topk

    ds = _read_docs(sf_dir, ["doc_id", "lang", "text"])

    def _tok_flat(batch: pa.Table):
        low = pc.utf8_lower(batch["text"])
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        return (
            flat.filter(keep),
            parent.filter(keep).to_numpy(zero_copy_only=False),
        )

    def count_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _tok_flat(batch)
        langs = batch["lang"].take(pa.array(parent, pa.int64()))
        t = pa.table(
            {
                "term": flat,
                "lang": langs,
                "c": pa.array(np.ones(len(flat), np.int64)),
            }
        )
        return partial_group_agg(
            t, keys=["term", "lang"], aggs=[("c", "sum")]
        )

    counts = grouped_sum(
        ds, keys=["term", "lang"], partial=count_partial, sum_cols=["c"]
    ).materialize()

    # vocab: top-V terms by TOTAL count — second (vocab-sized) exchange
    if counts.count() == 0:
        # zero tokens corpus-wide (empty or all-empty-text table): skip the
        # vocab exchange — scoring degenerates to priors only
        vocab = pa.table(
            {"term": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
        )
    else:

        def term_partial(batch: pa.Table) -> pa.Table:
            return partial_group_agg(
                batch.select(["term", "c"]), keys=["term"], aggs=[("c", "sum")]
            )

        term_tot = grouped_sum(
            counts, keys=["term"], partial=term_partial, sum_cols=["c"]
        )
        vocab = topk(
            term_tot,
            k=vocab_size,
            sort_keys=[("c", "descending"), ("term", "ascending")],
        )
    vocab_terms = vocab["term"].combine_chunks()

    # class priors (doc counts) — per-batch partials, driver-combined
    def prior_partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.select(["lang"])
            .group_by(["lang"])
            .aggregate([("lang", "count")])
        )
        return pa.table(
            {"lang": g["lang"], "n": pc.cast(g["lang_count"], pa.int64())}
        )

    pri = collect(ds.map_batches(prior_partial, batch_format="pyarrow"))
    if pri is None:  # empty documents table: no classes, empty predictions
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "pred_lang": pa.array([], pa.string()),
                }
            )
        )
    pri = pri.group_by(["lang"]).aggregate([("n", "sum")])
    classes = sorted(pri["lang"].to_pylist())
    n_docs_by = dict(zip(pri["lang"].to_pylist(), pri["n_sum"].to_pylist()))
    n_total = sum(n_docs_by.values())
    cls_idx = {c: j for j, c in enumerate(classes)}
    n_cls = len(classes)

    # per-class token totals + vocab-restricted (term, class) counts: one
    # streaming pass over the materialized counts, driver receives
    # #classes totals rows and V x L vocab rows
    def vc_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang"]).aggregate([("c", "sum")])
        tot_rows = pa.table(
            {
                "term": pa.nulls(g.num_rows, pa.string()),
                "lang": g["lang"],
                "c": g["c_sum"],
            }
        )
        vrows = batch.filter(
            pc.is_in(batch["term"], value_set=vocab_terms)
        ).select(["term", "lang", "c"])
        return pa.concat_tables([tot_rows, vrows])

    vc = collect(counts.map_batches(vc_partial, batch_format="pyarrow"))
    tot_by = np.zeros(n_cls, np.int64)
    v_by = np.zeros(n_cls, np.int64)  # vocab-covered tokens per class
    v1 = vocab.num_rows + 1
    w_mat = None
    if vc is not None:
        is_tot = pc.is_null(vc["term"])
        tots = vc.filter(is_tot)
        for lang, c in zip(tots["lang"].to_pylist(), tots["c"].to_pylist()):
            tot_by[cls_idx[lang]] += int(c)
        vrows = vc.filter(pc.invert(is_tot))
        # combine per-partition partial rows of the same (term, lang)
        vrows = vrows.group_by(["term", "lang"]).aggregate([("c", "sum")])
        term_pos = pc.fill_null(
            pc.index_in(vrows["term"], value_set=vocab_terms), -1
        ).to_numpy(zero_copy_only=False)
        c_mat = np.zeros((vocab.num_rows, n_cls), np.int64)
        for p, lang, c in zip(
            term_pos, vrows["lang"].to_pylist(), vrows["c_sum"].to_pylist()
        ):
            c_mat[int(p), cls_idx[lang]] = int(c)
        v_by = c_mat.sum(axis=0)

        def _w(c: int, tot: int) -> int:
            return math.floor(
                1e6 * math.log(float(c + 1) / float(tot + v1))
            )

        w_mat = np.array(
            [
                [_w(int(c_mat[i, j]), int(tot_by[j])) for j in range(n_cls)]
                for i in range(vocab.num_rows)
            ],
            np.int64,
        )
    oov_w = np.array(
        [
            math.floor(
                1e6
                * math.log(
                    float(int(tot_by[j]) - int(v_by[j]) + 1)
                    / float(int(tot_by[j]) + v1)
                )
            )
            for j in range(n_cls)
        ],
        np.int64,
    )
    prior_w = np.array(
        [
            math.floor(
                1e6 * math.log(float(n_docs_by[c]) / float(n_total))
            )
            for c in classes
        ],
        np.int64,
    )
    cls_arr = np.array(classes)

    def score(batch: pa.Table) -> pa.Table:
        flat, parent = _tok_flat(batch)
        s = np.tile(prior_w, (batch.num_rows, 1))
        if len(flat):
            if w_mat is not None and len(w_mat):
                pos = pc.fill_null(
                    pc.index_in(flat, value_set=vocab_terms), -1
                ).to_numpy(zero_copy_only=False)
                contrib = np.where(
                    (pos >= 0)[:, None],
                    w_mat[np.maximum(pos, 0), :],
                    oov_w[None, :],
                )
            else:
                contrib = np.tile(oov_w, (len(flat), 1))
            np.add.at(s, parent, contrib)
        pred = cls_arr[s.argmax(axis=1)]  # first max = smallest class
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "pred_lang": pa.array(pred, pa.string()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


# -------------------------------------------------------------------------
# train_bpe_merges — tokenizer TRAINING (the step before token_count_bpe
# can tokenize): learn the first n byte-pair merges from the corpus.
# Standard BPE-trainer decomposition (Sennrich et al. 2016; how HF
# tokenizers trains): the ONLY corpus-scale pass is the word-frequency
# exchange (identical shape to vocab_topk — per-batch arrow group_by
# partials, one bucketed combine; raw token streams never cross the
# wire), because merge selection depends only on the word-frequency
# table. The merge loop then runs driver-side over that Zipf-bounded
# vocabulary (the same node-vector assumption as vocab/DSIR/NB ops),
# deterministic: argmax pair by (count desc, pair lexicographic asc).
# Iterative — no SQL oracle (rows-only); semantics pinned by a planted
# pytest with hand-computed merges.
# -------------------------------------------------------------------------


def train_bpe_merges(sf_dir: str, n_merges: int = 20) -> pa.Table:
    from .agg import collect, grouped_sum, partial_group_agg

    ds = _read_docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        flat = pc.list_flatten(pc.split_pattern_regex(low, "[^a-z0-9]+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        t = pa.table(
            {
                "term": flat,
                "cnt": pa.array(np.ones(len(flat), dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["term"], aggs=[("cnt", "sum")])

    vocab = collect(grouped_sum(ds, keys=["term"], partial=partial, sum_cols=["cnt"]))
    out_rank: list[int] = []
    out_left: list[str] = []
    out_right: list[str] = []
    out_count: list[int] = []
    if vocab is not None and vocab.num_rows:
        words = [
            (list(w), int(c))
            for w, c in zip(vocab["term"].to_pylist(), vocab["cnt"].to_pylist())
        ]
        for rank in range(n_merges):
            pairs: dict = {}
            for sym, c in words:
                for a, b in zip(sym, sym[1:]):
                    pairs[(a, b)] = pairs.get((a, b), 0) + c
            if not pairs:
                break
            (left, right), cnt = min(
                pairs.items(), key=lambda kv: (-kv[1], kv[0])
            )
            out_rank.append(rank)
            out_left.append(left)
            out_right.append(right)
            out_count.append(cnt)
            merged = left + right
            for sym, _ in words:
                i = 0
                while i < len(sym) - 1:
                    if sym[i] == left and sym[i + 1] == right:
                        sym[i : i + 2] = [merged]
                    else:
                        i += 1
    return pa.table(
        {
            "merge_rank": pa.array(out_rank, pa.int64()),
            "left": pa.array(out_left, pa.string()),
            "right": pa.array(out_right, pa.string()),
            "pair_count": pa.array(out_count, pa.int64()),
        }
    )


# -------------------------------------------------------------------------
# bpe_token_count — apply the TRAINED merges (train_bpe_merges above) and
# count tokens per document: the train -> apply composition of a real
# tokenizer pipeline. The merge table is learned once (one vocab
# exchange), broadcast in the task closure, and applied per batch over
# the batch's UNIQUE words only (Zipf: unique words << tokens), with a
# per-worker word->count cache that persists across batches
# (instance_stage semantics — state deserialized once per worker
# process). Per-doc totals are a vectorized index_in lookup + reduceat
# over the list offsets; the only Python loop touches cache-miss words.
# Rows-only (the merge ranks come from an iterative trainer — no SQL
# oracle); pinned by a planted hand-applied-merges test.
# -------------------------------------------------------------------------


class _BpeCounter:
    def __init__(self, merges: list[tuple[str, str]]):
        self.rank = {p: i for i, p in enumerate(merges)}
        self.cache: dict = {}

    def _count(self, word: str) -> int:
        hit = self.cache.get(word)
        if hit is not None:
            return hit
        sym = list(word)
        while len(sym) > 1:
            best_rank, best_pair = None, None
            for p in zip(sym, sym[1:]):
                r = self.rank.get(p)
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_pair = r, p
            if best_pair is None:
                break
            a, b = best_pair
            merged = a + b
            i = 0
            while i < len(sym) - 1:
                if sym[i] == a and sym[i + 1] == b:
                    sym[i : i + 2] = [merged]
                else:
                    i += 1
        n = len(sym)
        self.cache[word] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(words).combine_chunks()
        offsets = np.zeros(batch.num_rows + 1, dtype=np.int64)
        np.cumsum(pc.list_value_length(words).to_numpy(zero_copy_only=False), out=offsets[1:])
        uniq = pc.unique(flat)
        per_uniq = np.array(
            [0 if w == "" else self._count(w) for w in uniq.to_pylist()],
            dtype=np.int64,
        )
        idx = pc.index_in(flat, uniq).to_numpy(zero_copy_only=False)
        per_word = per_uniq[idx]
        totals = np.add.reduceat(
            np.concatenate([per_word, [0]]), np.minimum(offsets[:-1], len(per_word))
        )
        # reduceat quirk: empty trailing slices repeat the last element —
        # zero out docs with no words
        empty = offsets[:-1] == offsets[1:]
        totals = np.where(empty, 0, totals[: batch.num_rows])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens_bpe": pa.array(totals, pa.int64()),
            }
        )


def bpe_token_count(sf_dir: str, n_merges: int = 20) -> rd.Dataset:
    from .agg import instance_stage

    merges_t = train_bpe_merges(sf_dir, n_merges=n_merges)
    merges = list(zip(merges_t["left"].to_pylist(), merges_t["right"].to_pylist()))
    ds = _read_docs(sf_dir, ["doc_id", "text"])
    return instance_stage(ds, _BpeCounter, merges=merges)


# -------------------------------------------------------------------------
# validate_docs — DATA-QUALITY VALIDATION (expectations-style): one row
# per rule with its violation count over the documents table — the
# ingest-gate check a production pipeline runs before curation. Three
# row-local rules (null text, n_chars != length(text), lang outside the
# allowed set) are vectorized per-batch partial sums (ONE tiny row per
# batch crosses the wire); doc_id uniqueness needs a keyed exchange and
# uses the standard two-phase count (per-batch arrow group_by partials,
# bucketed combine, count of keys with total > 1 — key cardinality never
# lands on the driver).
# -------------------------------------------------------------------------

_ALLOWED_LANGS = ("de", "en", "es", "fr", "zh")


def validate_docs(sf_dir: str) -> pa.Table:
    import numpy as np

    from .agg import collect, grouped_sum, partial_group_agg

    ds = _read_docs(sf_dir, ["doc_id", "text", "lang", "n_chars"])

    def row_rules(batch: pa.Table) -> pa.Table:
        null_text = pc.sum(
            pc.cast(pc.is_null(batch["text"]), pa.int64())
        ).as_py() or 0
        bad_n = pc.sum(
            pc.cast(
                pc.not_equal(
                    pc.cast(batch["n_chars"], pa.int64()),
                    pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
                ),
                pa.int64(),
            )
        ).as_py() or 0
        unknown = pc.sum(
            pc.cast(
                pc.invert(pc.is_in(batch["lang"], value_set=pa.array(_ALLOWED_LANGS))),
                pa.int64(),
            )
        ).as_py() or 0
        return pa.table(
            {
                "rule": pa.array(
                    ["null_text", "bad_n_chars", "unknown_lang"], pa.string()
                ),
                "violations": pa.array([null_text, bad_n, unknown], pa.int64()),
            }
        )

    rules = collect(
        grouped_sum(
            ds.map_batches(row_rules, batch_format="pyarrow"),
            keys=["rule"],
            partial=lambda b: b,
            sum_cols=["violations"],
        )
    )
    if rules is None:  # empty documents table: zero violations everywhere
        rules = pa.table(
            {
                "rule": pa.array([], pa.string()),
                "violations": pa.array([], pa.int64()),
            }
        )

    def id_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "doc_id": batch["doc_id"],
                "cnt": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        )
        return partial_group_agg(t, keys=["doc_id"], aggs=[("cnt", "sum")])

    def dup_count(group: pa.Table) -> pa.Table:
        g = group.select(["doc_id", "cnt"]).group_by(["doc_id"]).aggregate(
            [("cnt", "sum")]
        )
        n_dup = int(
            pc.sum(pc.cast(pc.greater(g["cnt_sum"], 1), pa.int64())).as_py() or 0
        )
        return pa.table(
            {
                "rule": pa.array(["dup_doc_id"], pa.string()),
                "violations": pa.array([n_dup], pa.int64()),
            }
        )

    from .agg import keyed_exchange

    dups = collect(
        keyed_exchange(
            ds.map_batches(id_partial, batch_format="pyarrow"),
            ["doc_id"],
            dup_count,
            _doc_parts(sf_dir),
        )
    )
    total_dups = int(pc.sum(dups["violations"]).as_py() or 0) if dups is not None else 0
    out = pa.table(
        {
            "rule": pa.array(
                ["null_text", "bad_n_chars", "unknown_lang", "dup_doc_id"],
                pa.string(),
            ),
            "violations": pa.array(
                [
                    *(
                        dict(
                            zip(
                                rules["rule"].to_pylist(),
                                rules["violations"].to_pylist(),
                            )
                        ).get(r, 0)
                        for r in ["null_text", "bad_n_chars", "unknown_lang"]
                    ),
                    total_dups,
                ],
                pa.int64(),
            ),
        }
    )
    return out

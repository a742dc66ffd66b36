"""The correctness oracle: every check here fails the run when it fails.

* ``/query``: every returned POI lies in the request's range, at most
  ``k`` are returned, and each vetted query's entries (ids, names,
  scores, reasons, order) equal in-process ``SemaSK.query`` on the same
  snapshot.
* ``/search``: every hit honours the filter, ``min(k, matches)`` hits
  come back, and each score is within ``SCORE_TOL`` of an independent
  NumPy dot product for the returned id.
* ``ingest_mixed``: the final point count equals the initial count plus
  the acknowledged points, and an exact search on each acknowledged
  point's own vector finds that point.

Quality figures (F1@10, recall@10) are measured here too but never fail
the run.
"""

from __future__ import annotations

import json

import numpy as np
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint

from perfbench.inputs import K, RANGE_KM, box_mask

SCORE_TOL = 1e-5


class Oracle:
    """Collects failures; ``ok`` is the run's ``correct`` flag."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more ({message})"

    def require(self, condition: bool, message: str) -> bool:
        self.checked += 1
        if not condition:
            self.fail(message)
        return condition


def failure(record) -> str:
    """Oracle message for a request that did not answer 2xx."""
    return f"{record.rid}: HTTP {record.status} {record.body[:160]!r}"


def parse(record):
    try:
        return json.loads(record.body)
    except ValueError:
        return None


def f1_at_k(retrieved: list[str], relevant: set[str], k: int = K) -> float:
    """Paper F1@k: precision over what was returned, recall over truth."""
    top = retrieved[:k]
    if not top or not relevant:
        return 0.0
    hits = sum(1 for item in top if item in relevant)
    if hits == 0:
        return 0.0
    precision, recall = hits / len(top), hits / len(relevant)
    return 2 * precision * recall / (precision + recall)


# ----------------------------------------------------------------------
# /query
# ----------------------------------------------------------------------


class QueryChecker:
    """Checks ``/query`` answers against the dataset and in-process runs."""

    def __init__(self, inputs, oracle: Oracle) -> None:
        self._where = {
            r.business_id: (r.latitude, r.longitude) for r in inputs.dataset
        }
        self._inputs = inputs
        self._oracle = oracle

    def response(self, record) -> dict | None:
        """Shape and range checks shared by every ``/query`` answer."""
        oracle = self._oracle
        if not oracle.require(record.ok, failure(record)):
            return None
        body = parse(record)
        if not oracle.require(isinstance(body, dict) and "entries" in body,
                              f"{record.rid}: malformed /query body"):
            return None
        entries = body["entries"]
        oracle.require(len(entries) <= K,
                       f"{record.rid}: {len(entries)} entries > k={K}")
        box = BoundingBox.around(
            GeoPoint(record.meta["lat"], record.meta["lon"]), RANGE_KM, RANGE_KM)
        for entry in entries:
            where = self._where.get(entry["business_id"])
            oracle.require(
                where is not None and box.contains_coords(*where),
                f"{record.rid}: {entry['business_id']} outside the range",
            )
        return body

    def vetted(self, records) -> float:
        """Exactness against in-process SemaSK; returns mean F1@10."""
        scores = []
        answered = set()
        for record in records:
            body = self.response(record)
            if body is None:
                continue
            index = record.meta["index"]
            answered.add(index)
            self._oracle.require(
                body["entries"] == self._inputs.expected[index],
                f"{record.rid}: vetted query {index} differs from "
                "in-process SemaSK.query",
            )
            scores.append(f1_at_k(
                [e["business_id"] for e in body["entries"]],
                set(record.meta["answers"]),
            ))
        self._oracle.require(
            len(answered) == len(self._inputs.vetted),
            f"only {len(answered)}/{len(self._inputs.vetted)} vetted "
            "queries answered",
        )
        return float(np.mean(scores)) if scores else 0.0


# ----------------------------------------------------------------------
# /search
# ----------------------------------------------------------------------


class SearchChecker:
    """Brute-force reference over every vector the run generated."""

    def __init__(self, inputs, oracle: Oracle) -> None:
        self._n_initial = len(inputs.ids)
        ids = inputs.ids + inputs.new_ids
        self._row = {point_id: row for row, point_id in enumerate(ids)}
        self._ids = ids
        self._vectors = np.vstack(
            [inputs.vectors, inputs.new_vectors]
        ).astype(np.float64)
        self._lat = np.concatenate([inputs.lat, inputs.new_lat])
        self._lon = np.concatenate([inputs.lon, inputs.new_lon])
        self._oracle = oracle
        self.short_results = 0

    def truth(self, search: dict, live: np.ndarray) -> tuple[int, list[str]]:
        """Matching count and exact top-k ids over the ``live`` rows."""
        mask = live.copy()
        if search["box"] is not None:
            mask &= box_mask(search["box"], self._lat, self._lon)
        rows = np.flatnonzero(mask)
        scores = (self._vectors @ search["vector"].astype(np.float64))[rows]
        if rows.size > K:
            best = np.argpartition(-scores, K - 1)[:K]
        else:
            best = np.arange(rows.size)
        top = rows[best[np.argsort(-scores[best], kind="stable")]]
        return rows.size, [self._ids[row] for row in top]

    def initial_rows(self) -> np.ndarray:
        live = np.zeros(len(self._ids), dtype=bool)
        live[: self._n_initial] = True
        return live

    def rows_of(self, point_ids) -> np.ndarray:
        live = self.initial_rows()
        live[[self._row[i] for i in point_ids]] = True
        return live

    def response(self, record, live: np.ndarray, exact_count: bool) -> float | None:
        """Check one ``/search`` answer; returns its recall@10.

        ``exact_count`` requires exactly ``min(k, matches)`` hits; under
        concurrent inserts, ``live`` holds the rows known to be present
        and the answer may only hold more.
        """
        oracle = self._oracle
        if not oracle.require(record.ok, failure(record)):
            return None
        body = parse(record)
        if not oracle.require(isinstance(body, dict) and "hits" in body,
                              f"{record.rid}: malformed /search body"):
            return None
        search = record.meta
        hits = body["hits"]
        matches, top = self.truth(search, live)
        want = min(K, matches)
        if len(hits) < want:
            self.short_results += 1
        oracle.require(
            len(hits) == want if exact_count else want <= len(hits) <= K,
            f"{record.rid}: {len(hits)} hits, expected {want} "
            f"({matches} points match)",
        )
        ids = [hit["id"] for hit in hits]
        oracle.require(len(set(ids)) == len(ids), f"{record.rid}: duplicate ids")
        query = search["vector"].astype(np.float64)
        for hit in hits:
            row = self._row.get(hit["id"])
            if not oracle.require(row is not None,
                                  f"{record.rid}: unknown id {hit['id']}"):
                continue
            if search["box"] is not None:
                oracle.require(
                    bool(box_mask(search["box"], self._lat[row], self._lon[row])),
                    f"{record.rid}: {hit['id']} outside the filter box",
                )
            reference = float(self._vectors[row] @ query)
            oracle.require(
                abs(hit["score"] - reference) <= SCORE_TOL,
                f"{record.rid}: {hit['id']} score {hit['score']} != "
                f"{reference}",
            )
        if not top:
            return 1.0
        return len(set(ids) & set(top)) / len(top)

    def self_lookup(self, record) -> None:
        """An exact k=1 search on a point's own vector must find it."""
        if not self._oracle.require(record.ok, failure(record)):
            return
        body = parse(record) or {}
        hits = body.get("hits") or [{}]
        self._oracle.require(
            hits[0].get("id") == record.meta["id"],
            f"acked point {record.meta['id']} not found by exact search "
            f"(got {hits[0].get('id')})",
        )
